"""Static timing analysis over mapped netlists.

Computes per-net arrival times by levelized traversal and reports the
critical path and the resulting maximum clock frequency, mirroring what
the paper reads out of Design Compiler for each core.

Printed transistor-resistor logic is extremely asymmetric -- the
resistive pull-up makes rising edges ~7x slower than falling edges --
so a correct STA must track *polarity*: an inverting gate's slow rising
output is caused by its input's falling transition and vice versa.
Arrival times are therefore propagated as (rise, fall) pairs:

* inverting cells (INV/NAND/NOR): ``rise(out) = max fall(in) + t_rise``
  and ``fall(out) = max rise(in) + t_fall``;
* non-inverting cells (AND/OR/TSBUF): same-polarity propagation;
* non-monotone cells (XOR/XNOR): either input transition can cause
  either output transition -- worst of both;
* sequential outputs launch at their clock-to-Q rise/fall delays.

A path endpoint's arrival is the max of its rise and fall times.  The
clock period is the worst endpoint arrival; ``fmax = 1 / period``.  A
``pessimistic`` mode (worst delay on every edge) is kept for ablation.

Each cell's delay is derated through the shared net-load model
(:mod:`repro.netlist.load`): ``1 + fanout_slope * (fanout - 1)`` in
the wire-blind default -- printed gates drive large electrolyte gate
capacitances, so fanout matters -- and, when a placement-derived
:class:`~repro.netlist.load.RCAnnotation` is supplied via ``rc=``,
wire capacitance joins the same derate as extra gate-equivalent loads
while the distributed wire delay (``R*C/2``) adds to every transition
through the net.  ``rc=None`` is the explicit wire-blind mode and is
bit-exact with the pre-placement analysis.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from repro.errors import TimingError
from repro.netlist.core import CONST0, CONST1, Instance, Netlist, SEQUENTIAL_CELLS
from repro.netlist.load import (
    DEFAULT_FANOUT_SLOPE,
    RCAnnotation,
    fanout_counts,
    fanout_derate,
    net_derate,
)
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span
from repro.pdk.cells import CellLibrary

_STA_REPORTS = _obs_counter("sta.reports")

#: Cells whose output transition is caused by the opposite input edge.
INVERTING_CELLS = frozenset({"INVX1", "NAND2X1", "NOR2X1"})

#: Cells where either input edge can cause either output edge.
NON_MONOTONE_CELLS = frozenset({"XOR2X1", "XNOR2X1"})


@dataclass(frozen=True)
class TimingReport:
    """Result of static timing analysis.

    Attributes:
        critical_path_delay: Worst endpoint arrival in seconds.
        fmax: Maximum clock frequency in hertz.
        critical_path: Cell names along the worst path, source first.
        levels: Logic depth (cell count) of the worst path.
    """

    critical_path_delay: float
    fmax: float
    critical_path: tuple[str, ...]
    levels: int


# Shared with power: one sink count, one load model.
_fanout_counts = fanout_counts


def _topological_order(netlist: Netlist) -> list[Instance]:
    """Topologically sort combinational instances.

    Sequential outputs, ports, and constants are sources.  A cycle
    through combinational cells raises :class:`TimingError`.

    Sorted once per netlist and memoized on it, like
    :func:`repro.exec.cache.structural_hash` (the structure is
    immutable once elaborated; the memo is also keyed by the instance
    count, so a netlist still growing sorts again).  Every call returns
    a fresh list, so no caller can corrupt the memo.
    """
    count = len(netlist.instances)
    memo = getattr(netlist, "_topological_memo", None)
    if memo is None or memo[0] != count:
        order = tuple(_sort_combinational(netlist))
        memo = netlist._topological_memo = (count, order)
    return list(memo[1])


def _sort_combinational(netlist: Netlist) -> list[Instance]:
    """Kahn's algorithm behind :func:`_topological_order` (uncached)."""
    combinational = [i for i in netlist.instances if i.cell not in SEQUENTIAL_CELLS]
    consumers: dict[int, list[Instance]] = defaultdict(list)
    pending: dict[int, int] = {}
    sources = {CONST0, CONST1}
    for bus in netlist.inputs.values():
        sources.update(bus.nets)
    for instance in netlist.instances:
        if instance.cell in SEQUENTIAL_CELLS:
            sources.add(instance.output)
    for instance in combinational:
        needed = 0
        for net in instance.inputs:
            if net not in sources:
                consumers[net].append(instance)
                needed += 1
        pending[id(instance)] = needed

    ready = deque(i for i in combinational if pending[id(i)] == 0)
    ordered: list[Instance] = []
    while ready:
        instance = ready.popleft()
        ordered.append(instance)
        for consumer in consumers.get(instance.output, ()):
            pending[id(consumer)] -= 1
            if pending[id(consumer)] == 0:
                ready.append(consumer)
    if len(ordered) != len(combinational):
        raise TimingError(
            f"combinational loop: {len(combinational) - len(ordered)} cells unordered"
        )
    return ordered


def topological_order(netlist: Netlist) -> list[Instance]:
    """Public alias of the combinational topological sort.

    Shared by the polarity-aware STA here, the numpy kernel codegen
    (:mod:`repro.netlist.nsim`), and the Monte-Carlo variation models
    (:mod:`repro.pdk.variation`, :mod:`repro.mc.timing`) -- one order,
    one cycle check.
    """
    return _topological_order(netlist)


@dataclass
class _Arrival:
    """Rise/fall arrival pair plus the path reaching the later one."""

    rise: float
    fall: float
    rise_path: tuple[str, ...]
    fall_path: tuple[str, ...]

    @property
    def worst(self) -> float:
        return max(self.rise, self.fall)

    @property
    def worst_path(self) -> tuple[str, ...]:
        return self.rise_path if self.rise >= self.fall else self.fall_path


def timing_report(
    netlist: Netlist,
    library: CellLibrary,
    input_arrivals: dict[str, float] | None = None,
    fanout_slope: float = DEFAULT_FANOUT_SLOPE,
    pessimistic: bool = False,
    rc: RCAnnotation | None = None,
) -> TimingReport:
    """Run STA on ``netlist`` with cells timed from ``library``.

    Args:
        netlist: The mapped design.
        library: Technology supplying per-cell delays.
        input_arrivals: Optional arrival time (seconds) per primary
            input bus name; unlisted buses arrive at 0.
        fanout_slope: Per-extra-load delay derate.
        pessimistic: Use the worst of rise/fall on every edge instead
            of polarity-aware propagation (ablation mode).
        rc: Optional placement-derived wire parasitics
            (:func:`repro.place.rc_annotation`).  ``None`` is the
            wire-blind estimate, bit-exact with the pre-placement
            analysis.

    Returns:
        A :class:`TimingReport`; ``fmax`` is infinite for a netlist
        with no timed paths (no cells).
    """
    with _obs_span("sta", design=netlist.name, technology=library.name) as sp:
        report = _timing_report(
            netlist, library, input_arrivals, fanout_slope, pessimistic, rc
        )
        _STA_REPORTS.inc()
        sp.note(fmax=report.fmax, levels=report.levels)
    return report


def _timing_report(
    netlist: Netlist,
    library: CellLibrary,
    input_arrivals: dict[str, float] | None,
    fanout_slope: float,
    pessimistic: bool,
    rc: RCAnnotation | None = None,
) -> TimingReport:
    input_arrivals = input_arrivals or {}
    fanouts = _fanout_counts(netlist)
    input_cap = library.input_capacitance

    def delays(instance: Instance) -> tuple[float, float]:
        cell = library.cell(instance.cell)
        fanout = fanouts.get(instance.output, 1)
        if rc is None:
            derate = fanout_derate(fanout, fanout_slope)
            rise = cell.rise_delay * derate
            fall = cell.fall_delay * derate
        else:
            derate = net_derate(
                fanout, rc.capacitance(instance.output), input_cap, fanout_slope
            )
            wire = rc.wire_delay(instance.output)
            rise = cell.rise_delay * derate + wire
            fall = cell.fall_delay * derate + wire
        if pessimistic:
            worst = max(rise, fall)
            return worst, worst
        return rise, fall

    arrival: dict[int, _Arrival] = {
        CONST0: _Arrival(0.0, 0.0, (), ()),
        CONST1: _Arrival(0.0, 0.0, (), ()),
    }
    for name, bus in netlist.inputs.items():
        start = input_arrivals.get(name, 0.0)
        for net in bus:
            # Port-driven nets have no driving cell to derate; their
            # routed trace still delays every sink.
            at = start if rc is None else start + rc.wire_delay(net)
            arrival[net] = _Arrival(at, at, (), ())

    # Sequential outputs launch at clock-to-Q.
    for instance in netlist.instances:
        if instance.cell in SEQUENTIAL_CELLS:
            rise, fall = delays(instance)
            arrival[instance.output] = _Arrival(
                rise, fall, (instance.cell,), (instance.cell,)
            )

    zero = _Arrival(0.0, 0.0, (), ())
    for instance in _topological_order(netlist):
        rise_delay, fall_delay = delays(instance)
        ins = [arrival.get(net, zero) for net in instance.inputs]

        def latest(getter, path_getter):
            best_time, best_path = 0.0, ()
            for entry in ins:
                time = getter(entry)
                if time >= best_time:
                    best_time, best_path = time, path_getter(entry)
            return best_time, best_path

        if instance.cell in NON_MONOTONE_CELLS or pessimistic:
            in_time, in_path = latest(lambda e: e.worst, lambda e: e.worst_path)
            out = _Arrival(
                in_time + rise_delay,
                in_time + fall_delay,
                in_path + (instance.cell,),
                in_path + (instance.cell,),
            )
        elif instance.cell in INVERTING_CELLS:
            fall_in, fall_in_path = latest(lambda e: e.fall, lambda e: e.fall_path)
            rise_in, rise_in_path = latest(lambda e: e.rise, lambda e: e.rise_path)
            out = _Arrival(
                fall_in + rise_delay,
                rise_in + fall_delay,
                fall_in_path + (instance.cell,),
                rise_in_path + (instance.cell,),
            )
        else:  # non-inverting
            rise_in, rise_in_path = latest(lambda e: e.rise, lambda e: e.rise_path)
            fall_in, fall_in_path = latest(lambda e: e.fall, lambda e: e.fall_path)
            out = _Arrival(
                rise_in + rise_delay,
                fall_in + fall_delay,
                rise_in_path + (instance.cell,),
                fall_in_path + (instance.cell,),
            )
        arrival[instance.output] = out

    # Path endpoints: D pins of sequential cells and primary outputs.
    worst_delay = 0.0
    worst_path: tuple[str, ...] = ()

    def consider(net: int) -> None:
        nonlocal worst_delay, worst_path
        entry = arrival.get(net)
        if entry is not None and entry.worst > worst_delay:
            worst_delay = entry.worst
            worst_path = entry.worst_path

    for instance in netlist.instances:
        if instance.cell in SEQUENTIAL_CELLS:
            for net in instance.inputs:
                consider(net)
    for bus in netlist.outputs.values():
        for net in bus:
            consider(net)

    fmax = 1.0 / worst_delay if worst_delay > 0 else float("inf")
    return TimingReport(
        critical_path_delay=worst_delay,
        fmax=fmax,
        critical_path=worst_path,
        levels=len(worst_path),
    )
