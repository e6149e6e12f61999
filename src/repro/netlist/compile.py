"""Compiled gate-level simulation: netlist-to-Python code generation.

The interpreted :class:`repro.netlist.sim.CycleSimulator` walks the
levelized netlist one instance at a time, paying a Python function
call per gate per settle.  This module removes that overhead
Verilator-style: the netlist is translated *once* into straight-line
Python source (one bitwise expression statement per gate, operating on
local variables) which is ``compile()``d and ``exec``'d into ordinary
functions.  Evaluating a settle is then a single call into a code
object with no per-gate interpreter dispatch.

The generated module defines, per netlist:

``settle(V, M)``
    Plain combinational settle over the value table ``V`` (a flat list
    indexed by net id).  ``M`` is the *lane mask*: ``1`` for ordinary
    scalar simulation, ``(1 << lanes) - 1`` for bit-parallel
    simulation.  Cell inversions are emitted as ``x ^ M`` so the same
    code object serves both modes.

``settle_forced(V, M, A, O)``
    Settle with per-net force masks: every value is passed through
    ``(value & A[net]) | O[net]``.  With ``A[net] = M`` and
    ``O[net] = 0`` this is the identity; zeroing a lane bit of
    ``A[net]`` and setting it in ``O[net]`` forces that lane of that
    net -- the classic bit-parallel stuck-at fault injection.  One
    compiled function therefore serves *every* fault site (no
    per-fault recompilation).

``CONES``
    Cone kernels for the memory phases of a core cycle: a dict from an
    output selection (``("pc",)``, ``("addr_a", "addr_b")``, see
    :data:`repro.netlist.lanes.CONE_OUTPUTS`) to a plain and a forced
    settle over just that selection's fan-in cone.  A core cycle
    settles the ``pc`` cone before the fetch, the address cone before
    the data-memory read, and the whole netlist once before the edge
    -- instead of three full settles.

``tick(V, P, T, resetting)``
    Scalar clock edge with exact per-instance toggle accounting
    (``P`` = previous settled value per instance index, ``T`` = toggle
    counters), matching the interpreted simulator bit for bit.

``tick_lanes(V, M)``
    Bit-parallel clock edge.  Asynchronous reset is applied per lane
    (a lane whose ``rst_n`` bit is low captures 0).  Toggle counts are
    not maintained in lane mode -- bit-parallel simulation exists for
    fault campaigns and random-vector sweeps, which do not read them.

:func:`make_capture` additionally generates standalone straight-line
probe-capture functions (``capture(V) -> tuple``) for the waveform
layer (:mod:`repro.netlist.probe`), reading an arbitrary net selection
without a per-net Python loop.

The generated code caches on the netlist object itself
(:func:`compiled_netlist`), so repeated simulator constructions --
e.g. one :class:`~repro.netlist.faults.FaultySimulator` per fault site
-- compile exactly once.
"""

from __future__ import annotations

import functools
import importlib.util
import marshal
import re
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import SimulationError, UnsupportedInLaneMode
from repro.exec.cache import load_artifact, source_digest, store_artifact, structural_hash
from repro.netlist.core import CONST1, Instance, Netlist, SEQUENTIAL_CELLS
from repro.netlist.lanes import LanePlan, memory_phase_cones
from repro.netlist.sta import _topological_order
from repro.obs.metrics import counter as _obs_counter
from repro.obs.runtime import STATE as _OBS
from repro.obs.trace import span as _obs_span

# Per-netlist code-object cache telemetry (see docs/OBSERVABILITY.md).
_CACHE_HITS = _obs_counter("compile.cache_hits")
_CACHE_MISSES = _obs_counter("compile.cache_misses")
_DISK_HITS = _obs_counter("compile.disk_hits")
_LANE_TICKS = _obs_counter("sim.batched_ticks")
_LANE_CYCLES = _obs_counter("sim.lane_cycles_simulated")

#: Artifact-cache bucket for compiled simulation code.
_ARTIFACT_KIND = "compiled-sim"

#: Expression template per combinational cell; ``M`` is the lane mask
#: standing in for logical 1, so inverting cells work for any lane count.
_CELL_EXPR = {
    "INVX1": "v{a} ^ M",
    "NAND2X1": "(v{a} & v{b}) ^ M",
    "NOR2X1": "(v{a} | v{b}) ^ M",
    "AND2X1": "v{a} & v{b}",
    "OR2X1": "v{a} | v{b}",
    "XOR2X1": "v{a} ^ v{b}",
    "XNOR2X1": "(v{a} ^ v{b}) ^ M",
    "TSBUFX1": "v{a} & v{b}",
}


@dataclass
class CompiledNetlist:
    """Code objects generated for one netlist (see module docstring).

    Attributes:
        settle: Plain straight-line settle ``(V, M)``.
        settle_forced: Settle with force masks ``(V, M, A, O)``.
        cones: Output selection -> ``(plain, forced)`` settles over
            that selection's fan-in cone only.
        tick: Scalar clock edge with toggle accounting
            ``(V, P, T, resetting)``.
        tick_lanes: Bit-parallel clock edge ``(V, M)``.
        source: The generated Python source (kept for debugging).
        code: The module's code objects, one per top-level statement
            (see :func:`_compile_source`; marshaled into the on-disk
            artifact cache).
    """

    settle: Callable[[list, int], None]
    settle_forced: Callable[[list, int, list, list], None]
    cones: dict[tuple[str, ...], tuple[Callable, Callable]]
    tick: Callable[[list, list, list, bool], None]
    tick_lanes: Callable[[list, int], None]
    source: str = field(repr=False, default="")
    code: tuple = field(repr=False, default=())


def _expression(instance: Instance) -> str:
    template = _CELL_EXPR.get(instance.cell)
    if template is None:
        raise SimulationError(f"cannot compile cell {instance.cell!r}")
    a = instance.inputs[0]
    b = instance.inputs[1] if len(instance.inputs) > 1 else ""
    return template.format(a=a, b=b)


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Translate ``netlist`` into compiled straight-line simulation code.

    The netlist must be simulatable (validated, no latches); net ids
    index the flat value table directly, so the caller's value list
    must have ``netlist.net_count`` entries.
    """
    netlist.validate()
    for instance in netlist.instances:
        if instance.cell == "LATCHX1":
            raise SimulationError("level-sensitive latches are not simulatable")
    source = _generate_source(netlist)
    return _bind(_compile_source(source, netlist.name), source)


def _compile_source(source: str, name: str) -> tuple:
    """Compile the generated module one top-level statement at a time.

    The compiler holds the whole syntax tree of what it compiles, so
    function by function the peak is the largest function's tree (the
    scalar ``tick``), less than half the whole module's on the 32-bit
    cores.
    """
    return tuple(
        compile(chunk, f"<compiled:{name}>", "exec")
        for chunk in re.split(r"\n(?=\S)", source)
    )


def _settle_source(
    name: str, instances: Sequence[Instance], reads: Sequence[int] = ()
) -> list[str]:
    """Emit a plain and a forced settle over ``instances`` (topo order).

    ``reads`` lists extra nets the caller reads after the settle; any
    of them not driven by ``instances`` are sources, clamped by the
    forced variant like every other source.
    """
    outputs = {inst.output for inst in instances}
    sources = sorted(
        ({net for inst in instances for net in inst.inputs} | set(reads))
        - outputs
    )
    lines = [f"def {name}(V, M):"]
    for net in sources:
        lines.append(f"    v{net} = V[{net}]")
    for inst in instances:
        lines.append(f"    v{inst.output} = {_expression(inst)}")
    for inst in instances:
        lines.append(f"    V[{inst.output}] = v{inst.output}")
    lines.append("    return")

    # Sources are forced at load (covering faults on flop outputs and
    # primary inputs) and written back so direct reads observe the
    # forced value, exactly like the interpreted FaultySimulator.
    lines.append(f"def {name}_forced(V, M, A, O):")
    for net in sources:
        lines.append(f"    v{net} = (V[{net}] & A[{net}]) | O[{net}]")
    for net in sources:
        lines.append(f"    V[{net}] = v{net}")
    for inst in instances:
        out = inst.output
        lines.append(f"    v{out} = (({_expression(inst)}) & A[{out}]) | O[{out}]")
    for inst in instances:
        lines.append(f"    V[{inst.output}] = v{inst.output}")
    lines.append("    return")
    return lines


def _generate_source(netlist: Netlist) -> str:
    """Emit the settle, cone-settle and tick functions as Python source."""
    order = _topological_order(netlist)
    position = {inst.output: n for n, inst in enumerate(netlist.instances)}
    flops = [i for i in netlist.instances if i.cell in SEQUENTIAL_CELLS]

    # -- settle(V, M), settle_forced(V, M, A, O) and one pair per cone ------
    lines = _settle_source("settle", order)
    cones = memory_phase_cones(netlist, order)
    for k, (instances, nets) in enumerate(cones.values()):
        lines.extend(_settle_source(f"cone_{k}", instances, nets))
    lines.append(
        "CONES = {"
        + "".join(
            f"{outputs!r}: (cone_{k}, cone_{k}_forced), "
            for k, outputs in enumerate(cones)
        )
        + "}"
    )

    # -- tick(V, P, T, resetting) ------------------------------------------
    # Identical semantics to the interpreted tick: combinational toggle
    # accounting against the previous cycle's settled value (P holds -1
    # before the first tick), then a simultaneous flop capture with
    # async reset and per-flop toggle counting.
    lines.append("def tick(V, P, T, resetting):")
    for inst in order:
        k = position[inst.output]
        lines.append(f"    p = P[{k}]")
        lines.append(f"    x = V[{inst.output}]")
        lines.append("    if p != x:")
        lines.append(f"        if p >= 0: T[{k}] += 1")
        lines.append(f"        P[{k}] = x")
    for j, flop in enumerate(flops):
        lines.append(f"    d{j} = V[{flop.inputs[0]}]")
    reset_flops = [j for j, f in enumerate(flops) if f.cell == "DFFNRX1"]
    if reset_flops:
        lines.append("    if resetting:")
        for j in reset_flops:
            lines.append(f"        d{j} = 0")
    for j, flop in enumerate(flops):
        k = position[flop.output]
        lines.append(f"    if V[{flop.output}] != d{j}:")
        lines.append(f"        T[{k}] += 1")
        lines.append(f"        V[{flop.output}] = d{j}")
    lines.append("    return")

    # -- tick_lanes(V, M) --------------------------------------------------
    # Per-lane asynchronous reset: a DFFNRX1 lane captures its D bit
    # ANDed with the (active-low) reset lane bit.
    reset_net = netlist.reset_n
    lines.append("def tick_lanes(V, M):")
    for j, flop in enumerate(flops):
        if flop.cell == "DFFNRX1" and reset_net is not None:
            lines.append(f"    d{j} = V[{flop.inputs[0]}] & V[{reset_net}]")
        else:
            lines.append(f"    d{j} = V[{flop.inputs[0]}]")
    for j, flop in enumerate(flops):
        lines.append(f"    V[{flop.output}] = d{j}")
    lines.append("    return")

    return "\n".join(lines)


def make_capture(netlist: Netlist, nets: Sequence[int]) -> Callable[[list], tuple]:
    """Generate a straight-line probe-capture function for ``nets``.

    Returns a compiled ``capture(V) -> tuple`` that reads the listed
    nets (in order) out of the flat value table -- the compiled
    backend's analogue of the interpreted simulator's per-net reads,
    used by :class:`repro.netlist.probe.WaveProbe` so waveform capture
    pays no per-net Python indexing loop.  Values are returned exactly
    as stored, so interpreted and compiled captures are bit-identical.
    """
    for net in nets:
        if not 0 <= net < netlist.net_count:
            raise SimulationError(f"cannot capture unknown net {net}")
    body = ", ".join(f"V[{net}]" for net in nets)
    source = f"def capture(V):\n    return ({body}{',' if nets else ''})"
    namespace: dict = {}
    exec(compile(source, f"<capture:{netlist.name}>", "exec"), namespace)
    return namespace["capture"]


def _bind(code: tuple, source: str) -> CompiledNetlist:
    """Exec generated code objects into a :class:`CompiledNetlist`."""
    namespace: dict = {}
    for statement in code:
        exec(statement, namespace)
    return CompiledNetlist(
        settle=namespace["settle"],
        settle_forced=namespace["settle_forced"],
        cones=namespace["CONES"],
        tick=namespace["tick"],
        tick_lanes=namespace["tick_lanes"],
        source=source,
        code=code,
    )


def _artifact_key(netlist: Netlist) -> str:
    """Disk-cache key: structure + the compiler/levelizer/cone source digest."""
    return structural_hash(netlist) + source_digest(
        "repro.netlist.compile", "repro.netlist.sta", "repro.netlist.lanes"
    )


def _from_artifact(netlist: Netlist, key: str) -> CompiledNetlist | None:
    """Rebuild compiled code from a cached artifact, or None on miss.

    The artifact carries the generated source plus the marshaled
    code objects tagged with the bytecode magic that produced them: a
    same-interpreter hit skips parsing entirely (``marshal`` load), a
    cross-version hit recompiles the cached source -- both skip
    codegen.
    """
    payload = load_artifact(_ARTIFACT_KIND, key)
    if not isinstance(payload, dict) or "source" not in payload:
        return None
    try:
        if payload.get("magic") == importlib.util.MAGIC_NUMBER:
            code = marshal.loads(payload["code"])
        else:
            code = _compile_source(payload["source"], netlist.name)
        return _bind(code, payload["source"])
    except (ValueError, TypeError, SyntaxError, KeyError, EOFError):
        return None  # treat any decode failure as a plain miss


def compiled_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compiled code for ``netlist``, generated once and cached on it.

    Three cache tiers, cheapest first: the attribute on the netlist
    object (one process, one netlist), then the on-disk artifact cache
    (:mod:`repro.exec.cache` -- fresh processes and parallel workers
    skip codegen for structures any prior run compiled), then real
    compilation, whose result is published back to disk.
    """
    cached = getattr(netlist, "_compiled_sim", None)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    _CACHE_MISSES.inc()
    key = _artifact_key(netlist)
    cached = _from_artifact(netlist, key)
    if cached is not None:
        _DISK_HITS.inc()
    else:
        with _obs_span("compile", design=netlist.name):
            cached = compile_netlist(netlist)
        store_artifact(
            _ARTIFACT_KIND,
            key,
            {
                "magic": importlib.util.MAGIC_NUMBER,
                "code": marshal.dumps(cached.code),
                "source": cached.source,
            },
        )
    netlist._compiled_sim = cached
    return cached


#: Plans of up to this many lanes keep each net's lane word within one
#: byte, so their bus ports transpose by word arithmetic
#: (:func:`_word_ports`); wider plans transpose through binary strings.
_WORD_LANES = 8

#: Bytes per lane of a word-port transpose, indexed by bus width
#: (0..64 bits).
_WORD_BYTES = (1,) * 9 + (2,) * 8 + (4,) * 16 + (8,) * 32

#: Masks of the three bit-exchange steps of an 8x8 bit-matrix
#: transpose (Hacker's Delight ``transpose8``), repeated once per
#: 64-bit block, keyed by block count.
_TRANSPOSE_MASKS = {
    s: tuple(
        sum(mask << (64 * block) for block in range(s))
        for mask in (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0)
    )
    for s in (1, 2, 4, 8)
}


def _transpose8(x: int, s: int) -> int:
    """``x`` with each of its ``s`` 8x8 bit blocks transposed.

    Block ``j`` is bits ``64j .. 64j + 63``, read as eight rows of one
    byte each; bit ``b`` of row ``r`` moves to bit ``r`` of row ``b``.
    """
    m1, m2, m3 = _TRANSPOSE_MASKS[s]
    t = (x ^ (x >> 7)) & m1
    x ^= t ^ (t << 7)
    t = (x ^ (x >> 14)) & m2
    x ^= t ^ (t << 14)
    t = (x ^ (x >> 28)) & m3
    return x ^ t ^ (t << 28)


@functools.lru_cache(maxsize=None)
def _word_ports(lanes: int) -> dict[int, tuple]:
    """Word-port tables of a ``lanes``-lane plan (``lanes`` <= 8).

    Maps ``s`` bytes per lane to ``(pack, unpack, spread)``: ``pack``
    writes the lane values little-endian, ``s`` bytes each, padded with
    zero bytes to eight lanes; ``unpack`` reads ``lanes`` such values
    back; ``spread[w]`` moves bit ``l`` of a lane word ``w`` to bit
    ``8 * s * l``, the low bit of lane ``l``'s value.  Explicit
    little-endian formats keep both independent of the host's byte
    order.  The tables are shared by every simulator of that lane
    count and never written after this call.
    """
    ports = {}
    for s, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
        spread = [0]
        for word in range(1, 1 << lanes):
            spread.append((spread[word >> 1] << (8 * s)) | (word & 1))
        ports[s] = (
            struct.Struct(f"<{lanes}{code}{(8 - lanes) * s}x").pack,
            struct.Struct(f"<{lanes}{code}").unpack,
            tuple(spread),
        )
    return ports


class BitParallelSimulator:
    """Bit-parallel gate-level simulation: N stimulus sets per pass.

    Each net's value is a Python bigint whose bit ``l`` is the net's
    logic value in *lane* ``l``; one compiled settle therefore
    evaluates ``lanes`` independent simulations at once.  Lanes may
    carry different primary-input stimulus and (optionally) different
    stuck-at faults, which is how fault campaigns batch dozens of
    faulty machines into one run.

    Toggle counts are not maintained (see module docstring); use the
    scalar compiled backend when measured-activity power is needed.

    Args:
        netlist: A validated, technology-mapped netlist.
        lanes: Number of parallel simulations (bigint width).
        faults: Optional per-lane stuck-at faults -- a sequence of
            ``lanes`` entries, each a
            :class:`~repro.netlist.faults.StuckAtFault` or ``None``
            for a healthy lane.  Ignored when ``plan`` is given.
        plan: Full :class:`~repro.netlist.lanes.LanePlan` (lanes +
            faults + memories); the same plan drives the numpy
            bit-slice backend, keeping the two bit-exact by
            construction.
    """

    def __init__(
        self,
        netlist: Netlist,
        lanes: int | None = None,
        faults: Sequence | None = None,
        plan: LanePlan | None = None,
    ) -> None:
        if plan is None:
            if faults is not None:
                plan = LanePlan.for_faults(faults)
                if lanes is not None and lanes != plan.lanes:
                    raise SimulationError(
                        f"{len(plan.faults)} faults for {lanes} lanes"
                    )
            else:
                plan = LanePlan(lanes if lanes is not None else 1)
        self.netlist = netlist
        self.plan = plan
        self.lanes = plan.lanes
        self.mask = (1 << plan.lanes) - 1
        self._compiled = compiled_netlist(netlist)
        self._values = [0] * netlist.net_count
        self._values[CONST1] = self.mask
        self._words = _word_ports(plan.lanes) if plan.lanes <= _WORD_LANES else None
        self.cycles = 0

        self._fault_nets: list[int] = []
        self._force_and: list[int] | None = None
        self._force_or: list[int] | None = None
        forced = plan.forced_bits(netlist)
        if forced:
            force_and = [self.mask] * netlist.net_count
            force_or = [0] * netlist.net_count
            for net, sites in forced.items():
                for lane, stuck_value in sites:
                    force_and[net] &= ~(1 << lane)
                    force_or[net] |= stuck_value << lane
                self._fault_nets.append(net)
            self._force_and = force_and
            self._force_or = force_or

    # -- I/O -------------------------------------------------------------

    def set_input(self, name: str, values) -> None:
        """Drive input ``name``: one int broadcast, or one per lane."""
        bus = self.netlist.inputs.get(name)
        if bus is None:
            raise SimulationError(f"no input bus named {name!r}")
        width = len(bus)
        limit = 1 << width
        V = self._values
        if isinstance(values, int):
            if values < 0 or values >= limit:
                raise SimulationError(
                    f"value {values} does not fit input {name!r} "
                    f"({width} bits)"
                )
            for i, net in enumerate(bus):
                V[net] = self.mask if (values >> i) & 1 else 0
            return
        if len(values) != self.lanes:
            raise SimulationError(
                f"{len(values)} values for {self.lanes} lanes on {name!r}"
            )
        if min(values) < 0 or max(values) >= limit:
            bad = next(v for v in values if v < 0 or v >= limit)
            raise SimulationError(
                f"value {bad} does not fit input {name!r} ({width} bits)"
            )
        if self._words is not None and width <= 64:
            # Pack the lane values into bytes, regroup them so 64-bit
            # block j holds byte j of every lane (lane l in byte l of
            # the block), and transpose each block's bits: byte i of the
            # result is then the lane word of bus bit i.
            s = _WORD_BYTES[width]
            packed = self._words[s][0](*values)
            if s > 1:
                packed = b"".join([packed[j::s] for j in range(s)])
            words = _transpose8(int.from_bytes(packed, "little"), s)
            for net, word in zip(bus.nets, words.to_bytes(8 * s, "little")):
                V[net] = word
            return
        # Transpose through one string of MSB-first lane values, highest
        # lane first: every ``width``-th character from offset ``k`` is
        # bus bit ``width - 1 - k`` of each lane, highest lane first --
        # the binary digits of that net's lane word.
        digits = f"0{width}b"
        flat = "".join([format(value, digits) for value in reversed(values)])
        for k, net in enumerate(reversed(bus.nets)):
            V[net] = int(flat[k::width], 2)

    def read_output(self, name: str) -> list[int]:
        """Read output bus ``name``: one integer per lane."""
        bus = self.netlist.outputs.get(name)
        if bus is None:
            raise SimulationError(f"no output bus named {name!r}")
        return self.read_nets(bus.nets)

    def read_nets(self, nets: Sequence[int]) -> list[int]:
        """Read an arbitrary LSB-first net collection, one int per lane."""
        if not nets:
            return [0] * self.lanes
        V = self._values
        if self._words is not None and len(nets) <= 64:
            # Spread each net's lane word so lane l's bit lands in lane
            # l's s-byte slot, shifted to the net's position, and decode
            # the slots as little-endian lane values.
            s = _WORD_BYTES[len(nets)]
            _, unpack, spread = self._words[s]
            packed = 0
            for i, net in enumerate(nets):
                packed |= spread[V[net]] << i
            return list(unpack(packed.to_bytes(self.lanes * s, "little")))
        # The inverse transpose of set_input: lane words of the nets,
        # highest net first; every ``lanes``-th character from offset
        # ``k`` spells lane ``lanes - 1 - k``'s value, MSB first.
        lanes = self.lanes
        flat = "".join([format(V[net], f"0{lanes}b") for net in reversed(nets)])
        out = [int(flat[k::lanes], 2) for k in range(lanes)]
        out.reverse()
        return out

    # -- phases ------------------------------------------------------------

    def settle(self, outputs: tuple[str, ...] | None = None) -> None:
        """Propagate all lanes through the combinational logic.

        With ``outputs`` (one of :data:`~repro.netlist.lanes.CONE_OUTPUTS`)
        only those buses' fan-in cone settles; they then read exactly
        as after a full settle.  Any other selection settles everything.
        """
        compiled = self._compiled
        cone = compiled.cones.get(outputs)
        if self._force_and is not None:
            kernel = cone[1] if cone else compiled.settle_forced
            kernel(self._values, self.mask, self._force_and, self._force_or)
        else:
            kernel = cone[0] if cone else compiled.settle
            kernel(self._values, self.mask)

    def tick(self) -> None:
        """Advance one clock edge in every lane (per-lane async reset)."""
        self._compiled.tick_lanes(self._values, self.mask)
        if self._force_and is not None:
            values = self._values
            for net in self._fault_nets:
                values[net] = (values[net] & self._force_and[net]) | self._force_or[net]
        self.cycles += 1
        if _OBS.enabled:
            _LANE_TICKS.value += 1
            _LANE_CYCLES.value += self.lanes

    def reset(self) -> None:
        """Apply one asynchronous reset pulse to all lanes."""
        if self.netlist.reset_n is None:
            raise SimulationError("netlist has no reset input")
        self.set_input("rst_n", 0)
        self.settle()
        self.tick()
        self.set_input("rst_n", 1)
        self.settle()

    # -- instrumentation ---------------------------------------------------

    def toggle_counts(self):
        """Lane runs keep no toggle state -- raise instead of lying."""
        raise UnsupportedInLaneMode("toggle_counts", "BitParallelSimulator")
