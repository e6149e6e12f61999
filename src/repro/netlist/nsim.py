"""Numpy bit-slice simulation: vectorized uint64 kernels, thousands of lanes.

The bigint :class:`~repro.netlist.compile.BitParallelSimulator` packs
dozens of independent runs into Python integers -- one Python-level
bitwise op per gate advances every lane, but the op itself still runs
through the interpreter's bigint machinery and cost grows with lane
count.  This module is the next step on the ROADMAP's "next 10x"
curve: the levelized gate array is compiled *once per netlist* into
straight-line numpy kernels over a dense ``uint64`` value matrix of
shape ``(nets, words)``, so each net's value is a row carrying
``64 * words`` lanes and a single vectorized ufunc call advances all
of them.

Each lane is an **independent run** -- a distinct stuck-at fault set,
initial data memory, or stimulus stream (see
:class:`~repro.netlist.lanes.LanePlan`), not a bit of one run.  A
fault campaign that needed ~60 bigint batches therefore collapses into
one kernel stream over a few dozen words.

Codegen (:func:`_generate_source`) lays the value matrix out for the
hot loop:

* rows are assigned in **levelized topological order** -- source nets
  (constants, primary inputs, flop outputs) first, then each logic
  level's gate outputs contiguously.  Per-lane stuck-at forcing then
  needs no gather/scatter: each level's forced nets are clamped with
  two in-place ufunc ops over that level's contiguous row block
  (unforced rows carry identity masks), and levels without forced
  nets skip masking entirely;
* gates are grouped by logic level (level = 1 + max input level), one
  generated function per level, all writing their output rows *in
  place* via ``out=`` ufunc calls -- zero allocation in the settle
  loop, and the level boundary is exactly where the force clamp for
  that block lands, so downstream levels always read clamped values;
* inverting cells use ``np.invert`` on the full word -- garbage in
  lanes beyond ``plan.lanes`` is harmless because every read masks to
  the active lanes;
* the memory phases of a core cycle get *cone kernels* (``CONES``):
  the fan-in cones of ``pc`` and of ``addr_a``/``addr_b``
  (:func:`repro.netlist.lanes.memory_phase_cones`), split at the same
  level boundaries so forced settles clamp exactly where the full
  settle does;
* the clock edge (``tick(R, D)``) captures every flop D into a
  scratch matrix first, then writes all Q rows, matching the
  simultaneous-capture semantics of the scalar backends, with per-lane
  asynchronous reset folded in as ``d & rst_n``.

Generated code is cached on the netlist object and in the on-disk
artifact cache (kind ``"numpy-sim"``), exactly like the compiled
backend, so fresh processes and pool workers skip codegen.

Like the bigint lane mode, no per-instance toggle counters are kept:
:meth:`NumpySimulator.toggle_counts` raises
:class:`~repro.errors.UnsupportedInLaneMode` instead of returning
stale zeros.  Bit-exactness against the interpreted/compiled backends
is asserted across the whole Figure 7 sweep by
``tests/test_sim_compiled.py``.
"""

from __future__ import annotations

import importlib.util
import marshal
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import SimulationError, UnsupportedInLaneMode
from repro.exec.cache import load_artifact, source_digest, store_artifact, structural_hash
from repro.netlist.core import (
    CONST0,
    CONST1,
    Instance,
    Netlist,
    SEQUENTIAL_CELLS,
)
from repro.netlist.lanes import LanePlan, memory_phase_cones
from repro.netlist.sta import _topological_order
from repro.obs.metrics import counter as _obs_counter
from repro.obs.runtime import STATE as _OBS
from repro.obs.trace import span as _obs_span

_CACHE_HITS = _obs_counter("nsim.cache_hits")
_CACHE_MISSES = _obs_counter("nsim.cache_misses")
_DISK_HITS = _obs_counter("nsim.disk_hits")
_TICKS = _obs_counter("sim.numpy_ticks")
_LANE_CYCLES = _obs_counter("sim.numpy_lane_cycles")

#: Artifact-cache bucket for generated numpy kernel code.
_ARTIFACT_KIND = "numpy-sim"

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

# Bus pack/unpack transposes 8x8 bit blocks through byte views of the
# value matrix, so byte order is pinned to little-endian.
_LE64 = np.dtype("<u8")
#: Byte ``x`` -> bit ``k`` of ``x`` moved to bit ``8k`` (one lane per byte).
_SPREAD = np.array(
    [sum(((x >> k) & 1) << (8 * k) for k in range(8)) for x in range(256)],
    dtype=np.uint64,
)
#: Bit ``8k`` of a word -> bit ``k`` of its top byte (the inverse).
_GATHER = np.uint64(0x0102040810204080)
_BYTE_LSBS = np.uint64(0x0101010101010101)
_BYTE_SHIFTS = np.arange(8, dtype=np.uint64)[None, :, None]
_TOP_BYTE = np.uint64(56)

#: In-place ufunc statement sequence per combinational cell.  ``{a}``
#: and ``{b}`` are input row indices, ``{o}`` the output row; every
#: statement writes ``R[o]`` so the settle loop allocates nothing.
_CELL_OPS = {
    "INVX1": ("NOT(R[{a}], out=R[{o}])",),
    "NAND2X1": ("AND(R[{a}], R[{b}], out=R[{o}])", "NOT(R[{o}], out=R[{o}])"),
    "NOR2X1": ("OR(R[{a}], R[{b}], out=R[{o}])", "NOT(R[{o}], out=R[{o}])"),
    "AND2X1": ("AND(R[{a}], R[{b}], out=R[{o}])",),
    "OR2X1": ("OR(R[{a}], R[{b}], out=R[{o}])",),
    "XOR2X1": ("XOR(R[{a}], R[{b}], out=R[{o}])",),
    "XNOR2X1": ("XOR(R[{a}], R[{b}], out=R[{o}])", "NOT(R[{o}], out=R[{o}])"),
    "TSBUFX1": ("AND(R[{a}], R[{b}], out=R[{o}])",),
}


@dataclass
class NumpyLayout:
    """Levelized row layout of one netlist's value matrix.

    Attributes:
        row_of: Net id -> row index in the value matrix.
        rows: Total row count (== ``netlist.net_count``).
        source_rows: Rows ``[0, source_rows)`` hold source nets
            (constants, primary inputs, flop outputs); unused nets are
            parked at the end of the matrix.
        level_slices: Contiguous ``(lo, hi)`` row range per logic
            level, in dependency order.
        level_of: Logic level per combinational output net (sources
            are absent).
    """

    row_of: dict[int, int]
    rows: int
    source_rows: int
    level_slices: tuple[tuple[int, int], ...]
    level_of: dict[int, int]


@dataclass
class NumpyCompiled:
    """Vectorized kernels generated for one netlist.

    Attributes:
        levels: One settle function per logic level, each ``f(R)`` over
            the row-view list, in dependency order.
        cones: Output selection -> ``((level, f), ...)``: settle
            functions over just that selection's fan-in cone, one per
            logic level the cone reaches, tagged with the level index.
        tick: Clock-edge function ``tick(R, D)`` (``D`` = flop scratch
            matrix, shape ``(flops, words)``).
        layout: Row layout of the value matrix (see
            :class:`NumpyLayout`).
        flop_count: Number of sequential cells (sizes ``D``).
        source: Generated Python source (kept for debugging).
        code: Compiled module code object (marshaled to disk).
    """

    levels: tuple[Callable, ...]
    cones: dict[tuple[str, ...], tuple[tuple[int, Callable], ...]]
    tick: Callable
    layout: NumpyLayout
    flop_count: int
    source: str = field(repr=False, default="")
    code: object = field(repr=False, default=None)


def _levelize(netlist: Netlist) -> tuple[list[list[Instance]], dict[int, int]]:
    """Group combinational instances by logic level, in topo order."""
    order = _topological_order(netlist)
    level_of: dict[int, int] = {}
    levels: list[list[Instance]] = []
    for inst in order:
        level = 0
        for net in inst.inputs:
            input_level = level_of.get(net)
            if input_level is not None and input_level >= level:
                level = input_level + 1
        level_of[inst.output] = level
        while len(levels) <= level:
            levels.append([])
        levels[level].append(inst)
    return levels, level_of


def _layout(netlist: Netlist) -> tuple[NumpyLayout, list[list[Instance]]]:
    """Assign matrix rows: sources, then levels, then unused nets."""
    levels, level_of = _levelize(netlist)
    sources = {0, 1}  # CONST0, CONST1
    for bus in netlist.inputs.values():
        sources.update(bus.nets)
    for instance in netlist.instances:
        if instance.cell in SEQUENTIAL_CELLS:
            sources.add(instance.output)
    row_of: dict[int, int] = {}
    for net in sorted(sources):
        row_of[net] = len(row_of)
    source_rows = len(row_of)
    level_slices: list[tuple[int, int]] = []
    for instances in levels:
        lo = len(row_of)
        for instance in instances:
            row_of[instance.output] = len(row_of)
        level_slices.append((lo, len(row_of)))
    for net in range(netlist.net_count):  # park unused nets at the end
        if net not in row_of:
            row_of[net] = len(row_of)
    return (
        NumpyLayout(
            row_of=row_of,
            rows=netlist.net_count,
            source_rows=source_rows,
            level_slices=tuple(level_slices),
            level_of=level_of,
        ),
        levels,
    )


def levelized_layout(
    netlist: Netlist,
) -> tuple[NumpyLayout, list[list[Instance]]]:
    """Public row layout + per-level instance lists for ``netlist``.

    The same levelized geometry the generated simulation kernels use,
    exposed for other vectorized passes over the value matrix -- the
    Monte-Carlo timing engine (:mod:`repro.mc.timing`) propagates
    arrival times level by level through exactly these rows.
    """
    return _layout(netlist)


def _statements(instance: Instance, row_of: dict[int, int]) -> list[str]:
    ops = _CELL_OPS.get(instance.cell)
    if ops is None:
        raise SimulationError(f"cannot compile cell {instance.cell!r}")
    a = row_of[instance.inputs[0]]
    b = row_of[instance.inputs[1]] if len(instance.inputs) > 1 else ""
    return [op.format(a=a, b=b, o=row_of[instance.output]) for op in ops]


def _generate_source(netlist: Netlist) -> str:
    """Emit per-level settle functions, the memory-phase cone kernels
    and the flop-capture tick."""
    layout, levels = _layout(netlist)
    row_of = layout.row_of
    flops = [i for i in netlist.instances if i.cell in SEQUENTIAL_CELLS]
    reset_net = netlist.reset_n

    lines: list[str] = []
    for index, instances in enumerate(levels):
        lines.append(f"def level_{index}(R):")
        for inst in instances:
            for statement in _statements(inst, row_of):
                lines.append(f"    {statement}")
        lines.append("    return")

    # Two-phase edge: capture every D (with per-lane async reset folded
    # in for DFFNRX1) before writing any Q, so flop-to-flop paths see
    # pre-edge values -- identical to the scalar backends' tick.
    lines.append("def tick(R, D):")
    for j, flop in enumerate(flops):
        if flop.cell == "DFFNRX1" and reset_net is not None:
            lines.append(
                f"    AND(R[{row_of[flop.inputs[0]]}],"
                f" R[{row_of[reset_net]}], out=D[{j}])"
            )
        else:
            lines.append(f"    CPY(D[{j}], R[{row_of[flop.inputs[0]]}])")
    for j, flop in enumerate(flops):
        lines.append(f"    CPY(R[{row_of[flop.output]}], D[{j}])")
    lines.append("    return")

    lines.append(
        "LEVELS = (" + ", ".join(f"level_{i}" for i in range(len(levels)))
        + ("," if levels else "") + ")"
    )

    # Cone kernels: the memory-phase cones split at the same level
    # boundaries, so a forced settle clamps each level's block after
    # the cone's part of that level, exactly as the full settle does.
    cones = memory_phase_cones(netlist, [i for level in levels for i in level])
    entries = []
    for k, (instances, _) in enumerate(cones.values()):
        by_level: dict[int, list[Instance]] = {}
        for inst in instances:
            by_level.setdefault(layout.level_of[inst.output], []).append(inst)
        steps = []
        for index, members in sorted(by_level.items()):
            lines.append(f"def cone_{k}_level_{index}(R):")
            for inst in members:
                for statement in _statements(inst, row_of):
                    lines.append(f"    {statement}")
            lines.append("    return")
            steps.append(f"({index}, cone_{k}_level_{index}), ")
        entries.append("(" + "".join(steps) + ")")
    lines.append(
        "CONES = {"
        + "".join(
            f"{outputs!r}: {entry}, " for outputs, entry in zip(cones, entries)
        )
        + "}"
    )
    return "\n".join(lines)


def _bind(code, source: str, netlist: Netlist) -> NumpyCompiled:
    """Exec generated code with the ufunc vocabulary bound as globals."""
    namespace: dict = {
        "AND": np.bitwise_and,
        "OR": np.bitwise_or,
        "XOR": np.bitwise_xor,
        "NOT": np.invert,
        "CPY": np.copyto,
    }
    exec(code, namespace)
    layout, _ = _layout(netlist)
    flop_count = sum(
        1 for i in netlist.instances if i.cell in SEQUENTIAL_CELLS
    )
    return NumpyCompiled(
        levels=tuple(namespace["LEVELS"]),
        cones=namespace["CONES"],
        tick=namespace["tick"],
        layout=layout,
        flop_count=flop_count,
        source=source,
        code=code,
    )


def compile_numpy_netlist(netlist: Netlist) -> NumpyCompiled:
    """Translate ``netlist`` into vectorized numpy kernel code."""
    netlist.validate()
    for instance in netlist.instances:
        if instance.cell == "LATCHX1":
            raise SimulationError("level-sensitive latches are not simulatable")
    source = _generate_source(netlist)
    code = compile(source, f"<numpy-sim:{netlist.name}>", "exec")
    return _bind(code, source, netlist)


def _artifact_key(netlist: Netlist) -> str:
    return structural_hash(netlist) + source_digest(
        "repro.netlist.nsim", "repro.netlist.sta", "repro.netlist.lanes"
    )


def _from_artifact(netlist: Netlist, key: str) -> NumpyCompiled | None:
    """Rebuild kernels from a cached artifact, or None on miss."""
    payload = load_artifact(_ARTIFACT_KIND, key)
    if not isinstance(payload, dict) or "source" not in payload:
        return None
    try:
        if payload.get("magic") == importlib.util.MAGIC_NUMBER:
            code = marshal.loads(payload["code"])
        else:
            code = compile(
                payload["source"], f"<numpy-sim:{netlist.name}>", "exec"
            )
        return _bind(code, payload["source"], netlist)
    except (ValueError, TypeError, SyntaxError, KeyError, EOFError):
        return None  # treat any decode failure as a plain miss


def numpy_netlist(netlist: Netlist) -> NumpyCompiled:
    """Numpy kernels for ``netlist``: memo -> disk artifact -> codegen.

    Same three cache tiers as
    :func:`repro.netlist.compile.compiled_netlist`, under the separate
    artifact kind ``"numpy-sim"`` (the payloads are different code).
    """
    cached = getattr(netlist, "_numpy_sim", None)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached
    _CACHE_MISSES.inc()
    key = _artifact_key(netlist)
    cached = _from_artifact(netlist, key)
    if cached is not None:
        _DISK_HITS.inc()
    else:
        with _obs_span("compile_numpy", design=netlist.name):
            cached = compile_numpy_netlist(netlist)
        store_artifact(
            _ARTIFACT_KIND,
            key,
            {
                "magic": importlib.util.MAGIC_NUMBER,
                "code": marshal.dumps(cached.code),
                "source": cached.source,
            },
        )
    netlist._numpy_sim = cached
    return cached


class NumpySimulator:
    """Vectorized bit-slice simulation: 64 lanes per word, per ufunc call.

    Net values live in one dense ``uint64`` matrix of shape
    ``(nets, words)``, rows in levelized topological order; bit
    ``l % 64`` of word ``l // 64`` in a net's row is that net's logic
    value in lane ``l``.  One generated kernel pass advances every
    lane; per-lane stuck-at forcing clamps each level's contiguous row
    block with two in-place ufunc ops (levels without forced nets skip
    masking); bus pack/unpack runs as whole-bus matrix ops -- so a
    campaign batch of thousands of runs costs one kernel stream with
    no per-net or per-lane Python loops.

    The lane semantics -- per-lane stuck-at forcing, per-lane
    asynchronous reset, broadcast-or-per-lane stimulus -- are identical
    to :class:`~repro.netlist.compile.BitParallelSimulator`; both
    backends build their force state from the same
    :class:`~repro.netlist.lanes.LanePlan`, and the equivalence suite
    asserts lane-for-lane bit-exactness against the scalar backends.

    Args:
        netlist: A validated, technology-mapped netlist.
        lanes: Number of parallel runs (ignored when ``plan`` given).
        faults: Optional per-lane stuck-at faults (``lanes`` entries,
            ``None`` = healthy lane).  Ignored when ``plan`` is given.
        plan: Full :class:`LanePlan` (lanes + faults + memories).
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
        self.words = (plan.lanes + 63) // 64
        self._compiled = numpy_netlist(netlist)
        layout = self._compiled.layout
        self._layout = layout
        self._V = np.zeros((layout.rows, self.words), dtype=np.uint64)
        self._V[layout.row_of[CONST1]] = _ALL_ONES
        # Kernels index a flat list of row views: list indexing is
        # cheaper than 2D __getitem__ in the per-gate hot loop, and
        # every view aliases the matrix, so block ops and kernels see
        # one consistent store.
        self._R = list(self._V)
        self._D = np.zeros(
            (self._compiled.flop_count, self.words), dtype=np.uint64
        )
        self.cycles = 0

        # Per-bus pack/unpack geometry (rows, chunk shifts, scratch).
        self._pack_cache: dict[str, tuple] = {}
        self._gather_cache: dict[tuple, tuple] = {}

        # Force masks from the shared plan, as identity-padded
        # contiguous blocks: sources clamp before level 0, each level's
        # block clamps right after its kernel, and the full matrix is
        # re-clamped after every tick (mirroring the bigint backend's
        # stuck-across-the-edge semantics).
        self._forced = False
        self._pre_force: tuple | None = None
        self._level_forces: tuple = tuple(
            None for _ in self._compiled.levels
        )
        self._all_force: tuple | None = None
        self._fault_nets: list[int] = []
        forced = plan.forced_bits(netlist)
        if forced:
            self._forced = True
            self._fault_nets = list(forced)
            all_and = np.full(
                (layout.rows, self.words), _ALL_ONES, dtype=np.uint64
            )
            all_or = np.zeros((layout.rows, self.words), dtype=np.uint64)
            rows, lanes, values = np.array(
                [
                    (layout.row_of[net], lane, value)
                    for net, sites in forced.items()
                    for lane, value in sites
                ],
                dtype=np.int64,
            ).T
            at = (rows, lanes // 64)
            bits = _ONE << (lanes % 64).astype(np.uint64)
            np.bitwise_and.at(all_and, at, ~bits)
            np.bitwise_or.at(all_or, at, bits * values.astype(np.uint64))
            self._all_force = (all_and, all_or)
            forced_rows = {layout.row_of[net] for net in forced}
            lo, hi = 0, layout.source_rows
            if any(lo <= row < hi for row in forced_rows):
                self._pre_force = (all_and[lo:hi], all_or[lo:hi])
            self._level_forces = tuple(
                (all_and[lo:hi], all_or[lo:hi])
                if any(lo <= row < hi for row in forced_rows)
                else None
                for lo, hi in layout.level_slices
            )

    # -- I/O -------------------------------------------------------------

    def set_input(self, name: str, values) -> None:
        """Drive input ``name``: one int broadcast, or one per lane.

        Accepts a plain int (broadcast), any length-``lanes`` sequence,
        or a numpy integer array of shape ``(lanes,)``.
        """
        bus = self.netlist.inputs.get(name)
        if bus is None:
            raise SimulationError(f"no input bus named {name!r}")
        limit = 1 << len(bus)
        row_of = self._layout.row_of
        V = self._V
        if isinstance(values, int):
            if values < 0 or values >= limit:
                raise SimulationError(
                    f"value {values} does not fit input {name!r} "
                    f"({len(bus)} bits)"
                )
            for i, net in enumerate(bus):
                V[row_of[net]] = _ALL_ONES if (values >> i) & 1 else 0
            return
        lanes = np.asarray(values)
        if lanes.shape != (self.lanes,):
            raise SimulationError(
                f"{lanes.size} values for {self.lanes} lanes on {name!r}"
            )
        if int(lanes.min()) < 0 or int(lanes.max()) >= limit:
            bad = int(lanes[(lanes < 0) | (lanes >= limit)][0])
            raise SimulationError(
                f"value {bad} does not fit input {name!r} ({len(bus)} bits)"
            )
        cached = self._pack_cache.get(name)
        if cached is None:
            chunks = (len(bus) + 7) // 8
            cached = self._pack_cache[name] = (
                np.array([row_of[net] for net in bus], dtype=np.intp),
                chunks,
                np.zeros((chunks, self.words * 64), dtype=np.uint8),
            )
        rows, chunks, scratch = cached
        # Byte ``c`` of every lane's value, lanes along a row; each
        # 8-byte word of a row then holds 8 lanes, and gathering bit
        # ``k`` of its bytes gives bus bit ``8c + k`` of those 8 lanes.
        lane_bytes = lanes.astype(_LE64).view(np.uint8).reshape(self.lanes, 8)
        scratch[:, : self.lanes] = lane_bytes[:, :chunks].T
        words = scratch.view(_LE64)[:, None, :]
        bits = (((words >> _BYTE_SHIFTS) & _BYTE_LSBS) * _GATHER) >> _TOP_BYTE
        rows_bytes = bits.astype(np.uint8).reshape(chunks * 8, -1)
        V[rows] = rows_bytes[: len(bus)].view(_LE64)

    def read_output(self, name: str) -> list[int]:
        """Read output bus ``name``: one integer per lane."""
        return [int(v) for v in self.read_output_array(name).tolist()]

    def read_output_array(self, name: str) -> np.ndarray:
        """Read output bus ``name`` as a ``(lanes,)`` uint64 array."""
        bus = self.netlist.outputs.get(name)
        if bus is None:
            raise SimulationError(f"no output bus named {name!r}")
        return self._gather(tuple(bus.nets))

    def read_nets(self, nets: Sequence[int]) -> list[int]:
        """Read an arbitrary LSB-first net collection, one int per lane."""
        nets = tuple(nets)
        if len(nets) <= 64:
            return [int(v) for v in self._gather(nets).tolist()]
        # Wider collections overflow uint64 shifts: gather in 64-net
        # chunks and recombine as python bigints (parity with the
        # bigint backend, which has no width limit).
        out = [0] * self.lanes
        for start in range(0, len(nets), 64):
            chunk = self._gather(nets[start : start + 64]).tolist()
            for lane, value in enumerate(chunk):
                out[lane] |= int(value) << start
        return out

    def _gather(self, nets: tuple) -> np.ndarray:
        if not nets:
            return np.zeros(self.lanes, dtype=np.uint64)
        cached = self._gather_cache.get(nets)
        if cached is None:
            row_of = self._layout.row_of
            chunks = (len(nets) + 7) // 8
            # Pad to whole 8-net chunks with the CONST0 row (always 0).
            rows = [row_of[net] for net in nets]
            rows += [row_of[CONST0]] * (8 * chunks - len(nets))
            cached = self._gather_cache[nets] = (
                np.array(rows, dtype=np.intp),
                (np.arange(8 * chunks) % 8).astype(np.uint64)[:, None],
                chunks,
            )
        rows, shifts, chunks = cached
        # Spread each net-row byte so lane k's bit lands in byte k,
        # shift it to the net's place in its 8-net chunk and OR the
        # chunk: byte k of the result is lane k's value of those nets.
        block = self._V[rows].astype(_LE64, copy=False).view(np.uint8)
        merged = np.bitwise_or.reduce(
            (_SPREAD[block] << shifts).reshape(chunks, 8, -1), axis=1
        )
        lane_bytes = merged.astype(_LE64, copy=False).view(np.uint8)
        if chunks == 1:
            return lane_bytes[0, : self.lanes].astype(np.uint64)
        out = np.zeros((self.lanes, 8), dtype=np.uint8)
        out[:, :chunks] = lane_bytes[:, : self.lanes].T
        return out.view(_LE64).ravel().astype(np.uint64, copy=False)

    # -- phases ------------------------------------------------------------

    def settle(self, outputs: tuple[str, ...] | None = None) -> None:
        """Propagate all lanes through the combinational logic.

        With ``outputs`` (one of :data:`~repro.netlist.lanes.CONE_OUTPUTS`)
        only those buses' fan-in cone settles; they then read exactly
        as after a full settle.  Any other selection settles everything.
        A forced cone clamps whole level blocks, re-clamping rows it
        did not recompute -- harmless, the clamp is idempotent.
        """
        R = self._R
        compiled = self._compiled
        cone = compiled.cones.get(outputs)
        if not self._forced:
            if cone is None:
                for kernel in compiled.levels:
                    kernel(R)
            else:
                for _, kernel in cone:
                    kernel(R)
            return
        V = self._V
        if self._pre_force is not None:
            block = V[: self._layout.source_rows]
            np.bitwise_and(block, self._pre_force[0], out=block)
            np.bitwise_or(block, self._pre_force[1], out=block)
        slices = self._layout.level_slices
        steps = enumerate(compiled.levels) if cone is None else cone
        for index, kernel in steps:
            kernel(R)
            force = self._level_forces[index]
            if force is not None:
                lo, hi = slices[index]
                block = V[lo:hi]
                np.bitwise_and(block, force[0], out=block)
                np.bitwise_or(block, force[1], out=block)

    def tick(self) -> None:
        """Advance one clock edge in every lane (per-lane async reset)."""
        self._compiled.tick(self._R, self._D)
        # A stuck net stays stuck across the edge (covers faults on
        # flop outputs), mirroring BitParallelSimulator.tick.
        if self._all_force is not None:
            V = self._V
            np.bitwise_and(V, self._all_force[0], out=V)
            np.bitwise_or(V, self._all_force[1], out=V)
        self.cycles += 1
        if _OBS.enabled:
            _TICKS.value += 1
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
        raise UnsupportedInLaneMode("toggle_counts", "NumpySimulator")
