"""Cross-run lane packing: one netlist, many independent runs.

Both lane-parallel simulation backends -- the bigint
:class:`~repro.netlist.compile.BitParallelSimulator` and the numpy
bit-slice :class:`~repro.netlist.nsim.NumpySimulator` -- advance K
*independent runs* of one netlist per pass.  The runs may differ only
in three ways: forced nets (per-lane stuck-at faults), initial data
memory, and per-cycle stimulus.  :class:`LanePlan` is the shared
description of such a batch: the simulators consume its forced-net
map, the campaign/verify harnesses consume its per-lane memory images,
and stimulus stays with the harness (it is a per-cycle stream, driven
through ``set_input`` with one value per lane).

Keeping the plan engine-agnostic is what lets :func:`lane_simulator`
pick bigint lanes or numpy bit-slice words by lane count alone, without
touching any harness -- and what keeps the two engines bit-exact by
construction: they build their force masks from the *same*
``forced_bits`` map.  :func:`lane_simulator` is the one place a lane
engine is chosen; every lane-packed run (fault campaigns, suite and
differential verification, Monte-Carlo yield) builds through it.

:class:`LaneMemoryHarness` is the matching *architectural* half: the
behavioural instruction-ROM / data-RAM model every lane-packed core
run needs (fetch with halt-branch padding past the program end, dual
read ports, write-enable writeback).  The fault campaign and the
differential verifier used to each maintain their own copy of this
loop; they now both drive this one harness, which picks the vectorized
array path automatically when the simulator exposes
``read_output_array`` (numpy bit-slice) and the per-lane list path
otherwise (bigint).

The memory phases of a core cycle read only a few output buses:
the fetch reads ``pc`` (:data:`FETCH_OUTPUTS`) and the data-memory
read reads ``addr_a``/``addr_b`` (:data:`READ_OUTPUTS`).  Every
compiled engine generates a *cone kernel* per such selection
(:func:`memory_phase_cones`) that settles only the transitive fan-in
of those buses, and the harnesses settle through
``sim.settle(outputs)`` before each phase -- see the "Cycle schedule"
section of ``docs/MODELS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.obs.metrics import counter as _obs_counter

#: Lane count from which the numpy bit-slice engine runs a plan; below
#: it the bigint engine does.  Set from the crossover measured in
#: ``docs/MODELS.md`` ("How the lane engine is picked"): a numpy pass
#: costs nearly the same at 64 lanes as at 8192 (per-gate ufunc
#: dispatch dominates), while a bigint pass grows with the per-lane
#: Python memory plumbing, so bigint wins narrow plans and numpy wide
#: ones.  The value is the smallest measured lane count at which numpy
#: wins the median on every program of that table.
NUMPY_MIN_LANES = 320

#: Output buses the instruction fetch reads.
FETCH_OUTPUTS = ("pc",)

#: Output buses the data-memory read ports read.
READ_OUTPUTS = ("addr_a", "addr_b")

#: Output selections the compiled engines generate cone kernels for.
CONE_OUTPUTS = (FETCH_OUTPUTS, READ_OUTPUTS)

#: Input buses a cycle provides only after each selection is read:
#: the fetch reads ``pc`` before ``instr`` and the data words are set,
#: the read ports read the addresses before the data words are set.
_PROVIDED_LATER = {
    FETCH_OUTPUTS: ("instr", "rdata_a", "rdata_b"),
    READ_OUTPUTS: ("rdata_a", "rdata_b"),
}

#: Lane-simulator runs per engine (which engine the dispatch picked).
_ENGINE_RUNS = {
    engine: _obs_counter(f"lanes.runs.{engine}")
    for engine in ("bigint", "numpy")
}


@dataclass(frozen=True)
class LanePlan:
    """K independent runs that share one netlist.

    Attributes:
        lanes: Number of packed runs (bigint width / bit-slice lanes).
        faults: Optional per-lane stuck-at faults -- a ``lanes``-tuple
            where each entry is ``None`` (healthy lane), one
            :class:`~repro.netlist.faults.StuckAtFault`, or a tuple of
            them (a multi-defect printed unit).  ``None`` (or
            all-``None``) means no forcing at all.  If one lane lists
            two faults on the same net with conflicting values, the
            backends' force order (and-mask then or-mask) makes
            stuck-at-1 win; the Monte-Carlo defect sampler never emits
            duplicate sites, so this only matters for hand-built plans.
        memories: Optional per-lane initial data-memory images (a
            ``lanes``-tuple of word tuples).  Consumed by harnesses,
            not by the simulators themselves.
    """

    lanes: int
    faults: tuple | None = None
    memories: tuple | None = None

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise SimulationError(f"need at least one lane, got {self.lanes}")
        if self.faults is not None and len(self.faults) != self.lanes:
            raise SimulationError(
                f"{len(self.faults)} faults for {self.lanes} lanes"
            )
        if self.memories is not None and len(self.memories) != self.lanes:
            raise SimulationError(
                f"{len(self.memories)} memory images for {self.lanes} lanes"
            )

    @classmethod
    def for_faults(cls, faults: Sequence) -> "LanePlan":
        """One lane per entry of ``faults`` (``None`` = healthy lane).

        Entries may be single faults or per-lane fault tuples.
        """
        faults = tuple(faults)
        return cls(lanes=len(faults), faults=faults)

    @staticmethod
    def _lane_faults(entry) -> tuple:
        """Normalize one lane's entry to a (possibly empty) fault tuple."""
        if entry is None:
            return ()
        if isinstance(entry, tuple):
            return entry
        return (entry,)

    @property
    def has_forces(self) -> bool:
        """Whether any lane forces any net."""
        return self.faults is not None and any(
            self._lane_faults(entry) for entry in self.faults
        )

    def forced_bits(self, netlist) -> dict[int, list[tuple[int, int]]]:
        """Forced-net map: ``net -> [(lane, stuck_value), ...]``.

        Nets appear in order of first lane appearance (both backends
        derive their fault-net ordering from this), and fault sites are
        validated against ``netlist``.  Empty when the plan has no
        forces.
        """
        forced: dict[int, list[tuple[int, int]]] = {}
        if not self.has_forces:
            return forced
        for lane, entry in enumerate(self.faults):
            for fault in self._lane_faults(entry):
                if not 0 <= fault.instance_index < len(netlist.instances):
                    raise SimulationError(f"no instance {fault.instance_index}")
                net = netlist.instances[fault.instance_index].output
                forced.setdefault(net, []).append((lane, fault.stuck_value))
        return forced

    def memory_images(self, base: Sequence[int]) -> list[list[int]]:
        """Per-lane initial data memories, one mutable list per lane.

        Lanes with no explicit image in :attr:`memories` get a copy of
        ``base`` -- the common case for fault campaigns, where every
        lane starts from the program's data segment.
        """
        if self.memories is None:
            return [list(base) for _ in range(self.lanes)]
        return [
            list(base if image is None else image) for image in self.memories
        ]


def memory_phase_cones(netlist, order: Sequence) -> dict[tuple, tuple]:
    """Fan-in cone of each :data:`CONE_OUTPUTS` selection of ``netlist``.

    Maps each selection whose buses all exist on ``netlist`` to
    ``(instances, nets)``: the combinational instances of ``order``
    (a topological order) that the selection's nets transitively read,
    in that order, and the selection's own nets.  Settling just those
    instances leaves the selected buses exactly as a full settle would.

    Raises:
        SimulationError: If a selection reads an input bus the cycle
            provides only after that selection is read (``pc`` from
            ``instr`` or ``rdata_*``, an address from ``rdata_*``): the
            one-fetch, one-read cycle schedule would read it stale.
    """
    driver = {instance.output: instance for instance in order}
    cones = {}
    for outputs in CONE_OUTPUTS:
        if not all(name in netlist.outputs for name in outputs):
            continue
        nets = tuple(
            net for name in outputs for net in netlist.outputs[name].nets
        )
        later = {
            net: name
            for name in _PROVIDED_LATER[outputs]
            if name in netlist.inputs
            for net in netlist.inputs[name].nets
        }
        needed: set[int] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in needed:
                continue
            if net in later:
                raise SimulationError(
                    f"{'/'.join(outputs)} depends combinationally on input "
                    f"{later[net]!r}, which the cycle provides after "
                    "reading it"
                )
            needed.add(net)
            instance = driver.get(net)
            if instance is not None:
                stack.extend(instance.inputs)
        cones[outputs] = (
            [instance for instance in order if instance.output in needed],
            nets,
        )
    return cones


def lane_engine(lanes: int) -> str:
    """The engine :func:`lane_simulator` runs ``lanes`` lanes on."""
    return "bigint" if lanes < NUMPY_MIN_LANES else "numpy"


def lane_simulator(netlist, plan: LanePlan):
    """A lane simulator for ``plan``, its engine picked by lane count.

    Returns a bigint :class:`~repro.netlist.compile.BitParallelSimulator`
    below :data:`NUMPY_MIN_LANES` lanes and a numpy
    :class:`~repro.netlist.nsim.NumpySimulator` from there on.  Both
    are bit-exact with each other (they share the plan), so the choice
    is purely a speed one.
    """
    engine = lane_engine(plan.lanes)
    _ENGINE_RUNS[engine].inc()
    if engine == "bigint":
        from repro.netlist.compile import BitParallelSimulator as simulator
    else:
        from repro.netlist.nsim import NumpySimulator as simulator
    return simulator(netlist, plan=plan)


class LaneMemoryHarness:
    """Behavioural ROM/RAM model around a lane-packed core simulator.

    Drives the memory side of one core cycle for every lane at once,
    in the schedule :meth:`repro.coregen.cosim.CoSimHarness.step` runs
    for one machine: settle the ``pc`` cone and fetch; settle the
    ``addr_a``/``addr_b`` cone and read data memory; settle the whole
    netlist, capture the write port (only when some lane's ``we`` is
    set), tick, and write back.  Shared by the fault campaign and the
    differential verifier.

    Two execution paths, chosen automatically:

    * **array path** when the simulator exposes ``read_output_array``
      (the numpy bit-slice backend): instruction fetch is a
      precomputed-table gather, data memory is one ``(lanes, words)``
      ``uint64`` array read with fancy indexing and written back under
      the ``we`` mask -- O(kernel calls), not O(lanes), per cycle.
    * **list path** otherwise (bigint bit-parallel): per-lane Python
      loops over the simulator's list-valued ports.

    Both paths are bit-exact with each other and with the scalar
    harness.

    Args:
        sim: A lane simulator (from :func:`lane_simulator`) already
            constructed over the netlist.
        lanes: Lane count (must match the simulator's packing).
        rom: Shared instruction ROM (every lane runs one program), or
        roms: Per-lane instruction ROMs (one program per lane).
            Exactly one of ``rom``/``roms`` must be given.
        base_memory: Shared initial data image, copied per lane, or
        memories: Per-lane initial data images.  Exactly one must be
            given.
        halt_word: ``pc -> instruction word`` for fetches past the
            program end (the consumers encode a self-branch).  Kept a
            callable so this module never imports the ISA layer.
        halt_words: Optional shared memo dict for ``halt_word`` results
            (entries are pure functions of the PC, so campaign contexts
            pass one dict across many harnesses).
        pc_bits: PC bus width; required on the array path (it sizes
            the fetch table), ignored on the list path.
    """

    def __init__(
        self,
        sim,
        *,
        lanes: int,
        rom: Sequence[int] | None = None,
        roms: Sequence[Sequence[int]] | None = None,
        base_memory: Sequence[int] | None = None,
        memories: Sequence[Sequence[int]] | None = None,
        halt_word: Callable[[int], int],
        halt_words: dict[int, int] | None = None,
        pc_bits: int | None = None,
    ) -> None:
        if (rom is None) == (roms is None):
            raise SimulationError("pass exactly one of rom= or roms=")
        if (base_memory is None) == (memories is None):
            raise SimulationError(
                "pass exactly one of base_memory= or memories="
            )
        if roms is not None and len(roms) != lanes:
            raise SimulationError(f"{len(roms)} ROMs for {lanes} lanes")
        if memories is not None and len(memories) != lanes:
            raise SimulationError(
                f"{len(memories)} memory images for {lanes} lanes"
            )
        self.sim = sim
        self.lanes = lanes
        self._rom = list(rom) if rom is not None else None
        self._roms = (
            [list(r) for r in roms] if roms is not None else None
        )
        self._halt_word = halt_word
        self._halt_words = halt_words if halt_words is not None else {}
        self.array_mode = hasattr(sim, "read_output_array")
        if self.array_mode:
            import numpy as np

            if pc_bits is None:
                raise SimulationError(
                    "pc_bits is required on the array path"
                )
            self._np = np
            if memories is None:
                self._memory = np.tile(
                    np.asarray(base_memory, dtype=np.uint64), (lanes, 1)
                )
            else:
                self._memory = np.ascontiguousarray(memories, dtype=np.uint64)
            self._lane_index = np.arange(lanes)
            self._fetch = self._build_fetch_table(pc_bits)
        elif memories is None:
            self.memories = [list(base_memory) for _ in range(lanes)]
        else:
            self.memories = [list(image) for image in memories]

    def _halt(self, pc: int) -> int:
        word = self._halt_words.get(pc)
        if word is None:
            word = self._halt_words[pc] = self._halt_word(pc)
        return word

    def _build_fetch_table(self, pc_bits: int):
        """Instruction word per (lane,) possible PC, as a gather table.

        The PC bus is at most 8 bits, so the whole fetch path -- ROM
        lookup plus synthetic halt padding past the program end --
        precomputes into at most 256 words (per lane when ROMs
        differ); ``fetch[pc]`` then replaces the per-lane Python
        fetch loop with one vectorized gather.
        """
        np = self._np
        size = 1 << pc_bits
        if self._rom is not None:
            table = np.zeros(size, dtype=np.uint64)
            table[: len(self._rom)] = self._rom
            for pc in range(len(self._rom), size):
                table[pc] = self._halt(pc)
            return table
        table = np.zeros((self.lanes, size), dtype=np.uint64)
        for lane, rom in enumerate(self._roms):
            table[lane, : len(rom)] = rom
            for pc in range(len(rom), size):
                table[lane, pc] = self._halt(pc)
        return table

    def _step_array(self) -> None:
        sim = self.sim
        memory = self._memory
        lane_index = self._lane_index
        sim.settle(FETCH_OUTPUTS)
        pcs = sim.read_output_array("pc")
        if self._fetch.ndim == 1:
            sim.set_input("instr", self._fetch[pcs])
        else:
            sim.set_input("instr", self._fetch[lane_index, pcs])
        sim.settle(READ_OUTPUTS)
        sim.set_input(
            "rdata_a", memory[lane_index, sim.read_output_array("addr_a")]
        )
        sim.set_input(
            "rdata_b", memory[lane_index, sim.read_output_array("addr_b")]
        )
        sim.settle()
        we = sim.read_output_array("we").astype(bool)
        if not we.any():
            sim.tick()
            return
        waddr = sim.read_output_array("waddr")
        wdata = sim.read_output_array("wdata")
        sim.tick()
        memory[lane_index[we], waddr[we]] = wdata[we]

    def _step_lists(self) -> None:
        sim = self.sim
        memories = self.memories
        halt = self._halt
        sim.settle(FETCH_OUTPUTS)
        pcs = sim.read_output("pc")
        if self._rom is not None:
            rom = self._rom
            size = len(rom)
            words = [rom[pc] if pc < size else halt(pc) for pc in pcs]
        else:
            words = [
                rom[pc] if pc < len(rom) else halt(pc)
                for rom, pc in zip(self._roms, pcs)
            ]
        sim.set_input("instr", words)
        sim.settle(READ_OUTPUTS)
        sim.set_input(
            "rdata_a",
            [m[a] for m, a in zip(memories, sim.read_output("addr_a"))],
        )
        sim.set_input(
            "rdata_b",
            [m[b] for m, b in zip(memories, sim.read_output("addr_b"))],
        )
        sim.settle()
        we = sim.read_output("we")
        if not any(we):
            sim.tick()
            return
        waddr = sim.read_output("waddr")
        wdata = sim.read_output("wdata")
        sim.tick()
        for lane, enabled in enumerate(we):
            if enabled:
                memories[lane][waddr[lane]] = wdata[lane]

    def step(self) -> None:
        """Advance every lane one architectural cycle."""
        if self.array_mode:
            self._step_array()
        else:
            self._step_lists()

    def run(self, cycles: int) -> None:
        """Reset, run ``cycles`` architectural cycles, settle outputs."""
        self.sim.reset()
        for _ in range(cycles):
            self.step()
        self.sim.settle()

    def memory_rows(self) -> list[tuple[int, ...]]:
        """Final per-lane data memories as tuples of Python ints.

        On the array path each distinct final row converts once, keyed
        by its bytes, and lanes that ended alike share its tuple.  In
        the full-stride p1_8_2/mult8 fault campaign 866 of 1000 lanes
        repeat another lane's row; converting per distinct row cuts
        that campaign's numpy time by 7-11% on a 2-CPU Xeon VM, mostly
        garbage-collector passes that 1000 fresh tuples would trigger
        (bytes keys are not GC-tracked).
        """
        if not self.array_mode:
            return [tuple(image) for image in self.memories]
        memory = self._memory
        keys = memory.view(f"V{memory.itemsize * memory.shape[1]}")
        keys = keys.ravel().tolist()
        rows = dict.fromkeys(keys)
        for key in rows:
            rows[key] = tuple(
                self._np.frombuffer(key, dtype=memory.dtype).tolist()
            )
        return [rows[key] for key in keys]
