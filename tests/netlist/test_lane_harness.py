"""The shared LaneMemoryHarness behind both lane-packed consumers.

The fault campaign and the differential verifier used to each carry a
private copy of the behavioural ROM/RAM loop; these tests pin the
unified harness against the scalar :class:`CoSimHarness` reference on
both backends (bigint list path, numpy array path) and against each
other, for shared- and per-lane-ROM packings.

Both harnesses settle only the ``pc`` cone before the fetch and the
address cone before the data read.  :class:`LegacySchedule` keeps the
schedule that replaced -- three full settles with fetch and read
provided twice -- as an oracle for that change, here only.
"""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.cosim import CoSimHarness, architectural_nets
from repro.coregen.fault_test import halt_word_encoder
from repro.coregen.generator import generate_core
from repro.coregen.isa_map import encode_program_for_core
from repro.errors import SimulationError
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.faults import enumerate_fault_sites
from repro.netlist.lanes import LaneMemoryHarness, LanePlan
from repro.netlist.nsim import NumpySimulator
from repro.programs import build_benchmark

CYCLES = 40


@pytest.fixture(scope="module")
def setup():
    config = CoreConfig(datawidth=8)
    netlist = generate_core(config)
    programs = [build_benchmark("mult", 8, 8), build_benchmark("crc8", 8, 8)]
    roms = [encode_program_for_core(p, config) for p in programs]
    mask = (1 << config.datawidth) - 1
    memories = []
    for program in programs:
        memory = [0] * config.data_memory_words()
        for address, value in program.data.items():
            memory[address] = value & mask
        memories.append(memory)
    return config, netlist, programs, roms, memories


def _scalar_reference(program, config):
    harness = CoSimHarness(program, config)
    for _ in range(CYCLES):
        harness.step()
    return list(harness.memory), harness.pc


def _lane_state(harness):
    return harness.memory_rows(), harness.sim.read_output("pc")


class TestLaneMemoryHarness:
    def test_list_path_matches_scalar_reference(self, setup):
        config, netlist, programs, roms, memories = setup
        sim = BitParallelSimulator(netlist, len(programs))
        harness = LaneMemoryHarness(
            sim, lanes=len(programs), roms=roms, memories=memories,
            halt_word=halt_word_encoder(config),
        )
        assert not harness.array_mode
        harness.run(CYCLES)
        rows, pcs = _lane_state(harness)
        for lane, program in enumerate(programs):
            memory, pc = _scalar_reference(program, config)
            assert rows[lane] == tuple(memory)
            assert pcs[lane] == pc

    def test_array_path_matches_list_path(self, setup):
        config, netlist, programs, roms, memories = setup
        lanes = len(programs)
        halt = halt_word_encoder(config)
        bigint = LaneMemoryHarness(
            BitParallelSimulator(netlist, lanes), lanes=lanes,
            roms=roms, memories=memories, halt_word=halt,
        )
        vector = LaneMemoryHarness(
            NumpySimulator(netlist, lanes), lanes=lanes,
            roms=roms, memories=memories, halt_word=halt,
            pc_bits=len(netlist.outputs["pc"].nets),
        )
        assert vector.array_mode
        bigint.run(CYCLES)
        vector.run(CYCLES)
        assert _lane_state(bigint) == _lane_state(vector)

    def test_shared_rom_matches_per_lane_rom(self, setup):
        config, netlist, programs, roms, memories = setup
        halt = halt_word_encoder(config)
        shared = LaneMemoryHarness(
            BitParallelSimulator(netlist, 2), lanes=2,
            rom=roms[0], base_memory=memories[0], halt_word=halt,
        )
        per_lane = LaneMemoryHarness(
            BitParallelSimulator(netlist, 2), lanes=2,
            roms=[roms[0], roms[0]],
            memories=[memories[0], memories[0]], halt_word=halt,
        )
        shared.run(CYCLES)
        per_lane.run(CYCLES)
        assert _lane_state(shared) == _lane_state(per_lane)

    def test_halt_word_memo_is_shared(self, setup):
        config, netlist, programs, roms, memories = setup
        memo = {}
        harness = LaneMemoryHarness(
            NumpySimulator(netlist, 1), lanes=1,
            rom=roms[0], base_memory=memories[0],
            halt_word=halt_word_encoder(config), halt_words=memo,
            pc_bits=len(netlist.outputs["pc"].nets),
        )
        # Building the fetch table fills the memo for padded PCs.
        assert memo
        assert set(memo) == set(
            range(len(roms[0]), 1 << len(netlist.outputs["pc"].nets))
        )

    def test_constructor_validation(self, setup):
        config, netlist, programs, roms, memories = setup
        halt = halt_word_encoder(config)
        sim = BitParallelSimulator(netlist, 2)
        with pytest.raises(SimulationError):
            LaneMemoryHarness(sim, lanes=2, halt_word=halt,
                              base_memory=memories[0])
        with pytest.raises(SimulationError):
            LaneMemoryHarness(sim, lanes=2, rom=roms[0], roms=roms,
                              base_memory=memories[0], halt_word=halt)
        with pytest.raises(SimulationError):
            LaneMemoryHarness(sim, lanes=3, roms=roms,
                              memories=memories, halt_word=halt)
        with pytest.raises(SimulationError, match="pc_bits"):
            LaneMemoryHarness(
                NumpySimulator(netlist, 2), lanes=2, roms=roms,
                memories=memories, halt_word=halt,
            )


class LegacySchedule:
    """The three-full-settle lane cycle: settle, provide fetch and read
    data, settle, provide again, settle, write back, tick."""

    def __init__(self, sim, roms, memories, halt_word):
        self.sim = sim
        self.roms = roms
        self.memories = [list(image) for image in memories]
        self.halt_word = halt_word

    def _provide(self):
        sim = self.sim
        pcs = sim.read_output("pc")
        sim.set_input("instr", [
            rom[pc] if pc < len(rom) else self.halt_word(pc)
            for rom, pc in zip(self.roms, pcs)
        ])
        for port, bus in (("rdata_a", "addr_a"), ("rdata_b", "addr_b")):
            addresses = sim.read_output(bus)
            sim.set_input(port, [
                memory[address]
                for memory, address in zip(self.memories, addresses)
            ])

    def step(self):
        sim = self.sim
        sim.settle()
        self._provide()
        sim.settle()
        self._provide()
        sim.settle()
        we = sim.read_output("we")
        waddr = sim.read_output("waddr")
        wdata = sim.read_output("wdata")
        sim.tick()
        for lane, enabled in enumerate(we):
            if enabled:
                self.memories[lane][waddr[lane]] = wdata[lane]

    def memory_rows(self):
        return [tuple(image) for image in self.memories]


def legacy_cosim_step(harness):
    """The three-full-settle :meth:`CoSimHarness.step`."""
    sim = harness.sim

    def provide():
        pc = sim.read_output("pc")
        rom = harness.rom
        sim.set_input("instr", rom[pc] if pc < len(rom) else harness._halt_word(pc))
        sim.set_input("rdata_a", harness.memory[sim.read_output("addr_a")])
        sim.set_input("rdata_b", harness.memory[sim.read_output("addr_b")])

    sim.settle()
    provide()
    sim.settle()
    provide()
    sim.settle()
    we = sim.read_output("we")
    waddr = sim.read_output("waddr")
    wdata = sim.read_output("wdata")
    sim.tick()
    if we:
        harness.memory[waddr] = wdata
    harness.cycle += 1


SCHEDULE_CONFIGS = [CoreConfig(datawidth=8), CoreConfig(datawidth=8, pipeline_stages=3)]


#: Fault-site index per lane of a faulted schedule plan (None: healthy).
SCHEDULE_FAULTS = (None, 3, 10, None, 17, 24, 31, None, 38, 5, None, 12)


def _schedule_setup(config, faulted, lanes=6):
    netlist = generate_core(config)
    programs = [
        build_benchmark("mult", 8, 8), build_benchmark("crc8", 8, 8)
    ] * (lanes // 2)
    roms = [encode_program_for_core(p, config) for p in programs]
    mask = (1 << config.datawidth) - 1
    memories = []
    for program in programs:
        memory = [0] * config.data_memory_words()
        for address, value in program.data.items():
            memory[address] = value & mask
        memories.append(memory)
    faults = None
    if faulted:
        sites = enumerate_fault_sites(netlist, stride=23)
        faults = tuple(
            None if index is None else sites[index]
            for index in SCHEDULE_FAULTS[:lanes]
        )
    return netlist, programs, roms, memories, LanePlan(len(programs), faults=faults)


def _lane_architecture(sim, netlist, config):
    flag_nets, bar_nets = architectural_nets(netlist)
    sim.settle()
    return (
        sim.read_output("pc"),
        [sim.read_nets(flag_nets.get(f.name, ())) for f in config.flags],
        [sim.read_nets(bar_nets.get(i, ())) for i in range(1, config.num_bars)],
    )


class TestCycleScheduleAgainstLegacy:
    """Cone-scheduled cycles equal the three-full-settle oracle: the
    per-cycle memory trace and the final architectural signature."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    @pytest.mark.parametrize("engine", [BitParallelSimulator, NumpySimulator],
                             ids=["list-path", "array-path"])
    @pytest.mark.parametrize("config", SCHEDULE_CONFIGS, ids=lambda c: c.name)
    def test_lane_harness(self, config, engine, faulted):
        """Six lanes: the bigint ports take the word transpose."""
        self._check_lane_harness(config, engine, faulted, lanes=6)

    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    @pytest.mark.parametrize("config", SCHEDULE_CONFIGS, ids=lambda c: c.name)
    def test_list_path_beyond_word_lanes(self, config, faulted):
        """Twelve lanes: the bigint ports take the string transpose."""
        self._check_lane_harness(config, BitParallelSimulator, faulted, lanes=12)

    @staticmethod
    def _check_lane_harness(config, engine, faulted, lanes):
        netlist, programs, roms, memories, plan = _schedule_setup(
            config, faulted, lanes
        )
        halt = halt_word_encoder(config)
        harness = LaneMemoryHarness(
            engine(netlist, plan=plan), lanes=plan.lanes, roms=roms,
            memories=memories, halt_word=halt,
            pc_bits=len(netlist.outputs["pc"].nets),
        )
        assert harness.array_mode == (engine is NumpySimulator)
        legacy = LegacySchedule(engine(netlist, plan=plan), roms, memories, halt)
        harness.sim.reset()
        legacy.sim.reset()
        for cycle in range(CYCLES):
            harness.step()
            legacy.step()
            assert harness.memory_rows() == legacy.memory_rows(), cycle
        assert _lane_architecture(harness.sim, netlist, config) == (
            _lane_architecture(legacy.sim, netlist, config)
        )

    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    @pytest.mark.parametrize("config", SCHEDULE_CONFIGS, ids=lambda c: c.name)
    def test_cosim_harness(self, config, faulted):
        netlist, programs, _, _, plan = _schedule_setup(config, faulted)
        for program, fault in zip(programs[:3], plan.faults or (None,) * 3):
            harness = CoSimHarness(program, config, fault=fault)
            legacy = CoSimHarness(program, config, fault=fault)
            for cycle in range(CYCLES):
                harness.step()
                legacy_cosim_step(legacy)
                assert harness.memory == legacy.memory, (program.name, cycle)
            assert harness.pc == legacy.pc
            assert [harness.flag(f) for f in config.flags] == [
                legacy.flag(f) for f in config.flags
            ]
            assert [harness.bar(i) for i in range(config.num_bars)] == [
                legacy.bar(i) for i in range(config.num_bars)
            ]
            # The final full settle is unchanged, so activity is too.
            assert harness.sim.toggle_counts() == legacy.sim.toggle_counts()
