"""Equivalence suite: compiled simulation backends vs the interpreter.

The compiled backend, its bit-parallel lane mode, and the vectorized
numpy bit-slice backend must be bit-exact with the reference
interpreter -- same output values, same flop state, same fixed-point
behaviour -- on every configuration of the paper's Figure 7 sweep,
under randomized stimulus.  Fault injection and fault campaigns must
agree across all four backends as well, fault for fault.
"""

import random

import pytest

from repro.coregen.config import CoreConfig, standard_sweep
from repro.coregen.cosim import cosim_verify
from repro.coregen import fault_test
from repro.coregen.fault_test import run_fault_campaign
from repro.coregen.generator import generate_core
from repro.errors import SimulationError, UnsupportedInLaneMode
from repro.isa.assembler import assemble
from repro.netlist.compile import BitParallelSimulator, compiled_netlist
from repro.netlist.core import Netlist
from repro.netlist import lanes as lanes_mod
from repro.netlist.faults import FaultySimulator, StuckAtFault, enumerate_fault_sites
from repro.netlist.nsim import NumpySimulator
from repro.netlist.sim import CycleSimulator
from repro.netlist.sta import _topological_order


def random_stimulus(netlist, rng, cycle):
    """One random input assignment; reset pulsed on a few cycles."""
    stimulus = {
        name: rng.randrange(1 << len(bus)) for name, bus in netlist.inputs.items()
    }
    if "rst_n" in netlist.inputs:
        stimulus["rst_n"] = 0 if cycle % 11 == 0 else 1
    return stimulus


def drive_lockstep(netlist, sims, cycles, seed):
    """Drive identical random vectors; compare outputs every cycle."""
    rng = random.Random(seed)
    for cycle in range(cycles):
        stimulus = random_stimulus(netlist, rng, cycle)
        for sim in sims:
            for name, value in stimulus.items():
                sim.set_input(name, value)
            sim.settle()
        reference = sims[0]
        for sim in sims[1:]:
            for name in netlist.outputs:
                assert sim.read_output(name) == reference.read_output(name), (
                    f"cycle {cycle}, output {name}"
                )
        for sim in sims:
            sim.tick()


@pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
def test_compiled_matches_interpreter_on_sweep(config):
    """Values, flop state, and toggle counts agree on all 24 cores."""
    netlist = generate_core(config)
    interpreted = CycleSimulator(netlist, backend="interpreted")
    compiled = CycleSimulator(netlist, backend="compiled")
    drive_lockstep(netlist, [interpreted, compiled], cycles=20, seed=config.name)
    assert interpreted._values == compiled._values
    assert interpreted.toggle_counts() == compiled.toggle_counts()
    assert interpreted.cycles == compiled.cycles


@pytest.mark.parametrize(
    "config",
    [CoreConfig(datawidth=8), CoreConfig(datawidth=16, pipeline_stages=2)],
    ids=lambda c: c.name,
)
def test_bit_parallel_matches_scalar_lanes(config):
    """Each bigint lane behaves exactly like one scalar compiled sim,
    including per-lane asynchronous reset."""
    netlist = generate_core(config)
    lanes = 9
    parallel = BitParallelSimulator(netlist, lanes)
    scalars = [CycleSimulator(netlist, backend="compiled") for _ in range(lanes)]
    rng = random.Random(3)
    for cycle in range(25):
        for name, bus in netlist.inputs.items():
            if name == "rst_n":
                values = [0 if (cycle + lane) % 9 == 0 else 1 for lane in range(lanes)]
            else:
                values = [rng.randrange(1 << len(bus)) for _ in range(lanes)]
            parallel.set_input(name, values)
            for lane, sim in enumerate(scalars):
                sim.set_input(name, values[lane])
        parallel.settle()
        for sim in scalars:
            sim.settle()
        for name in netlist.outputs:
            assert parallel.read_output(name) == [
                sim.read_output(name) for sim in scalars
            ], f"cycle {cycle}, output {name}"
        parallel.tick()
        for sim in scalars:
            sim.tick()


@pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
def test_numpy_matches_interpreter_on_sweep(config):
    """Outputs, cycle counts, and architectural flop state agree on
    all 24 cores, with every lane of the bit-slice matrix carrying the
    same stimulus as the scalar reference."""
    netlist = generate_core(config)
    reference = CycleSimulator(netlist, backend="interpreted")
    lanes = 3
    vector = NumpySimulator(netlist, lanes)
    rng = random.Random(config.name)
    for cycle in range(20):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, value in stimulus.items():
            reference.set_input(name, value)
            vector.set_input(name, value)  # int broadcasts to all lanes
        reference.settle()
        vector.settle()
        for name in netlist.outputs:
            expected = reference.read_output(name)
            assert vector.read_output(name) == [expected] * lanes, (
                f"cycle {cycle}, output {name}"
            )
        reference.tick()
        vector.tick()
    assert vector.cycles == reference.cycles
    # Architectural state: every flop output net agrees in every lane
    # (>64 flops on the wide cores exercises chunked read_nets).
    flop_nets = [
        inst.output for inst in netlist.instances if inst.cell.startswith("DFF")
    ]
    expected = 0
    for i, net in enumerate(flop_nets):
        expected |= (reference._values[net] & 1) << i
    assert vector.read_nets(flop_nets) == [expected] * lanes


def test_numpy_lanes_match_bigint_lanes_across_word_boundary():
    """70 lanes (two uint64 words, partial second word) are bit-exact
    with the bigint lane backend under per-lane stimulus and reset."""
    netlist = generate_core(CoreConfig(datawidth=8))
    lanes = 70
    vector = NumpySimulator(netlist, lanes)
    parallel = BitParallelSimulator(netlist, lanes)
    rng = random.Random(5)
    for cycle in range(15):
        for name, bus in netlist.inputs.items():
            if name == "rst_n":
                values = [
                    0 if (cycle + lane) % 7 == 0 else 1 for lane in range(lanes)
                ]
            else:
                values = [rng.randrange(1 << len(bus)) for _ in range(lanes)]
            vector.set_input(name, values)
            parallel.set_input(name, values)
        vector.settle()
        parallel.settle()
        for name in netlist.outputs:
            assert vector.read_output(name) == parallel.read_output(name), (
                f"cycle {cycle}, output {name}"
            )
        vector.tick()
        parallel.tick()


def test_faulty_compiled_matches_interpreter():
    """Forced-settle fault injection is bit-exact, toggles included."""
    netlist = generate_core(CoreConfig(datawidth=8))
    for fault in enumerate_fault_sites(netlist, stride=131):
        interpreted = FaultySimulator(netlist, fault, backend="interpreted")
        compiled = FaultySimulator(netlist, fault, backend="compiled")
        drive_lockstep(
            netlist, [interpreted, compiled], cycles=12, seed=fault.instance_index
        )
        assert interpreted._values == compiled._values, fault
        assert interpreted.toggle_counts() == compiled.toggle_counts(), fault


def test_bit_parallel_fault_lanes_match_scalar_faults():
    """A lane with a stuck-at fault equals the scalar FaultySimulator."""
    netlist = generate_core(CoreConfig(datawidth=8))
    faults = enumerate_fault_sites(netlist, stride=211)
    lanes = len(faults)
    parallel = BitParallelSimulator(netlist, lanes, faults=faults)
    scalars = [
        FaultySimulator(netlist, fault, backend="compiled") for fault in faults
    ]
    rng = random.Random(17)
    for cycle in range(15):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, value in stimulus.items():
            parallel.set_input(name, value)
            for sim in scalars:
                sim.set_input(name, value)
        parallel.settle()
        for sim in scalars:
            sim.settle()
        for name in netlist.outputs:
            assert parallel.read_output(name) == [
                sim.read_output(name) for sim in scalars
            ], f"cycle {cycle}, output {name}"
        parallel.tick()
        for sim in scalars:
            sim.tick()


def test_numpy_fault_lanes_match_scalar_faults():
    """A numpy lane with a stuck-at fault equals the scalar
    FaultySimulator, fault for fault."""
    netlist = generate_core(CoreConfig(datawidth=8))
    faults = enumerate_fault_sites(netlist, stride=211)
    lanes = len(faults)
    vector = NumpySimulator(netlist, lanes, faults=faults)
    scalars = [
        FaultySimulator(netlist, fault, backend="compiled") for fault in faults
    ]
    rng = random.Random(17)
    for cycle in range(15):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, value in stimulus.items():
            vector.set_input(name, value)
            for sim in scalars:
                sim.set_input(name, value)
        vector.settle()
        for sim in scalars:
            sim.settle()
        for name in netlist.outputs:
            assert vector.read_output(name) == [
                sim.read_output(name) for sim in scalars
            ], f"cycle {cycle}, output {name}"
        vector.tick()
        for sim in scalars:
            sim.tick()


def _cone_engines(netlist):
    """Every compiled engine, healthy and forced, plus the interpreted
    oracles (which accept a cone and settle everything)."""
    faults = enumerate_fault_sites(netlist, stride=29)[:12]
    lanes = len(faults)
    return {
        "compiled": CycleSimulator(netlist, backend="compiled"),
        "compiled-forced": FaultySimulator(netlist, faults[1], backend="compiled"),
        "interpreted": CycleSimulator(netlist, backend="interpreted"),
        "interpreted-forced": FaultySimulator(netlist, faults[1]),
        "bigint": BitParallelSimulator(netlist, lanes),
        "bigint-forced": BitParallelSimulator(netlist, lanes, faults=faults),
        "numpy": NumpySimulator(netlist, lanes),
        "numpy-forced": NumpySimulator(netlist, lanes, faults=faults),
    }


@pytest.mark.parametrize("config", standard_sweep(), ids=lambda c: c.name)
def test_cone_settle_matches_full_settle_on_sweep(config):
    """``settle(outputs)`` leaves the selected buses exactly as a full
    settle does, on every engine, healthy and forced, on all 24 cores.

    Each cycle drives fresh random inputs and ticks, so the cone reads
    start from the previous cycle's values; the full settle after both
    cones recomputes every net from the same sources as the reference.
    """
    netlist = generate_core(config)
    engines = _cone_engines(netlist)
    rng = random.Random(config.name)
    for cycle in range(8):
        stimulus = random_stimulus(netlist, rng, cycle)
        for name, sim in engines.items():
            for bus, value in stimulus.items():
                sim.set_input(bus, value)
            coned = []
            for outputs in lanes_mod.CONE_OUTPUTS:
                sim.settle(outputs)
                coned.append([sim.read_output(bus) for bus in outputs])
            sim.settle()
            full = [
                [sim.read_output(bus) for bus in outputs]
                for outputs in lanes_mod.CONE_OUTPUTS
            ]
            assert coned == full, (name, cycle)
            sim.tick()


def test_cone_kernels_cover_only_their_fan_in():
    """The cores' ``pc`` comes straight from flops and the address cone
    is a small part of the netlist; netlists without the memory-phase
    buses get no cones and settle everything."""
    netlist = generate_core(CoreConfig(datawidth=8))
    cones = lanes_mod.memory_phase_cones(netlist, _topological_order(netlist))
    assert set(cones) == set(lanes_mod.CONE_OUTPUTS)
    assert cones[lanes_mod.FETCH_OUTPUTS][0] == []
    comb = sum(1 for i in netlist.instances if not i.cell.startswith("DFF"))
    assert 0 < len(cones[lanes_mod.READ_OUTPUTS][0]) < comb // 2
    assert set(compiled_netlist(netlist).cones) == set(lanes_mod.CONE_OUTPUTS)

    plain = Netlist("no_memory_ports")
    a = plain.input_bus("a", 2)
    plain.output_bus("y", [plain.xor_(a.nets[0], a.nets[1])])
    assert compiled_netlist(plain).cones == {}
    sim = CycleSimulator(plain, backend="compiled")
    sim.set_input("a", 1)
    sim.settle(lanes_mod.FETCH_OUTPUTS)  # no such cone: full settle
    assert sim.read_output("y") == 1


def _memory_port_netlist(outputs, source):
    """Netlist with the core's memory ports where ``outputs`` read the
    input bus ``source`` and the other buses read a neutral input."""
    netlist = Netlist(f"{source}_to_{outputs[0]}")
    inputs = {
        name: netlist.input_bus(name, 2)
        for name in ("instr", "rdata_a", "rdata_b", "other")
    }
    for name in ("pc", "addr_a", "addr_b"):
        bus = inputs[source if name in outputs else "other"]
        netlist.output_bus(name, [netlist.xor_(bus.nets[0], bus.nets[1])])
    return netlist


@pytest.mark.parametrize(
    "outputs, source",
    [
        (lanes_mod.FETCH_OUTPUTS, "instr"),
        (lanes_mod.FETCH_OUTPUTS, "rdata_a"),
        (lanes_mod.READ_OUTPUTS, "rdata_b"),
    ],
)
def test_cone_reading_a_later_input_is_refused(outputs, source):
    """A phase's bus that reads an input the cycle provides only after
    that phase would be read stale, so no engine generates for it."""
    netlist = _memory_port_netlist(outputs, source)
    with pytest.raises(SimulationError, match=source):
        lanes_mod.memory_phase_cones(netlist, _topological_order(netlist))
    with pytest.raises(SimulationError, match=source):
        compiled_netlist(netlist)
    with pytest.raises(SimulationError, match=source):
        NumpySimulator(netlist, 2)


def test_address_cone_may_read_the_fetched_instruction():
    """``instr`` is provided before the read phase: the cones accept it."""
    netlist = _memory_port_netlist(lanes_mod.READ_OUTPUTS, "instr")
    cones = compiled_netlist(netlist).cones
    assert set(cones) == set(lanes_mod.CONE_OUTPUTS)


def test_artifact_keys_cover_the_cone_definition(monkeypatch):
    """The cone kernels live in the compiled and numpy artifacts, so a
    change to the cone selection (``repro.netlist.lanes``) must change
    both artifact keys."""
    from repro.netlist import compile as compile_mod
    from repro.netlist import nsim as nsim_mod

    netlist = generate_core(CoreConfig(datawidth=4))
    revision = {"repro.netlist.lanes": 0}

    def digest(*names):
        return "|".join(f"{name}@{revision.get(name, 0)}" for name in names)

    for module in (compile_mod, nsim_mod):
        monkeypatch.setattr(module, "source_digest", digest)
        before = module._artifact_key(netlist)
        revision["repro.netlist.lanes"] += 1
        assert module._artifact_key(netlist) != before


class TestLaneModeGuards:
    @pytest.mark.parametrize(
        "simulator", [BitParallelSimulator, NumpySimulator],
        ids=lambda s: s.__name__,
    )
    def test_toggle_counts_raise_in_lane_mode(self, simulator):
        """Lane backends must refuse toggle/power queries loudly
        instead of silently returning nothing."""
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = simulator(netlist, 4)
        sim.reset()
        sim.settle()
        with pytest.raises(UnsupportedInLaneMode, match="lane mode"):
            sim.toggle_counts()


class TestFixedPointBehaviour:
    def feedback_netlist(self):
        netlist = Netlist("fixture")
        data_in = netlist.input_bus("mem_rdata", 4)
        register = netlist.register(data_in.nets, name="r")
        netlist.output_bus("mem_addr", register.nets)
        return netlist

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_step_with_memory_converges(self, backend):
        netlist = self.feedback_netlist()
        sim = CycleSimulator(netlist, backend=backend)
        sim.set_input("rst_n", 1)
        memory = {i: (3 * i) % 16 for i in range(16)}
        memory[0] = 5

        def provide(s):
            s.set_input("mem_rdata", memory[s.read_output("mem_addr")])

        sim.settle()
        sim.step_with_memory(provide)
        assert sim.read_output("mem_addr") == 5
        sim.step_with_memory(provide)
        assert sim.read_output("mem_addr") == 15

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_unstable_feedback_detected(self, backend):
        # Output depends combinationally on the read data, so a memory
        # model that keeps changing its answer can never settle.
        netlist = Netlist("unstable")
        data_in = netlist.input_bus("mem_rdata", 4)
        netlist.output_bus("mem_addr", [netlist.not_(n) for n in data_in.nets])
        sim = CycleSimulator(netlist, backend=backend)
        feed = iter(range(10))

        def unstable(s):
            s.set_input("mem_rdata", next(feed))

        with pytest.raises(SimulationError, match="fixed point"):
            sim.step_with_memory(unstable)


TINY = ".word x 3\n.word y 5\nADD x, y\nSTORE y, 1\nHALT\n"


class TestCampaignEquivalence:
    def test_all_backends_agree(self):
        program = assemble(TINY, name="tiny")
        campaigns = {
            backend: run_fault_campaign(program, stride=31, backend=backend)
            for backend in ("interpreted", "compiled", "batched")
        }
        reference = campaigns["interpreted"]
        for backend, campaign in campaigns.items():
            assert campaign.total == reference.total, backend
            assert campaign.detected == reference.detected, backend
            assert campaign.undetected_sites == reference.undetected_sites, backend

    def test_batched_partial_final_batch(self, monkeypatch):
        """A site count that does not divide the lane width still
        covers every fault exactly once."""
        monkeypatch.setattr(fault_test, "MAX_LANES", 7)
        program = assemble(".word x 1\nSTORE x, 2\nHALT\n", name="simple")
        campaign = run_fault_campaign(program, stride=40)
        assert campaign.total == campaign.detected + len(campaign.undetected_sites)
        assert campaign.total > 7

    def test_numpy_packed_campaign_equals_scalar_runs(self, monkeypatch):
        """An N-fault packed numpy campaign detects exactly the same
        faults as N independent scalar compiled runs -- the lane
        packing property, checked fault for fault (5-lane batches
        force several partial batches, all on the numpy engine)."""
        monkeypatch.setattr(lanes_mod, "NUMPY_MIN_LANES", 1)
        monkeypatch.setattr(fault_test, "MAX_LANES", 5)
        program = assemble(TINY, name="tiny")
        scalar = run_fault_campaign(program, stride=13, backend="compiled")
        packed = run_fault_campaign(program, stride=13)
        assert packed.total == scalar.total
        assert packed.detected == scalar.detected
        assert packed.undetected_sites == scalar.undetected_sites

    def test_chunks_on_both_sides_of_the_dispatch(self, monkeypatch):
        """Full 8-lane batches run on numpy, the short final batch on
        bigint; the campaign still equals the interpreted oracle fault
        for fault."""
        program = assemble(TINY, name="tiny")
        oracle = run_fault_campaign(program, stride=13, backend="interpreted")
        assert oracle.total % 8
        engines = []
        pick = lanes_mod.lane_engine

        def recording(lanes):
            engines.append(pick(lanes))
            return engines[-1]

        monkeypatch.setattr(lanes_mod, "lane_engine", recording)
        monkeypatch.setattr(lanes_mod, "NUMPY_MIN_LANES", 8)
        monkeypatch.setattr(fault_test, "MAX_LANES", 8)
        mixed = run_fault_campaign(program, stride=13)
        assert set(engines) == {"bigint", "numpy"}
        assert mixed == oracle


class TestCompiledCosim:
    # One kernel per core datawidth, verified gate-level with the
    # compiled backend (4-bit cores run coalesced 8-bit kernels).
    MATRIX = [("mult", 8, 4), ("mult", 8, 8), ("intAvg", 16, 16), ("mult", 32, 32)]

    @pytest.mark.parametrize("name,kernel_width,core_width", MATRIX)
    def test_kernel_verifies_compiled(self, name, kernel_width, core_width):
        from repro.programs import build_benchmark

        program = build_benchmark(name, kernel_width, core_width)
        mismatches = cosim_verify(program, backend="compiled")
        assert not mismatches, "; ".join(str(m) for m in mismatches[:10])


class TestCaching:
    def test_generate_core_is_memoized(self):
        config = CoreConfig(datawidth=8, num_bars=4)
        assert generate_core(config) is generate_core(CoreConfig(datawidth=8, num_bars=4))

    def test_compiled_code_cached_on_netlist(self):
        netlist = generate_core(CoreConfig(datawidth=8))
        assert compiled_netlist(netlist) is compiled_netlist(netlist)

    def test_numpy_code_cached_on_netlist(self):
        from repro.netlist.nsim import numpy_netlist

        netlist = generate_core(CoreConfig(datawidth=8))
        assert numpy_netlist(netlist) is numpy_netlist(netlist)

    def test_numpy_cache_dropped_on_pickle(self):
        import pickle

        from repro.netlist.nsim import numpy_netlist

        netlist = generate_core(CoreConfig(datawidth=4))
        numpy_netlist(netlist)
        clone = pickle.loads(pickle.dumps(netlist))
        assert not hasattr(clone, "_numpy_sim")
        # And the clone recompiles to working kernels.
        sim = NumpySimulator(clone, 2)
        sim.reset()
        sim.settle()

    def test_unknown_backend_rejected(self):
        netlist = generate_core(CoreConfig(datawidth=8))
        with pytest.raises(SimulationError, match="backend"):
            CycleSimulator(netlist, backend="jit")
