"""LanePlan packing semantics and numpy bit-slice backend surfaces.

The LanePlan is the contract both lane backends build their force
state from, so its validation and ordering rules are load-bearing:
a divergence here would let the bigint and numpy backends drift apart
silently.
"""

import pytest

from repro.coregen.config import CoreConfig
from repro.coregen.generator import generate_core
from repro.errors import SimulationError
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.core import Netlist
from repro.netlist.faults import StuckAtFault
from repro.netlist import lanes
from repro.netlist.lanes import LanePlan, lane_engine, lane_simulator
from repro.netlist.nsim import NumpySimulator, compile_numpy_netlist


class TestLanePlan:
    def test_rejects_zero_lanes(self):
        with pytest.raises(SimulationError, match="at least one lane"):
            LanePlan(lanes=0)

    def test_rejects_fault_count_mismatch(self):
        with pytest.raises(SimulationError, match="3 faults for 2 lanes"):
            LanePlan(lanes=2, faults=(None, None, None))

    def test_rejects_memory_count_mismatch(self):
        with pytest.raises(SimulationError, match="memory images"):
            LanePlan(lanes=3, memories=((0,), (0,)))

    def test_for_faults_one_lane_per_entry(self):
        faults = (StuckAtFault(0, 1), None, StuckAtFault(2, 0))
        plan = LanePlan.for_faults(faults)
        assert plan.lanes == 3
        assert plan.faults == faults
        assert plan.has_forces

    def test_all_healthy_lanes_have_no_forces(self):
        plan = LanePlan.for_faults((None, None))
        assert not plan.has_forces
        assert plan.forced_bits(generate_core(CoreConfig(datawidth=4))) == {}

    def test_forced_bits_orders_by_first_lane_appearance(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((
            StuckAtFault(5, 1),
            StuckAtFault(2, 0),
            StuckAtFault(5, 0),  # same net as lane 0, opposite value
        ))
        forced = plan.forced_bits(netlist)
        nets = list(forced)
        assert nets == [netlist.instances[5].output, netlist.instances[2].output]
        assert forced[netlist.instances[5].output] == [(0, 1), (2, 0)]
        assert forced[netlist.instances[2].output] == [(1, 0)]

    def test_forced_bits_validates_instance_index(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((StuckAtFault(10**6, 1),))
        with pytest.raises(SimulationError, match="no instance"):
            plan.forced_bits(netlist)

    def test_memory_images_default_to_base(self):
        plan = LanePlan(lanes=3, memories=(None, (7, 8), None))
        images = plan.memory_images((1, 2))
        assert images == [[1, 2], [7, 8], [1, 2]]
        images[0][0] = 99  # mutable copies, not aliases
        assert plan.memory_images((1, 2))[0] == [1, 2]

    @pytest.mark.parametrize(
        "simulator", [BitParallelSimulator, NumpySimulator],
        ids=lambda s: s.__name__,
    )
    def test_simulators_accept_explicit_plan(self, simulator):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((StuckAtFault(3, 1), None))
        sim = simulator(netlist, plan=plan)
        assert sim.lanes == 2
        assert sim.plan is plan
        sim.reset()
        sim.settle()
        # Lane 0 must see the forced net stuck high; lane 1 must not
        # be forced (it tracks whatever the logic computes).
        net = netlist.instances[3].output
        assert sim.read_nets([net])[0] == 1

    @pytest.mark.parametrize(
        "simulator", [BitParallelSimulator, NumpySimulator],
        ids=lambda s: s.__name__,
    )
    def test_simulators_reject_lane_fault_mismatch(self, simulator):
        netlist = generate_core(CoreConfig(datawidth=4))
        with pytest.raises(SimulationError, match="faults for"):
            simulator(netlist, 3, faults=[StuckAtFault(0, 1)] * 2)


class TestLaneDispatch:
    def test_engine_flips_at_the_threshold(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        edge = lanes.NUMPY_MIN_LANES
        below = lane_simulator(netlist, LanePlan(edge - 1))
        at = lane_simulator(netlist, LanePlan(edge))
        assert type(below) is BitParallelSimulator
        assert type(at) is NumpySimulator
        assert (below.lanes, at.lanes) == (edge - 1, edge)
        assert (lane_engine(edge - 1), lane_engine(edge)) == ("bigint", "numpy")

    def test_plan_reaches_the_engine(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        plan = LanePlan.for_faults((StuckAtFault(3, 1), None))
        assert lane_simulator(netlist, plan).plan is plan


class TestNumpySimulatorSurfaces:
    def test_rejects_unknown_input_and_output(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = NumpySimulator(netlist, 2)
        with pytest.raises(SimulationError, match="no input bus"):
            sim.set_input("bogus", 0)
        with pytest.raises(SimulationError, match="no output bus"):
            sim.read_output("bogus")

    def test_rejects_out_of_range_values(self):
        netlist = generate_core(CoreConfig(datawidth=4))
        sim = NumpySimulator(netlist, 2)
        width = len(netlist.inputs["instr"])
        with pytest.raises(SimulationError, match="does not fit input"):
            sim.set_input("instr", 1 << width)
        with pytest.raises(SimulationError, match="does not fit input"):
            sim.set_input("instr", [0, 1 << width])
        with pytest.raises(SimulationError, match="values for 2 lanes"):
            sim.set_input("instr", [0, 0, 0])

    def test_rejects_latches(self):
        netlist = Netlist("latchy")
        data = netlist.input_bus("d", 1)
        gate = netlist.input_bus("g", 1)
        out = netlist.net("q")
        netlist.add_instance("LATCHX1", (data.nets[0], gate.nets[0]), out)
        netlist.output_bus("q", [out])
        with pytest.raises(SimulationError, match="latches"):
            compile_numpy_netlist(netlist)

    def test_read_nets_beyond_64_nets(self):
        """>64-net collections recombine chunked uint64 gathers into
        bigints (parity with the bigint backend)."""
        netlist = generate_core(CoreConfig(datawidth=8))
        sim = NumpySimulator(netlist, 3)
        bigint = BitParallelSimulator(netlist, 3)
        for s in (sim, bigint):
            s.reset()
            s.set_input("instr", 0)
            s.settle()
        nets = [inst.output for inst in netlist.instances[:100]]
        assert sim.read_nets(nets) == bigint.read_nets(nets)
