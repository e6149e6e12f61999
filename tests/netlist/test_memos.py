"""Structure-derived memos on a netlist: sorted and indexed once.

The combinational topological order and the architectural flag/BAR
net index are derived from a netlist's structure, which is immutable
once elaborated, so both are computed once per netlist and memoized on
it.  Callers get fresh containers (no caller can corrupt the memo) and
pickles carry structure only.
"""

import pickle

import pytest

from repro.coregen import cosim
from repro.coregen.config import CoreConfig
from repro.coregen.cosim import architectural_nets
from repro.coregen.generator import generate_core
from repro.netlist import sta
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.core import Netlist
from repro.netlist.sim import CycleSimulator


def _chain(length):
    netlist = Netlist("memo-chain")
    net = netlist.input_bus("a", 1)[0]
    for _ in range(length):
        net = netlist.add_instance("INVX1", (net,))
    netlist.output_bus("y", [net])
    return netlist


@pytest.fixture
def sorts(monkeypatch):
    """Count the uncached topological sorts."""
    calls = []
    sort = sta._sort_combinational

    def counting(netlist):
        calls.append(netlist.name)
        return sort(netlist)

    monkeypatch.setattr(sta, "_sort_combinational", counting)
    return calls


class TestTopologicalOrderMemo:
    def test_second_simulator_does_not_sort_again(self, sorts):
        netlist = _chain(4)
        CycleSimulator(netlist, backend="interpreted")
        assert len(sorts) == 1
        CycleSimulator(netlist, backend="interpreted")
        CycleSimulator(netlist, backend="compiled")
        BitParallelSimulator(netlist, 3)
        assert len(sorts) == 1

    def test_callers_get_fresh_lists(self, sorts):
        netlist = _chain(3)
        order = sta.topological_order(netlist)
        expected = list(order)
        order.clear()
        assert sta.topological_order(netlist) == expected
        assert len(sorts) == 1

    def test_growing_netlist_sorts_again(self, sorts):
        netlist = _chain(2)
        first = sta.topological_order(netlist)
        netlist.add_instance("INVX1", (first[-1].output,))
        assert len(sta.topological_order(netlist)) == len(first) + 1
        assert len(sorts) == 2


class TestArchitecturalNetsMemo:
    def test_indexed_once_and_returned_fresh(self, monkeypatch):
        netlist = generate_core(CoreConfig(datawidth=8))
        flags, bars = architectural_nets(netlist)
        monkeypatch.setattr(
            cosim, "_index_architectural_nets",
            lambda netlist: pytest.fail("indexed again"),
        )
        flags.clear()
        bars.clear()
        again_flags, again_bars = architectural_nets(netlist)
        assert again_flags and again_bars


def test_pickled_netlist_carries_no_memo():
    netlist = _chain(3)
    sta.topological_order(netlist)
    architectural_nets(netlist)
    BitParallelSimulator(netlist, 2)
    assert {"_topological_memo", "_architectural_nets", "_compiled_sim"} <= (
        set(vars(netlist))
    )
    clone = pickle.loads(pickle.dumps(netlist))
    for memo in ("_topological_memo", "_architectural_nets", "_compiled_sim"):
        assert memo not in vars(clone)
    assert [i.output for i in sta.topological_order(clone)] == [
        i.output for i in sta.topological_order(netlist)
    ]
