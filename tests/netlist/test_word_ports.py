"""Bus ports of the bigint lane simulator against the string transpose.

Plans of up to eight lanes transpose ``set_input``/``read_nets`` by
word arithmetic; wider plans, buses wider than 64 bits and net
selections of more than 64 nets keep the binary-string transpose.  The
oracles below are that string transpose, copied here, so every path
is checked bit for bit against it -- at 1-8 lanes, at the 9-lane
boundary, for bus widths 1-64 and beyond.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netlist.compile import BitParallelSimulator
from repro.netlist.core import Netlist

#: Bus widths with an input bus each: every word-port width, plus
#: string-path widths past 64 bits.
WIDTHS = tuple(range(1, 65)) + (65, 100)

#: Lane counts on the word path (1-8) and on each side of the boundary.
LANES = tuple(range(1, 10)) + (16,)


def oracle_set(values, width):
    """Lane word per bus net (LSB first) of per-lane ``values``."""
    digits = f"0{width}b"
    flat = "".join([format(value, digits) for value in reversed(values)])
    words = [int(flat[k::width], 2) for k in range(width)]
    words.reverse()
    return words


def oracle_read(words, lanes):
    """Per-lane values of the nets whose lane words are ``words``."""
    flat = "".join([format(word, f"0{lanes}b") for word in reversed(words)])
    out = [int(flat[k::lanes], 2) for k in range(lanes)]
    out.reverse()
    return out


@pytest.fixture(scope="module")
def netlist():
    netlist = Netlist("ports")
    for width in WIDTHS:
        netlist.input_bus(f"a{width}", width)
    return netlist


@pytest.fixture(scope="module")
def sims(netlist):
    return {lanes: BitParallelSimulator(netlist, lanes) for lanes in LANES}


def _lane_values(rng, width, lanes, kind):
    if kind == "zeros":
        return [0] * lanes
    if kind == "ones":
        return [(1 << width) - 1] * lanes
    return [rng.getrandbits(width) for _ in range(lanes)]


def _bus_words(sim, netlist, width):
    """The value table's lane words of input bus ``a<width>``."""
    return [sim._values[net] for net in netlist.inputs[f"a{width}"].nets]


@pytest.mark.parametrize("kind", ["random", "zeros", "ones"])
@pytest.mark.parametrize("lanes", LANES)
def test_set_input_matches_string_transpose(netlist, sims, lanes, kind):
    sim = sims[lanes]
    rng = random.Random(lanes)
    for width in WIDTHS:
        for _ in range(3 if kind == "random" else 1):
            values = _lane_values(rng, width, lanes, kind)
            sim.set_input(f"a{width}", values)
            assert _bus_words(sim, netlist, width) == (
                oracle_set(values, width)
            ), (width, values)


@pytest.mark.parametrize("kind", ["random", "zeros", "ones"])
@pytest.mark.parametrize("lanes", LANES)
def test_read_nets_matches_string_transpose(netlist, sims, lanes, kind):
    sim = sims[lanes]
    rng = random.Random(100 + lanes)
    nets = [net for width in WIDTHS for net in netlist.inputs[f"a{width}"].nets]
    full = (1 << lanes) - 1
    for count in WIDTHS + (len(nets),):
        for _ in range(3 if kind == "random" else 1):
            selection = rng.sample(nets, count)
            for net in selection:
                sim._values[net] = {
                    "random": rng.getrandbits(lanes), "zeros": 0, "ones": full,
                }[kind]
            words = [sim._values[net] for net in selection]
            assert sim.read_nets(selection) == oracle_read(words, lanes), count


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_property(netlist, sims, data):
    lanes = data.draw(st.sampled_from(LANES))
    width = data.draw(st.sampled_from(WIDTHS))
    values = data.draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes)
    )
    sim = sims[lanes]
    sim.set_input(f"a{width}", values)
    assert _bus_words(sim, netlist, width) == oracle_set(values, width)
    assert sim.read_nets(netlist.inputs[f"a{width}"].nets) == values


def test_empty_selection_reads_zero(sims):
    for lanes, sim in sims.items():
        assert sim.read_nets(()) == [0] * lanes


@pytest.mark.parametrize("lanes", [1, 6, 8, 9])
@pytest.mark.parametrize("width", [1, 8, 24, 64, 65])
def test_out_of_range_values_still_raise(sims, lanes, width):
    sim = sims[lanes]
    name = f"a{width}"
    for bad in (-1, 1 << width):
        values = [0] * lanes
        values[lanes - 1] = bad
        with pytest.raises(SimulationError, match="does not fit"):
            sim.set_input(name, values)
        with pytest.raises(SimulationError, match="does not fit"):
            sim.set_input(name, bad)
    with pytest.raises(SimulationError, match="lanes"):
        sim.set_input(name, [0] * (lanes + 1))
    with pytest.raises(SimulationError, match="no input bus"):
        sim.set_input("missing", [0] * lanes)
