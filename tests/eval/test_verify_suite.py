"""Lane-packed suite verification (:func:`repro.eval.suite.verify_suite`)."""

import repro.eval.suite as suite_mod
from repro.eval.suite import evaluate_suite, verify_groups, verify_suite
from repro.netlist import lanes


def test_verify_groups_cover_native_widths():
    groups = verify_groups()
    widths = [config.datawidth for config, _, _ in groups]
    assert widths == [8, 16, 32]
    by_width = {
        config.datawidth: names for config, names, _ in groups
    }
    # crc8 exists only at 8 bits; everything else at 8/16/32.
    assert "crc88" in by_width[8]
    assert len(by_width[8]) == 7
    assert len(by_width[16]) == len(by_width[32]) == 6
    for config, names, programs in groups:
        assert len(names) == len(programs)
        assert config.pipeline_stages == 1


def test_verify_suite_batched_full():
    """The whole suite, lane-packed on the engine the dispatch picks
    (bigint: no group reaches ``NUMPY_MIN_LANES``)."""
    verified = verify_suite()
    assert verified == {"p1_8_2": 7, "p1_16_2": 6, "p1_32_2": 6}


def test_verify_suite_numpy_first_group(monkeypatch):
    """The numpy engine on the 8-bit group, forced through the dispatch
    threshold."""
    groups = verify_groups()[:1]
    monkeypatch.setattr(suite_mod, "verify_groups", lambda: groups)
    monkeypatch.setattr(lanes, "NUMPY_MIN_LANES", 1)
    assert verify_suite() == {"p1_8_2": 7}


def test_evaluate_suite_with_verification(monkeypatch):
    """``verify=True`` gates evaluation on a clean verify pass."""
    calls = []
    monkeypatch.setattr(suite_mod, "verify_suite", lambda: calls.append(1) or {})
    results = evaluate_suite(("EGFET",), verify=True)
    assert calls == [1]
    assert results
