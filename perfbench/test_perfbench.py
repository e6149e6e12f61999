"""The benchmark's own tests.

    python3 -m pytest perfbench -q          # from the checkout root

The smoke tests run every workload once untraced and once traced at a
one-second body, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import loads  # noqa: E402
import run  # noqa: E402
from common import derive, load_pins  # noqa: E402


# -- tracer accounting -----------------------------------------------------------


def _sleeper(seconds):
    def fn():
        time.sleep(seconds)
    return fn


def test_self_times_add_up_to_top_level_time():
    tracer = layers.Tracer()
    inner = _sleeper(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("b", inner, (), {})
        tracer.call("a", inner, (), {})  # same layer again: pass-through

    tracer.call("a", outer, (), {})
    tracer.call("b", inner, (), {})
    totals = tracer.export()
    a, b = totals["layers"]["a"], totals["layers"]["b"]
    assert a["calls"] == 1 and b["calls"] == 2
    assert a["self"] + b["self"] == pytest.approx(totals["toplevel_s"])
    assert a["busy"] >= 0.05 and a["self"] >= 0.03
    assert b["busy"] >= 0.04


def test_worker_totals_stay_off_the_timeline():
    parent, worker = layers.Tracer(), layers.Tracer()
    worker.call("w", _sleeper(0.01), (), {})
    parent.merge(worker.export(), timeline=False)
    merged = parent.export()
    assert merged["layers"]["w"]["busy"] >= 0.01
    assert merged["layers"]["w"]["self"] == 0.0
    assert merged["toplevel_s"] == 0.0


def test_install_wraps_every_target_and_uninstall_restores():
    assert layers.installed_wrappers() == []
    uninstall = layers.install(layers.Tracer())
    try:
        wrapped = layers.installed_wrappers()
        for module, path, _, _ in layers.TARGETS:
            assert f"{module}.{path}" in wrapped
        # Names imported into other modules are rebound too.
        assert "repro.programs.build_benchmark" in wrapped
    finally:
        uninstall()
    assert layers.installed_wrappers() == []


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    def refuse(tracer):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(layers, "install", refuse)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "verify-narrow", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert layers.installed_wrappers() == []


# -- inputs and pins -------------------------------------------------------------


def test_seeded_inputs_are_pinned():
    pins = load_pins()
    assert set(pins["serve-mix"]) == {
        loads.job_key(kind, params)
        for jobs in loads.serve_pool().values() for kind, params in jobs}
    assert len(pins["verify-narrow"]["clean_verify_seeds"]) == \
        loads.VerifyNarrow.SEEDS
    for seed in range(50):
        assert 0 <= derive(seed, "verify", 8) < 8
    assert derive(7, "serve", 100) == derive(7, "serve", 100)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(loads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in run.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- smoke runs ------------------------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(loads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload):
    plain = _run(workload, 0)
    traced = _run(workload, 1)
    for result, table in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [entry[0] for entry in table]
        for entry in table:
            assert entry[2] in ("higher", "lower")
            assert result["metrics"][entry[0]]["unit"] == entry[1]
    for name, _, _ in run.END_TO_END:
        assert plain["metrics"][name]["value"] > 0
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert accounted + metrics["unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=0.01)
    assert metrics["unattributed_s"] >= 0
    assert metrics["failed_ratio"] == 0


def test_missing_sources_fail_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
