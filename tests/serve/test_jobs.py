"""JobManager semantics: dedup, lifecycle, drain, eviction, ledger."""

import threading

import pytest

from repro import obs
from repro.errors import ConfigError
from repro.obs.history import series_direction
from repro.serve.drivers import canonical_params, job_kinds
from repro.serve.jobs import JobManager, job_key

from tests.serve.conftest import wait_until


class TestCanonicalParams:
    def test_defaults_filled_and_coerced(self, serve_obs):
        assert canonical_params("echo", {"value": "7"}) == {
            "value": 7,
            "sleep_s": 0.0,
            "fail": False,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown job kind"):
            canonical_params("nonsense", {})

    def test_unknown_param_rejected(self, serve_obs):
        with pytest.raises(ConfigError, match="unknown echo parameter"):
            canonical_params("echo", {"vlaue": 1})
        # The lane engine is picked by width, never by a parameter.
        with pytest.raises(ConfigError, match="unknown campaign parameter"):
            canonical_params("campaign", {"backend": "numpy"})

    def test_builtin_kinds_registered(self):
        for kind in ("sweep", "yield", "campaign", "verify", "profile", "place"):
            assert kind in job_kinds()

    def test_key_is_canonical_form_stable(self, serve_obs):
        key_a = job_key("echo", canonical_params("echo", {"value": "7"}))
        key_b = job_key("echo", canonical_params("echo", {"value": 7}))
        assert key_a == key_b
        assert key_a != job_key("echo", canonical_params("echo", {"value": 8}))


class TestJobLifecycle:
    def test_submit_runs_to_done(self, manager):
        job, deduped = manager.submit("echo", {"value": 7})
        assert not deduped
        assert job.id == "job-0001"
        assert len(job.trace_id) == 16
        wait_until(lambda: job.finished)
        assert job.status == "done"
        assert job.result == {"value": 7}
        assert job.queue_wait_s >= 0
        assert job.wall_s >= 0
        assert job.report is not None
        assert [e.name for e in job.spans] == ["echo"]
        assert all(e.trace_id == job.trace_id for e in job.spans)

    def test_failure_becomes_job_state(self, manager):
        job, _ = manager.submit("echo", {"fail": True})
        wait_until(lambda: job.finished)
        assert job.status == "failed"
        assert "echo told to fail" in job.error
        assert obs.REGISTRY.counter("serve.jobs.failed").value >= 1
        # Bad campaign inputs fail the job with the library's message.
        job, _ = manager.submit("campaign", {"stride": 0})
        wait_until(lambda: job.finished)
        assert job.status == "failed"
        assert "stride must be >= 1" in job.error

    def test_job_to_dict_shapes(self, manager):
        job, _ = manager.submit("echo", {"value": 1})
        wait_until(lambda: job.finished)
        out = job.to_dict()
        assert "result" not in out
        assert job.to_dict(include_result=True)["result"] == {"value": 1}
        assert out["status"] == "done"
        assert out["span_count"] == 1

    def test_progress_tap_folds_into_running_job(self, manager, serve_obs):
        job, _ = manager.submit("echo", {"sleep_s": 0.5})
        wait_until(lambda: job.status == "running")
        serve_obs.publish(
            "progress",
            {
                "label": "probe",
                "done": 5,
                "total": 10,
                "percent": 50,
                "rate": 1.0,
                "eta_s": 5.0,
                "trace_id": job.trace_id,
            },
        )
        wait_until(lambda: job.progress is not None)
        assert job.progress["percent"] == 50
        wait_until(lambda: job.finished)


class TestDedup:
    def test_concurrent_identical_submissions_coalesce(self, manager):
        # A blocker pins the single worker so the probes stay queued.
        blocker, _ = manager.submit("echo", {"sleep_s": 0.3, "value": -1})
        n = 8
        barrier = threading.Barrier(n)
        results = []

        def submit():
            barrier.wait()
            results.append(manager.submit("echo", {"value": 42}))

        threads = [threading.Thread(target=submit) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        jobs = {job.id for job, _ in results}
        assert len(jobs) == 1
        (the_job,) = {job for job, _ in results}
        assert sum(1 for _, deduped in results if deduped) == n - 1
        assert the_job.dedup_hits == n - 1
        assert obs.REGISTRY.counter("serve.dedup_hits").value == n - 1
        wait_until(lambda: the_job.finished and blocker.finished)

    def test_dedup_hits_finished_job_too(self, manager):
        first, _ = manager.submit("echo", {"value": 9})
        wait_until(lambda: first.finished)
        again, deduped = manager.submit("echo", {"value": 9})
        assert deduped and again is first

    def test_failed_job_never_dedups(self, manager):
        first, _ = manager.submit("echo", {"fail": True})
        wait_until(lambda: first.finished)
        retry, deduped = manager.submit("echo", {"fail": True})
        assert not deduped
        assert retry.id != first.id

    def test_string_params_coalesce_with_typed(self, manager):
        first, _ = manager.submit("echo", {"value": 3})
        _, deduped = manager.submit("echo", {"value": "3"})
        assert deduped
        wait_until(lambda: first.finished)


class TestQueueAndDrain:
    def test_queue_position(self, manager):
        blocker, _ = manager.submit("echo", {"sleep_s": 0.3})
        second, _ = manager.submit("echo", {"value": 1})
        third, _ = manager.submit("echo", {"value": 2})
        wait_until(lambda: blocker.status == "running")
        assert manager.queue_position(second) == 0
        assert manager.queue_position(third) == 1
        wait_until(lambda: third.finished)
        assert manager.queue_position(third) is None

    def test_drain_refuses_new_work_and_empties(self, manager):
        job, _ = manager.submit("echo", {"sleep_s": 0.2})
        assert manager.drain(timeout=5.0)
        assert job.finished
        with pytest.raises(RuntimeError, match="draining"):
            manager.submit("echo", {"value": 1})
        assert manager.stats()["draining"] is True

    def test_drain_times_out_on_stuck_job(self, serve_obs):
        mgr = JobManager(workers=1)
        mgr.start()
        try:
            mgr.submit("echo", {"sleep_s": 2.0})
            assert mgr.drain(timeout=0.1) is False
        finally:
            mgr.stop()

    def test_eviction_drops_oldest_finished(self, serve_obs):
        mgr = JobManager(workers=1, max_jobs=2)
        mgr.start()
        try:
            jobs = [mgr.submit("echo", {"value": i})[0] for i in range(3)]
            wait_until(lambda: all(j.finished for j in jobs))
            mgr.submit("echo", {"value": 99})
            assert len(mgr.jobs()) <= 3  # table bounded near max_jobs
            assert mgr.job(jobs[0].id) is None  # oldest finished evicted
        finally:
            mgr.stop()


class TestLedger:
    def test_queue_wait_series_gates_lower(self):
        assert series_direction("serve.queue_wait_s") == "lower"
        assert series_direction("serve.echo.wall_s") == "lower"

    def test_completed_job_appends_serve_record(self, manager, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
        job, _ = manager.submit("echo", {"value": 5})
        wait_until(lambda: job.finished)
        ledger = tmp_path / "ledger.jsonl"
        wait_until(lambda: ledger.exists())
        import json

        records = [
            json.loads(line)
            for line in ledger.read_text().splitlines()
            if line
        ]
        serve_records = [r for r in records if r["kind"] == "serve"]
        assert serve_records
        series = serve_records[-1]["series"]
        assert "serve.echo.wall_s" in series
        assert "serve.queue_wait_s" in series
        assert series["serve.jobs.completed"] >= 1
