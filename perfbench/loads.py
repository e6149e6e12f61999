"""The two benchmark workloads.

Each workload runs the program the way its users do -- in-process
``repro.__main__.main(argv)`` calls, or HTTP requests to a
``python -m repro serve`` process -- so every default is the one users
get.  A run repeats one fixed *pass* of operations; every operation's
output is checked against the pins in ``pins.json``.

An operation is a verify case, a suite program or a serve request;
``attempted`` and ``failed`` count them, and ``items`` counts the work
each one finished.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from common import (
    child_argv,
    derive,
    digest_json,
    median,
    percentile,
    timed_ready,
)

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


@dataclass
class Op:
    """One finished operation."""

    kind: str
    latency: float
    attempted: int = 1
    failed: int = 0
    items: int = 1
    #: Deferred output check, run outside the pass timing; returns 1 on
    #: a mismatch.
    check: Callable[[], int] | None = None


class Workload:
    """One workload; subclasses fill in set-up and one pass."""

    name = ""
    why = ""
    #: Whether passes run in this process, so one pass warms the next.
    in_process = False

    def __init__(self, root: Path, dirs, seed: int, pins: dict) -> None:
        self.root = root
        self.dirs = dirs
        self.seed = seed
        self.pins = pins
        self.tracer = None

    def inputs(self) -> dict:
        """The seed-derived inputs, recorded with the result."""
        return {}

    def setup_sample(self) -> float:
        """One set-up, timed from interpreter start in a fresh process."""
        env = self.dirs.env(self.dirs.fresh("cache"), self.dirs.fresh("hist"))
        return timed_ready(child_argv("setup", self.name), env, self.dirs.path)

    @classmethod
    def setup_in_process(cls) -> None:
        """Imports, elaboration and codegen before the first timed item."""

    def prepare(self) -> None:
        """Untimed set-up of this process before the first pass."""
        self.setup_in_process()

    def run_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``prepare`` started."""

    def exhausted(self) -> bool:
        """Whether the inputs for another pass have run out."""
        return False

    def trace_totals(self) -> list[dict]:
        """Span totals gathered from other processes (traced runs)."""
        return []

    def extra_metrics(self, ops: list[Op], pass_walls: list[float]) -> dict:
        """The workload's own end-to-end figures."""
        return {}


def run_main(argv: list[str]) -> tuple[int, str, float]:
    """``repro.__main__.main(argv)`` with output captured."""
    from repro.__main__ import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an operation failure, not a crash
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), time.perf_counter() - start


def _warm_cores(configs) -> None:
    from repro.coregen.generator import generate_core
    from repro.netlist.compile import compiled_netlist
    from repro.netlist.nsim import numpy_netlist

    for config in configs:
        netlist = generate_core(config)
        compiled_netlist(netlist)
        numpy_netlist(netlist)


# -- verify-narrow -------------------------------------------------------------


class VerifyNarrow(Workload):
    name = "verify-narrow"
    why = ("differential verify and verify-suite at 1-19 lanes in process: "
           "ISS and scalar, bigint and numpy simulators at few-lane width")

    in_process = True
    COUNT = 2
    SEED_STEP = 100
    SEEDS = 32

    @property
    def verify_seed(self) -> int:
        return self.SEED_STEP * derive(self.seed, "verify", self.SEEDS)

    def inputs(self) -> dict:
        return {"verify_seed": self.verify_seed, "count": self.COUNT}

    @classmethod
    def setup_in_process(cls) -> None:
        import repro.__main__  # noqa: F401
        from repro.eval.suite import verify_groups
        from repro.verify.corpus import DEFAULT_CONFIGS

        groups = verify_groups()
        _warm_cores(list(DEFAULT_CONFIGS) + [config for config, _, _ in groups])

    @staticmethod
    def parse_verify(stdout: str):
        match = re.search(r"verify: (\d+) cases, (\d+) divergent", stdout)
        return (int(match.group(1)), int(match.group(2))) if match else None

    @staticmethod
    def parse_suite(stdout: str) -> dict:
        return {name: int(count) for name, count in re.findall(
            r"^\s+(\S+): (\d+) benchmarks agree", stdout, re.M)}

    def run_pass(self, index: int) -> list[Op]:
        cases = 3 * self.COUNT
        code, stdout, seconds = run_main(
            ["verify", "--count", str(self.COUNT),
             "--seed", str(self.verify_seed), "--jobs", "1"])
        parsed = self.parse_verify(stdout)
        if code != 0 or parsed is None or parsed[0] != cases:
            failed = cases
        else:
            failed = parsed[1]
        ops = [Op("verify", seconds, cases, failed, cases - failed)]
        expected = self.pins["verify-narrow"]["suite"]
        programs = sum(expected.values())
        code, stdout, seconds = run_main(
            ["campaign", "--verify-suite", "--jobs", "1"])
        ok = code == 0 and self.parse_suite(stdout) == expected
        ops.append(Op("suite", seconds, programs, 0 if ok else programs,
                      programs if ok else 0))
        return ops

    def extra_metrics(self, ops, pass_walls) -> dict:
        return {"verify_cases_per_s":
                sum(o.items for o in ops) / sum(pass_walls)}


# -- serve-mix -------------------------------------------------------------------


#: Variant label -> (kind, param -> params) for the serve-mix job pool.
#: Jobs of one variant differ only in one parameter, so every seed loads
#: the service nearly alike.
SERVE_VARIANTS = {
    "yield": ("yield", lambda k: {"instances": 200, "seed": k}),
    "place": ("place", lambda k: {"fabric": "small", "seed": k,
                                  "sweeps": 2}),
    "campaign-mult": ("campaign", lambda k: {"program": "mult",
                                             "stride": 2 + k,
                                             "max_faults": 128}),
    "campaign-dTree": ("campaign", lambda k: {"program": "dTree",
                                              "stride": 2 + k,
                                              "max_faults": 128}),
} | {
    f"profile-{program}": (
        "profile",
        lambda k, program=program: {"program": program,
                                    "max_cycles": 200_000 - 1000 * k})
    for program in ("mult", "crc8", "dTree")
}

#: Distinct jobs per variant in the pool.
VARIANT_POOL = 160


def serve_pool() -> dict[str, list[tuple[str, dict]]]:
    """Every distinct job the serve-mix clients may submit, by variant."""
    pool = {"sweep": [("sweep", {"technology": tech})
                      for tech in ("EGFET", "CNT")]}
    for variant, (kind, params) in SERVE_VARIANTS.items():
        pool[variant] = [(kind, params(k)) for k in range(VARIANT_POOL)]
    return pool


def job_key(kind: str, params: dict) -> str:
    return json.dumps([kind, params], sort_keys=True)


_TIMING_KEYS = frozenset({"wall_s", "wall_seconds", "instances_per_second"})


def normalize_result(value):
    """A job result without its run-time fields."""
    if isinstance(value, dict):
        return {k: normalize_result(v) for k, v in value.items()
                if k not in _TIMING_KEYS}
    if isinstance(value, list):
        return [normalize_result(v) for v in value]
    return value


class _Events:
    """Terminal job events from the ``/events`` SSE stream."""

    def __init__(self, port: int) -> None:
        self._done: dict[str, tuple[float, str]] = {}
        self._cond = threading.Condition()
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
        self._conn.request("GET", "/events?kinds=job")
        self._response = self._conn.getresponse()
        if self._response.readline().strip() != b": connected":
            raise RuntimeError("SSE stream did not open")
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        try:
            for raw in self._response:
                line = raw.decode().strip()
                if not line.startswith("data:"):
                    continue
                data = json.loads(line[5:]).get("data", {})
                if data.get("status") in ("done", "failed"):
                    with self._cond:
                        self._done.setdefault(
                            data["id"], (time.perf_counter(), data["status"]))
                        self._cond.notify_all()
        except (OSError, ValueError, http.client.HTTPException):
            pass
        with self._cond:
            self._done.setdefault("__closed__", (time.perf_counter(), "closed"))
            self._cond.notify_all()

    def wait(self, job_id: str, timeout: float) -> tuple[float, str] | None:
        with self._cond:
            self._cond.wait_for(
                lambda: job_id in self._done or "__closed__" in self._done,
                timeout=timeout,
            )
            return self._done.get(job_id)

    def close(self) -> None:
        self._conn.close()
        self._thread.join(timeout=10)


def _http(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class _Server:
    """One ``python -m repro serve`` subprocess."""

    #: ``--max-jobs`` holds every job of the pool: past the default 256
    #: the service evicts the oldest finished jobs, so later repeats
    #: would run again instead of hitting dedup, and a result could be
    #: gone before the pass ends and its check reads it.
    ARGS = ["serve", "--port", "0", "--workers", "1", "--jobs", "1",
            "--max-jobs", str(2 + len(SERVE_VARIANTS) * VARIANT_POOL)]

    def __init__(self, dirs, trace_out: Path | None) -> None:
        env = dirs.env(dirs.fresh("cache"), dirs.fresh("hist"))
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *self.ARGS]
        else:
            argv = child_argv("trace", str(trace_out), *self.ARGS)
        self.log = dirs.fresh("serve-log") / "stderr.txt"
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                argv, env=env, cwd=dirs.path, stdout=subprocess.PIPE,
                stderr=log, text=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if not match:
                raise RuntimeError(f"serve did not start: {line!r}")
            self.port = int(match.group(1))
            while True:
                try:
                    if _http(self.port, "GET", "/readyz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > 60:
                    raise RuntimeError("serve never became ready")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def kill(self) -> None:
        """End an idle server at once (set-up samples hold no jobs)."""
        self.proc.kill()
        self.proc.communicate()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


class ServeMix(Workload):
    name = "serve-mix"
    why = ("two closed-loop HTTP clients on repro serve: seeded sweep, yield, "
           "campaign, place and profile jobs; 40% repeat earlier ones and hit "
           "dedup")

    CLIENTS = 2
    #: Unique submissions per client per pass, by pool variant; fixed so
    #: every seed loads the service alike.
    UNIQUE = (("yield", 3), ("place", 3), ("campaign-mult", 2),
              ("campaign-dTree", 1), ("profile-mult", 1),
              ("profile-crc8", 1), ("profile-dTree", 1))
    REPEATS = 8  # per client per pass: 40% of its 20 submissions

    def inputs(self) -> dict:
        return {"mix_seed": derive(self.seed, "serve", 2**32),
                "clients": self.CLIENTS, "unique_per_pass": dict(self.UNIQUE),
                "repeats_per_pass": self.REPEATS}

    def setup_sample(self) -> float:
        server = _Server(self.dirs, None)
        server.kill()
        return server.setup_s

    def prepare(self) -> None:
        self._trace_out = None
        if self.tracer is not None:
            self._trace_out = self.dirs.fresh("serve-trace") / "totals.json"
        self.server = _Server(self.dirs, self._trace_out)
        self.events = _Events(self.server.port)
        rng = random.Random(derive(self.seed, "serve", 2**32))
        by_kind = serve_pool()
        for jobs in by_kind.values():
            rng.shuffle(jobs)
        # Disjoint unique jobs per client; each client repeats only its
        # own earlier submissions, so its inputs never depend on timing.
        self._fresh = [{kind: jobs[c::self.CLIENTS]
                        for kind, jobs in by_kind.items()}
                       for c in range(self.CLIENTS)]
        self._rngs = [random.Random(rng.getrandbits(64))
                      for _ in range(self.CLIENTS)]
        self._history: list[list[tuple[str, dict]]] = [
            [] for _ in range(self.CLIENTS)]
        self.jobs: list[dict] = []

    def _plan(self, client: int) -> list[tuple[str, dict]]:
        """One pass of submissions for ``client``."""
        rng, fresh = self._rngs[client], self._fresh[client]
        history = self._history[client]
        slots = [kind for kind, count in self.UNIQUE for _ in range(count)]
        slots += [None] * self.REPEATS
        rng.shuffle(slots)
        plan = []
        if not history:  # the first pass opens with this client's sweep
            plan.append(fresh["sweep"].pop())
            history.append(plan[0])
        for kind in slots:
            if kind is None:
                plan.append(rng.choice(history))
            else:
                plan.append(fresh[kind].pop())
                history.append(plan[-1])
        return plan

    def exhausted(self) -> bool:
        """Whether another pass would run out of unique jobs."""
        return any(len(fresh[kind]) < count
                   for fresh in self._fresh for kind, count in self.UNIQUE)

    def _client(self, plan, ops: list[Op]) -> None:
        for kind, params in plan:
            start = time.perf_counter()
            try:
                status, body = _http(self.server.port, "POST", "/jobs",
                                     {"kind": kind, "params": params})
            except OSError:
                status, body = 0, b"{}"
            answered = time.perf_counter()
            if status != 202:
                ops.append(Op("request", answered - start, failed=1, items=0))
                continue
            reply = json.loads(body)
            event = self.events.wait(reply["id"], timeout=120)
            if event is None or event[1] != "done":
                ops.append(Op("request", time.perf_counter() - start,
                              failed=1, items=0))
                continue
            record = {"id": reply["id"], "key": job_key(kind, params),
                      "deduped": reply.get("deduped", False)}
            latency = max(answered, event[0]) - start
            ops.append(Op("request", latency, check=self._checker(
                record, latency)))

    def _checker(self, record: dict, latency: float):
        def check() -> int:
            status, body = _http(self.server.port, "GET",
                                 f"/jobs/{record['id']}")
            if status != 200:
                return 1
            job = json.loads(body)
            record.update(latency=latency,
                          queue_wait_s=job.get("queue_wait_s") or 0.0,
                          run_s=job.get("wall_s") or 0.0)
            self.jobs.append(record)
            expected = self.pins["serve-mix"].get(record["key"])
            return int(job.get("status") != "done" or expected != digest_json(
                normalize_result(job.get("result"))))
        return check

    def run_pass(self, index: int) -> list[Op]:
        per_client: list[list[Op]] = [[] for _ in range(self.CLIENTS)]
        threads = [threading.Thread(target=self._client,
                                    args=(self._plan(c), per_client[c]))
                   for c in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [op for ops in per_client for op in ops]

    def close(self) -> None:
        self.server.stop()
        self.events.close()

    def trace_totals(self) -> list[dict]:
        if self._trace_out is None or not self._trace_out.is_file():
            return []
        totals = json.loads(self._trace_out.read_text())
        # The server imported during set-up, before the timed body.
        startup = totals["layers"].pop("startup", None)
        if startup is not None:
            totals["toplevel_s"] -= startup["self"]
        return [totals]

    def extra_metrics(self, ops, pass_walls) -> dict:
        """Request figures, plus serve-layer ones from the job records."""
        latencies = [o.latency for o in ops]
        figures = {"request_p50_s": median(latencies),
                   "request_p90_s": percentile(latencies, 90),
                   "jobs_per_s": sum(o.items for o in ops) / sum(pass_walls)}
        jobs = self.jobs
        if not jobs:
            return figures
        ran = [j for j in jobs if not j["deduped"]]
        http_s = [j["latency"] - (0.0 if j["deduped"]
                                  else j["queue_wait_s"] + j["run_s"])
                  for j in jobs]
        return figures | {
            "serve.queue_wait_s": sum(j["queue_wait_s"] for j in ran)
            / max(1, len(ran)),
            "serve.run_s": sum(j["run_s"] for j in ran) / max(1, len(ran)),
            "serve.dedup_hit_ratio": (len(jobs) - len(ran)) / len(jobs),
            "serve.http_s": sum(http_s) / len(http_s),
        }


WORKLOADS = {cls.name: cls for cls in (VerifyNarrow, ServeMix)}
