"""Shared helpers: run isolation, seeds, pins, statistics, processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

#: Environment the program must not inherit: a shared job count, trace
#: switch or cache/ledger opt-out would change what every workload
#: measures.
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_TRACE", "REPRO_HISTORY", "REPRO_CACHE")


def checkout_root() -> Path:
    """The checkout the benchmark runs from (its working directory).

    Raises SystemExit when the program's sources are missing, so a
    directory holding only the benchmark fails before any result.
    """
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        raise SystemExit(f"no repro sources under {root / 'src'}")
    return root


class RunDirs:
    """Fresh cache, ledger and work directories inside the checkout.

    Every run gets its own ``REPRO_CACHE_DIR`` and ``REPRO_HISTORY_DIR``
    so ledger appends from ``yield``, ``campaign`` and ``--profile``
    never accumulate across runs, and ``~/.cache/repro`` is never used.
    """

    def __init__(self, root: Path) -> None:
        base = root / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.root = root
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.path / f"{self._count:03d}-{label}"
        path.mkdir()
        return path

    def env(self, cache: Path, history: Path) -> dict:
        """Child-process environment for one cache/ledger pair."""
        env = {k: v for k, v in os.environ.items()
               if k not in SCRUBBED_ENV and not k.startswith("REPRO_SERVE_")}
        src = str(self.root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        env["REPRO_HISTORY_DIR"] = str(history)
        return env

    def apply(self, cache: Path, history: Path) -> None:
        """Point this process at ``cache``/``history`` (in-process runs)."""
        for key in SCRUBBED_ENV:
            os.environ.pop(key, None)
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        os.environ["REPRO_HISTORY_DIR"] = str(history)
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def derive(seed: int, name: str, modulus: int) -> int:
    """A stable per-purpose value in ``[0, modulus)`` from the run seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % modulus


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_json(value) -> str:
    return digest_text(json.dumps(value, sort_keys=True))


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: Seconds ``host_kernel_s`` takes on the host that timings are scaled
#: to (see ``at_reference``).
REFERENCE_KERNEL_S = 0.008


def host_kernel_s(repeats: int = 15) -> float:
    """Median seconds of a fixed pure-Python loop.

    The loop shares no code with the program, so only the host's own
    speed moves it.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += (i * i) % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds``, timed between two ``host_kernel_s`` samples, scaled
    to the speed of the reference host."""
    return seconds * REFERENCE_KERNEL_S / ((before + after) / 2)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fingerprint(root: Path) -> dict:
    sha = "unknown"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_process(argv, env, cwd, timeout: float = 170.0):
    """Run one child to completion; returns ``(seconds, completed)``."""
    start = time.perf_counter()
    completed = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, completed


def child_argv(*args: str) -> list[str]:
    """``python perfbench/child.py ARGS`` for a fresh helper process."""
    return [sys.executable, str(HERE / "child.py"), *args]


def timed_ready(argv, env, cwd, timeout: float = 120.0) -> float:
    """Seconds from spawning ``argv`` until it prints ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r} {err[-2000:]}")
    return seconds
