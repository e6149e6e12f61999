"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It sets up the workload several
times in fresh processes (``setup_s`` is their median), then repeats
the workload's fixed pass of operations for about ``--seconds``
seconds, checks every output against ``perfbench/pins.json``, and
prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
body once untraced and once with every layer wrapped in spans (see
``layers.py``), each for half of ``--seconds``, and reports the
per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (
    RunDirs,
    at_reference,
    checkout_root,
    child_argv,
    fingerprint,
    host_kernel_s,
    load_pins,
    median,
    peak_rss_mb,
    run_process,
)
from layers import LAYERS
from loads import SETUP_SAMPLES, WORKLOADS

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("items_per_s", "1/s", "higher"),
)


def _get(layers: dict, layer: str, key: str) -> float:
    return layers.get(layer, {}).get(key, 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _busy(layer):
    return lambda L: _get(L, layer, "busy")


def _count(layer, key):
    return lambda L: _get(L, layer, key)


def _rate(layer, key):
    return lambda L: _ratio(_get(L, layer, key), _get(L, layer, "busy"))


def _share(layer, key, base):
    return lambda L: _ratio(_get(L, layer, key), _get(L, layer, base))


#: ``(name, unit, better, value from merged layer totals)``; metrics
#: whose function is ``None`` are filled in from elsewhere.
PER_LAYER = (
    ("startup.import_s", "s", "lower", None),
    ("sim.busy_s", "s", "lower", _busy("sim")),
    ("sim.instructions", "count", "higher", _count("sim", "instructions")),
    ("sim.instructions_per_s", "1/s", "higher", _rate("sim", "instructions")),
    ("programs.busy_s", "s", "lower", _busy("programs")),
    ("programs.built", "count", "higher", _count("programs", "calls")),
    ("coregen.busy_s", "s", "lower", _busy("coregen")),
    ("coregen.calls", "count", "higher", _count("coregen", "calls")),
    ("coregen.memo_hit_ratio", "ratio", "higher",
     _share("coregen", "memo_hits", "calls")),
    ("fault_test.busy_s", "s", "lower", _busy("fault_test")),
    ("fault_test.faults", "count", "higher", _count("fault_test", "faults")),
    ("fault_test.detected", "count", "higher",
     _count("fault_test", "detected")),
    ("netlist.compile.busy_s", "s", "lower", _busy("netlist.compile")),
    ("netlist.compile.calls", "count", "higher",
     _count("netlist.compile", "calls")),
    ("netlist.compile.cache_hit_ratio", "ratio", "higher",
     _share("netlist.compile", "memo_hits", "calls")),
    ("netlist.sim.busy_s", "s", "lower", _busy("netlist.sim")),
    ("netlist.sim.cycles", "count", "higher", _count("netlist.sim", "cycles")),
    ("netlist.sim.cycles_per_s", "1/s", "higher",
     _rate("netlist.sim", "cycles")),
) + tuple(
    metric
    for layer in ("netlist.lanes", "netlist.nsim")
    for metric in (
        (f"{layer}.busy_s", "s", "lower", _busy(layer)),
        (f"{layer}.lane_cycles", "count", "higher",
         _count(layer, "lane_cycles")),
        (f"{layer}.lane_cycles_per_s", "1/s", "higher",
         _rate(layer, "lane_cycles")),
        (f"{layer}.mean_lanes", "lanes", "higher",
         _share(layer, "lane_cycles", "cycles")),
    )
) + (
    ("netlist.sta.busy_s", "s", "lower", _busy("netlist.sta")),
    ("netlist.sta.calls", "count", "higher", _count("netlist.sta", "calls")),
    ("netlist.power.busy_s", "s", "lower", _busy("netlist.power")),
    ("netlist.power.calls", "count", "higher",
     _count("netlist.power", "calls")),
    ("dse.busy_s", "s", "lower", _busy("dse")),
    ("dse.evaluations", "count", "higher", _count("dse", "calls")),
    ("eval.busy_s", "s", "lower", _busy("eval")),
    ("mc.busy_s", "s", "lower", _busy("mc")),
    ("mc.units", "count", "higher", _count("mc", "units")),
    ("mc.sampling.busy_s", "s", "lower", _busy("mc.sampling")),
    ("place.busy_s", "s", "lower", _busy("place")),
    ("place.moves_per_s", "1/s", "higher",
     _share("place", "anneal_moves", "place_s")),
    ("place.accept_ratio", "ratio", "higher",
     _share("place", "anneal_accepted", "anneal_moves")),
    ("verify.busy_s", "s", "lower", _busy("verify")),
    ("verify.cases", "count", "higher", _count("verify", "cases")),
    ("verify.divergent", "count", "lower", _count("verify", "divergent")),
    ("exec.parallel_map.busy_s", "s", "lower", _busy("exec.parallel_map")),
    ("exec.parallel_map.items", "count", "higher",
     _count("exec.parallel_map", "items")),
    ("exec.worker_busy_ratio", "ratio", "higher",
     _share("exec.parallel_map", "worker_busy_s", "pool_capacity_s")),
    ("exec.cache.read_s", "s", "lower", _busy("exec.cache.read")),
    ("exec.cache.write_s", "s", "lower", _busy("exec.cache.write")),
    ("exec.cache.hits", "count", "higher", _count("exec.cache.read", "hits")),
    ("exec.cache.misses", "count", "lower",
     _count("exec.cache.read", "misses")),
    ("exec.cache.hit_ratio", "ratio", "higher",
     lambda L: _ratio(_get(L, "exec.cache.read", "hits"),
                      _get(L, "exec.cache.read", "calls"))),
    ("obs.report.busy_s", "s", "lower", _busy("obs.report")),
    ("obs.history.append_s", "s", "lower", _busy("obs.history")),
    ("serve.queue_wait_s", "s", "lower", None),
    ("serve.run_s", "s", "lower", None),
    ("serve.dedup_hit_ratio", "ratio", "higher", None),
    ("serve.http_s", "s", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
    ("trace.wall_s", "s", "lower", None),
    ("unattributed_s", "s", "lower", None),
) + tuple(
    (f"{layer}.self_s", "s", "lower",
     (lambda L, layer=layer: _get(L, layer, "self")))
    for layer in LAYERS
) + (
    # The workloads' own end-to-end figures, from the untraced body of
    # a traced run; 0 on workloads that have no such operation.
    ("failed_ratio", "ratio", "lower", None),
    ("verify_cases_per_s", "1/s", "higher", None),
    ("request_p50_s", "s", "lower", None),
    ("request_p90_s", "s", "lower", None),
    ("jobs_per_s", "1/s", "higher", None),
)

#: Import-time probes per traced run (``startup.import_s`` is the median).
IMPORT_SAMPLES = 3


class Body:
    """Outcome of one timed body: each pass's operations and wall time."""

    def __init__(self, passes, pass_walls, kernel_s, extras) -> None:
        self.passes = passes
        self.ops = [op for done in passes for op in done]
        self.pass_walls = pass_walls
        #: ``host_kernel_s`` before the first pass and after each pass.
        self.kernel_s = kernel_s
        self.extras = extras

    @property
    def attempted(self) -> int:
        return sum(op.attempted for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    @property
    def wall(self) -> float:
        return sum(self.pass_walls)

    @property
    def pass_s(self) -> float:
        """The median pass, each pass scaled to the reference host speed.

        Other tenants of a shared host slow every process on it, in
        spells that last from seconds to many minutes, longer than a
        run.  Scaling each pass by the host kernel timed around it
        takes most of such a spell out; what is left moves with the
        program's own cost.
        """
        return median([at_reference(wall, *self.kernel_s[i:i + 2])
                       for i, wall in enumerate(self.pass_walls)])

    @property
    def pass_items(self) -> float:
        return median([sum(op.items for op in done) for done in self.passes])


def run_body(workload, seconds: float) -> Body:
    """Repeat the workload's pass until ``seconds`` have passed.

    Output checks run between passes, outside the pass timing.
    """
    workload.prepare()
    if workload.tracer is not None:
        workload.tracer.reset()  # keep set-up out of the traced body
    passes, walls, kernel_s = [], [], [host_kernel_s()]
    try:
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            done = workload.run_pass(len(walls))
            walls.append(time.perf_counter() - begun)
            for op in done:
                if op.check is not None:
                    op.failed = max(op.failed, op.check())
            passes.append(done)
            kernel_s.append(host_kernel_s())
            if time.perf_counter() - start >= seconds or workload.exhausted():
                break
    finally:
        workload.close()
    ops = [op for done in passes for op in done]
    return Body(passes, walls, kernel_s, workload.extra_metrics(ops, walls))


def timed_setups(workload) -> dict:
    """The set-up samples and the host kernel timed before and after them."""
    before = host_kernel_s()
    seconds = [workload.setup_sample() for _ in range(SETUP_SAMPLES)]
    return {"seconds": seconds, "kernel_s": [before, host_kernel_s()]}


def end_to_end(body: Body, setup: dict) -> dict:
    return {
        "setup_s": at_reference(median(setup["seconds"]), *setup["kernel_s"]),
        "wall_s": body.pass_s,
        "peak_rss_mb": peak_rss_mb(),
        "items_per_s": body.pass_items / body.pass_s,
    }


def _import_probes(dirs) -> list[float]:
    env = dirs.env(dirs.fresh("cache"), dirs.fresh("hist"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, done = run_process(child_argv("import"), env, dirs.path)
        if done.returncode != 0:
            raise RuntimeError(f"import probe failed: {done.stderr[-2000:]}")
        samples.append(float(done.stdout.strip()))
    return samples


def per_layer(workload, plain: Body, traced: Body, tracer) -> dict:
    totals = [tracer.export()] + workload.trace_totals()
    merged = type(tracer)()
    for part in totals:
        merged.merge(part, timeline=True)
    layers = merged.export()["layers"]
    imports = [t["import_s"] for t in totals if "import_s" in t]
    values = {}
    for name, _, _, fn in PER_LAYER:
        values[name] = fn(layers) if fn is not None else 0.0
    values["startup.import_s"] = median(imports or _import_probes(workload.dirs))
    values["trace.wall_s"] = traced.wall
    values["unattributed_s"] = traced.wall - merged.toplevel_s
    values["trace.overhead_ratio"] = (
        median(traced.pass_walls) / median(plain.pass_walls) - 1.0)
    values["failed_ratio"] = plain.failed / plain.attempted
    values.update(plain.extras)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = checkout_root()
    pins = load_pins()
    dirs = RunDirs(root)
    try:
        dirs.apply(dirs.fresh("cache"), dirs.fresh("hist"))
        workload = WORKLOADS[args.workload](root, dirs, args.seed, pins)
        setup = timed_setups(workload)
        if args.trace and workload.in_process:
            # The traced body follows the untraced one in this process;
            # warm both alike so the overhead ratio compares like with like.
            workload.prepare()
            workload.run_pass(-1)
        # A traced run's untraced and traced bodies share --seconds.
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = run_body(workload, seconds)
        bodies = [plain]
        if args.trace:
            import layers

            tracer = layers.Tracer()
            uninstall = layers.install(tracer)
            workload.tracer = tracer
            try:
                traced = run_body(workload, seconds)
            finally:
                uninstall()
            bodies.append(traced)
            metrics = per_layer(workload, plain, traced, tracer)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            metrics = end_to_end(plain, setup)
            units = {name: unit for name, unit, _ in END_TO_END}
        attempted = sum(b.attempted for b in bodies)
        failed = sum(b.failed for b in bodies)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": workload.inputs(),
            "fingerprint": fingerprint(root),
            "setup_samples": setup,
            "pass_walls": [b.pass_walls for b in bodies],
            "host_kernel_s": [b.kernel_s for b in bodies],
            "operations": [len(b.ops) for b in bodies],
            "figures": plain.extras,
        }
    finally:
        dirs.close()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
