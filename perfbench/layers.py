"""Span tracing around the public functions of each ``repro`` layer.

The benchmark's traced run calls :func:`install`, which rebinds every
function or method listed in :data:`TARGETS` to a wrapper that records
a span, both in its defining module and in every ``repro.*`` module
that imported the name.  Nothing under ``src/`` changes; an untraced
run never calls :func:`install`, so it runs the program's own objects.

Accounting:

* ``busy`` of a layer is the inclusive time of its spans.  A call into
  a layer that is already open on the same thread passes straight
  through, so recursion and same-layer nesting never count twice.
* ``self`` is a span's time minus the time of its child spans, on the
  thread that ran it.  Over a timeline, the self times of all layers
  add up to the time covered by top-level spans (``toplevel``), and
  ``wall - toplevel`` is the unattributed time.
* Pool workers inherit the wrappers by fork.  What they record comes
  back with each item's result and is merged off the timeline: it adds
  to ``busy`` and the counts, never to ``self``, because it ran beside
  the parent's ``exec.parallel_map`` span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

#: Layers in report order; each gets a ``<layer>.self_s`` metric.
LAYERS = (
    "startup",
    "sim",
    "programs",
    "coregen",
    "fault_test",
    "netlist.compile",
    "netlist.sim",
    "netlist.lanes",
    "netlist.nsim",
    "netlist.sta",
    "netlist.power",
    "dse",
    "eval",
    "mc",
    "mc.sampling",
    "place",
    "verify",
    "exec.parallel_map",
    "exec.cache.read",
    "exec.cache.write",
    "obs.report",
    "obs.history",
)


# -- counters taken from call arguments and results -----------------------
#
# Each hook is ``(before, after)``: ``before(args, kwargs)`` returns a
# state, ``after(state, args, kwargs, result, seconds)`` the counts to add.


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _sim_before(args, kwargs):
    return args[0].stats.instructions


def _sim_after(before, args, kwargs, result, seconds):
    return {"instructions": args[0].stats.instructions - before}


def _memo_misses():
    from repro.coregen import generator

    return generator._generate_core.cache_info().misses


def _coregen_after(before, args, kwargs, result, seconds):
    return {"memo_hits": int(_memo_misses() == before)}


def _compile_before(attribute):
    def before(args, kwargs):
        return getattr(args[0], attribute, None) is not None

    return before


def _compile_after(before, args, kwargs, result, seconds):
    return {"memo_hits": int(before)}


def _tick_after(before, args, kwargs, result, seconds):
    return {"cycles": 1, "lane_cycles": getattr(args[0], "lanes", 1)}


def _campaign_after(before, args, kwargs, result, seconds):
    return {"faults": result.total, "detected": result.detected}


def _yield_after(before, args, kwargs, result, seconds):
    return {"units": _arg(args, kwargs, 1, "instances")}


def _place_after(before, args, kwargs, result, seconds):
    return {
        "anneal_moves": result.anneal_moves,
        "anneal_accepted": result.anneal_accepted,
        "place_s": seconds,
    }


def _run_campaign_after(before, args, kwargs, result, seconds):
    return {"cases": len(result.cases), "divergent": len(result.failures)}


def _lane_verify_after(before, args, kwargs, result, seconds):
    return {"cases": len(result), "divergent": sum(1 for r in result if r)}


def _load_after(before, args, kwargs, result, seconds):
    return {"hits": int(result is not None), "misses": int(result is None)}


_SIM = (_sim_before, _sim_after)
_COREGEN = (lambda args, kwargs: _memo_misses(), _coregen_after)
_TICK = (None, _tick_after)

#: ``(module, attribute path, layer, counter hooks)`` for every wrapped
#: public function or method.
TARGETS = (
    ("repro.sim.machine", "Machine.run", "sim", _SIM),
    ("repro.programs.suite", "build_benchmark", "programs", None),
    ("repro.coregen.generator", "generate_core", "coregen", _COREGEN),
    ("repro.coregen.fault_test", "run_fault_campaign", "fault_test",
     (None, _campaign_after)),
    ("repro.netlist.compile", "compiled_netlist", "netlist.compile",
     (_compile_before("_compiled_sim"), _compile_after)),
    ("repro.netlist.nsim", "numpy_netlist", "netlist.compile",
     (_compile_before("_numpy_sim"), _compile_after)),
    ("repro.netlist.sim", "CycleSimulator.settle", "netlist.sim", None),
    ("repro.netlist.sim", "CycleSimulator.tick", "netlist.sim", _TICK),
    ("repro.netlist.compile", "BitParallelSimulator.settle",
     "netlist.lanes", None),
    ("repro.netlist.compile", "BitParallelSimulator.tick", "netlist.lanes",
     _TICK),
    ("repro.netlist.nsim", "NumpySimulator.settle", "netlist.nsim", None),
    ("repro.netlist.nsim", "NumpySimulator.tick", "netlist.nsim", _TICK),
    ("repro.netlist.sta", "timing_report", "netlist.sta", None),
    ("repro.netlist.power", "power_report", "netlist.power", None),
    ("repro.netlist.power", "measured_power_report", "netlist.power", None),
    ("repro.netlist.power", "attributed_power_report", "netlist.power", None),
    ("repro.dse.sweep", "evaluate_design", "dse", None),
    ("repro.eval.system", "evaluate_system", "eval", None),
    ("repro.eval.suite", "verify_suite", "eval", None),
    ("repro.eval.suite", "evaluate_suite", "eval", None),
    ("repro.mc.engine", "run_yield_campaign", "mc", (None, _yield_after)),
    ("repro.mc.timing", "sample_delays", "mc.sampling", None),
    ("repro.place.placer", "place", "place", (None, _place_after)),
    ("repro.place.placer", "wire_aware_ppa", "place", None),
    ("repro.verify.corpus", "run_campaign", "verify",
     (None, _run_campaign_after)),
    ("repro.verify.differential", "lane_verify", "verify",
     (None, _lane_verify_after)),
    # Special-cased in install(): workers' spans ride back on results.
    ("repro.exec.engine", "parallel_map", "exec.parallel_map", None),
    ("repro.exec.cache", "load_artifact", "exec.cache.read",
     (None, _load_after)),
    ("repro.exec.cache", "store_artifact", "exec.cache.write", None),
    ("repro.obs.report", "build_run_report", "obs.report", None),
    ("repro.obs.report", "write_run_report", "obs.report", None),
    ("repro.obs.history", "append_record", "obs.history", None),
) + tuple(
    ("repro.eval.tables", name, "eval", None)
    for name in ("table1_technologies", "table2_standard_cells",
                 "table3_applications", "table4_baseline_cores",
                 "table5_imem_overhead", "table6_memory_devices",
                 "table7_program_specific", "table8_battery_iterations")
) + tuple(
    ("repro.eval.figures", name, "eval", None)
    for name in ("fig4_lifetime", "fig5_lifetime", "fig6_isa_listing",
                 "fig7_design_space", "fig8_benchmark", "fig8_dtree_romopt")
)

#: Attribute set on every wrapper, so tests can tell wrappers apart.
MARK = "__perfbench_layer__"


class Tracer:
    """Per-layer busy/self/call totals plus counts, for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.layers: dict[str, dict[str, float]] = {}
        self.toplevel_s = 0.0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = set()
        return local

    def _entry(self, layer: str) -> dict[str, float]:
        entry = self.layers.get(layer)
        if entry is None:
            entry = self.layers[layer] = {"busy": 0.0, "self": 0.0, "calls": 0}
        return entry

    def add(self, layer: str, counts: dict) -> None:
        with self._lock:
            entry = self._entry(layer)
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value

    def call(self, layer: str, fn, args, kwargs, hooks=None):
        """Run ``fn`` inside a span of ``layer`` (pass-through if open)."""
        state = self._state()
        if layer in state.open:
            return fn(*args, **kwargs)
        before, after = hooks if hooks else (None, None)
        pre = before(args, kwargs) if before else None
        frame = [0.0]
        state.stack.append(frame)
        state.open.add(layer)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            state.stack.pop()
            state.open.discard(layer)
            if state.stack:
                state.stack[-1][0] += seconds
            with self._lock:
                entry = self._entry(layer)
                entry["busy"] += seconds
                entry["self"] += seconds - frame[0]
                entry["calls"] += 1
                if not state.stack:
                    self.toplevel_s += seconds
        if after:
            self.add(layer, after(pre, args, kwargs, result, seconds))
        return result

    def record(self, layer: str, seconds: float) -> None:
        """A top-level span measured elsewhere (fresh-process import)."""
        with self._lock:
            entry = self._entry(layer)
            entry["busy"] += seconds
            entry["self"] += seconds
            entry["calls"] += 1
            self.toplevel_s += seconds

    def export(self) -> dict:
        with self._lock:
            return {
                "layers": {k: dict(v) for k, v in self.layers.items()},
                "toplevel_s": self.toplevel_s,
            }

    def merge(self, totals: dict, timeline: bool) -> None:
        """Fold another process's :meth:`export` into this one.

        ``timeline`` is true for a process whose spans ran one after
        another with this one's (a fresh command process, the serve
        process); false for a pool worker running beside the parent.
        """
        with self._lock:
            for layer, counts in totals["layers"].items():
                entry = self._entry(layer)
                for key, value in counts.items():
                    if key == "self" and not timeline:
                        continue
                    entry[key] = entry.get(key, 0) + value
            if timeline:
                self.toplevel_s += totals["toplevel_s"]


#: The installed tracer.  Pool workers are forked from the traced
#: process and find it here to ship their spans back with each item.
_INSTALLED: Tracer | None = None


class TimedItem:
    """Picklable per-item wrapper for the function given to a pool."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.parent_pid = os.getpid()

    def __call__(self, item):
        if os.getpid() == self.parent_pid:
            return self.fn(item), None
        tracer = _INSTALLED
        if tracer.pid != os.getpid():
            tracer.reset()
        start = time.perf_counter()
        result = self.fn(item)
        seconds = time.perf_counter() - start
        totals = tracer.export()
        tracer.reset()
        return result, (seconds, totals)


def _parallel_map_wrapper(tracer: Tracer, original):
    from repro.exec.engine import resolve_jobs

    @functools.wraps(original)
    def wrapper(fn, items, jobs=None, *args, **kwargs):
        items = list(items)

        def run():
            start = time.perf_counter()
            pairs = original(TimedItem(fn), items, jobs, *args, **kwargs)
            wall = time.perf_counter() - start
            results, busy, fanned = [], 0.0, False
            for result, shipped in pairs:
                results.append(result)
                if shipped is not None:
                    fanned = True
                    busy += shipped[0]
                    tracer.merge(shipped[1], timeline=False)
            counts = {"items": len(items)}
            if fanned:
                workers = min(resolve_jobs(jobs), len(items))
                counts.update(worker_busy_s=busy, pool_capacity_s=wall * workers)
            tracer.add("exec.parallel_map", counts)
            return results

        return tracer.call("exec.parallel_map", run, (), {})

    setattr(wrapper, MARK, "exec.parallel_map")
    return wrapper


def _wrap(tracer: Tracer, layer: str, original, hooks):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, original, args, kwargs, hooks)

    setattr(wrapper, MARK, layer)
    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals.

    Call before any worker pool forks, so workers inherit the wrappers.
    """
    global _INSTALLED
    patched: list[tuple[object, str, object]] = []
    functions: dict[int, tuple[object, object]] = {}
    # Import every target module before patching any, so modules that
    # import a target by name see the original and get rebound below.
    resolved = [_resolve(module, path) for module, path, _, _ in TARGETS]
    for (owner, name), (_, _, layer, hooks) in zip(resolved, TARGETS):
        original = owner.__dict__[name]
        if name == "parallel_map":
            wrapper = _parallel_map_wrapper(tracer, original)
        else:
            wrapper = _wrap(tracer, layer, original, hooks)
        setattr(owner, name, wrapper)
        patched.append((owner, name, original))
        if not isinstance(owner, type):
            functions[id(original)] = (original, wrapper)
    # Rebind names that other repro modules imported at module level.
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])
                patched.append((module, name, value))
    _INSTALLED = tracer

    def uninstall() -> None:
        global _INSTALLED
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        # Modules first imported while traced took the wrapper by name.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if hasattr(value, MARK):
                    setattr(module, name, value.__wrapped__)
        _INSTALLED = None

    return uninstall


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def installed_wrappers() -> list[str]:
    """Names of repro functions that are currently wrappers."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if isinstance(value, type):
                found += [
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, MARK)
                ]
            elif hasattr(value, MARK):
                found.append(f"{module.__name__}.{name}")
    return found
