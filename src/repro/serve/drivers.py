"""Job-kind registry: one serve job = one existing pipeline driver.

Each kind maps a JSON ``params`` dict onto one of the repo's existing
entry points and returns a JSON-serializable result.  Two invariants
matter to the service layer:

* **Canonical parameters** (:func:`canonical_params`): defaults are
  filled in and values coerced to the default's type, so
  ``{"instances": "500"}`` and ``{}``-with-defaults submit *the same*
  job — the dedup key (:func:`repro.serve.jobs.job_key`) hashes the
  canonical form.  Unknown parameter names are rejected up front
  (HTTP 400) rather than surfacing as a confusing driver error.
* **Inherited fan-out**: drivers pass ``jobs=None`` everywhere, so the
  per-job process fan-out resolves through
  :func:`repro.exec.resolve_jobs` to the service's ``--jobs`` setting
  (via :func:`repro.exec.set_default_jobs`).

Results must stay modest in size (they are held in memory and served
as JSON); anything bulky — layout HTML, per-case detail — is dropped
or summarized here.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError

#: kind -> (defaults, driver) registry; see :func:`register_driver`.
DRIVERS: dict[str, tuple[dict, Callable[[dict], dict]]] = {}


def register_driver(kind: str, defaults: dict, fn: Callable[[dict], dict]) -> None:
    """Add (or replace, for tests) one job kind."""
    DRIVERS[kind] = (dict(defaults), fn)


def job_kinds() -> tuple[str, ...]:
    """Registered kinds, sorted."""
    return tuple(sorted(DRIVERS))


def canonical_params(kind: str, params: dict | None) -> dict:
    """Defaults filled in, values coerced, unknown names rejected.

    Coercion targets the *default's* type (int/float/str), so query
    strings and JSON submit identical canonical forms; a default of
    ``None`` passes the value through untouched.
    """
    if kind not in DRIVERS:
        raise ConfigError(
            f"unknown job kind {kind!r} (have: {', '.join(job_kinds())})"
        )
    defaults, _ = DRIVERS[kind]
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown {kind} parameter(s): {', '.join(unknown)} "
            f"(have: {', '.join(sorted(defaults))})"
        )
    canonical = dict(defaults)
    for name, value in params.items():
        default = defaults[name]
        if value is None or default is None:
            canonical[name] = value
        elif isinstance(default, bool):
            canonical[name] = value in (True, 1, "1", "true", "yes")
        elif isinstance(default, int):
            canonical[name] = int(value)
        elif isinstance(default, float):
            canonical[name] = float(value)
        else:
            canonical[name] = str(value)
    return canonical


def run_job(kind: str, params: dict) -> dict:
    """Execute one job (params must already be canonical)."""
    _, fn = DRIVERS[kind]
    return fn(params)


# -- the built-in kinds ----------------------------------------------------


def _run_sweep(params: dict) -> dict:
    from repro.dse.sweep import sweep_design_space

    points = sweep_design_space(technology=params["technology"])
    rows = [
        {
            "design": p.name,
            "fmax": p.fmax,
            "area": p.area,
            "power_at_fmax": p.power_at_fmax,
            "gate_count": p.gate_count,
            "dff_count": p.dff_count,
        }
        for p in points
    ]
    return {
        "technology": params["technology"],
        "count": len(rows),
        "points": rows,
    }


def _run_yield(params: dict) -> dict:
    from repro.coregen.config import config_from_name
    from repro.mc.engine import YieldSpec, run_yield_campaign

    spec = YieldSpec(
        config=config_from_name(params["config"]),
        technology=params["technology"],
        program_name=params["program"],
        program_width=params["width"],
        sigma=params["sigma"],
        device_yield=params["device_yield"],
        seed=params["seed"],
    )
    report = run_yield_campaign(spec, params["instances"])
    return report.to_dict()


def _run_campaign(params: dict) -> dict:
    from repro.coregen.config import config_from_name
    from repro.coregen.fault_test import run_fault_campaign
    from repro.programs import build_benchmark

    config = config_from_name(params["config"])
    program = build_benchmark(
        params["program"],
        params["width"],
        config.datawidth,
        num_bars=config.num_bars,
    )
    max_faults = params["max_faults"]
    campaign = run_fault_campaign(
        program,
        config=config,
        stride=params["stride"],
        max_faults=None if max_faults is None else int(max_faults),
    )
    return {
        "design": config.name,
        "program": params["program"],
        # Lane-packed, engine picked by width; kept for result stability.
        "backend": "batched",
        "total": campaign.total,
        "detected": campaign.detected,
        "coverage": campaign.detected / campaign.total
        if campaign.total
        else 0.0,
        "undetected": len(campaign.undetected_sites),
    }


def _run_verify(params: dict) -> dict:
    from repro.verify.corpus import run_campaign

    result = run_campaign(
        range(params["seeds"]),
        max_cycles=params["max_cycles"],
        shrink_failures=False,
    )
    return {
        "cases": len(result.cases),
        "failures": len(result.failures),
        "ok": result.ok,
        "summary": result.summary(),
        "divergent_seeds": sorted({c.seed for c in result.failures}),
    }


def _run_profile(params: dict) -> dict:
    from repro.apps.profile import profile_design
    from repro.coregen.config import config_from_name

    return profile_design(
        config_from_name(params["config"]),
        program_name=params["program"],
        technology=params["technology"],
        backend=params["backend"],
        max_cycles=params["max_cycles"],
    )


def _run_place(params: dict) -> dict:
    from repro.apps.place import _place_one

    # The self-contained layout page is megabytes of SVG; the service
    # keeps results in memory, so it keeps only the measurements and
    # never renders the page or the fit text.
    return _place_one(
        params["fabric"],
        params["technology"],
        params["seed"],
        params["sweeps"],
        params["config"],
        render=False,
    )


register_driver("sweep", {"technology": "EGFET"}, _run_sweep)
register_driver(
    "yield",
    {
        "config": "p1_8_2",
        "technology": "EGFET",
        "program": "mult",
        "width": 8,
        "instances": 500,
        "sigma": 0.2,
        "device_yield": 0.9999,
        "seed": 0xBEEF,
    },
    _run_yield,
)
register_driver(
    "campaign",
    {
        "config": "p1_8_2",
        "program": "mult",
        "width": 8,
        "stride": 8,
        "max_faults": None,
    },
    _run_campaign,
)
register_driver("verify", {"seeds": 8, "max_cycles": 20000}, _run_verify)
register_driver(
    "profile",
    {
        "config": "p1_8_2",
        "program": "crc8",
        "technology": "EGFET",
        "backend": "compiled",
        "max_cycles": 200_000,
    },
    _run_profile,
)
register_driver(
    "place",
    {
        "config": "p1_8_2",
        "fabric": "medium",
        "technology": "EGFET",
        "seed": 0,
        "sweeps": 10,
    },
    _run_place,
)
