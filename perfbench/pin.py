"""Regenerate ``pins.json``, the outputs every benchmark run must match.

    python3 perfbench/pin.py            # from the checkout root

Pins are taken once, on a code state whose outputs are trusted, and
reviewed as a diff.  A change that only makes the program faster must
leave every pin as it is.
"""

from __future__ import annotations

import json
import sys

from common import PINS_PATH, RunDirs, checkout_root, digest_json
from loads import (
    VerifyNarrow,
    job_key,
    normalize_result,
    run_main,
    serve_pool,
)


def pin_verify_narrow() -> dict:
    code, stdout, _ = run_main(["campaign", "--verify-suite"])
    if code != 0:
        raise SystemExit("verify-suite failed")
    seeds = []
    for index in range(VerifyNarrow.SEEDS):
        seed = VerifyNarrow.SEED_STEP * index
        code, out, _ = run_main(["verify", "--count",
                                    str(VerifyNarrow.COUNT), "--seed",
                                    str(seed), "--jobs", "1"])
        if code != 0 or VerifyNarrow.parse_verify(out)[1] != 0:
            raise SystemExit(f"verify seed {seed} diverges: {out}")
        seeds.append(seed)
    return {"suite": VerifyNarrow.parse_suite(stdout),
            "clean_verify_seeds": seeds}


def pin_serve_mix() -> dict:
    from repro.serve import drivers

    pins = {}
    for kind, params in [job for jobs in serve_pool().values()
                         for job in jobs]:
        result = drivers.run_job(kind, drivers.canonical_params(kind, params))
        # The service sends results as JSON; pin what a client receives.
        received = json.loads(json.dumps(result))
        pins[job_key(kind, params)] = digest_json(normalize_result(received))
    return pins


def main() -> int:
    root = checkout_root()
    dirs = RunDirs(root)
    try:
        dirs.apply(dirs.fresh("cache"), dirs.fresh("hist"))
        pins = {
            "verify-narrow": pin_verify_narrow(),
            "serve-mix": pin_serve_mix(),
        }
    finally:
        dirs.close()
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
