"""Fresh-process helper for the benchmark (never run by hand).

``python perfbench/child.py setup WORKLOAD``
    Do WORKLOAD's set-up (imports, elaboration, codegen) on the cache
    directory named by the environment, then print ``ready``.
``python perfbench/child.py import``
    Print the seconds this interpreter spends importing
    ``repro.__main__``.
``python perfbench/child.py trace OUT ARGV...``
    Run ``python -m repro ARGV...`` with every layer wrapped in spans
    and write the span totals to the JSON file OUT when it returns.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import loads

        loads.WORKLOADS[argv[1]].setup_in_process()
        print("ready", flush=True)
        return 0
    start = time.perf_counter()
    import repro.__main__ as cli

    import_s = time.perf_counter() - start
    if mode == "import":
        print(repr(import_s))
        return 0
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        tracer.record("startup", import_s)
        layers.install(tracer)
        try:
            code = cli.main(argv[2:])
        finally:
            totals = tracer.export()
            totals["import_s"] = import_s
            with open(argv[1], "w") as handle:
                json.dump(totals, handle)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
