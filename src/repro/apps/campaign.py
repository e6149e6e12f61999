"""``python -m repro campaign``: fault campaigns from the command line.

Runs a lane-packed stuck-at fault-injection campaign for one
benchmark on one core configuration::

    python -m repro campaign --program mult --width 8
    python -m repro campaign --stride 4 --jobs 2
    python -m repro campaign --config p1_8_2 --max-faults 20

and ``python -m repro campaign --verify-suite`` lane-packs every
native-width benchmark and diffs each lane against the
instruction-set simulator (the :func:`repro.eval.suite.verify_suite`
hook).  The lane engine (bigint or numpy bit-slice) is picked from the
lane count; see ``docs/MODELS.md`` ("How the lane engine is picked").
"""

from __future__ import annotations

import sys
import time


def _usage() -> str:
    return (
        "usage: python -m repro campaign [--program NAME] [--width N]\n"
        "           [--config NAME] [--stride N>=1] [--max-faults N>=0]\n"
        "           [--jobs N>=1]\n"
        "       python -m repro campaign --verify-suite"
    )


def _reject(message: str) -> int:
    print(message, file=sys.stderr)
    print(_usage(), file=sys.stderr)
    return 2


def campaign_main(argv: list[str]) -> int:
    """Entry point for the ``campaign`` subcommand."""
    program_name = "mult"
    width = 8
    config_name: str | None = None
    stride = 8
    max_faults: int | None = None
    jobs: int | None = None
    verify_suite_mode = False

    i = 0
    while i < len(argv):
        arg = argv[i]

        def value(cast=str):
            if i + 1 >= len(argv):
                raise ValueError(f"{arg} needs an argument")
            return cast(argv[i + 1])

        try:
            if arg == "--program":
                program_name = value()
                i += 1
            elif arg == "--width":
                width = value(int)
                i += 1
            elif arg == "--config":
                config_name = value()
                i += 1
            elif arg == "--stride":
                stride = value(int)
                i += 1
            elif arg == "--max-faults":
                max_faults = value(int)
                i += 1
            elif arg == "--jobs":
                jobs = value(int)
                i += 1
            elif arg == "--verify-suite":
                verify_suite_mode = True
            elif arg in ("-h", "--help"):
                print(_usage())
                return 0
            else:
                return _reject(f"unknown option {arg}")
        except ValueError as exc:
            return _reject(str(exc))
        i += 1

    if verify_suite_mode:
        from repro.eval.suite import verify_suite
        from repro.errors import SimulationError

        started = time.perf_counter()
        try:
            verified = verify_suite()
        except SimulationError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        total = sum(verified.values())
        for name, count in verified.items():
            print(f"  {name}: {count} benchmarks agree with the ISS")
        print(
            f"verify-suite: {total} native benchmarks verified "
            f"in {elapsed:.2f}s"
        )
        return 0

    from repro.coregen.config import CoreConfig, config_from_name
    from repro.coregen.fault_test import run_fault_campaign
    from repro.errors import ConfigError, ProgramError
    from repro.programs import build_benchmark

    started = time.perf_counter()
    try:
        config = config_from_name(config_name) if config_name else None
        core_width = config.datawidth if config else width
        program = build_benchmark(program_name, width, core_width)
        result = run_fault_campaign(
            program,
            config=config,
            stride=stride,
            max_faults=max_faults,
            jobs=jobs,
        )
    except (ConfigError, ProgramError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    design = config.name if config else CoreConfig(
        datawidth=program.datawidth,
        pipeline_stages=1,
        num_bars=max(2, program.num_bars),
    ).name
    rate = result.total / elapsed if elapsed > 0 else float("inf")
    print(
        f"campaign[{program.name} @ {design}]: "
        f"{result.detected}/{result.total} faults detected "
        f"({100.0 * result.coverage:.1f}% coverage) "
        f"in {elapsed:.2f}s ({rate:.0f} faults/s)"
    )
    # One compact ledger record per campaign so faults/sec trends
    # across runs (no-op under REPRO_HISTORY=0).
    from repro.obs import history

    history.append_record(
        history.build_record(
            "campaign",
            ["campaign", program.name, design],
            {
                "campaign.seconds": round(elapsed, 3),
                "campaign.faults_per_s": round(rate, 1)
                if elapsed > 0
                else 0.0,
                "campaign.coverage": round(result.coverage, 4),
                "campaign.faults": result.total,
            },
        )
    )
    if result.undetected_sites:
        shown = ", ".join(
            f"i{fault.instance_index}@{fault.stuck_value}"
            for fault in result.undetected_sites[:8]
        )
        more = len(result.undetected_sites) - 8
        if more > 0:
            shown += f", ... {more} more"
        print(f"  undetected: {shown}")
    return 0
