"""``python -m repro verify`` / ``python -m repro lint`` entry points.

Usage::

    python -m repro verify --seed 0 --count 50
        Fuzz 50 seeds through the differential stack on the default
        three-config cross-section of the grid.

    python -m repro verify --configs p1_8_2,p2_4_4 --jobs 4
        Specific configurations, fanned across worker processes.

    python -m repro verify --executors compiled,bitparallel
        A subset of the executors interpreted, compiled, bitparallel,
        ps-isa (the ISS always runs); other names are usage errors.

    python -m repro verify --inject-fault wdata:0 --shrink-dir repros
        Fault-detection demo: inject a stuck-at-1 on the driver of
        ``wdata[0]``, expect the fuzzer to catch it, and write the
        shrunk pytest-ready repros under ``repros/``.  Exits non-zero
        if the fault *escapes*.

    python -m repro lint [CONFIG ...] [--all]
        Static lint; defaults to two representative cores, ``--all``
        sweeps the full 24-configuration grid.

Divergences exit 1 (the campaign is the check); usage errors exit 2.
"""

from __future__ import annotations

import sys

from repro.coregen.config import CoreConfig, config_from_name, standard_sweep
from repro.errors import ConfigError

#: Representative pair for quick lint runs: the simplest core and a
#: deep-pipeline wide one (most distinct structure in the grid).
LINT_DEFAULTS = ("p1_8_2", "p3_16_4")


def _parse_config(name: str) -> CoreConfig:
    """A CoreConfig from its ``pP_D_B`` sweep name (e.g. ``p1_8_2``)."""
    try:
        return config_from_name(name)
    except ConfigError as error:
        raise ValueError(str(error))


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    print(__doc__, file=sys.stderr)
    return 2


def verify_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro verify ...``."""
    from repro.verify.corpus import DEFAULT_CONFIGS, run_campaign
    from repro.verify.differential import (
        DEFAULT_EXECUTORS,
        check_executors,
        fault_site_for_output,
    )

    seed = 0
    count = 20
    configs = list(DEFAULT_CONFIGS)
    executors = DEFAULT_EXECUTORS
    jobs = None
    shrink_dir = None
    inject = None
    max_instructions = 20

    i = 0
    while i < len(argv):
        arg = argv[i]

        def value() -> str:
            nonlocal i
            i += 1
            if i >= len(argv):
                raise ValueError(f"{arg} needs an argument")
            return argv[i]

        try:
            if arg == "--seed":
                seed = int(value())
            elif arg == "--count":
                count = int(value())
            elif arg == "--jobs":
                jobs = int(value())
            elif arg == "--max-instructions":
                max_instructions = int(value())
            elif arg == "--configs":
                configs = [_parse_config(n) for n in value().split(",")]
            elif arg == "--executors":
                executors = tuple(filter(None, value().split(",")))
            elif arg == "--shrink-dir":
                shrink_dir = value()
            elif arg == "--inject-fault":
                inject = value()
            else:
                return _usage_error(f"unknown verify option {arg!r}")
        except ValueError as error:
            return _usage_error(str(error))
        i += 1
    try:
        check_executors(executors)
    except ConfigError as error:
        return _usage_error(f"--executors: {error}")

    fault = None
    if inject is not None:
        if len(configs) != 1:
            # A fault is an instance index into one specific netlist.
            configs = configs[:1]
        bus, _, bit = inject.partition(":")
        from repro.coregen.generator import generate_core

        try:
            fault = fault_site_for_output(
                generate_core(configs[0]), bus, int(bit) if bit else 0
            )
        except Exception as error:
            return _usage_error(f"--inject-fault {inject!r}: {error}")

    names = ",".join(c.name for c in configs)
    print(
        f"verify: seeds {seed}..{seed + count - 1} x configs {names} "
        f"({', '.join(executors)})"
    )
    result = run_campaign(
        range(seed, seed + count),
        configs=configs,
        executors=executors,
        fault=fault,
        jobs=jobs,
        max_instructions=max_instructions,
        out_dir=shrink_dir,
    )
    for case in result.failures:
        print(f"  seed {case.seed} @ {case.config_name}:")
        for divergence in case.divergences[:4]:
            print(f"    {divergence}")
    for path in result.repro_paths:
        print(f"  shrunk repro: {path}")
    print(f"verify: {result.summary()}")

    if fault is not None:
        caught = not result.ok
        print(
            "verify: injected fault was "
            + ("caught" if caught else "NOT caught")
        )
        return 0 if caught else 1
    return 0 if result.ok else 1


def lint_main(argv: list[str]) -> int:
    """Entry point for ``python -m repro lint ...``."""
    from repro.verify.lint import lint_core

    names: list[str] = []
    show_all = False
    verbose = False
    for arg in argv:
        if arg == "--all":
            show_all = True
        elif arg in ("-v", "--verbose"):
            verbose = True
        elif arg.startswith("-"):
            return _usage_error(f"unknown lint option {arg!r}")
        else:
            names.append(arg)

    if show_all:
        configs = standard_sweep()
    else:
        try:
            configs = [_parse_config(n) for n in (names or LINT_DEFAULTS)]
        except ValueError as error:
            return _usage_error(str(error))

    failed = 0
    for config in configs:
        report = lint_core(config)
        print(report.summary())
        for finding in report.findings:
            if finding.severity == "error" or verbose:
                print(f"  {finding}")
        if not report.ok:
            failed += 1
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    """Dispatch ``verify`` / ``lint`` subcommands."""
    if not argv:
        return _usage_error("verify/lint: missing subcommand")
    if argv[0] == "verify":
        return verify_main(argv[1:])
    if argv[0] == "lint":
        return lint_main(argv[1:])
    return _usage_error(f"unknown subcommand {argv[0]!r}")
