"""Fuzz-campaign driver: generate, differentially execute, shrink.

One campaign is a seed range crossed with a list of core
configurations.  Each (seed, config) case generates a program and runs
it through the differential stack; cases fan out across worker
processes with :func:`repro.exec.parallel_map` (the per-case worker is
module-level and all its arguments are plain picklable values).
Failures are shrunk *in the parent* -- they are rare, and keeping the
shrinker serial keeps its output deterministic regardless of ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.coregen.config import CoreConfig
from repro.exec import parallel_map
from repro.obs.trace import span as _obs_span

from repro.verify.differential import (
    DEFAULT_EXECUTORS,
    DEFAULT_MAX_CYCLES,
    check_executors,
    differential_check,
)
from repro.verify.generator import random_program
from repro.verify.shrink import emit_pytest_case, shrink

#: Campaign default: one config per pipeline depth, mixed widths and
#: BAR counts, so every differential executor sees every control path.
DEFAULT_CONFIGS = (
    CoreConfig(datawidth=8, pipeline_stages=1, num_bars=2),
    CoreConfig(datawidth=4, pipeline_stages=2, num_bars=4),
    CoreConfig(datawidth=16, pipeline_stages=3, num_bars=2),
)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one (seed, config) fuzz case."""

    seed: int
    config_name: str
    divergences: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class CampaignResult:
    """Aggregate outcome of one fuzz campaign."""

    cases: list[CaseResult] = field(default_factory=list)
    repro_paths: list[Path] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "all agree" if self.ok else "DIVERGENCE"
        return (
            f"{len(self.cases)} cases, {len(self.failures)} divergent: "
            f"{verdict}"
        )


def _check_case(item) -> CaseResult:
    """Worker: one (seed, config) case.  Module-level for pickling."""
    seed, config, executors, fault, max_cycles, mem_words, max_instructions = item
    program = random_program(
        seed,
        datawidth=config.datawidth,
        num_bars=config.num_bars,
        mem_words=mem_words,
        max_instructions=max_instructions,
    )
    divergences = differential_check(
        program, config, executors=executors, fault=fault,
        seed=seed, max_cycles=max_cycles,
    )
    return CaseResult(
        seed=seed,
        config_name=config.name,
        divergences=tuple(str(d) for d in divergences),
    )


def run_campaign(
    seeds,
    configs=DEFAULT_CONFIGS,
    executors=DEFAULT_EXECUTORS,
    fault=None,
    jobs: int | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    mem_words: int = 12,
    max_instructions: int = 20,
    shrink_failures: bool = True,
    out_dir: str | Path | None = None,
) -> CampaignResult:
    """Run the full campaign; optionally shrink and emit failures.

    Args:
        seeds: Iterable of corpus seeds.
        configs: Core configurations to cross the seeds with.
        executors: Differential executors per case (see
            :data:`DEFAULT_EXECUTORS`); an empty or unknown name
            raises :class:`~repro.errors.ConfigError` before any case
            runs.
        fault: Optional stuck-at fault injected into every gate-level
            run (the fault-detection demo).  Note the fault is an
            instance index, so it only makes sense with a single
            config.
        jobs: Worker processes for the case fan-out (None = serial
            unless ``REPRO_JOBS`` says otherwise).
        shrink_failures: Reduce each failing case to a minimal repro.
        out_dir: Where to write pytest-ready repro files (created on
            first failure; nothing is written for green campaigns).
    """
    seeds = list(seeds)
    executors = check_executors(executors)
    work = [
        (seed, config, executors, fault,
         max_cycles, mem_words, max_instructions)
        for config in configs
        for seed in seeds
    ]
    result = CampaignResult()
    with _obs_span("verify.campaign", cases=len(work)) as sp:
        result.cases = parallel_map(
            _check_case, work, jobs=jobs, label="verify.cases"
        )
        sp.note(failures=len(result.failures))

        if shrink_failures:
            config_by_name = {c.name: c for c in configs}
            for case in result.failures:
                config = config_by_name[case.config_name]
                program = random_program(
                    case.seed,
                    datawidth=config.datawidth,
                    num_bars=config.num_bars,
                    mem_words=mem_words,
                    max_instructions=max_instructions,
                )
                reduced = shrink(
                    program, config, executors=executors, fault=fault,
                    max_cycles=max_cycles,
                )
                if out_dir is not None:
                    directory = Path(out_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    path = directory / (
                        f"test_repro_{case.config_name}_s{case.seed}.py"
                    )
                    path.write_text(emit_pytest_case(
                        reduced.program, config, seed=case.seed,
                        note="; ".join(case.divergences[:2]),
                    ))
                    result.repro_paths.append(path)
    return result
