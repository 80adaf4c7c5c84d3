"""Fig. 10 — pipeline gating: performance loss vs. bad-path reduction.

The paper's headline gating result: PaCo gating (at a 20 % good-path
probability target) removes about a third of the bad-path instructions
executed with essentially no performance loss, while the best conventional
predictor (JRS threshold 3) removes only ~7 % at a small loss; pushing the
conventional predictors harder costs performance quickly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.applications.pipeline_gating import (
    GatingCurvePoint,
    GatingSweepConfig,
    average_curves,
    run_gating_sweep,
    sweep_jobs,
)
from repro.eval.reports import format_table
from repro.runner import Job, SweepRunner

#: Reduced sweep used by the quick (pytest-benchmark) configuration.
QUICK_CONFIG = GatingSweepConfig(
    benchmarks=("twolf", "parser", "bzip2", "vprRoute", "gzip", "crafty"),
    paco_probabilities=(0.05, 0.10, 0.20, 0.40, 0.70),
    jrs_thresholds=(3, 15),
    gate_counts=(1, 2, 4, 8),
    instructions=30_000,
    warmup_instructions=12_000,
)

#: The cycle backend measures the gating trade-off exactly; ``"trace"``
#: estimates it from gated replay and is parity-gated against cycle.
DEFAULT_BACKEND = "cycle"

#: Backends the sweep can run on end to end.
KNOWN_BACKENDS = ("cycle", "trace")

#: The whole curve family is enumerable up front, so campaigns can shard it.
CAMPAIGN_PLANNABLE = True


def _check_backend(backend: Optional[str]) -> None:
    if backend not in (None,) + KNOWN_BACKENDS:
        from repro.backends import describe_backends
        raise ValueError(
            f"fig10 pipeline gating knows backends "
            f"{', '.join(KNOWN_BACKENDS)}; got {backend!r} "
            f"(registered: {describe_backends()})")
    if backend is not None:
        from repro.backends import validate_backend_name
        validate_backend_name(backend)


def _config(benchmarks: Optional[Sequence[str]],
            instructions: Optional[int],
            warmup_instructions: Optional[int],
            seed: int, quick: bool,
            backend: Optional[str] = None) -> GatingSweepConfig:
    """The sweep configuration with campaign-level overrides applied."""
    overrides: Dict[str, object] = {"seed": seed}
    if benchmarks is not None:
        overrides["benchmarks"] = tuple(benchmarks)
    if instructions is not None:
        overrides["instructions"] = instructions
    if warmup_instructions is not None:
        overrides["warmup_instructions"] = warmup_instructions
    if backend is not None:
        overrides["backend"] = backend
    base = QUICK_CONFIG if quick else GatingSweepConfig()
    return dataclasses.replace(base, **overrides)


def jobs(*, benchmarks: Optional[Sequence[str]] = None,
         instructions: Optional[int] = None,
         warmup_instructions: Optional[int] = None,
         seed: int = 1, quick: bool = False,
         backend: Optional[str] = None) -> List[Job]:
    """Every job ``report`` executes, for campaign planning / ``--dry-run``."""
    _check_backend(backend)
    return sweep_jobs(_config(benchmarks, instructions, warmup_instructions,
                              seed, quick, backend))


@dataclass
class Fig10Result:
    """The gating curve family plus per-curve best operating points."""

    curves: Dict[str, List[GatingCurvePoint]]
    best_points: Dict[str, GatingCurvePoint]

    def rows(self) -> List[List[object]]:
        rows = []
        for name, points in self.curves.items():
            for point in points:
                rows.append([
                    name,
                    point.parameter,
                    round(100 * point.performance_loss, 2),
                    round(100 * point.badpath_reduction, 1),
                    round(100 * point.badpath_fetch_reduction, 1),
                ])
        return rows

    def summary_rows(self) -> List[List[object]]:
        return [
            [name,
             point.parameter,
             round(100 * point.performance_loss, 2),
             round(100 * point.badpath_reduction, 1)]
            for name, point in self.best_points.items()
        ]


def run(config: Optional[GatingSweepConfig] = None,
        quick: bool = False,
        runner: Optional[SweepRunner] = None) -> Fig10Result:
    """Run the gating sweep and summarise it."""
    cfg = config if config is not None else (QUICK_CONFIG if quick
                                             else GatingSweepConfig())
    curves = run_gating_sweep(cfg, runner=runner)
    return Fig10Result(curves=curves, best_points=average_curves(curves))


def report(*, runner: Optional[SweepRunner] = None,
           benchmarks: Optional[Sequence[str]] = None,
           instructions: Optional[int] = None,
           warmup_instructions: Optional[int] = None,
           seed: int = 1, quick: bool = False,
           backend: Optional[str] = None) -> str:
    """Run the gating sweep and return the paper-shaped tables."""
    _check_backend(backend)
    result = run(config=_config(benchmarks, instructions,
                                warmup_instructions, seed, quick, backend),
                 runner=runner)
    text = format_table(
        ["policy", "parameter", "perf loss %", "badpath exec red. %",
         "badpath fetch red. %"],
        result.rows(),
        title="Fig. 10 — pipeline gating curves (averaged over benchmarks)",
    )
    text += "\n\nBest operating point per policy (<=1% performance loss)\n"
    text += format_table(
        ["policy", "parameter", "perf loss %", "badpath exec red. %"],
        result.summary_rows(),
    )
    return text


def main(runner: Optional[SweepRunner] = None, quick: bool = False,
         backend: str = "cycle") -> str:
    text = report(runner=runner, quick=quick, backend=backend)
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()
