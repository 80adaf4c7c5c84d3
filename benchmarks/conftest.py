"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a
reduced ("quick") scale, times it with pytest-benchmark, asserts the
comparative shape the paper reports, and writes the rendered table to
``benchmarks/results/<name>.txt`` so the numbers can be inspected and
copied into EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.runner import ResultCache, SweepRunner, resolve_worker_count

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def full_mode() -> bool:
    """Set REPRO_BENCH_FULL=1 to run the paper-scale configurations."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


@pytest.fixture(scope="session")
def sweep_runner() -> SweepRunner:
    """The sweep runner every benchmark enumerates its jobs through.

    Serial and uncached by default so the timed numbers measure the
    simulator; set ``REPRO_BENCH_WORKERS=N`` to shard each sweep across N
    worker processes and ``REPRO_BENCH_CACHE_DIR=path`` to memoize results
    on disk (results are identical either way — the determinism tests in
    ``tests/test_runner.py`` hold the runner to that).
    """
    try:
        workers = resolve_worker_count(
            os.environ.get("REPRO_BENCH_WORKERS", "1") or "1",
            source="REPRO_BENCH_WORKERS",
        )
    except ValueError as error:
        # A typo'd env knob used to reach the multiprocessing pool as-is;
        # fail the session with the configuration error instead.
        pytest.exit(str(error), returncode=4)
    cache_dir = os.environ.get("REPRO_BENCH_CACHE_DIR", "")
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    return SweepRunner(workers=workers, cache=cache)


def best_of_interleaved(timers, attempts: int) -> list:
    """Best (smallest) result of each timer over ``attempts`` rounds.

    Each timer is a zero-argument callable returning the seconds its own
    timed section took (setup stays outside the clock).  Every round runs
    all timers back to back, so the attempts of each side are spread over
    the whole measurement window: a load burst on a shared machine lands
    on both sides of a ratio instead of on every attempt of one of them.
    """
    best = [None] * len(timers)
    for _ in range(attempts):
        for index, timer in enumerate(timers):
            elapsed = timer()
            if best[index] is None or elapsed < best[index]:
                best[index] = elapsed
    return best


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Write a *stable* results file (tracked in git).

    Tracked files must contain only content that is byte-identical from
    run to run — rendered experiment tables (deterministic by seed), and
    the regression floors / configuration of timing benchmarks.  Anything
    measured (wall-clock seconds, rates, speedups) goes through
    :func:`write_measured` instead, so benchmark reruns never dirty the
    working tree.
    """
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def write_measured(results_dir: Path, name: str, text: str) -> None:
    """Write a *measured* timing table under ``results/measured/``.

    The directory is gitignored — wall-clock numbers vary run to run and
    must not show up as tree modifications — and CI uploads it (plus the
    pytest-benchmark ``BENCH_*.json`` files, which carry the same numbers
    in ``extra_info``) as build artifacts.
    """
    measured = results_dir / "measured"
    measured.mkdir(parents=True, exist_ok=True)
    (measured / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
