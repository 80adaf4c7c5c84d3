"""Bench: trace-vs-cycle backend wall-clock at the same instruction budget.

Runs the table 7 experiment (the flagship predictor-level sweep) plus the
two timing-estimate drivers (fig 10 gating, fig 12 SMT) over fixed
benchmark subsets on both simulation backends — serial, uncached, one
worker, identical budgets — and records the wall-clock ratios so the perf
trajectory captures the trace engine's win.  The tracked
``benchmarks/results/backend_speedup*.txt`` files carry only the stable
regression floors and configuration (reruns never dirty the tree); the
measured tables land in the gitignored
``benchmarks/results/measured/`` directory and the ratios ride in the
pytest-benchmark JSON (``extra_info``) the CI job uploads.
"""

import time

import pytest

from repro.applications.pipeline_gating import (GatingSweepConfig,
                                                run_gating_sweep)
from repro.applications.smt_prioritization import (SMTStudyConfig,
                                                   run_smt_study)
from repro.eval.reports import format_table
from repro.experiments import table7_rms
from repro.runner import SweepRunner

from conftest import write_measured, write_result

BENCHMARKS = ("gzip", "twolf", "gcc")

#: CI floor for the speedup (the observed ratio on an otherwise idle
#: machine is recorded alongside; this guard only catches regressions
#: that erase the trace engine's advantage, with headroom for noisy
#: shared runners).  Observed on the 1-CPU dev container after the
#: batched branch-stream generation pipeline: ~6.2-6.3x (was ~4-4.6x
#: after the predictor-state-engine fusion, ~3.5x before it).
MIN_SPEEDUP = 4.0

#: Floor for the timing-estimate drivers.  The gated replay and the SMT
#: interleaver do more per-branch bookkeeping than the accuracy replay,
#: so their advantage is smaller; observed ~5-7x both on the dev
#: container.
MIN_TIMING_SPEEDUP = 3.0


def _run(backend: str, quick: bool):
    # A fresh serial, uncached runner per measurement: the timing must
    # reflect the simulation backend, not memoization.
    return table7_rms.run(benchmarks=list(BENCHMARKS), quick=quick,
                          runner=SweepRunner(), backend=backend)


def _write_stable(results_dir, name, title, floor):
    """The tracked results file: floors and configuration only.

    Byte-identical from run to run by construction, so benchmark reruns
    leave the working tree clean; the measured table for the same name
    lives in the gitignored ``measured/`` sibling directory.
    """
    write_result(results_dir, name, "\n".join([
        title,
        "=" * len(title),
        f"regression floor : speedup >= {floor:.2f} "
        "(cycle seconds / trace seconds)",
        "configuration    : serial, uncached, one worker; quick budgets "
        "by default,",
        "                   REPRO_BENCH_FULL=1 for paper-scale budgets",
        f"measured numbers : benchmarks/results/measured/{name}.txt "
        "(gitignored)",
        "                   and the BENCH_backend_speedup.json CI "
        "artifact (extra_info)",
    ]))


def test_bench_backend_speedup(benchmark, results_dir, full_mode):
    quick = not full_mode

    start = time.perf_counter()
    cycle_result = _run("cycle", quick)
    cycle_seconds = time.perf_counter() - start

    start = time.perf_counter()
    trace_result = benchmark.pedantic(_run, args=("trace", quick),
                                      rounds=1, iterations=1)
    trace_seconds = time.perf_counter() - start

    speedup = cycle_seconds / trace_seconds
    benchmark.extra_info["cycle_seconds"] = round(cycle_seconds, 3)
    benchmark.extra_info["trace_seconds"] = round(trace_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    rows = [
        ["cycle", round(cycle_seconds, 2), "1.00"],
        ["trace", round(trace_seconds, 2), f"{speedup:.2f}"],
    ]
    text = format_table(
        ["backend", "seconds", "speedup"], rows,
        title=f"Backend speedup — table7 over {', '.join(BENCHMARKS)} "
              f"({'quick' if quick else 'full'} budgets, one worker)",
    )
    write_measured(results_dir, "backend_speedup", text)
    _write_stable(results_dir, "backend_speedup",
                  f"Backend speedup — table7 over {', '.join(BENCHMARKS)}",
                  MIN_SPEEDUP)

    # The two backends measured the same workloads: their misprediction
    # rates must agree (the tight tolerances live in tests/test_backends.py;
    # this is a sanity guard for the timing comparison itself).
    for cycle_row, trace_row in zip(cycle_result.rows, trace_result.rows):
        assert abs(cycle_row.conditional_mispredict_rate
                   - trace_row.conditional_mispredict_rate) < 0.02
    assert speedup >= MIN_SPEEDUP


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _speedup_report(results_dir, benchmark, name, title,
                    cycle_seconds, trace_seconds, stable_title, floor):
    speedup = cycle_seconds / trace_seconds
    benchmark.extra_info["cycle_seconds"] = round(cycle_seconds, 3)
    benchmark.extra_info["trace_seconds"] = round(trace_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    text = format_table(
        ["backend", "seconds", "speedup"],
        [["cycle", round(cycle_seconds, 2), "1.00"],
         ["trace", round(trace_seconds, 2), f"{speedup:.2f}"]],
        title=title,
    )
    write_measured(results_dir, name, text)
    _write_stable(results_dir, name, stable_title, floor)
    return speedup


def test_bench_fig10_backend_speedup(benchmark, results_dir, full_mode):
    """Fig 10 (pipeline gating) on the gated trace replay vs. the core."""
    scale = 4 if full_mode else 1
    config = dict(
        benchmarks=("gzip", "twolf"),
        paco_probabilities=(0.10, 0.50, 0.90),
        jrs_thresholds=(3,),
        gate_counts=(1, 4, 10),
        instructions=12_000 * scale,
        warmup_instructions=4_000 * scale,
    )

    def run(backend):
        return run_gating_sweep(GatingSweepConfig(backend=backend, **config),
                                SweepRunner())

    cycle_curves, cycle_seconds = _timed(run, "cycle")
    start = time.perf_counter()
    trace_curves = benchmark.pedantic(run, args=("trace",),
                                      rounds=1, iterations=1)
    trace_seconds = time.perf_counter() - start

    speedup = _speedup_report(
        results_dir, benchmark, "backend_speedup_fig10",
        "Backend speedup — fig10 gating sweep over gzip, twolf "
        f"({'full' if full_mode else 'quick'} budgets, one worker)",
        cycle_seconds, trace_seconds,
        "Backend speedup — fig10 gating sweep over gzip, twolf",
        MIN_TIMING_SPEEDUP)

    # Sanity guard: the estimate tracked the cycle model (tight parity
    # tolerances live in tests/test_backends.py).
    for curve in cycle_curves:
        for cycle_pt, trace_pt in zip(cycle_curves[curve],
                                      trace_curves[curve]):
            assert abs(cycle_pt.performance_loss
                       - trace_pt.performance_loss) < 0.15
    assert speedup >= MIN_TIMING_SPEEDUP


def test_bench_fig12_backend_speedup(benchmark, results_dir, full_mode):
    """Fig 12 (SMT fetch prioritization) on interleaved trace replays."""
    scale = 4 if full_mode else 1
    config = dict(
        pairs=[("gzip", "vortex"), ("bzip2", "twolf")],
        jrs_thresholds=(3,),
        instructions=10_000 * scale,
        warmup_instructions=3_000 * scale,
        single_thread_instructions=6_000 * scale,
        single_thread_warmup_instructions=2_000 * scale,
    )

    def run(backend):
        return run_smt_study(SMTStudyConfig(backend=backend, **config),
                             SweepRunner())

    cycle_study, cycle_seconds = _timed(run, "cycle")
    start = time.perf_counter()
    trace_study = benchmark.pedantic(run, args=("trace",),
                                     rounds=1, iterations=1)
    trace_seconds = time.perf_counter() - start

    speedup = _speedup_report(
        results_dir, benchmark, "backend_speedup_fig12",
        "Backend speedup — fig12 SMT study over 2 pairs "
        f"({'full' if full_mode else 'quick'} budgets, one worker)",
        cycle_seconds, trace_seconds,
        "Backend speedup — fig12 SMT study over 2 pairs",
        MIN_TIMING_SPEEDUP)

    for cycle_pair, trace_pair in zip(cycle_study, trace_study):
        ratios = [trace_pair.hmwipc_by_policy[p]
                  / cycle_pair.hmwipc_by_policy[p]
                  for p in cycle_pair.hmwipc_by_policy]
        assert max(ratios) / min(ratios) - 1.0 < 0.20
    assert speedup >= MIN_TIMING_SPEEDUP
