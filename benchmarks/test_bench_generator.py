"""Bench: scalar vs block branch-stream generation throughput.

Times :meth:`WorkloadGenerator.next_branch` against
:meth:`WorkloadGenerator.next_branch_block` over the same branch budget
(both on gzip, the flagship unphased benchmark, and gcc, the phased one)
and records branches/second for each path.  The block path produces a
bit-identical stream (pinned by ``tests/test_workloads_generator.py``);
this benchmark captures the throughput gap so the perf trajectory shows
the batching win.  The tracked ``generator_throughput.txt`` carries only
the stable floor and configuration; the measured rates land in the
gitignored ``benchmarks/results/measured/`` directory and ride in the
pytest-benchmark JSON (``extra_info``) the CI backend-parity job uploads
as ``BENCH_generator_throughput.json``.
"""

import time

from repro.eval.reports import format_table
from repro.workloads.generator import BranchBlock, WorkloadGenerator
from repro.workloads.suite import get_benchmark

from conftest import best_of_interleaved, write_measured, write_result

#: The block path must beat per-branch generation by a clear margin on
#: every benchmark shape (observed: ~2.5-3x on the 1-CPU dev container);
#: the floor only catches regressions that erase the batching win.
MIN_GENERATOR_SPEEDUP = 1.5

BLOCK_CAPACITY = 256

#: Each rate takes the best of this many attempts, scalar and block
#: interleaved, which filters out scheduler and GC noise on shared
#: runners (both paths get the same treatment, so the ratio stays honest).
TIMING_ATTEMPTS = 5


def _scalar_seconds(spec, n):
    generator = WorkloadGenerator(spec, seed=1)
    start = time.perf_counter()
    next_branch = generator.next_branch
    for seq in range(n):
        next_branch(seq)
    return time.perf_counter() - start


def _block_seconds(spec, n):
    generator = WorkloadGenerator(spec, seed=1)
    block = BranchBlock(BLOCK_CAPACITY)
    start = time.perf_counter()
    seq = 0
    next_block = generator.next_branch_block
    while seq < n:
        chunk = min(BLOCK_CAPACITY, n - seq)
        next_block(seq, chunk, block)
        seq += chunk
    return time.perf_counter() - start


def test_bench_generator_throughput(benchmark, results_dir, full_mode):
    n = 400_000 if full_mode else 60_000
    specs = [get_benchmark("gzip"), get_benchmark("gcc")]

    def run_both_paths():
        """``{benchmark: (scalar branches/s, block branches/s)}``."""
        rates = {}
        for spec in specs:
            scalar, blocked = best_of_interleaved(
                [lambda: _scalar_seconds(spec, n),
                 lambda: _block_seconds(spec, n)], TIMING_ATTEMPTS)
            rates[spec.name] = (n / scalar, n / blocked)
        return rates

    rates = benchmark.pedantic(run_both_paths, rounds=1, iterations=1)

    rows = []
    for spec in specs:
        scalar, blocked = rates[spec.name]
        speedup = blocked / scalar
        benchmark.extra_info[f"{spec.name}_scalar_branches_per_sec"] = \
            round(scalar)
        benchmark.extra_info[f"{spec.name}_block_branches_per_sec"] = \
            round(blocked)
        benchmark.extra_info[f"{spec.name}_speedup"] = round(speedup, 2)
        rows.append([spec.name, round(scalar), round(blocked),
                     f"{speedup:.2f}"])

    text = format_table(
        ["benchmark", "scalar branches/s", "block branches/s", "speedup"],
        rows,
        title=f"Branch-stream generation throughput — {n} branches, "
              f"block size {BLOCK_CAPACITY} "
              f"({'full' if full_mode else 'quick'} budget)",
    )
    write_measured(results_dir, "generator_throughput", text)
    title = "Branch-stream generation throughput — scalar vs block"
    write_result(results_dir, "generator_throughput", "\n".join([
        title,
        "=" * len(title),
        "regression floor : block branches/s >= "
        f"{MIN_GENERATOR_SPEEDUP:.1f}x scalar, per benchmark "
        "(gzip unphased, gcc phased)",
        f"configuration    : block capacity {BLOCK_CAPACITY}; 60k branches "
        "quick, 400k with REPRO_BENCH_FULL=1",
        "measured numbers : benchmarks/results/measured/"
        "generator_throughput.txt (gitignored)",
        "                   and the BENCH_generator_throughput.json CI "
        "artifact (extra_info)",
    ]))

    for spec in specs:
        scalar, blocked = rates[spec.name]
        assert blocked / scalar >= MIN_GENERATOR_SPEEDUP, spec.name
