"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload accuracy-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same job list untraced once and traced twice and
reports the per-layer split.  ``--workload all`` runs every workload
untraced and adds the projected ``campaign --preset paper`` CPU-hours.
Human-readable lines come first; the last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Runs one fresh interpreter's set-up: import, register, plan.
_SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.workloads import plan
plan(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
"""


def setup_seconds(workload: str, seed: int, seconds: int, samples: int) -> float:
    """Median wall time of ``samples`` fresh interpreters that import
    ``repro`` and plan the workload's jobs, before any job runs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(ROOT),
                        str(SOURCE), workload, str(seed), str(seconds)],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: int) -> tuple:
    """The untraced run: (outcome, metrics, printed lines)."""
    from perfbench import workloads

    setup_s = setup_seconds(workload, seed, seconds, workloads.SETUP_SAMPLES)
    outcome = workloads.run_workload(workload, seed, seconds, WORKDIR)
    if outcome.legs:        # campaign-ci: its fastest cold leg
        per_cpu = max(leg[0] for leg in outcome.legs)
        per_wall = max(leg[1] for leg in outcome.legs)
        jobs_per_s = max(leg[2] for leg in outcome.legs)
    else:
        per_cpu = outcome.instructions / outcome.cpu_s if outcome.cpu_s else 0.0
        per_wall = (outcome.instructions / outcome.wall_s
                    if outcome.wall_s else 0.0)
        jobs_per_s = outcome.jobs / outcome.wall_s if outcome.wall_s else 0.0
    cached = (statistics.median(outcome.cached_rates)
              if outcome.cached_rates else 0.0)
    metrics = {
        "instr_per_cpu_s": (per_cpu, "instr/s"),
        "instr_per_wall_s": (per_wall, "instr/s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [f"{name:18s} {value:14.4f} {unit}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"cached_jobs_per_s  {cached:14.4f} 1/CPU-s  (not compared: "
                 f"file-system bound, too noisy on a shared box)")
    fail_frac = outcome.failed / max(1, outcome.attempted)
    lines.append(f"fail_frac          {fail_frac:14.4f}  ({outcome.failed} "
                 f"of {outcome.attempted} operations)")
    if workload == "accuracy-mix" and outcome.results:
        for name, value in workloads.paper_errors(outcome.results).items():
            lines.append(f"{name:18s} {value:14.4f}  (mean |simulated - "
                         f"paper Table 7|)")
    elif workload in ("gating-sweep", "smt-pairs"):
        lines.append("paper_err          unvalidated: this model has no paper "
                     "reference; trace-vs-cycle parity lives in "
                     "tests/test_backends.py")
    for kind, rate in sorted(kind_rates(outcome).items()):
        lines.append(f"kind {kind:13s} {rate:14.0f} instr/CPU-s")
    lines.append(f"digest             {_combined(outcome.digests)}  "
                 f"(results of seed {seed}, {seconds}s budgets)")
    return outcome, metrics, lines


def traced(workload: str, seed: int, seconds: int) -> tuple:
    """The traced run: (outcome, metrics, printed lines)."""
    from perfbench import workloads
    from perfbench.layers import layer_metrics, repro_tracer

    def one_pass(tracer=None):
        cpu, wall = time.thread_time(), time.perf_counter()
        with tracer or contextlib.nullcontext():
            outcome = workloads.run_workload(workload, seed, seconds, WORKDIR,
                                             passes=1, warm=1)
        return (tracer, outcome, time.thread_time() - cpu,
                time.perf_counter() - wall)

    _, untraced, untraced_cpu, _ = one_pass()
    runs = [one_pass(repro_tracer()) for _ in range(2)]
    outcome = untraced
    for _, other, _, _ in runs:
        outcome.attempted += other.attempted
        outcome.failed += other.failed
        outcome.failures += other.failures
        if other.digests != untraced.digests:
            outcome.fail("traced results differ from the untraced run's",
                         max(1, len(untraced.digests)))
    counts = [_counts(run[0]) for run in runs]
    changed = sorted(key for key in counts[0] if counts[0][key] != counts[1][key])
    if changed:
        outcome.fail(f"per-layer counts differ between traced runs: "
                     f"{', '.join(changed)}", len(changed))

    tracer, _, traced_cpu, traced_wall = runs[0]
    metrics = layer_metrics(tracer, traced_wall)
    overhead = statistics.median(run[2] for run in runs) / untraced_cpu - 1
    metrics["trace.overhead"] = (overhead, "fraction")
    lines = [f"{'layer':22s} {'calls':>10s} {'self_s':>9s} {'share':>7s}"]
    for name in tracer.names:
        lines.append(f"{name:22s} {metrics[name + '.calls'][0]:10d} "
                     f"{metrics[name + '.self_s'][0]:9.3f} "
                     f"{metrics[name + '.share'][0]:7.1%}")
    outside = traced_wall - tracer.root_child_s()
    lines.append(f"{'(benchmark loop)':22s} {'':10s} {outside:9.3f} "
                 f"{outside / traced_wall:7.1%}")
    lines.append(f"trace.overhead {overhead:+.1%} CPU over the untraced pass "
                 f"({untraced_cpu:.2f}s -> {traced_cpu:.2f}s): shares are "
                 f"attribution, not absolute times")
    for key, (value, unit) in metrics.items():
        if not key.endswith((".calls", ".self_s", ".share")):
            lines.append(f"{key:34s} {value:>14.6g} {unit}")
    path = _write_trace(workload, seed, tracer, metrics)
    lines.append(f"spans and (layer, parent) cells written to "
                 f"{path.relative_to(ROOT)}")
    return outcome, metrics, lines


def _counts(tracer) -> dict:
    counts = dict(tracer.counts)
    for name, totals in tracer.layer_totals().items():
        counts[name + ".calls"] = totals["calls"]
    return counts


def _combined(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def _write_trace(workload: str, seed: int, tracer, metrics) -> Path:
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"trace-{workload}-seed{seed}.json"
    spans = [dict(zip(("id", "parent", "job", "name", "start_s", "end_s"),
                      span)) for span in tracer.spans]
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "metrics": {key: value for key, (value, _) in metrics.items()},
        "cells": tracer.parent_cells(), "spans": spans}, indent=1))
    return path


def projection(rates: dict) -> list:
    """Projected ``campaign --preset paper`` CPU-hours from measured
    per-kind instructions per CPU-second (information, not compared)."""
    from collections import Counter

    from repro.campaign.plan import build_plan
    from repro.campaign.spec import preset
    from perfbench.workloads import planned_instructions

    planned = Counter()
    for job in build_plan(preset("paper")).planned:
        planned[job.job.experiment] += planned_instructions(job.job)
    lines, total = [], 0.0
    for kind in sorted(planned):
        if kind not in rates:
            lines.append(f"projection {kind:11s} {planned[kind] / 1e9:6.2f} G "
                         f"instr planned, not measured by this run")
            continue
        hours = planned[kind] / rates[kind] / 3600
        total += hours
        lines.append(f"projection {kind:11s} {planned[kind] / 1e9:6.2f} G "
                     f"instr at {rates[kind]:9.0f} instr/CPU-s = "
                     f"{hours:6.2f} CPU-h")
    covered = "all kinds" if set(planned) <= set(rates) else "measured kinds only"
    lines.append(f"projection total {total:6.2f} CPU-h for campaign --preset "
                 f"paper ({covered}; ROADMAP baseline ~59)")
    return lines


def kind_rates(outcome) -> dict:
    return {kind: outcome.kind_instructions[kind] / outcome.kind_cpu_s[kind]
            for kind in outcome.kind_cpu_s}


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    WORKDIR.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced only")
    attempted = failed = 0
    rates: dict = {}
    metrics: dict = {}
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds}s, "
              f"trace {args.trace})")
        run = traced if args.trace else end_to_end
        outcome, metrics, lines = run(name, args.seed, args.seconds)
        for line in lines:
            print(line)
        for failure in outcome.failures:
            print(f"FAILED: {failure}")
        attempted += outcome.attempted
        failed += outcome.failed
        rates.update(kind_rates(outcome))
    if not args.trace and rates:
        for line in projection(rates):
            print(line)
    if args.workload == "all":
        metrics = {}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no repro package under {SOURCE}; run from a "
              f"checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(SOURCE)]
    sys.exit(main())
