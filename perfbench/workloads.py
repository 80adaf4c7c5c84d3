"""The benchmark's four workloads: job lists, the closed loop that runs
them, and the checks that their outputs are correct.

Every workload is a closed loop in one process: a serial
:class:`~repro.runner.sweep.SweepRunner` (one worker, no pool) runs one
job at a time on the ``trace`` backend, the backend ``campaign --preset
paper`` names.  The seed is the jobs' ``seed``; the run length sets the
per-job budget (:func:`budgets`).  Why each workload exists is in
``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.tracer import Layer, Tracer, methods

#: ``run_seconds`` of BENCHMARK.json: at this run length every
#: simulation job plans :data:`JOB_INSTRUCTIONS` instructions.
RUN_SECONDS = 30

#: Planned instructions (measured plus a tenth of warm-up) per simulation
#: job at :data:`RUN_SECONDS`: the steady-state regime campaigns run in
#: (>= 500k), not the 20k quick budgets.
JOB_INSTRUCTIONS = 500_000

BACKEND = "trace"

#: accuracy-mix: (benchmark, instrument) — an unphased low-mispredict
#: benchmark, a wrong-path-heavy one and a phased one (whose counter
#: profile adds the phase-aware observer).  ``full`` is half, as in the
#: paper preset.  ``mrt`` and ``mdc`` attach subsets of ``full``'s
#: predictors and are left out to keep a run short.
ACCURACY_MIX = (
    ("gzip", "full"), ("gzip", "paco"),
    ("twolf", "full"), ("gcc", "counter"),
)

#: gating-sweep: (benchmark, harness parameters), fig10 points — count
#: gating (most of the preset), paco, and the ungated baseline.
GATING_MIX = (
    ("gzip", {"mode": "count", "gate_count": 1, "jrs_threshold": 3}),
    ("gzip", {"mode": "paco", "gating_probability": 0.1}),
    ("twolf", {"mode": "count", "gate_count": 10, "jrs_threshold": 15}),
    ("twolf", {"mode": "none"}),
)

#: smt-pairs: one fig12 pair under the count (JRS threshold 3) and paco
#: fetch policies, plus the pair's single-thread IPC jobs.
SMT_PAIR = ("gzip", "vortex")
SMT_POLICIES = (("count", 3), ("paco", 3))

SIMULATION_WORKLOADS = ("accuracy-mix", "gating-sweep", "smt-pairs")
WORKLOADS = SIMULATION_WORKLOADS + ("campaign-ci",)

#: Runs of each job (campaign-ci: cold legs); the fastest one counts.
PASSES = 2

#: Each warm-cache sample serves the jobs done so far this many times.
WARM_PASSES_PER_SAMPLE = 10
#: Warm campaign legs per cold leg.
WARM_LEGS = 4
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 3


def budgets(seconds: int) -> Tuple[int, int]:
    """(instructions, warm-up instructions) per simulation job."""
    planned = max(1_000, JOB_INSTRUCTIONS * seconds // RUN_SECONDS)
    return planned - planned // 10, planned // 10


def simulation_jobs(workload: str, seed: int, seconds: int) -> list:
    """The job list of one simulation workload, in execution order."""
    from repro.runner.library import (accuracy_job, gating_job,
                                      single_ipc_job, smt_job)
    instructions, warmup = budgets(seconds)
    common = dict(instructions=instructions, warmup_instructions=warmup,
                  seed=seed, backend=BACKEND)
    if workload == "accuracy-mix":
        return [accuracy_job(benchmark, instrument=instrument, **common)
                for benchmark, instrument in ACCURACY_MIX]
    if workload == "gating-sweep":
        return [gating_job(benchmark, **params, **common)
                for benchmark, params in GATING_MIX]
    if workload == "smt-pairs":
        return ([single_ipc_job(benchmark, **common) for benchmark in SMT_PAIR]
                + [smt_job(*SMT_PAIR, policy=policy, jrs_threshold=threshold,
                           **common)
                   for policy, threshold in SMT_POLICIES])
    raise ValueError(f"unknown simulation workload {workload!r}")


def campaign_spec(seed: int):
    """The ``ci`` preset, run at the benchmark's seed."""
    from repro.campaign.spec import preset
    return dataclasses.replace(preset("ci"), seeds=(seed,))


def plan(workload: str, seed: int, seconds: int) -> Any:
    """Everything a run needs before its first job: the measured part of
    ``setup_s`` in a fresh interpreter."""
    import repro.backends  # noqa: F401  (registers backends, compiles templates)
    if workload == "campaign-ci":
        from repro.campaign import plan as plan_module
        return plan_module.build_plan(campaign_spec(seed))
    return simulation_jobs(workload, seed, seconds)


def planned_instructions(job) -> int:
    """A job's instructions plus warm-up: the preset's own accounting."""
    params = job.params
    return params["instructions"] + params.get("warmup_instructions", 0)


def digest(value: Any) -> str:
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


# ---------------------------------------------------------------------- #
# the budget check
# ---------------------------------------------------------------------- #


def _check_budget(tracer: Tracer, args, kwargs, result) -> None:
    budget = (args[1] if len(args) > 1 else
              kwargs.get("max_instructions",
                         kwargs.get("max_total_instructions")))
    retired = getattr(result, "total_retired", None)
    if retired is None:
        retired = result.retired_instructions
    if retired < budget:
        tracer.counts["budget.shortfalls"] += 1


def _session_runs() -> list:
    from repro.backends.base import SimulationSession
    from repro.backends.smt_trace import TraceSMTCore
    return (methods(SimulationSession, ["run"], {"run": _check_budget})
            + methods(TraceSMTCore, ["run"], {"run": _check_budget}))


def budget_probe() -> Tracer:
    """Counts session legs that return having retired less than their
    budget (a leg that cannot reach it raises instead).  Two calls per
    job, so it stays on in untraced runs."""
    return Tracer([Layer("budget", _session_runs, ("shortfalls",))])


# ---------------------------------------------------------------------- #
# outcomes
# ---------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What one pass over a workload did and measured."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    jobs: int = 0
    instructions: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    cached_rates: List[float] = field(default_factory=list)
    kind_instructions: Counter = field(default_factory=Counter)
    kind_cpu_s: Counter = field(default_factory=Counter)
    digests: List[str] = field(default_factory=list)
    results: list = field(default_factory=list)
    legs: List[Tuple[float, float, float]] = field(default_factory=list)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append(message)


def run_workload(workload: str, seed: int, seconds: int, workdir: Path,
                 passes: int = PASSES, warm: Optional[int] = None) -> Outcome:
    """Measure ``workload`` with fresh caches under ``workdir``: its job
    list (campaign-ci: its cold leg) ``passes`` times, keeping each job's
    (leg's) fastest run.  Warm-cache samples follow each first-pass job
    (campaign-ci: WARM_LEGS warm legs follow each cold leg); ``warm``
    caps their number."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir))
    probe = budget_probe()
    try:
        with probe:
            if workload == "campaign-ci":
                outcome = _run_campaign(seed, scratch, passes,
                                        WARM_LEGS if warm is None else warm)
            else:
                outcome = _run_simulation(workload, seed, seconds, scratch,
                                          passes, warm)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    shortfalls = probe.counts["budget.shortfalls"]
    if shortfalls:
        outcome.fail(f"{shortfalls} session leg(s) retired less than their "
                     f"budget", shortfalls)
    return outcome


def _run_simulation(workload: str, seed: int, seconds: int, scratch: Path,
                    passes: int, warm_samples: Optional[int]) -> Outcome:
    """Run the job list ``passes`` times (forward, then backward, so each
    job's runs sit apart in time) and keep each job's fastest run."""
    from repro.runner.cache import ResultCache
    from repro.runner.sweep import SweepRunner

    outcome = Outcome()
    jobs = simulation_jobs(workload, seed, seconds)
    timings: Dict[int, List[Tuple[float, float]]] = {}
    values: Dict[int, Any] = {}
    digests: Dict[int, str] = {}
    for index in range(passes):
        order = range(len(jobs)) if index % 2 == 0 else range(len(jobs))[::-1]
        cache_dir = scratch / f"cache-{index}"
        runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
        for position in order:
            job = jobs[position]
            outcome.attempted += 1
            cpu, wall = time.thread_time(), time.perf_counter()
            try:
                value = runner.map([job])[0]
            except Exception as error:  # a failed job is counted, not fatal
                outcome.fail(f"{job.label}: {type(error).__name__}: {error}")
                continue
            timings.setdefault(position, []).append(
                (time.thread_time() - cpu, time.perf_counter() - wall))
            if index == 0:
                values[position] = value
                digests[position] = digest(value)
                if (warm_samples is None
                        or len(outcome.cached_rates) < warm_samples):
                    done = [jobs[i] for i in values]
                    _warm_sample(outcome, done, [digests[i] for i in values],
                                 cache_dir)
            elif digest(value) != digests.get(position):
                outcome.fail(f"{job.label}: pass {index + 1} computed a "
                             f"different result")

    for position, job in enumerate(jobs):
        if position not in values or len(timings[position]) < passes:
            continue
        cpu = min(run[0] for run in timings[position])
        outcome.cpu_s += cpu
        outcome.wall_s += min(run[1] for run in timings[position])
        outcome.jobs += 1
        outcome.instructions += planned_instructions(job)
        outcome.kind_instructions[job.experiment] += planned_instructions(job)
        outcome.kind_cpu_s[job.experiment] += cpu
        outcome.results.append((job, values[position]))
        outcome.digests.append(digests[position])
    for message in CHECKS[workload](outcome.results):
        outcome.fail(message)
    return outcome


def _warm_sample(outcome: Outcome, done: list, expected: List[str],
                 cache_dir: Path) -> None:
    """Serve the jobs done so far from the warm cache — what resuming a
    campaign costs per job — WARM_PASSES_PER_SAMPLE times, timed as one
    sample.  Samples follow each job, so they spread over the run."""
    from repro.runner.cache import ResultCache
    from repro.runner.sweep import SweepRunner

    cpu = time.thread_time()
    for _ in range(WARM_PASSES_PER_SAMPLE):
        warm = SweepRunner(workers=1, cache=ResultCache(cache_dir))
        values = [warm.map([job])[0] for job in done]
        if warm.cache.stats.misses:
            outcome.fail(f"warm pass: {warm.cache.stats.misses} cache "
                         f"miss(es)", warm.cache.stats.misses)
    cpu = time.thread_time() - cpu
    served = WARM_PASSES_PER_SAMPLE * len(done)
    outcome.attempted += served
    if [digest(value) for value in values] != expected:
        outcome.fail("warm pass: a cached value differs from the computed one")
    outcome.cached_rates.append(served / cpu)


def _run_campaign(seed: int, scratch: Path, legs: int,
                  warm_legs: int) -> Outcome:
    outcome = Outcome()
    for leg in range(legs):
        cache_dir = scratch / f"cache-{leg}"
        try:
            cold = _campaign_leg(seed, scratch / f"cold-{leg}", cache_dir)
        except Exception as error:  # a failed leg is counted, not fatal
            outcome.attempted += 1
            outcome.fail(f"cold leg {leg}: {type(error).__name__}: {error}")
            continue
        texts, jobs, instructions, cpu, wall, hits, misses = cold
        outcome.attempted += jobs
        outcome.legs.append((instructions / cpu, instructions / wall,
                             jobs / wall))
        tables = digest(sorted(texts.items()))
        if not outcome.digests:
            outcome.digests.append(tables)
        elif tables != outcome.digests[0]:
            outcome.fail(f"cold leg {leg}: merged tables differ from the "
                         f"first cold leg's", jobs)
        if misses != jobs or hits:
            outcome.fail(f"cold leg {leg}: {hits} hit(s), {misses} miss(es) "
                         f"against a fresh cache of {jobs} job(s)")
        for repeat in range(warm_legs):
            try:
                warm = _campaign_leg(seed, scratch / f"warm-{leg}-{repeat}",
                                     cache_dir)
            except Exception as error:  # a failed leg is counted, not fatal
                outcome.attempted += jobs
                outcome.fail(f"warm leg {leg}/{repeat}: "
                             f"{type(error).__name__}: {error}", jobs)
                continue
            warm_texts, _, _, warm_cpu, _, warm_hits, warm_misses = warm
            outcome.attempted += jobs
            outcome.cached_rates.append(jobs / warm_cpu)
            if warm_hits != jobs or warm_misses:
                outcome.fail(f"warm leg {leg}/{repeat}: {warm_misses} "
                             f"miss(es) against the warm cache", warm_misses)
            if warm_texts != texts:
                outcome.fail(f"warm leg {leg}/{repeat}: merged tables differ "
                             f"from the cold leg's", jobs)
    return outcome


def _campaign_leg(seed: int, campaign_dir: Path, cache_dir: Path) -> tuple:
    """build_plan, run_shard 1/2 and 2/2, merge_campaign — through the
    module attributes, so a traced run sees every call."""
    from repro.campaign import merge, plan, shard
    from repro.runner.cache import ResultCache
    from repro.runner.sweep import SweepRunner

    cpu, wall = time.thread_time(), time.perf_counter()
    campaign = plan.build_plan(campaign_spec(seed))
    runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
    for index in (1, 2):
        shard.run_shard(campaign, index, 2, campaign_dir, runner=runner)
    merged = merge.merge_campaign(campaign, campaign_dir)
    cpu = time.thread_time() - cpu
    wall = time.perf_counter() - wall
    instructions = sum(planned_instructions(planned.job)
                       for planned in campaign.planned)
    stats = runner.cache.stats
    return (merged.texts, len(campaign.planned), instructions, cpu, wall,
            stats.hits, stats.misses)


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #


def _check_accuracy(results: Sequence[Tuple[Any, Any]]) -> List[str]:
    """Profiles only observe, so every profile of one (benchmark, seed)
    must reproduce the ``full`` profile's shared statistics bit for bit."""
    failures = []
    full = {job.params["benchmark"]: value for job, value in results
            if "instrument" not in job.params}
    for job, value in results:
        reference = full.get(job.params["benchmark"])
        if reference is None or value is reference:
            continue
        where = f"{job.label} {job.params.get('instrument')}"
        if value.stats != reference.stats:
            failures.append(f"{where}: statistics differ from the full "
                            f"profile's")
        if value.mdc_mispredict_rates != reference.mdc_mispredict_rates:
            failures.append(f"{where}: MDC rates differ from the full "
                            f"profile's")
        for name, rms in value.rms_errors.items():
            if reference.rms_errors.get(name) != rms:
                failures.append(f"{where}: {name} RMS differs from the full "
                                f"profile's")
        if value.counter_goodpath and (
                value.counter_goodpath != reference.counter_goodpath
                or value.counter_occupancy != reference.counter_occupancy):
            failures.append(f"{where}: counter statistics differ from the "
                            f"full profile's")
    for job, value in results:
        if not 0.0 < value.conditional_mispredict_rate < 1.0:
            failures.append(f"{job.label}: conditional mispredict rate "
                            f"{value.conditional_mispredict_rate} out of "
                            f"range")
    return failures


def _check_gating(results: Sequence[Tuple[Any, Any]]) -> List[str]:
    failures = []
    for job, value in results:
        if not value.ipc > 0.0:
            failures.append(f"{job.label}: IPC {value.ipc}")
        if job.params["mode"] == "none" and value.gated_cycles:
            failures.append(f"{job.label}: the ungated baseline gated "
                            f"{value.gated_cycles} cycle(s)")
    return failures


def _check_smt(results: Sequence[Tuple[Any, Any]]) -> List[str]:
    failures = []
    for job, value in results:
        ipcs = (value,) if job.experiment == "single-ipc" else value.smt_ipcs
        if not all(ipc > 0.0 for ipc in ipcs):
            failures.append(f"{job.label}: IPCs {ipcs}")
    return failures


CHECKS = {
    "accuracy-mix": _check_accuracy,
    "gating-sweep": _check_gating,
    "smt-pairs": _check_smt,
}


def paper_errors(results: Sequence[Tuple[Any, Any]]) -> Dict[str, float]:
    """Mean absolute difference from the paper's Table 7, over the
    accuracy-mix benchmarks: conditional mispredict rate in percentage
    points, and PaCo RMS error."""
    from repro.workloads.suite import (PAPER_CONDITIONAL_MISPREDICT_RATES,
                                       PAPER_PACO_RMS_ERROR)
    rates: Dict[str, float] = {}
    rms: Dict[str, float] = {}
    for job, value in results:
        benchmark = job.params["benchmark"]
        rates.setdefault(benchmark, value.conditional_mispredict_rate)
        if "paco" in value.rms_errors:
            rms.setdefault(benchmark, value.rms_errors["paco"])
    return {
        "paper_err.cond_mr_pp": sum(
            abs(100 * rate - PAPER_CONDITIONAL_MISPREDICT_RATES[b])
            for b, rate in rates.items()) / len(rates),
        "paper_err.paco_rms": sum(
            abs(error - PAPER_PACO_RMS_ERROR[b])
            for b, error in rms.items()) / len(rms),
    }
