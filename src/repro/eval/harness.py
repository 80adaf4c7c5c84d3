"""Experiment harnesses: wiring benchmarks, predictors and cores together.

These builders encapsulate the plumbing every experiment needs — construct
the workload generator, the front-end predictor, the JRS confidence table,
the path confidence predictor(s), the fetch engine and the core — so that
experiment drivers, examples and benchmarks stay short and consistent.

Scaled parameters
-----------------
The paper simulates 100 million instructions per benchmark and
re-logarithmizes PaCo's MRT every 200 000 cycles.  Pure-Python runs are
10²–10³ times shorter, so the harness defaults scale accordingly: the
default instruction budget is 60 000 and the default re-logarithmizing
period is 20 000 cycles.  Both are parameters; the paper's values can be
requested explicitly when longer runs are affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import (
    Instrumentation,
    SimulationSession,
    Workload,
    get_backend,
)
from repro.backends.cycle import build_confidence, build_frontend
from repro.common.stats import ReliabilityDiagram
from repro.eval.metrics import hmwipc
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
    PhaseAwareCounterObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.pathconf.base import PathConfidencePredictor
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.per_branch_mrt import PerBranchMRTPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.config import MachineConfig, SMTConfig
from repro.pipeline.core import CoreStats, OutOfOrderCore
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.fetch_policy import (
    CountConfidencePolicy,
    FetchPolicy,
    ICountPolicy,
    PaCoConfidencePolicy,
    RoundRobinPolicy,
)
from repro.pipeline.gating import CountGating, GatingPolicy, NoGating, PaCoGating
from repro.pipeline.smt import SMTCore, SMTStats, SMTThread
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.suite import get_benchmark

#: Default instruction budget per run (scaled down from the paper's 100 M).
DEFAULT_INSTRUCTIONS = 60_000

#: Default PaCo re-logarithmizing period (scaled down from 200 000 cycles).
DEFAULT_RELOG_PERIOD = 20_000


def _subtract_stats(total: CoreStats, warmup: CoreStats) -> CoreStats:
    """Return the per-field difference ``total - warmup`` of two stat records.

    Used to report measurement-window statistics when an experiment warms
    the predictors up before observing.
    """
    deltas = {
        f.name: getattr(total, f.name) - getattr(warmup, f.name)
        for f in fields(CoreStats)
    }
    return CoreStats(**deltas)


def _resolve_spec(benchmark: object) -> BenchmarkSpec:
    if isinstance(benchmark, BenchmarkSpec):
        return benchmark
    return get_benchmark(str(benchmark))


def build_session(
    benchmark: object,
    path_confidence: PathConfidencePredictor,
    config: Optional[MachineConfig] = None,
    seed: int = 1,
    gating_policy: Optional[GatingPolicy] = None,
    backend: str = "cycle",
) -> SimulationSession:
    """Wire one benchmark into a simulation session on the chosen backend."""
    spec = _resolve_spec(benchmark)
    machine = config if config is not None else MachineConfig.paper_4wide()
    return get_backend(backend).build(
        Workload(spec=spec, seed=seed),
        machine,
        Instrumentation(path_confidence=path_confidence,
                        gating_policy=gating_policy),
    )


def build_single_core(
    benchmark: object,
    path_confidence: PathConfidencePredictor,
    config: Optional[MachineConfig] = None,
    seed: int = 1,
    gating_policy: Optional[GatingPolicy] = None,
) -> Tuple[OutOfOrderCore, FetchEngine, WorkloadGenerator]:
    """Wire up a single-thread core running one benchmark (cycle backend).

    Returns the core, its fetch engine and the workload generator (the
    generator is exposed because phase-aware observers need it).
    """
    session = build_session(benchmark, path_confidence, config=config,
                            seed=seed, gating_policy=gating_policy,
                            backend="cycle")
    return session.core, session.fetch_engine, session.generator


# ---------------------------------------------------------------------- #
# accuracy experiments (Table 7, Fig. 2, Fig. 3, Fig. 8/9, Appendix A)
# ---------------------------------------------------------------------- #


@dataclass
class AccuracyResult:
    """Everything an accuracy experiment produces for one benchmark."""

    benchmark: str
    stats: CoreStats
    diagrams: Dict[str, ReliabilityDiagram]
    rms_errors: Dict[str, float]
    mdc_mispredict_rates: Dict[int, float]
    counter_goodpath: Dict[int, float]
    counter_occupancy: Dict[int, int]
    phase_counter_goodpath: Dict[str, Dict[int, float]] = field(default_factory=dict)
    conditional_mispredict_rate: float = 0.0
    overall_mispredict_rate: float = 0.0

    def rms_error(self, predictor_name: str = "paco") -> float:
        return self.rms_errors[predictor_name]


def default_accuracy_predictors(
    relog_period_cycles: int = DEFAULT_RELOG_PERIOD,
    count_threshold: int = 3,
) -> List[PathConfidencePredictor]:
    """The predictor set used by accuracy experiments: PaCo, both Appendix-A
    alternatives, and a threshold-and-count baseline."""
    return [
        PaCoPredictor(relog_period_cycles=relog_period_cycles),
        StaticMRTPredictor(),
        PerBranchMRTPredictor(),
        ThresholdAndCountPredictor(threshold=count_threshold),
    ]


def accuracy_predictors_for(
    instrument: str,
    relog_period_cycles: int = DEFAULT_RELOG_PERIOD,
    count_threshold: int = 3,
) -> List[PathConfidencePredictor]:
    """Resolve an instrumentation profile into its predictor set.

    Attached predictors only *observe* the execution (the composite fans
    events out; nothing feeds back into fetch or timing), so a slimmer
    profile produces bit-identical values for the statistics it does
    measure — it simply skips paying for the ones the caller discards.

    =========== =====================================================
    Profile     Predictors
    =========== =====================================================
    ``full``    PaCo, Static-MRT, Per-branch-MRT, threshold-and-count
    ``paco``    PaCo only (table 7, fig 8/9)
    ``counter`` threshold-and-count only (fig 3)
    ``mdc``     none — just the always-attached MDC profiler (fig 2)
    ``mrt``     PaCo, Static-MRT, Per-branch-MRT (appendix table A1)
    =========== =====================================================
    """
    if instrument == "full":
        return default_accuracy_predictors(
            relog_period_cycles=relog_period_cycles,
            count_threshold=count_threshold)
    if instrument == "paco":
        return [PaCoPredictor(relog_period_cycles=relog_period_cycles)]
    if instrument == "counter":
        return [ThresholdAndCountPredictor(threshold=count_threshold)]
    if instrument == "mdc":
        return []
    if instrument == "mrt":
        return [
            PaCoPredictor(relog_period_cycles=relog_period_cycles),
            StaticMRTPredictor(),
            PerBranchMRTPredictor(),
        ]
    raise ValueError(
        f"unknown instrumentation profile {instrument!r} "
        f"(known: full, paco, counter, mdc, mrt)"
    )


def run_accuracy_experiment(
    benchmark: object,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 1,
    predictors: Optional[Sequence[PathConfidencePredictor]] = None,
    relog_period_cycles: int = DEFAULT_RELOG_PERIOD,
    count_threshold: int = 3,
    config: Optional[MachineConfig] = None,
    max_counter: int = 16,
    warmup_instructions: int = 20_000,
    backend: str = "cycle",
    instrument: str = "full",
) -> AccuracyResult:
    """Run one benchmark and measure every predictor's accuracy over the run.

    All predictors observe exactly the same dynamic execution (they are
    wrapped in a composite), so their reliability diagrams and RMS errors
    are directly comparable.

    ``warmup_instructions`` good-path instructions are retired before any
    observer is attached and before the mispredict-rate bookkeeping starts,
    so that cold predictor tables (an artefact of the short run lengths,
    not of the mechanisms) do not dominate the measured rates.

    ``backend`` selects the simulation backend: ``"cycle"`` (the full
    out-of-order core, ground truth) or ``"trace"`` (the fast trace-replay
    engine; predictor-level statistics only, see
    :mod:`repro.backends.trace`).  ``instrument`` selects which predictor
    set rides along (see :func:`accuracy_predictors_for`); statistics the
    profile does measure are bit-identical across profiles.
    """
    spec = _resolve_spec(benchmark)
    predictor_list = (list(predictors) if predictors is not None
                      else accuracy_predictors_for(
                          instrument,
                          relog_period_cycles=relog_period_cycles,
                          count_threshold=count_threshold))
    profiler = MDCProfiler()
    count_predictor = next(
        (p for p in predictor_list if isinstance(p, ThresholdAndCountPredictor)),
        None,
    )
    composite = CompositePathConfidence(
        predictors=list(predictor_list) + [profiler],
        primary=predictor_list[0] if predictor_list else profiler,
    )
    session = build_session(spec, composite, config=config, seed=seed,
                            backend=backend)
    generator = session.generator
    probability_predictors = [
        p for p in predictor_list
        if not isinstance(p, ThresholdAndCountPredictor)
    ]

    warmup_snapshot = None
    if warmup_instructions > 0:
        session.run(max_instructions=warmup_instructions)
        warmup_snapshot = replace(session.stats)

    multi_observer = MultiPredictorObserver(probability_predictors)
    if probability_predictors:
        session.add_observer(multi_observer)
    counter_observer = None
    phase_observer = None
    if count_predictor is not None:
        counter_observer = CounterGoodpathObserver(count_predictor,
                                                   max_count=max_counter)
        session.add_observer(counter_observer)
        if spec.phases:
            phase_observer = PhaseAwareCounterObserver(count_predictor, generator,
                                                       max_count=max_counter)
            session.add_observer(phase_observer)

    stats = session.run(max_instructions=warmup_instructions + instructions)
    if warmup_snapshot is not None:
        stats = _subtract_stats(stats, warmup_snapshot)

    counter_goodpath: Dict[int, float] = {}
    counter_occupancy: Dict[int, int] = {}
    if counter_observer is not None:
        for count in range(max_counter + 1):
            counter_occupancy[count] = counter_observer.occupancy(count)
            if counter_occupancy[count]:
                counter_goodpath[count] = counter_observer.goodpath_probability(count)
    phase_counter_goodpath: Dict[str, Dict[int, float]] = {}
    if phase_observer is not None:
        for phase in phase_observer.phases():
            phase_counter_goodpath[phase] = {
                count: phase_observer.goodpath_probability(phase, count)
                for count in range(max_counter + 1)
                if phase_observer.occupancy(phase, count) > 0
            }

    return AccuracyResult(
        benchmark=spec.name,
        stats=stats,
        diagrams=dict(multi_observer.diagrams),
        rms_errors=multi_observer.rms_errors(),
        mdc_mispredict_rates=profiler.mispredict_rates(),
        counter_goodpath=counter_goodpath,
        counter_occupancy=counter_occupancy,
        phase_counter_goodpath=phase_counter_goodpath,
        conditional_mispredict_rate=stats.conditional_mispredict_rate,
        overall_mispredict_rate=stats.overall_mispredict_rate,
    )


# ---------------------------------------------------------------------- #
# pipeline gating (Fig. 10)
# ---------------------------------------------------------------------- #


@dataclass
class GatingResult:
    """Outcome of one pipeline-gating configuration on one benchmark."""

    benchmark: str
    policy: str
    ipc: float
    badpath_executed: int
    badpath_fetched: int
    gated_cycles: int
    stats: CoreStats

    def performance_loss_vs(self, baseline: "GatingResult") -> float:
        """Fractional IPC loss relative to a no-gating baseline (negative = gain)."""
        if baseline.ipc == 0.0:
            return 0.0
        return (baseline.ipc - self.ipc) / baseline.ipc

    def badpath_reduction_vs(self, baseline: "GatingResult") -> float:
        """Fractional reduction in bad-path instructions executed."""
        if baseline.badpath_executed == 0:
            return 0.0
        return ((baseline.badpath_executed - self.badpath_executed)
                / baseline.badpath_executed)

    def badpath_fetch_reduction_vs(self, baseline: "GatingResult") -> float:
        if baseline.badpath_fetched == 0:
            return 0.0
        return ((baseline.badpath_fetched - self.badpath_fetched)
                / baseline.badpath_fetched)


def run_gating_experiment(
    benchmark: object,
    mode: str = "none",
    gate_count: int = 0,
    gating_probability: float = 0.0,
    jrs_threshold: int = 3,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 1,
    relog_period_cycles: int = DEFAULT_RELOG_PERIOD,
    config: Optional[MachineConfig] = None,
    warmup_instructions: int = 15_000,
    backend: str = "cycle",
) -> GatingResult:
    """Run one benchmark under one gating configuration.

    ``mode`` is ``"none"`` (baseline), ``"count"`` (threshold-and-count
    gating at ``gate_count`` with JRS threshold ``jrs_threshold``) or
    ``"paco"`` (gate when PaCo's good-path probability is below
    ``gating_probability``).  The warm-up window (during which gating is
    already active, exactly as it would be in hardware) is excluded from
    the reported statistics.

    ``backend="cycle"`` measures gating on the out-of-order core (ground
    truth); ``backend="trace"`` runs the gated trace replay — the fused
    :class:`~repro.backends.fused.FusedTraceSession` with the gate in its
    loops, bit-identical to the gated
    :class:`~repro.backends.trace.TraceSession` — for
    estimated IPC and gated-cycle counts whose throttle orderings are
    parity-gated against the cycle model by ``tests/test_backends.py``.
    """
    spec = _resolve_spec(benchmark)
    if mode == "none":
        predictor: PathConfidencePredictor = ThresholdAndCountPredictor(
            threshold=jrs_threshold
        )
        gating: GatingPolicy = NoGating()
        policy_name = "no-gating"
    elif mode == "count":
        count_predictor = ThresholdAndCountPredictor(threshold=jrs_threshold)
        predictor = count_predictor
        gating = CountGating(count_predictor, gate_count=gate_count)
        policy_name = gating.name
    elif mode == "paco":
        paco = PaCoPredictor(relog_period_cycles=relog_period_cycles)
        predictor = paco
        gating = PaCoGating(paco, target_goodpath_probability=gating_probability)
        policy_name = gating.name
    else:
        raise ValueError(f"unknown gating mode {mode!r}")

    session = build_session(
        spec, predictor, config=config, seed=seed, gating_policy=gating,
        backend=backend,
    )
    warmup_snapshot = None
    if warmup_instructions > 0:
        session.run(max_instructions=warmup_instructions)
        warmup_snapshot = replace(session.stats)
    stats = session.run(max_instructions=warmup_instructions + instructions)
    if warmup_snapshot is not None:
        stats = _subtract_stats(stats, warmup_snapshot)
    return GatingResult(
        benchmark=spec.name,
        policy=policy_name,
        ipc=stats.ipc,
        badpath_executed=stats.badpath_executed,
        badpath_fetched=stats.badpath_fetched,
        gated_cycles=stats.gated_cycles,
        stats=stats,
    )


# ---------------------------------------------------------------------- #
# SMT fetch prioritization (Fig. 12)
# ---------------------------------------------------------------------- #


@dataclass
class SMTResult:
    """Outcome of one SMT pair under one fetch policy.

    ``single_ipcs`` and ``hmwipc`` are ``None`` when the caller asked for
    the raw SMT measurement only (``measure_single_ipcs=False``) — the
    SMT study computes the HMWIPC weighting at aggregation time from its
    own single-thread stage, which is what makes the fig12 job list
    static enough to plan as a campaign.
    """

    benchmarks: Tuple[str, str]
    policy: str
    smt_ipcs: Tuple[float, float]
    single_ipcs: Optional[Tuple[float, float]]
    hmwipc: Optional[float]
    stats: SMTStats


def run_single_thread_ipc(
    benchmark: object,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    warmup_instructions: int = 15_000,
    backend: str = "cycle",
) -> float:
    """IPC of a benchmark running alone on the (8-wide) SMT machine.

    On ``backend="trace"`` the returned IPC is the trace estimate (bounded
    by the replay's idealized IPC-1 front end); it is only meaningful as a
    weighting denominator against SMT IPCs measured on the same backend.
    """
    machine = config if config is not None else MachineConfig.smt_8wide()
    predictor = ThresholdAndCountPredictor(threshold=3)
    session = build_session(
        benchmark, predictor, config=machine, seed=seed, backend=backend
    )
    warmup_snapshot = None
    if warmup_instructions > 0:
        session.run(max_instructions=warmup_instructions)
        warmup_snapshot = replace(session.stats)
    stats = session.run(max_instructions=warmup_instructions + instructions)
    if warmup_snapshot is not None:
        stats = _subtract_stats(stats, warmup_snapshot)
    return stats.ipc


def _make_policy_and_predictor(policy_name: str, jrs_threshold: int,
                               relog_period_cycles: int
                               ) -> Tuple[FetchPolicy, callable]:
    """Return (policy, per-thread predictor factory) for one policy name."""
    if policy_name == "icount":
        return ICountPolicy(), lambda: ThresholdAndCountPredictor(threshold=3)
    if policy_name == "round-robin":
        return RoundRobinPolicy(), lambda: ThresholdAndCountPredictor(threshold=3)
    if policy_name == "count":
        return (CountConfidencePolicy(threshold=jrs_threshold),
                lambda: ThresholdAndCountPredictor(threshold=jrs_threshold))
    if policy_name == "paco":
        return (PaCoConfidencePolicy(),
                lambda: PaCoPredictor(relog_period_cycles=relog_period_cycles))
    raise ValueError(f"unknown SMT fetch policy {policy_name!r}")


def run_smt_experiment(
    benchmark_a: object,
    benchmark_b: object,
    policy: str = "paco",
    jrs_threshold: int = 3,
    instructions: int = 2 * DEFAULT_INSTRUCTIONS,
    seed: int = 1,
    relog_period_cycles: int = DEFAULT_RELOG_PERIOD,
    single_thread_instructions: Optional[int] = None,
    single_ipcs: Optional[Tuple[float, float]] = None,
    warmup_instructions: int = 30_000,
    backend: str = "cycle",
    measure_single_ipcs: bool = True,
) -> SMTResult:
    """Run one benchmark pair in SMT mode under one fetch policy.

    ``policy`` is one of ``"icount"``, ``"round-robin"``, ``"count"``
    (threshold-and-count confidence with ``jrs_threshold``) or ``"paco"``.
    Single-thread IPCs for the HMWIPC weighting are either supplied by the
    caller (so they can be computed once and reused across policies),
    measured here, or — with ``measure_single_ipcs=False`` — skipped
    entirely (the result carries raw SMT IPCs and ``hmwipc=None``; the
    caller weighs them against its own single-thread stage).

    ``backend="cycle"`` runs the full SMT core; ``backend="trace"`` runs
    the interleaved trace replays of
    :class:`~repro.backends.smt_trace.TraceSMTCore`, whose policy
    orderings are parity-gated against the cycle model.
    ``warmup_instructions`` total retired instructions are excluded from
    the reported IPCs.
    """
    if backend not in ("cycle", "trace"):
        from repro.backends import describe_backends
        raise ValueError(
            f"unknown backend {backend!r} for the SMT experiment "
            f"(known: cycle, trace; registered: {describe_backends()})")
    spec_a = _resolve_spec(benchmark_a)
    spec_b = _resolve_spec(benchmark_b)
    smt_config = SMTConfig()
    machine = smt_config.machine
    fetch_policy, predictor_factory = _make_policy_and_predictor(
        policy, jrs_threshold, relog_period_cycles
    )

    engines: List[FetchEngine] = []
    for thread_id, spec in enumerate((spec_a, spec_b)):
        generator = WorkloadGenerator(spec, seed=seed + thread_id, thread_id=thread_id)
        frontend = build_frontend(machine)
        confidence = build_confidence(machine)
        engines.append(FetchEngine(
            generator=generator,
            frontend=frontend,
            confidence=confidence,
            path_confidence=predictor_factory(),
            wrongpath_seed=seed + 10 + thread_id,
        ))

    if backend == "trace":
        from repro.backends.smt_trace import build_trace_smt_core
        core = build_trace_smt_core(engines, smt_config,
                                    fetch_policy=fetch_policy)
    else:
        threads = [SMTThread(thread_id=thread_id, fetch_engine=engine)
                   for thread_id, engine in enumerate(engines)]
        core = SMTCore(config=smt_config, threads=threads,
                       fetch_policy=fetch_policy)
    warmup_retired = (0, 0)
    warmup_cycles = 0
    if warmup_instructions > 0:
        warm = core.run(max_total_instructions=warmup_instructions)
        warmup_retired = (warm.threads[0].retired_instructions,
                          warm.threads[1].retired_instructions)
        warmup_cycles = warm.cycles
    stats = core.run(max_total_instructions=warmup_instructions + instructions)
    measured_cycles = stats.cycles - warmup_cycles
    if measured_cycles <= 0:
        # Warm-up consumed the whole run: the per-thread retirement deltas
        # below would be divided by a clamped denominator and silently
        # report garbage IPCs.  Fail loudly instead.
        raise ValueError(
            "empty SMT measurement window: warm-up used all "
            f"{stats.cycles} cycles (warmup_instructions="
            f"{warmup_instructions}, instructions={instructions}); "
            "increase the instruction budget or shrink the warm-up"
        )

    if single_ipcs is None and measure_single_ipcs:
        budget = (single_thread_instructions if single_thread_instructions is not None
                  else instructions // 2)
        single_ipcs = (
            run_single_thread_ipc(spec_a, instructions=budget, seed=seed,
                                  backend=backend),
            run_single_thread_ipc(spec_b, instructions=budget, seed=seed + 1,
                                  backend=backend),
        )

    smt_ipcs = (
        (stats.threads[0].retired_instructions - warmup_retired[0]) / measured_cycles,
        (stats.threads[1].retired_instructions - warmup_retired[1]) / measured_cycles,
    )
    metric = hmwipc(single_ipcs, smt_ipcs) if single_ipcs is not None else None
    return SMTResult(
        benchmarks=(spec_a.name, spec_b.name),
        policy=fetch_policy.name,
        smt_ipcs=smt_ipcs,
        single_ipcs=single_ipcs,
        hmwipc=metric,
        stats=stats,
    )
