"""Tests for the pluggable simulation-backend architecture.

Covers the backend registry and protocol, the trace-replay engine's
mechanics (windows, truncation, determinism, batched observation), the
backend field threading through jobs / sweeps / the result cache, and —
most importantly — the trace-vs-cycle parity contract the predictor-level
experiments rely on.

Parity tolerances (checked at table7-scale budgets) are stated here and
nowhere else; if the trace engine's calibration changes, this file is the
gate that must still pass.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import linecache
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.__main__ as cli
from repro.backends import (
    CycleBackend,
    Instrumentation,
    TraceBackend,
    TraceSession,
    UnknownBackendError,
    Workload,
    backend_names,
    build_fetch_engine,
    get_backend,
    register_backend,
)
from repro.backends import cycle as cycle_backend
from repro.backends import smt_trace
from repro.backends import trace as trace_backend
from repro.backends.cycle import CycleSession, build_confidence, build_frontend
from repro.backends.fused import (
    FusedTraceSession,
    _build_step_source,
    _fused_methods,
    _smt_plan,
)
from repro.backends.smt_trace import TraceSMTCore, build_trace_smt_core
from repro.campaign import CampaignSpec, CampaignSpecError, build_plan, preset
from repro.eval.harness import (
    accuracy_predictors_for,
    build_single_core,
    build_session,
    run_accuracy_experiment,
    run_gating_experiment,
    run_single_thread_ipc,
    run_smt_experiment,
)
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.pathconf.base import PathConfidencePredictor
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf import per_branch_mrt
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.per_branch_mrt import PerBranchMRTPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import InstanceObserver, SimulationTruncated
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.fetch_policy import ICountPolicy
from repro.pipeline.gating import (
    CountGating,
    GatingPolicy,
    NoGating,
    PaCoGating,
)
from repro.runner import (
    Job,
    ResultCache,
    SweepRunner,
    SweepSpec,
    accuracy_job,
    execute_job,
    gating_job,
    single_ipc_job,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import BenchmarkSpec, MemorySpec, PhaseSpec
from repro.workloads.suite import get_benchmark


class _CountingObserver(InstanceObserver):
    def __init__(self):
        self.instances = 0
        self.goodpath = 0

    def record_runs(self, events):
        for i in range(0, len(events), 4):
            self.instances += events[i + 3]
            if events[i + 1]:
                self.goodpath += events[i + 3]


class _StreamObserver(InstanceObserver):
    """Captures the flattened run-event stream.

    Every delivered batch is split back into its events, so the captured
    stream is the sequence of one-event batches — same events, same
    values, same order — whatever the batching.  Comparing streams (not
    just final statistics) pins the event *boundaries*, which is where
    batching bugs would hide.
    """

    def __init__(self):
        self.events = []

    def record_runs(self, events):
        for i in range(0, len(events), 4):
            self.events.append(tuple(events[i:i + 4]))


class _ScalarTraceBackend(TraceBackend):
    """``trace`` with the scalar :class:`TraceSession` for every stack.

    The parity oracle: :class:`TraceBackend` builds the fused session for
    every stack (and count/PaCo gate) it models, so comparing its output
    against this backend compares fused against scalar replay, gated or
    not.
    """

    def build(self, workload, config, instrument):
        fetch_engine = build_fetch_engine(workload, config, instrument)
        windows = (config.width * config.frontend_depth,
                   2 * config.min_mispredict_penalty)
        gating = instrument.gating_policy
        if isinstance(gating, NoGating):
            gating = None
        return TraceSession(fetch_engine, config, *windows,
                            block_size=self.block_size,
                            gating_policy=gating)


def _trained_state(session):
    """Everything a replay trains or counts outside ``CoreStats``.

    Predictor, JRS and BTB tables, the history register, the engine's
    and tables' counters, and the path confidence predictor's registers,
    counters and MRT — so parity is pinned on state, not only on output.
    """
    engine = session.fetch_engine
    state = engine.state_engine
    frontend = engine.frontend
    btb = state._btb
    path_confidence = engine.path_confidence
    snapshot = {
        "gshare": list(state._gshare_table),
        "bimodal": list(state._bimodal_table),
        "chooser": list(state._chooser),
        "jrs": list(state._jrs_table),
        "btb": [None if bset is None else [list(way) for way in bset.entries]
                for bset in btb._sets],
        "history": state._history.value,
        "counters": (engine.branches_fetched,
                     engine.conditional_branches_fetched,
                     engine.goodpath_fetched, engine.badpath_fetched,
                     frontend.total_predictions,
                     frontend.conditional_predictions,
                     frontend.total_mispredictions,
                     frontend.conditional_mispredictions,
                     engine.confidence.lookups, engine.confidence.updates,
                     btb.lookups, btb.hits, btb.evictions),
    }
    if isinstance(path_confidence, PaCoPredictor):
        mrt = path_confidence.mrt
        snapshot["paco"] = (
            path_confidence.path_confidence_register,
            path_confidence._outstanding, path_confidence.fetched_branches,
            path_confidence.resolved_branches,
            path_confidence.squashed_branches,
            [(c.correct, c.mispredicted) for c in mrt.counters],
            list(mrt.encoded_probabilities), mrt.samples_recorded,
            mrt.relog_passes, mrt._last_relog_cycle)
    else:
        snapshot["count"] = (
            path_confidence._low_confidence_outstanding,
            path_confidence._outstanding, path_confidence.fetched_branches,
            path_confidence.low_confidence_branches)
    return snapshot


# ---------------------------------------------------------------------- #
# registry / protocol
# ---------------------------------------------------------------------- #


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert set(backend_names()) >= {"cycle", "trace"}

    def test_get_backend_by_name_and_instance(self):
        assert isinstance(get_backend("cycle"), CycleBackend)
        assert isinstance(get_backend("trace"), TraceBackend)
        backend = TraceBackend(resolve_window=8)
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError):
            get_backend("rtl")

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("rtl")
        message = str(excinfo.value)
        assert "rtl" in message
        assert "cycle (available)" in message
        assert "trace (available)" in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("trace", TraceBackend)
        # The rejection must not have clobbered the original factory.
        assert isinstance(get_backend("trace"), TraceBackend)

    def test_capability_flags(self):
        assert CycleBackend.supports_timing and CycleBackend.supports_gating
        # The trace engine estimates timing and honours gating since the
        # calibrated timing model landed; estimates are parity-gated below.
        assert TraceBackend.supports_timing
        assert TraceBackend.supports_gating


class TestSessionContract:
    def test_cycle_session_matches_build_single_core(self, tiny_spec,
                                                     small_machine):
        session = build_session(tiny_spec, PaCoPredictor(),
                                config=small_machine, seed=3, backend="cycle")
        stats = session.run(max_instructions=2_000)
        core, _, _ = build_single_core(tiny_spec, PaCoPredictor(),
                                       config=small_machine, seed=3)
        reference = core.run(max_instructions=2_000)
        assert stats.retired_instructions == reference.retired_instructions
        assert stats.cycles == reference.cycles
        assert (stats.conditional_mispredicts_retired
                == reference.conditional_mispredicts_retired)

    def test_one_shot_run_equals_session_run(self, tiny_spec, small_machine):
        backend = get_backend("trace")
        stats = backend.run(
            Workload(spec=tiny_spec, seed=2), small_machine,
            Instrumentation(path_confidence=PaCoPredictor()),
            max_instructions=2_000,
        )
        session = get_backend("trace").build(
            Workload(spec=tiny_spec, seed=2), small_machine,
            Instrumentation(path_confidence=PaCoPredictor()),
        )
        assert session.run(2_000).retired_instructions == \
            stats.retired_instructions

    def test_generator_exposed_for_phase_observers(self, phased_spec,
                                                   small_machine):
        session = build_session(phased_spec, PaCoPredictor(),
                                config=small_machine, backend="trace")
        assert session.generator.spec is phased_spec


class _FetchTally(InstanceObserver):
    """Sums fetch instances; a run of count n is n instances."""

    def __init__(self):
        self.fetches = 0

    def record_runs(self, events):
        for i in range(0, len(events), 4):
            if events[i] == "fetch":
                self.fetches += events[i + 3]


#: Session kind -> (backend factory, the session type it must build).
_ATTACH_SESSIONS = {
    "cycle": (CycleBackend, CycleSession),
    "fused": (lambda: TraceBackend(block_size=17), FusedTraceSession),
    "scalar": (lambda: _ScalarTraceBackend(block_size=17), TraceSession),
}


class TestObserverAttach:
    """``add_observer`` is the one attach route, on every session kind.

    Every fetched instruction is one fetch instance, so an observer
    attached before the first ``run`` sees exactly the fetched totals,
    and one attached between legs (the harness's warm-up pattern) sees
    exactly the second leg's — nothing recorded before it was attached
    leaks into it, and nothing after is lost.
    """

    @staticmethod
    def _session(spec, machine, kind, predictor, gated):
        if predictor == "paco":
            path_confidence = PaCoPredictor(relog_period_cycles=2_000)
            gating = (PaCoGating(path_confidence,
                                 target_goodpath_probability=0.3)
                      if gated else None)
        else:
            path_confidence = ThresholdAndCountPredictor(threshold=3)
            gating = (CountGating(path_confidence, gate_count=2)
                      if gated else None)
        backend, session_type = _ATTACH_SESSIONS[kind]
        session = backend().build(
            Workload(spec=spec, seed=4), machine,
            Instrumentation(path_confidence=path_confidence,
                            gating_policy=gating))
        assert type(session) is session_type
        return session

    @staticmethod
    def _fetched(stats):
        return stats.goodpath_fetched + stats.badpath_fetched

    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize("predictor", ["paco", "count"])
    @pytest.mark.parametrize("kind", sorted(_ATTACH_SESSIONS))
    def test_observer_sees_every_fetch(self, tiny_spec, small_machine, kind,
                                       predictor, gated):
        session = self._session(tiny_spec, small_machine, kind, predictor,
                                gated)
        tally = _FetchTally()
        session.add_observer(tally)
        stats = session.run(max_instructions=3_000)
        assert tally.fetches == self._fetched(stats) > 0
        assert (stats.gated_cycles > 0) is gated

    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize("predictor", ["paco", "count"])
    @pytest.mark.parametrize("kind", sorted(_ATTACH_SESSIONS))
    def test_late_observer_sees_only_later_fetches(self, tiny_spec,
                                                   small_machine, kind,
                                                   predictor, gated):
        session = self._session(tiny_spec, small_machine, kind, predictor,
                                gated)
        early = _FetchTally()
        session.add_observer(early)
        warm = self._fetched(session.run(max_instructions=1_500))
        late = _FetchTally()
        session.add_observer(late)
        total = self._fetched(session.run(max_instructions=3_000))
        assert early.fetches == total
        assert late.fetches == total - warm > 0

    def test_instrumentation_carries_no_observers(self):
        with pytest.raises(TypeError, match="observers"):
            Instrumentation(path_confidence=PaCoPredictor(), observers=())


# ---------------------------------------------------------------------- #
# trace engine mechanics
# ---------------------------------------------------------------------- #


class TestTraceEngine:
    def _session(self, spec, machine, seed=1, **backend_kwargs):
        return TraceBackend(**backend_kwargs).build(
            Workload(spec=spec, seed=seed), machine,
            Instrumentation(path_confidence=PaCoPredictor(
                relog_period_cycles=5_000)),
        )

    def test_retires_requested_budget(self, tiny_spec, small_machine):
        session = self._session(tiny_spec, small_machine)
        stats = session.run(max_instructions=3_000)
        assert stats.retired_instructions >= 3_000
        assert stats.cycles > 0
        assert stats.conditional_branches_retired > 0
        assert 0.0 < stats.conditional_mispredict_rate < 0.35

    def test_deterministic_given_seed(self, tiny_spec, small_machine):
        runs = []
        for _ in range(2):
            session = self._session(tiny_spec, small_machine, seed=5)
            runs.append(session.run(max_instructions=3_000))
        assert runs[0] == runs[1]

    def test_resumable_runs_match_straight_run(self, tiny_spec, small_machine):
        split = self._session(tiny_spec, small_machine)
        split.run(max_instructions=1_000)
        split_stats = split.run(max_instructions=3_000)
        straight = self._session(tiny_spec, small_machine)
        straight_stats = straight.run(max_instructions=3_000)
        assert split_stats == straight_stats

    def test_window_bounded_by_resolve_window(self, tiny_spec, small_machine):
        session = self._session(tiny_spec, small_machine, resolve_window=12)
        session.run(max_instructions=2_000)
        assert session.window_occupancy <= 12

    def test_wrongpath_replay_happens(self, tiny_spec, small_machine):
        session = self._session(tiny_spec, small_machine)
        stats = session.run(max_instructions=4_000)
        assert stats.flushes > 0
        assert stats.badpath_fetched > 0
        # Each episode replays exactly the calibrated window.
        assert stats.badpath_fetched == \
            stats.flushes * session.mispredict_window

    def test_truncation_raises(self, tiny_spec, small_machine):
        session = self._session(tiny_spec, small_machine)
        with pytest.raises(SimulationTruncated) as excinfo:
            session.run(max_instructions=10_000_000, max_cycles=500)
        assert excinfo.value.stats.retired_instructions < 10_000_000

    def test_gating_honoured(self, tiny_spec, small_machine):
        """A gating policy now builds a gated replay whose gated cycles
        show up in the stats and whose wrong-path fetch volume drops."""
        def run(gated):
            predictor = ThresholdAndCountPredictor(threshold=3)
            instrument = Instrumentation(path_confidence=predictor)
            if gated:
                instrument = Instrumentation(
                    path_confidence=predictor,
                    gating_policy=CountGating(predictor, gate_count=1))
            session = TraceBackend().build(
                Workload(spec=tiny_spec, seed=4), small_machine, instrument)
            return session.run(max_instructions=6_000)

        baseline = run(gated=False)
        gated = run(gated=True)
        assert gated.gated_cycles > 0
        assert baseline.gated_cycles == 0
        assert gated.badpath_fetched < baseline.badpath_fetched

    def test_observer_attached_midway_sees_only_later_instances(
            self, tiny_spec, small_machine):
        session = self._session(tiny_spec, small_machine)
        session.run(max_instructions=2_000)
        observer = _CountingObserver()
        session.add_observer(observer)
        session.run(max_instructions=2_500)
        # ~500 more instructions -> fetch + execute instances for those
        # only (plus wrong-path ones); far fewer than the full run's.
        assert 0 < observer.instances < 2_500 * 3

    def test_harness_experiments_run_on_trace(self, tiny_spec):
        result = run_gating_experiment(tiny_spec, mode="count", gate_count=2,
                                       instructions=2_000,
                                       warmup_instructions=0,
                                       backend="trace")
        assert result.stats.retired_instructions >= 2_000
        assert result.ipc > 0.0
        ipc = run_single_thread_ipc(tiny_spec, instructions=2_000,
                                    warmup_instructions=0, backend="trace")
        # The replay's idealized front end retires at most one
        # instruction per cycle.
        assert 0.0 < ipc <= 1.0


class TestBranchStreamIdentity:
    """The replay's good-path branch stream is the cycle model's.

    For unphased benchmarks the branch-content streams are consumed only
    by branches, so next_branch() must reproduce next_instruction()'s
    branch subsequence bit-for-bit.
    """

    def test_branch_subsequence_identical(self):
        spec = get_benchmark("gzip")
        full = WorkloadGenerator(spec, seed=9)
        branch_only = WorkloadGenerator(spec, seed=9)
        reference = []
        seq = 0
        while len(reference) < 1_500:
            instr = full.next_instruction(seq)
            seq += 1
            if instr.is_branch:
                reference.append(instr)
        for expected in reference:
            got = branch_only.next_branch(0)
            assert got.pc == expected.pc
            assert got.branch_kind is expected.branch_kind
            assert got.outcome.taken == expected.outcome.taken
            assert got.outcome.target == expected.outcome.target
            assert got.static_branch_id == expected.static_branch_id


# ---------------------------------------------------------------------- #
# instrumentation profiles
# ---------------------------------------------------------------------- #


class TestInstrumentationProfiles:
    def test_profiles_resolve(self):
        assert len(accuracy_predictors_for("full")) == 4
        assert [p.name for p in accuracy_predictors_for("paco")] == ["paco"]
        assert len(accuracy_predictors_for("counter")) == 1
        assert accuracy_predictors_for("mdc") == []
        assert len(accuracy_predictors_for("mrt")) == 3
        with pytest.raises(ValueError):
            accuracy_predictors_for("everything")

    def test_slim_profile_reproduces_full_profile_values(self, tiny_spec):
        """Riding predictors never influence the simulation, so the slim
        profiles' statistics are bit-identical to the full profile's."""
        full = run_accuracy_experiment(tiny_spec, instructions=4_000,
                                       warmup_instructions=1_000,
                                       instrument="full")
        paco = run_accuracy_experiment(tiny_spec, instructions=4_000,
                                       warmup_instructions=1_000,
                                       instrument="paco")
        mdc = run_accuracy_experiment(tiny_spec, instructions=4_000,
                                      warmup_instructions=1_000,
                                      instrument="mdc")
        assert paco.rms_errors["paco"] == full.rms_errors["paco"]
        assert mdc.mdc_mispredict_rates == full.mdc_mispredict_rates
        assert paco.conditional_mispredict_rate == \
            full.conditional_mispredict_rate


# ---------------------------------------------------------------------- #
# backend threading through jobs / sweeps / cache
# ---------------------------------------------------------------------- #


class TestBackendInJobs:
    def test_backend_changes_job_digest_and_cache_key(self, tmp_path):
        cycle_job = accuracy_job("gzip", instructions=1_000,
                                 warmup_instructions=0, backend="cycle")
        trace_job = accuracy_job("gzip", instructions=1_000,
                                 warmup_instructions=0, backend="trace")
        assert cycle_job.digest() != trace_job.digest()
        cache = ResultCache(tmp_path, version="v")
        assert cache.key(cycle_job) != cache.key(trace_job)

    def test_backend_in_payload(self):
        job = Job.make("accuracy", benchmark="gzip", backend="trace")
        assert job.payload()["backend"] == "trace"
        assert Job.make("accuracy", benchmark="gzip").payload()["backend"] \
            == "cycle"

    def test_sweepspec_backend_propagates(self):
        spec = SweepSpec(experiment="accuracy",
                         axes={"benchmark": ["gzip", "mcf"]},
                         base={"instructions": 1_000,
                               "warmup_instructions": 0},
                         backend="trace")
        assert all(job.backend == "trace" for job in spec.jobs())

    def test_runner_executes_trace_jobs(self):
        runner = SweepRunner()
        [result] = runner.map([
            accuracy_job("gzip", instructions=2_000, warmup_instructions=500,
                         backend="trace", instrument="paco")
        ])
        direct = run_accuracy_experiment("gzip", instructions=2_000,
                                         warmup_instructions=500,
                                         backend="trace", instrument="paco")
        assert result.rms_errors == direct.rms_errors
        assert result.conditional_mispredict_rate == \
            direct.conditional_mispredict_rate

    def test_single_ipc_kind_runs_on_trace_backend(self):
        runner = SweepRunner()
        job = Job.make("single-ipc", benchmark="gzip", instructions=1_000,
                       warmup_instructions=0, backend="trace")
        [ipc] = runner.map([job])
        assert 0.0 < ipc <= 1.0


# ---------------------------------------------------------------------- #
# trace vs. cycle parity (the acceptance contract)
# ---------------------------------------------------------------------- #

#: Benchmarks the parity gate runs (one low-, one high-mispredict).
PARITY_BENCHMARKS = ("gzip", "twolf")
PARITY_INSTRUCTIONS = 40_000
PARITY_WARMUP = 20_000

#: Stated tolerances, table7-scale budgets.  Mispredict rates are nearly
#: exact (the replay trains the same predictors on the bit-identical
#: branch stream); reliability RMS and occupancy depend on the calibrated
#: windows and stay within a few points of the cycle model.
RATE_TOLERANCE = 0.010            # absolute, on rates in [0, 1]
MDC_RATE_TOLERANCE = 0.060        # per-bucket mispredict rate, >=200 samples
RMS_TOLERANCE = 0.090             # reliability-diagram RMS error
BRANCH_COUNT_REL_TOLERANCE = 0.05  # retired conditional branches


@pytest.fixture(scope="module")
def parity_results():
    results = {}
    for name in PARITY_BENCHMARKS:
        results[name] = {
            backend: run_accuracy_experiment(
                name, instructions=PARITY_INSTRUCTIONS,
                warmup_instructions=PARITY_WARMUP, backend=backend)
            for backend in ("cycle", "trace")
        }
    return results


class TestTraceCycleParity:
    @pytest.mark.parametrize("bench", PARITY_BENCHMARKS)
    def test_mispredict_rates(self, parity_results, bench):
        cycle = parity_results[bench]["cycle"]
        trace = parity_results[bench]["trace"]
        assert trace.conditional_mispredict_rate == pytest.approx(
            cycle.conditional_mispredict_rate, abs=RATE_TOLERANCE)
        assert trace.overall_mispredict_rate == pytest.approx(
            cycle.overall_mispredict_rate, abs=RATE_TOLERANCE)

    @pytest.mark.parametrize("bench", PARITY_BENCHMARKS)
    def test_branch_population(self, parity_results, bench):
        cycle = parity_results[bench]["cycle"].stats
        trace = parity_results[bench]["trace"].stats
        assert trace.conditional_branches_retired == pytest.approx(
            cycle.conditional_branches_retired,
            rel=BRANCH_COUNT_REL_TOLERANCE)

    @pytest.mark.parametrize("bench", PARITY_BENCHMARKS)
    def test_mdc_confidence_classification(self, parity_results, bench):
        """Fig. 2 parity: per-MDC-bucket mispredict rates.

        Buckets 0–5 carry the figure's signal (hundreds of samples each at
        this budget); higher buckets thin out and are compared only when
        both backends populated them.
        """
        cycle = parity_results[bench]["cycle"]
        trace = parity_results[bench]["trace"]
        for bucket in range(6):
            rate = cycle.mdc_mispredict_rates.get(bucket)
            trace_rate = trace.mdc_mispredict_rates.get(bucket)
            if rate is None or trace_rate is None:
                continue
            assert trace_rate == pytest.approx(
                rate, abs=MDC_RATE_TOLERANCE), (bench, bucket)

    @pytest.mark.parametrize("bench", PARITY_BENCHMARKS)
    def test_reliability_rms(self, parity_results, bench):
        """Table 7 / fig 8/9 / table A1 parity: per-predictor RMS error."""
        cycle = parity_results[bench]["cycle"]
        trace = parity_results[bench]["trace"]
        for predictor in ("paco", "static-mrt", "per-branch-mrt"):
            assert trace.rms_errors[predictor] == pytest.approx(
                cycle.rms_errors[predictor], abs=RMS_TOLERANCE), predictor

    @pytest.mark.parametrize("bench", PARITY_BENCHMARKS)
    def test_counter_occupancy_shape(self, parity_results, bench):
        """Fig. 3 parity: the outstanding-count distribution's mean."""
        cycle = parity_results[bench]["cycle"].counter_occupancy
        trace = parity_results[bench]["trace"].counter_occupancy
        def mean(occ):
            total = sum(occ.values())
            return sum(k * v for k, v in occ.items()) / total if total else 0.0
        assert mean(trace) == pytest.approx(mean(cycle), abs=0.75)


class TestTraceBlockSize:
    """Block size is pure mechanism: results are bit-identical for every
    value, and values below 1 are rejected."""

    def _stats(self, spec, machine, block_size):
        session = TraceBackend(block_size=block_size).build(
            Workload(spec=spec, seed=3), machine,
            Instrumentation(path_confidence=PaCoPredictor(
                relog_period_cycles=5_000)),
        )
        return session.run(max_instructions=4_000)

    @pytest.mark.parametrize("block_size", [1, 3, 17, 4096])
    def test_stats_identical_across_block_sizes(self, tiny_spec,
                                                small_machine, block_size):
        reference = self._stats(tiny_spec, small_machine, 256)
        assert self._stats(tiny_spec, small_machine, block_size) == reference

    @pytest.mark.parametrize("block_size", [1, 7, 256])
    def test_phased_observer_results_identical(self, phased_spec,
                                               monkeypatch, block_size):
        """Phase-aware observers must see the same per-phase instances at
        every block size (boundary blocks fall back to slot-by-slot)."""
        monkeypatch.setattr(trace_backend, "DEFAULT_TRACE_BLOCK", block_size)
        result = run_accuracy_experiment(
            phased_spec, instructions=6_000, warmup_instructions=1_000,
            backend="trace", instrument="counter")
        monkeypatch.setattr(trace_backend, "DEFAULT_TRACE_BLOCK", 64)
        reference = run_accuracy_experiment(
            phased_spec, instructions=6_000, warmup_instructions=1_000,
            backend="trace", instrument="counter")
        assert result == reference

    def test_explicit_block_size_validated(self, tiny_spec, small_machine):
        with pytest.raises(ValueError):
            TraceBackend(block_size=0).build(
                Workload(spec=tiny_spec, seed=1), small_machine,
                Instrumentation(path_confidence=PaCoPredictor()),
            )

    @pytest.mark.parametrize("bad", [0, -1])
    @pytest.mark.parametrize("backend_cls, session_cls",
                             [(TraceBackend, FusedTraceSession),
                              (_ScalarTraceBackend, TraceSession)],
                             ids=["fused", "scalar"])
    def test_block_size_below_one_rejected(self, tiny_spec, small_machine,
                                           backend_cls, session_cls, bad):
        """Both session types keep the ``block_size`` seam's lower bound."""
        def build(block_size):
            return backend_cls(block_size=block_size).build(
                Workload(spec=tiny_spec, seed=1), small_machine,
                Instrumentation(path_confidence=PaCoPredictor()),
            )

        assert type(build(1)) is session_cls
        with pytest.raises(ValueError, match="block"):
            build(bad)

    def test_block_size_excluded_from_job_identity(self, tmp_path,
                                                   monkeypatch):
        """Block size cannot change results, so it must not ride in a job's
        digest or cache key and fragment the cache."""
        def make_job():
            return accuracy_job("gzip", instructions=2_000,
                                warmup_instructions=500, seed=1,
                                backend="trace")

        job = make_job()
        digest_default = job.digest()
        cache = ResultCache(tmp_path)
        key_default = cache.key(job)
        assert "block" not in str(job.payload()).lower()
        monkeypatch.setattr(trace_backend, "DEFAULT_TRACE_BLOCK", 8)
        assert make_job().digest() == digest_default
        assert cache.key(make_job()) == key_default


class TestBatchedObserverStream:
    """The batched observer/resolve path is bit-identical to scalar replay.

    Pins the flattened run-event stream delivered to observers — not just
    the final statistics — equal to the scalar :class:`TraceSession` at
    block size 1 (the gated session at block size 1), for the ungated
    and the gated session, for predictors with and without cycle-periodic
    work, and for a wrong-path-heavy (low-accuracy) workload whose replay
    is dominated by fused wrong-path episodes.
    """

    BLOCK_SIZES = [3, 17, 256]

    @staticmethod
    def _wrongpath_heavy_spec():
        """A low-accuracy workload: most branches hard and near-random."""
        return BenchmarkSpec(
            name="wp-heavy",
            branch_fraction=0.25,
            num_static_conditionals=12,
            hard_fraction=0.85,
            hard_taken_bias=0.55,
            loop_fraction=0.05,
            pattern_fraction=0.05,
            memory=MemorySpec(working_set_lines=128),
        )

    @staticmethod
    def _run(spec, machine, block_size, predictor="paco", gated=False,
             seed=5, instructions=4_000, backend_cls=TraceBackend):
        if predictor == "paco":
            path_confidence = PaCoPredictor(relog_period_cycles=2_000)
        else:
            path_confidence = ThresholdAndCountPredictor(threshold=3)
        gating = (CountGating(path_confidence, gate_count=2)
                  if gated else None)
        observer = _StreamObserver()
        session = backend_cls(block_size=block_size).build(
            Workload(spec=spec, seed=seed), machine,
            Instrumentation(path_confidence=path_confidence,
                            gating_policy=gating))
        session.add_observer(observer)
        stats = session.run(max_instructions=instructions)
        return observer.events, stats

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("predictor", ["paco", "counter"])
    def test_stream_matches_scalar(self, tiny_spec, small_machine,
                                   predictor, block_size):
        reference = self._run(tiny_spec, small_machine, 1,
                              predictor=predictor,
                              backend_cls=_ScalarTraceBackend)
        result = self._run(tiny_spec, small_machine, block_size,
                           predictor=predictor)
        assert result[1] == reference[1]
        assert result[0] == reference[0]

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_gated_stream_matches_scalar(self, tiny_spec, small_machine,
                                         block_size):
        """Gated cycles must not perturb the stream across block sizes
        either: the fused gated session against the scalar gated one at
        block size 1."""
        reference = self._run(tiny_spec, small_machine, 1,
                              predictor="counter", gated=True,
                              backend_cls=_ScalarTraceBackend)
        assert reference[1].gated_cycles > 0
        result = self._run(tiny_spec, small_machine, block_size,
                           predictor="counter", gated=True)
        assert result[1] == reference[1]
        assert result[0] == reference[0]

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("gated", [False, True])
    def test_wrongpath_heavy_stream_matches_scalar(self, small_machine,
                                                   gated, block_size):
        """Exercises the fused wrong-path episode hard: the low-accuracy
        spec flushes every few branches, so most events are closed and
        delivered inside episodes."""
        spec = self._wrongpath_heavy_spec()
        predictor = "counter" if gated else "paco"
        reference = self._run(spec, small_machine, 1, predictor=predictor,
                              gated=gated, instructions=3_000,
                              backend_cls=_ScalarTraceBackend)
        # The workload must actually be wrong-path heavy for the test to
        # mean anything.
        assert reference[1].flushes > 50
        result = self._run(spec, small_machine, block_size,
                           predictor=predictor, gated=gated,
                           instructions=3_000)
        assert result[1] == reference[1]
        assert result[0] == reference[0]

    @pytest.mark.parametrize("block_size", [4096])
    def test_large_block_stream_matches_scalar(self, tiny_spec,
                                               small_machine, block_size):
        reference = self._run(tiny_spec, small_machine, 1,
                              backend_cls=_ScalarTraceBackend)
        result = self._run(tiny_spec, small_machine, block_size)
        assert result[1] == reference[1]
        assert result[0] == reference[0]


class TestFusedScalarParity:
    """The fused trace session is bit-identical to the scalar one.

    :class:`TraceBackend` output against a directly built scalar
    :class:`TraceSession` (:class:`_ScalarTraceBackend`) at the same block
    size: the flattened run-event stream *and* the final statistics must
    match, for predictors with and without cycle-periodic work and for a
    wrong-path-heavy workload dominated by fused episode replay.  Each
    run asserts which session was built, so the parity is never satisfied
    vacuously by a fallback on either side.
    """

    BLOCK_SIZES = [1, 17, 256, 4096]

    @staticmethod
    def _pair(spec, machine, block_size, predictor, instructions=4_000):
        runs = {}
        for backend_cls, session_cls in ((TraceBackend, FusedTraceSession),
                                         (_ScalarTraceBackend, TraceSession)):
            if predictor == "paco":
                path_confidence = PaCoPredictor(relog_period_cycles=2_000)
            else:
                path_confidence = ThresholdAndCountPredictor(threshold=3)
            observer = _StreamObserver()
            session = backend_cls(block_size=block_size).build(
                Workload(spec=spec, seed=5), machine,
                Instrumentation(path_confidence=path_confidence))
            assert type(session) is session_cls
            session.add_observer(observer)
            stats = session.run(max_instructions=instructions)
            runs[session_cls] = (observer.events, stats)
        return runs[FusedTraceSession], runs[TraceSession]

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("predictor", ["paco", "counter"])
    def test_stream_matches_scalar(self, tiny_spec, small_machine,
                                   predictor, block_size):
        fused, scalar = self._pair(tiny_spec, small_machine, block_size,
                                   predictor)
        assert fused[1] == scalar[1]
        assert fused[0] == scalar[0]

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("predictor", ["paco", "counter"])
    def test_wrongpath_heavy_stream_matches_scalar(self, small_machine,
                                                   predictor, block_size):
        spec = TestBatchedObserverStream._wrongpath_heavy_spec()
        fused, scalar = self._pair(spec, small_machine, block_size,
                                   predictor, instructions=3_000)
        assert scalar[1].flushes > 50
        assert fused[1] == scalar[1]
        assert fused[0] == scalar[0]

    @pytest.mark.parametrize("block_size", [1, 17, 4096])
    @pytest.mark.parametrize("predictor", ["paco", "counter"])
    def test_phased_boundary_episode_matches_scalar(
            self, monkeypatch, small_machine, predictor, block_size):
        """Ungated phase-boundary branches step through the plain boundary
        step on the fused session too, and a mispredicted one replays the
        plain per-slot episode.  Short phases on a wrong-path-heavy spec
        make boundary branches mispredict; the spy asserts the fused
        session's boundary steps took episodes, so the parity is never
        vacuous."""
        spec = dataclasses.replace(
            TestBatchedObserverStream._wrongpath_heavy_spec(),
            name="wp-heavy-phased",
            phases=[PhaseSpec(length_instructions=300, hard_fraction=0.85,
                              label="hard"),
                    PhaseSpec(length_instructions=300, hard_fraction=0.5,
                              label="mixed")])
        boundary_step = TraceSession._step_boundary_branch
        episodes = []

        def spy(self):
            flushes = self.stats.flushes
            boundary_step(self)
            if type(self) is FusedTraceSession:
                episodes.append(self.stats.flushes - flushes)

        monkeypatch.setattr(TraceSession, "_step_boundary_branch", spy)
        runs = []
        for backend_cls in (TraceBackend, _ScalarTraceBackend):
            if predictor == "paco":
                path_confidence = PaCoPredictor(relog_period_cycles=2_000)
            else:
                path_confidence = ThresholdAndCountPredictor(threshold=3)
            observer = _StreamObserver()
            session = backend_cls(block_size=block_size).build(
                Workload(spec=spec, seed=5), small_machine,
                Instrumentation(path_confidence=path_confidence))
            session.add_observer(observer)
            stats = session.run(max_instructions=3_000)
            runs.append((session, observer.events, stats))
        (fused, fused_events, fused_stats), (scalar, scalar_events,
                                             scalar_stats) = runs
        assert type(fused) is FusedTraceSession
        assert type(scalar) is TraceSession
        assert sum(episodes) >= 1
        assert fused_stats == scalar_stats
        assert fused_events == scalar_events
        assert _trained_state(fused) == _trained_state(scalar)

    #: Accuracy-parity budgets: gcc runs long enough to visit all three
    #: of its phases and re-enter the first one.
    ACCURACY_BUDGETS = {"gzip": 8_000, "twolf": 8_000, "gcc": 80_000}

    @staticmethod
    def _accuracy_state(result):
        """Every field of an ``AccuracyResult``, each diagram as its raw
        accumulators (the float ``predicted_sum`` included)."""
        state = dict(vars(result))
        state["diagrams"] = {
            name: (diagram.total_instances, diagram.total_goodpath,
                   [(bucket.instances, bucket.goodpath_instances,
                     bucket.predicted_sum) for bucket in diagram.bins])
            for name, diagram in result.diagrams.items()}
        return state

    def _check_accuracy(self, benchmark, instrument, fused_backend,
                        scalar_backend):
        fused, scalar = (
            run_accuracy_experiment(
                benchmark, instructions=self.ACCURACY_BUDGETS[benchmark],
                warmup_instructions=3_000, backend=backend,
                instrument=instrument)
            for backend in (fused_backend, scalar_backend))
        assert self._accuracy_state(fused) == self._accuracy_state(scalar)
        return scalar

    @pytest.mark.parametrize("bench", ["gzip", "twolf", "gcc"])
    @pytest.mark.parametrize("instrument",
                             ["full", "mrt", "paco", "counter", "mdc"])
    def test_accuracy_diagrams_bit_identical(self, instrument, bench):
        """The harness-level contract behind every accuracy sweep: the whole
        ``AccuracyResult`` — reliability diagrams including their *float*
        ``predicted_sum`` accumulators, counter and phase-counter
        statistics, MDC rates and ``CoreStats`` — must match the scalar
        session bit for bit.

        Every profile's observer set takes the generated code's inlined
        delivery plan (diagram targets for PaCo / Static-MRT /
        per-branch-MRT, counter targets for the count observers), which
        must replay the observers' arithmetic exactly, so equality here
        is ``==``, not a tolerance.  twolf is wrong-path heavy (episode
        deliveries); gcc is phased (phase-aware counter targets)."""
        scalar = self._check_accuracy(bench, instrument, "trace",
                                      _ScalarTraceBackend())
        if bench == "twolf":
            assert scalar.stats.flushes > 100
        if bench == "gcc" and instrument in ("full", "counter"):
            assert len(scalar.phase_counter_goodpath) == 3

    @pytest.mark.parametrize("block_size", [1, 17, 4096])
    def test_accuracy_block_sizes_bit_identical(self, block_size):
        """The ``full`` profile on phased gcc at the block-size extremes:
        the per-block plan re-resolves at every block and phase edge."""
        self._check_accuracy("gcc", "full",
                             TraceBackend(block_size=block_size),
                             _ScalarTraceBackend(block_size=block_size))

    def test_foreign_observer_takes_generic_delivery(self, monkeypatch):
        """``full`` plus one observer the plan does not model: every block
        delivers through ``record_runs`` and still matches the scalar
        session, the extra observer included."""
        plans = []
        resolve = FusedTraceSession._delivery_plan

        def spy(self):
            plan = resolve(self)
            plans.append(plan)
            return plan

        monkeypatch.setattr(FusedTraceSession, "_delivery_plan", spy)
        extras = []

        def observed(backend_cls):
            class Observed(backend_cls):
                def build(self, workload, config, instrument):
                    session = super().build(workload, config, instrument)
                    extras.append(_CountingObserver())
                    session.observers.append(extras[-1])
                    return session
            return Observed()

        self._check_accuracy("gcc", "full", observed(TraceBackend),
                             observed(_ScalarTraceBackend))
        assert plans and all(plan is None for plan in plans)
        fused, scalar = extras
        assert scalar.instances > 0
        assert (fused.instances, fused.goodpath) == (scalar.instances,
                                                     scalar.goodpath)


#: The gating configurations the fused gate models: count gating at two
#: gate counts and PaCo gating at two target probabilities.
FUSED_GATES = {
    "count-g1": ("count", 1),
    "count-g2": ("count", 2),
    "paco-p0.1": ("paco", 0.1),
    "paco-p0.5": ("paco", 0.5),
}


class TestFusedGatedParity:
    """The gated fused session is bit-identical to the gated
    :class:`TraceSession`.

    :class:`TraceBackend` output (asserted to be the gated fused session)
    against the scalar gated session built by :class:`_ScalarTraceBackend`
    at the same block size, over the harness's two-leg warm-up ``run()``
    split, with and without an observer attached: the run-event stream,
    every ``CoreStats`` field and the trained tables must match.  The
    specs cover the good-path gate (tiny), gated wrong-path episodes
    (wrong-path heavy) and gated phase-boundary steps (phased); every run
    must gate, so the comparison is never vacuous.
    """

    BLOCK_SIZES = [1, 17, 256, 4096]

    @staticmethod
    def _run(backend_cls, spec, machine, block_size, gate, observe,
             instructions):
        kind, knob = FUSED_GATES[gate]
        if kind == "count":
            path_confidence = ThresholdAndCountPredictor(threshold=3)
            policy = CountGating(path_confidence, gate_count=knob)
        else:
            path_confidence = PaCoPredictor(relog_period_cycles=2_000)
            policy = PaCoGating(path_confidence,
                                target_goodpath_probability=knob)
        observer = _StreamObserver()
        session = backend_cls(block_size=block_size).build(
            Workload(spec=spec, seed=5), machine,
            Instrumentation(path_confidence=path_confidence,
                            gating_policy=policy))
        if observe:
            session.add_observer(observer)
        session.run(max_instructions=instructions // 4)
        stats = session.run(max_instructions=instructions)
        return session, observer.events, stats

    def _check(self, spec, machine, block_size, gate, observe,
               instructions=4_000):
        fused = self._run(TraceBackend, spec, machine, block_size, gate,
                          observe, instructions)
        scalar = self._run(_ScalarTraceBackend, spec, machine, block_size,
                           gate, observe, instructions)
        assert type(fused[0]) is FusedTraceSession
        assert type(scalar[0]) is TraceSession
        assert fused[0].gating_policy is not None
        assert scalar[0].gating_policy is not None
        assert scalar[2].gated_cycles > 0
        assert fused[2] == scalar[2]
        assert fused[1] == scalar[1]
        assert _trained_state(fused[0]) == _trained_state(scalar[0])
        return scalar[2]

    @pytest.mark.parametrize("observe", [True, False],
                             ids=["observed", "unobserved"])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("gate", list(FUSED_GATES))
    def test_tiny_matches_scalar(self, tiny_spec, small_machine, gate,
                                 block_size, observe):
        self._check(tiny_spec, small_machine, block_size, gate, observe)

    @pytest.mark.parametrize("observe", [True, False],
                             ids=["observed", "unobserved"])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("gate", list(FUSED_GATES))
    def test_wrongpath_heavy_matches_scalar(self, small_machine, gate,
                                            block_size, observe):
        stats = self._check(TestBatchedObserverStream._wrongpath_heavy_spec(),
                            small_machine, block_size, gate, observe,
                            instructions=3_000)
        assert stats.flushes > 50

    @pytest.mark.parametrize("observe", [True, False],
                             ids=["observed", "unobserved"])
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("gate", list(FUSED_GATES))
    def test_phased_matches_scalar(self, phased_spec, small_machine, gate,
                                   block_size, observe):
        """Phase boundaries step through the inherited scalar boundary
        step, whose gate wait and wrong-path episode must be the gated
        ones in the gated fused session too."""
        self._check(phased_spec, small_machine, block_size, gate, observe,
                    instructions=12_000)


class TestVecTraceStreamParity:
    """Count-gated stacks build the gated fused session, and its stream
    equals the scalar gated session's per-branch (block size 1) replay.

    The class and test keep the names of the suite that pinned the
    retired vectorized backend's gated fallback; the contract now belongs
    to ``trace`` itself, whose fused loops carry the count gate.
    """

    @pytest.mark.parametrize("block_size", [17, 256])
    def test_gated_falls_back_to_scalar_gated_session(self, tiny_spec,
                                                      small_machine,
                                                      block_size):
        reference = TestBatchedObserverStream._run(
            tiny_spec, small_machine, 1, predictor="counter", gated=True,
            backend_cls=_ScalarTraceBackend)
        assert reference[1].gated_cycles > 0
        path_confidence = ThresholdAndCountPredictor(threshold=3)
        observer = _StreamObserver()
        session = TraceBackend(block_size=block_size).build(
            Workload(spec=tiny_spec, seed=5), small_machine,
            Instrumentation(path_confidence=path_confidence,
                            gating_policy=CountGating(path_confidence,
                                                      gate_count=2)))
        assert type(session) is FusedTraceSession
        assert session.gating_policy is not None
        session.add_observer(observer)
        stats = session.run(max_instructions=4_000)
        assert stats == reference[1]
        assert observer.events == reference[0]


class _CustomPathConfidence(PathConfidencePredictor):
    """A path confidence predictor the fused loops were not written for."""

    name = "custom"

    def on_branch_fetch(self, info):
        return info

    def on_branch_resolve(self, token, mispredicted):
        pass

    def on_branch_squash(self, token):
        pass

    def goodpath_probability(self):
        return 1.0


class _CustomGating(GatingPolicy):
    """A gating policy the fused loops were not written for: it gates on
    its predictor's decoded good-path probability."""

    name = "custom-gating"

    def __init__(self, predictor):
        self.predictor = predictor

    def should_gate(self):
        return self.predictor.goodpath_probability() < 0.5


class _SubclassedPaCo(PaCoPredictor):
    """A built-in member the fused loops model only by exact type."""


class TestFusedSessionRouting:
    """:meth:`TraceBackend.build` must pick the fused session for every
    stack the campaigns run, so a stack that loses the fused path fails
    here instead of silently running slower."""

    @staticmethod
    def _built_sessions(monkeypatch, jobs):
        """``(session type, gating policy type)`` per build of ``jobs``."""
        built = []
        build = TraceBackend.build

        def spy(self, workload, config, instrument):
            session = build(self, workload, config, instrument)
            built.append((type(session), type(session.gating_policy)))
            return session

        monkeypatch.setattr(TraceBackend, "build", spy)
        SweepRunner().map(jobs)
        return built

    @pytest.mark.parametrize("instrument",
                             ["full", "paco", "counter", "mdc", "mrt"])
    def test_accuracy_profiles_build_fused_session(self, monkeypatch,
                                                   instrument):
        built = self._built_sessions(monkeypatch, [accuracy_job(
            "gzip", instructions=500, warmup_instructions=0,
            backend="trace", instrument=instrument)])
        assert built == [(FusedTraceSession, type(None))]

    def test_ungated_and_single_ipc_stacks_build_fused_session(
            self, monkeypatch):
        built = self._built_sessions(monkeypatch, [
            gating_job("gzip", mode="none", instructions=500,
                       warmup_instructions=0, backend="trace"),
            single_ipc_job("gzip", instructions=500, warmup_instructions=0,
                           backend="trace"),
        ])
        assert built == [(FusedTraceSession, type(None))] * 2

    @pytest.mark.parametrize("mode, knob, policy", [
        ("count", {"gate_count": 2}, CountGating),
        ("paco", {"gating_probability": 0.2}, PaCoGating),
    ], ids=["count", "paco"])
    def test_gated_stacks_build_gated_session(self, monkeypatch, mode, knob,
                                              policy):
        """The fig10 count and PaCo gating jobs run the fused gate."""
        built = self._built_sessions(monkeypatch, [gating_job(
            "gzip", mode=mode, instructions=500, warmup_instructions=0,
            backend="trace", **knob)])
        assert built == [(FusedTraceSession, policy)]

    def test_paper_preset_gating_jobs_build_fused_sessions(self,
                                                           monkeypatch):
        """Every fig10 job of ``campaign plan --preset paper`` builds a
        fused session: gated for count and PaCo gating, ungated for the
        baseline.  Each build is stopped before the job runs."""

        class Built(Exception):
            pass

        build = TraceBackend.build

        def spy(self, workload, config, instrument):
            session = build(self, workload, config, instrument)
            raise Built((type(session), type(session.gating_policy)))

        monkeypatch.setattr(TraceBackend, "build", spy)
        built = {}
        for planned in build_plan(preset("paper")).planned:
            job = planned.job
            if job.experiment != "gating":
                continue
            assert job.backend == "trace"
            with pytest.raises(Built) as excinfo:
                execute_job(job)
            built.setdefault(job.params["mode"], set()).add(
                excinfo.value.args[0])
        assert built == {"count": {(FusedTraceSession, CountGating)},
                         "paco": {(FusedTraceSession, PaCoGating)},
                         "none": {(FusedTraceSession, type(None))}}

    #: The routing table: (stack, policy) -> the session type built.  The
    #: fused session takes every modelled stack that is ungated or gated
    #: by count or PaCo gating over its own member; everything else takes
    #: the scalar session.
    ROUTES = [
        ("modelled", "none", FusedTraceSession),
        ("modelled", "no-gating", FusedTraceSession),
        ("modelled", "own-count", FusedTraceSession),
        ("modelled", "own-paco", FusedTraceSession),
        ("modelled", "foreign-count", TraceSession),
        ("modelled", "foreign-paco", TraceSession),
        ("modelled", "custom", TraceSession),
        ("unmodelled", "none", TraceSession),
        ("unmodelled", "no-gating", TraceSession),
        ("unmodelled", "own-count", TraceSession),
        ("unmodelled", "own-paco", TraceSession),
        ("unmodelled", "foreign-count", TraceSession),
        ("unmodelled", "foreign-paco", TraceSession),
        ("unmodelled", "custom", TraceSession),
    ]

    @pytest.mark.parametrize("stack, policy, session_type", ROUTES,
                             ids=[f"{stack}-{policy}"
                                  for stack, policy, _ in ROUTES])
    def test_routing_table(self, tiny_spec, small_machine, stack, policy,
                           session_type):
        """The session type and the policy it carries, for a stack the
        fused loops model (PaCo plus the count predictor) or one they do
        not (the same pair plus a custom predictor).  ``NoGating`` builds
        the same session as no policy at all."""
        paco = PaCoPredictor()
        count = ThresholdAndCountPredictor(threshold=3)
        predictors = [paco, count]
        if stack == "unmodelled":
            predictors.append(_CustomPathConfidence())
        gating = {
            "none": lambda: None,
            "no-gating": NoGating,
            "own-count": lambda: CountGating(count, 1),
            "own-paco": lambda: PaCoGating(paco, 0.5),
            "foreign-count": lambda: CountGating(
                ThresholdAndCountPredictor(threshold=3), 1),
            "foreign-paco": lambda: PaCoGating(PaCoPredictor(), 0.5),
            "custom": lambda: _CustomGating(paco),
        }[policy]()
        session = TraceBackend().build(
            Workload(spec=tiny_spec, seed=2), small_machine,
            Instrumentation(path_confidence=CompositePathConfidence(
                predictors=predictors, primary=paco), gating_policy=gating))
        assert type(session) is session_type
        expected = None if policy in ("none", "no-gating") else gating
        assert session.gating_policy is expected
        assert session.run(max_instructions=500).retired_instructions >= 500

    def test_fused_session_rejects_unmodelled_gate(self, tiny_spec,
                                                   small_machine):
        """Built directly, the fused session refuses a gate it would not
        model instead of running without it."""
        path_confidence = PaCoPredictor()
        instrument = Instrumentation(path_confidence=path_confidence)
        fetch_engine = build_fetch_engine(Workload(spec=tiny_spec, seed=2),
                                          small_machine, instrument)
        with pytest.raises(ValueError, match="TraceSession"):
            FusedTraceSession(
                fetch_engine, small_machine, 16, 8,
                {"paco": path_confidence},
                gating_policy=_CustomGating(path_confidence))


class TestFusedPlanRouting:
    """Each rejection branch of ``_fused_plan``, through
    :meth:`TraceBackend.build`: the stack it rejects takes the scalar
    :class:`TraceSession`, and the nearest stack it accepts takes the
    fused session."""

    #: Per branch: a factory of ``(rejected, accepted)`` path confidence
    #: predictors.
    CASES = {
        # The same stack either way: the JRS table is what goes missing.
        "no-jrs": lambda: (PaCoPredictor(), PaCoPredictor()),
        # A modelled type whose instance keeps no per-branch state in the
        # shared record, so the composite hands out per-member tokens.
        "own-token-member": lambda: (
            CompositePathConfidence([PaCoPredictor(), _own_tokens(
                ThresholdAndCountPredictor())]),
            CompositePathConfidence([PaCoPredictor(),
                                     ThresholdAndCountPredictor()])),
        "two-of-one-kind": lambda: (
            _with_member(CompositePathConfidence(
                [PaCoPredictor(), ThresholdAndCountPredictor()]),
                ThresholdAndCountPredictor()),
            CompositePathConfidence([PaCoPredictor(),
                                     ThresholdAndCountPredictor()])),
        "subclassed-member": lambda: (
            CompositePathConfidence([_SubclassedPaCo(),
                                     ThresholdAndCountPredictor()]),
            CompositePathConfidence([PaCoPredictor(),
                                     ThresholdAndCountPredictor()])),
        "paco-buckets": lambda: (PaCoPredictor(num_mdc_values=8),
                                 PaCoPredictor(num_mdc_values=16)),
        "static-mdc-values": lambda: (
            CompositePathConfidence([
                PaCoPredictor(), StaticMRTPredictor(num_mdc_values=8)]),
            CompositePathConfidence([
                PaCoPredictor(), StaticMRTPredictor(num_mdc_values=16)])),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected_stack_takes_scalar_session(self, monkeypatch,
                                                 tiny_spec, small_machine,
                                                 case):
        rejected, accepted = self.CASES[case]()
        workload = Workload(spec=tiny_spec, seed=2)
        backend = TraceBackend()
        assert type(backend.build(workload, small_machine, Instrumentation(
            path_confidence=accepted))) is FusedTraceSession
        if case == "no-jrs":
            monkeypatch.setattr(cycle_backend, "build_confidence",
                                lambda config: None)
        session = backend.build(workload, small_machine, Instrumentation(
            path_confidence=rejected))
        assert type(session) is TraceSession
        if case == "no-jrs":
            assert session.fetch_engine.confidence is None


def _own_tokens(predictor):
    """``predictor`` with no record slots claimed: its fetch token is its
    own, not the composite's shared record."""
    predictor.record_slots = ()
    return predictor


def _with_member(composite, predictor):
    """``composite`` with ``predictor`` appended past the constructor's
    one-predictor-per-record-slot check, which ``_fused_plan`` must not
    rely on."""
    composite.predictors.append(predictor)
    return composite


class TestFusedSMTRouting:
    """``TraceSMTCore.run`` takes the generated two-thread loop for every
    core the SMT harness builds under ICOUNT, count and PaCo policies,
    and the scalar loop for every other core, so a core that loses the
    generated loop fails here instead of silently running slower."""

    @staticmethod
    def _loops(monkeypatch) -> list:
        """The loop each ``run()`` takes, in order."""
        loops = []
        run_scalar = TraceSMTCore._run_scalar
        choose = smt_trace._smt_method

        def scalar_spy(self, *args):
            loops.append("scalar")
            return run_scalar(self, *args)

        def choose_spy(threads, arbitration):
            method = choose(threads, arbitration)
            if method is not None:
                loops.append("generated")
            return method

        monkeypatch.setattr(TraceSMTCore, "_run_scalar", scalar_spy)
        monkeypatch.setattr(smt_trace, "_smt_method", choose_spy)
        return loops

    @pytest.mark.parametrize("policy, loop", [
        ("icount", "generated"), ("count", "generated"),
        ("paco", "generated"), ("round-robin", "scalar")])
    def test_harness_cores(self, monkeypatch, policy, loop):
        loops = self._loops(monkeypatch)
        run_smt_experiment("gzip", "vortex", policy=policy,
                           instructions=2_000, warmup_instructions=500,
                           backend="trace", measure_single_ipcs=False)
        assert loops == [loop] * 2  # the warm-up leg and the measured one

    @pytest.mark.parametrize("stack", ["custom", "mixed"])
    def test_unmodelled_stacks_take_scalar_loop(self, monkeypatch, stack):
        """ICOUNT is arbitrated inline over any predictors, but only
        threads that each carry one PaCo or one threshold-and-count
        predictor, of the same kind, get the generated loop."""
        predictors = {
            "custom": [_CustomPathConfidence(), _CustomPathConfidence()],
            "mixed": [PaCoPredictor(), ThresholdAndCountPredictor()],
        }[stack]
        machine = MachineConfig.smt_8wide()
        engines = [FetchEngine(
            generator=WorkloadGenerator(get_benchmark(name), seed=1 + tid,
                                        thread_id=tid),
            frontend=build_frontend(machine),
            confidence=build_confidence(machine),
            path_confidence=predictor, wrongpath_seed=11 + tid)
            for tid, (name, predictor) in enumerate(
                zip(("gzip", "vortex"), predictors))]
        core = build_trace_smt_core(engines, fetch_policy=ICountPolicy())
        assert core._arbitration() == smt_trace._ICOUNT
        loops = self._loops(monkeypatch)
        core.run(2_000)
        assert loops == ["scalar"]

    @pytest.mark.parametrize("shared", ["path_confidence", "confidence"])
    def test_shared_predictor_state_takes_scalar_loop(self, monkeypatch,
                                                      shared):
        """Threads that share one object the generated loop writes
        through (``_smt_owned``) would each run it on their own locals,
        so they take the scalar loop, even with one modelled PaCo each."""
        machine = MachineConfig.smt_8wide()
        objects = {"path_confidence": PaCoPredictor(),
                   "confidence": build_confidence(machine)}
        engines = []
        for tid, name in enumerate(("gzip", "vortex")):
            parts = {"path_confidence": PaCoPredictor(),
                     "confidence": build_confidence(machine)}
            parts[shared] = objects[shared]
            engines.append(FetchEngine(
                generator=WorkloadGenerator(get_benchmark(name),
                                            seed=1 + tid, thread_id=tid),
                frontend=build_frontend(machine), wrongpath_seed=11 + tid,
                **parts))
        core = build_trace_smt_core(engines, fetch_policy=ICountPolicy())
        assert _smt_plan(core.threads) is None
        loops = self._loops(monkeypatch)
        core.run(2_000)
        assert loops == ["scalar"]


class _SubclassedMultiObserver(MultiPredictorObserver):
    """A multi-predictor observer the delivery plan was not written for."""


class TestDeliveryPlanRouting:
    """The fused session inlines observer delivery for every observer set
    the accuracy harness attaches, and for nothing else, so a profile
    that loses the inlined delivery fails here instead of silently
    running slower, and a set the plan does not model is never inlined.
    """

    #: (diagram targets, counter targets) per profile on an unphased
    #: benchmark; phased ones add the phase-aware counter observer.
    TARGETS = {"full": (3, 1), "mrt": (3, 0), "paco": (1, 0),
               "counter": (0, 1), "mdc": (0, 0)}

    @pytest.mark.parametrize("bench", ["gzip", "gcc"])
    @pytest.mark.parametrize("instrument", list(TARGETS))
    def test_harness_observer_sets_resolve_a_plan(self, monkeypatch,
                                                  instrument, bench):
        sessions = []
        plans = []
        build = TraceBackend.build
        resolve = FusedTraceSession._delivery_plan

        def build_spy(self, workload, config, instrument):
            sessions.append(build(self, workload, config, instrument))
            return sessions[-1]

        def plan_spy(self):
            plans.append(resolve(self))
            return plans[-1]

        monkeypatch.setattr(TraceBackend, "build", build_spy)
        monkeypatch.setattr(FusedTraceSession, "_delivery_plan", plan_spy)
        run_accuracy_experiment(bench, instructions=40_000,
                                warmup_instructions=2_000, backend="trace",
                                instrument=instrument)
        (session,) = sessions
        assert type(session) is FusedTraceSession
        diagrams, counters = self.TARGETS[instrument]
        if bench == "gcc" and counters:
            counters += 1
        shape = (diagrams, counters)

        def shape_of(plan):
            return None if plan is None else tuple(map(len, plan))

        assert shape_of(session._delivery_plan()) == shape
        # The run's blocks stepped on that plan, not only its end state.
        assert [shape_of(plan) for plan in plans].count(shape) > 10

    @pytest.mark.parametrize("case", ["foreign-predictor", "subclass",
                                      "two-multi", "extra-observer",
                                      "gated"])
    def test_unmodelled_observer_sets_resolve_none(self, case):
        predictors = accuracy_predictors_for("full")
        paco, static, _, count = predictors
        composite = CompositePathConfidence(
            predictors=predictors + [MDCProfiler()], primary=paco)
        gating = (CountGating(count, gate_count=2) if case == "gated"
                  else None)
        session = build_session("gzip", composite, gating_policy=gating,
                                backend="trace")
        assert type(session) is FusedTraceSession
        assert session.gating_policy is gating
        session.add_observer(MultiPredictorObserver(predictors[:3]))
        session.add_observer(CounterGoodpathObserver(count))
        if case != "gated":
            # Control: the harness's ``full`` set resolves a plan here.
            assert session._delivery_plan() is not None
        if case == "foreign-predictor":
            session.observers[0] = MultiPredictorObserver(
                [paco, StaticMRTPredictor()])
        elif case == "subclass":
            session.observers[0] = _SubclassedMultiObserver([paco])
        elif case == "two-multi":
            session.observers[0] = MultiPredictorObserver([paco])
            session.add_observer(MultiPredictorObserver([static]))
        elif case == "extra-observer":
            session.add_observer(_CountingObserver())
        assert session._delivery_plan() is None
        assert session.run(max_instructions=500).retired_instructions >= 500


def _diagram_state(diagram):
    """A diagram's raw accumulators, the float ``predicted_sum`` included."""
    return (diagram.num_bins, diagram.total_instances, diagram.total_goodpath,
            [(bucket.instances, bucket.goodpath_instances,
              bucket.predicted_sum) for bucket in diagram.bins])


class TestDiagramAccumulators:
    """The fused step accumulates a plan's diagrams into step-local
    columns, written back once per step, and encodes the per-branch MRT
    inline.  Each case runs a fused and a scalar session leg by leg with
    a fresh multi-predictor observer per leg and compares every diagram
    accumulator, every member's state and the statistics bit for bit.
    twolf is wrong-path heavy, so episode tails deliver open runs."""

    @staticmethod
    def _legs(backend, bench, make_predictors, num_bins_per_leg,
              leg_instructions=6_000):
        predictors = make_predictors()
        composite = CompositePathConfidence(
            predictors=predictors + [MDCProfiler()], primary=predictors[0])
        session = backend.build(
            Workload(spec=get_benchmark(bench), seed=1),
            MachineConfig.paper_4wide(),
            Instrumentation(path_confidence=composite))
        legs = []
        for leg, num_bins in enumerate(num_bins_per_leg, start=1):
            observer = MultiPredictorObserver(predictors, num_bins=num_bins)
            session.observers[:] = [observer]
            stats = session.run(max_instructions=leg * leg_instructions)
            legs.append(({name: _diagram_state(diagram)
                          for name, diagram in observer.diagrams.items()},
                         dataclasses.replace(stats)))
        members = [(predictor.path_confidence_register,
                    list(getattr(predictor, "_correct", ())),
                    list(getattr(predictor, "_total", ())))
                   for predictor in predictors]
        return session, legs, members

    def _check(self, bench, make_predictors, num_bins_per_leg,
               block_size=None):
        fused = self._legs(TraceBackend(block_size=block_size), bench,
                           make_predictors, num_bins_per_leg)
        scalar = self._legs(_ScalarTraceBackend(block_size=block_size),
                            bench, make_predictors, num_bins_per_leg)
        assert type(fused[0]) is FusedTraceSession
        assert type(scalar[0]) is TraceSession
        # The fused legs stepped on a plan with diagram targets.
        assert len(fused[0]._delivery_plan()[0]) == len(make_predictors())
        if bench == "twolf":
            assert scalar[1][-1][1].flushes > 100
        assert fused[1] == scalar[1]
        assert fused[2] == scalar[2]
        return scalar

    @pytest.mark.parametrize("block_size", [17, 256])
    @pytest.mark.parametrize("bench", ["gzip", "twolf"])
    def test_fresh_observer_per_leg_changes_width(self, bench, block_size):
        """A 7-bin observer, then a fresh 100-bin one on the same
        session: the ``(probability, bin)`` memo is per diagram width."""
        self._check(bench, lambda: accuracy_predictors_for("mrt"),
                    (7, 100), block_size=block_size)

    #: Per-branch MRT configurations that reach every arm of the inline
    #: encode: p <= 0 (clamp), p >= 1 (0), and a rescaled clamp.
    PBM_CASES = {
        "never-correct": (dict(prior_correct=0, prior_total=4, clamp=3000),
                          3000),
        "always-correct": (dict(prior_correct=4, prior_total=4), 0),
        "rescaled-clamp": (dict(prior_correct=1, prior_total=8, scale=256,
                                clamp=512), 512),
    }

    @pytest.mark.parametrize("case", list(PBM_CASES))
    @pytest.mark.parametrize("bench", ["gzip", "twolf"])
    def test_per_branch_mrt_encode_arms(self, monkeypatch, bench, case):
        kwargs, arm = self.PBM_CASES[case]
        encode = per_branch_mrt.encode_probability_exact
        encoded = []

        def spy(probability, scale, clamp):
            encoded.append(encode(probability, scale=scale, clamp=clamp))
            return encoded[-1]

        # Only the scalar session calls the predictor's own encode.
        monkeypatch.setattr(per_branch_mrt, "encode_probability_exact", spy)
        self._check(bench, lambda: [PaCoPredictor(),
                                    PerBranchMRTPredictor(**kwargs)],
                    (100, 100))
        assert arm in encoded


class TestGateCodegen:
    """The gate is a seventh shape flag that leaves the six ungated
    flags' generated sources untouched."""

    UNGATED_SHAPES = list(itertools.product([False, True], repeat=6))

    @pytest.mark.parametrize("flags", UNGATED_SHAPES,
                             ids=lambda f: "".join("1" if b else "0"
                                                   for b in f))
    def test_ungated_shapes_emit_no_gate_code(self, flags):
        source = _build_step_source(*flags)
        for marker in ("gated_cycles", "gate_bound",
                       "_low_confidence_outstanding >=",
                       "path_confidence_register >", "gating_policy",
                       "wp_state"):
            assert marker not in source

    @pytest.mark.parametrize("gate, member", [("count", 3), ("paco", 0)])
    def test_gated_shapes_cached_apart(self, gate, member):
        flags = [False] * 6
        flags[member] = True
        ungated = _fused_methods(tuple(flags) + (None,))
        gated = _fused_methods(tuple(flags) + (gate,))
        assert _fused_methods(tuple(flags) + (gate,)) is gated
        assert gated is not ungated
        filename = gated.__code__.co_filename
        assert filename != ungated.__code__.co_filename
        assert filename.endswith("-" + gate + ">")
        assert "gated_cycles" in "".join(linecache.getlines(filename))
        assert "gated_cycles" not in "".join(
            linecache.getlines(ungated.__code__.co_filename))


class TestSingleCodegenSystem:
    """The fused loops are the only generated code: no other module under
    ``src/repro`` calls the ``exec`` or ``compile`` builtins, so the
    scalar reference stays plain python."""

    def test_only_fused_module_compiles_code(self):
        root = Path(repro.__file__).parent
        callers = set()
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("exec", "compile")):
                    callers.add(path.relative_to(root.parent).as_posix())
        assert callers == {"repro/backends/fused.py"}


#: The retired vectorized backend's name, spelled indirectly so a search
#: for it finds no live use.
RETIRED_BACKEND = "-".join(("trace", "vec"))


class TestRetiredBackendName:
    """The retired name fails fast everywhere a backend is named, and the
    error lists the registered backends."""

    @staticmethod
    def _names_registered_backends(message):
        assert RETIRED_BACKEND in message
        assert "cycle (available)" in message
        assert "trace (available)" in message

    @pytest.mark.parametrize("argv", [
        ["run", "table7", "--quick"],
        ["sweep", "--experiments", "table7", "--quick"],
        ["campaign", "plan", "--preset", "ci"],
    ], ids=["run", "sweep", "campaign-plan"])
    def test_cli_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--backend", RETIRED_BACKEND])
        assert excinfo.value.code == 2
        self._names_registered_backends(capsys.readouterr().err)

    def test_campaign_spec_rejects(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec(name="x", experiments=("table7",),
                         backend=RETIRED_BACKEND).validated()
        self._names_registered_backends(str(excinfo.value))


# ---------------------------------------------------------------------- #
# fig10 / fig12 parity (the timing-estimate acceptance contract)
# ---------------------------------------------------------------------- #

#: One low- and one high-mispredict benchmark, three points per curve
#: spanning least-to-most aggressive gating.
GATING_PARITY_CONFIG = dict(
    benchmarks=("gzip", "twolf"),
    paco_probabilities=(0.10, 0.50, 0.90),
    jrs_thresholds=(3,),
    gate_counts=(1, 4, 10),
    instructions=12_000,
    warmup_instructions=4_000,
)

#: Tolerances calibrated at the budgets above.  The trace replay's IPC
#: is an estimate (idealized IPC-1 issue plus calibrated stall windows),
#: so per-point losses agree within a few points while reductions — which
#: divide two estimates — carry roughly twice the slack.
GATING_LOSS_TOLERANCE = 0.12        # absolute, fractional IPC loss
GATING_REDUCTION_TOLERANCE = 0.25   # absolute, fractional badpath reduction
MONOTONE_SLACK = 0.02               # curves may wobble this much downward


@pytest.fixture(scope="module")
def gating_parity_curves():
    from repro.applications.pipeline_gating import (GatingSweepConfig,
                                                    run_gating_sweep)
    return {
        backend: run_gating_sweep(
            GatingSweepConfig(backend=backend, **GATING_PARITY_CONFIG),
            SweepRunner(cache=None))
        for backend in ("cycle", "trace")
    }


class TestGatingSweepParity:
    """Fig. 10 parity: the gated trace replay must land each sweep point
    near the cycle model and preserve the curve shapes the figure plots."""

    def points(self, curves, curve):
        return list(zip(curves["cycle"][curve], curves["trace"][curve]))

    @pytest.mark.parametrize("curve", ["paco", "jrs-t3"])
    def test_performance_loss_tracks_cycle_model(self, gating_parity_curves,
                                                 curve):
        for cycle, trace in self.points(gating_parity_curves, curve):
            assert trace.parameter == cycle.parameter
            assert trace.performance_loss == pytest.approx(
                cycle.performance_loss, abs=GATING_LOSS_TOLERANCE), \
                (curve, cycle.parameter)

    @pytest.mark.parametrize("curve", ["paco", "jrs-t3"])
    def test_badpath_reductions_track_cycle_model(self,
                                                  gating_parity_curves,
                                                  curve):
        for cycle, trace in self.points(gating_parity_curves, curve):
            assert trace.badpath_reduction == pytest.approx(
                cycle.badpath_reduction, abs=GATING_REDUCTION_TOLERANCE), \
                (curve, cycle.parameter)
            assert trace.badpath_fetch_reduction == pytest.approx(
                cycle.badpath_fetch_reduction,
                abs=GATING_REDUCTION_TOLERANCE), (curve, cycle.parameter)

    @pytest.mark.parametrize("curve", ["paco", "jrs-t3"])
    def test_trace_curves_are_monotone_in_aggressiveness(
            self, gating_parity_curves, curve):
        """The figure's qualitative story: more aggressive gating trades
        more performance for more bad-path reduction."""
        points = gating_parity_curves["trace"][curve]
        for before, after in zip(points, points[1:]):
            assert after.performance_loss >= \
                before.performance_loss - MONOTONE_SLACK
            assert after.badpath_reduction >= \
                before.badpath_reduction - MONOTONE_SLACK
        most_aggressive = points[-1]
        assert most_aggressive.badpath_reduction > 0.5
        assert most_aggressive.performance_loss > 0.0


SMT_PARITY_CONFIG = dict(
    pairs=[("gzip", "vortex"), ("bzip2", "twolf")],
    jrs_thresholds=(3,),
    include_icount=True,
    instructions=10_000,
    warmup_instructions=3_000,
    single_thread_instructions=6_000,
    single_thread_warmup_instructions=2_000,
)

#: Per pair, the trace/cycle HMWIPC ratio must be the *same* for every
#: policy to within this relative spread — the trace estimate may sit at
#: a different absolute level, but it must rank the policies on the same
#: scale the cycle model does.  (Exact per-pair policy orderings are not
#: asserted: at these budgets the cycle model itself reorders
#: near-tied policies run to run.)
SMT_RATIO_SPREAD = 0.15
#: The absolute level may not drift arbitrarily either.
SMT_RATIO_BAND = (0.5, 2.0)


@pytest.fixture(scope="module")
def smt_parity_studies():
    from repro.applications.smt_prioritization import (SMTStudyConfig,
                                                       run_smt_study)
    return {
        backend: run_smt_study(
            SMTStudyConfig(backend=backend, **SMT_PARITY_CONFIG),
            SweepRunner(cache=None))
        for backend in ("cycle", "trace")
    }


class TestSMTStudyParity:
    """Fig. 12 parity: per pair, trace HMWIPCs must be a near-constant
    rescaling of the cycle model's."""

    def ratios(self, studies):
        for cycle, trace in zip(studies["cycle"], studies["trace"]):
            assert trace.pair == cycle.pair
            yield cycle.pair, {
                policy: (trace.hmwipc_by_policy[policy]
                         / cycle.hmwipc_by_policy[policy])
                for policy in cycle.hmwipc_by_policy
            }

    def test_all_policies_produce_sane_hmwipc(self, smt_parity_studies):
        for study in smt_parity_studies.values():
            for result in study:
                assert set(result.hmwipc_by_policy) == \
                    {"icount", "jrs-t3", "paco"}
                for value in result.hmwipc_by_policy.values():
                    assert 0.0 < value <= 2.0   # 2 threads

    def test_trace_rescales_cycle_uniformly_per_pair(self,
                                                     smt_parity_studies):
        for pair, ratios in self.ratios(smt_parity_studies):
            spread = max(ratios.values()) / min(ratios.values()) - 1.0
            assert spread <= SMT_RATIO_SPREAD, (pair, ratios)

    def test_trace_level_stays_in_band(self, smt_parity_studies):
        low, high = SMT_RATIO_BAND
        for pair, ratios in self.ratios(smt_parity_studies):
            for policy, ratio in ratios.items():
                assert low <= ratio <= high, (pair, policy, ratio)


# ---------------------------------------------------------------------- #
# Import footprint
# ---------------------------------------------------------------------- #


def test_import_leaves_numpy_unloaded():
    """The package has no third-party runtime dependency: importing the
    backends and running a fused trace session never loads numpy."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys\n"
        "import repro.backends as B\n"
        "from repro.pathconf.paco import PaCoPredictor\n"
        "from repro.pipeline.config import MachineConfig\n"
        "from repro.workloads.suite import get_benchmark\n"
        "B.get_backend('trace').run(\n"
        "    B.Workload(spec=get_benchmark('gzip')), MachineConfig(),\n"
        "    B.Instrumentation(path_confidence=PaCoPredictor()),\n"
        "    max_instructions=500)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src_dir)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
