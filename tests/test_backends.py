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

import itertools
import linecache
import os
import subprocess
import sys

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
from repro.backends.fused import (
    FusedGatedTraceSession,
    FusedTraceSession,
    _build_replay_source,
    _build_step_source,
    _fused_methods,
)
from repro.backends.trace import GatedTraceSession
from repro.campaign import CampaignSpec, CampaignSpecError, build_plan, preset
from repro.eval.harness import (
    accuracy_predictors_for,
    build_single_core,
    build_session,
    run_accuracy_experiment,
    run_gating_experiment,
    run_single_thread_ipc,
)
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.pathconf.base import PathConfidencePredictor
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.core import InstanceObserver, SimulationTruncated
from repro.pipeline.gating import (
    CountGating,
    NoGating,
    PaCoGating,
    ProbabilityGating,
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
from repro.workloads.spec import BenchmarkSpec, MemorySpec
from repro.workloads.suite import get_benchmark


class _CountingObserver(InstanceObserver):
    def __init__(self):
        self.instances = 0
        self.goodpath = 0

    def record(self, kind, on_goodpath, cycle):
        self.record_run(kind, on_goodpath, cycle, 1)

    def record_run(self, kind, on_goodpath, cycle, count):
        self.instances += count
        if on_goodpath:
            self.goodpath += count


class _StreamObserver(InstanceObserver):
    """Captures the flattened run-event stream.

    Deliberately overrides only :meth:`record_run`: batched delivery goes
    through the default ``record_runs`` loop, so the captured stream is
    exactly the per-event call sequence — same events, same values, same
    order — that the unbatched replay delivered.  Comparing streams (not
    just final statistics) pins the event *boundaries*, which is where
    batching bugs would hide.
    """

    def __init__(self):
        self.events = []

    def record(self, kind, on_goodpath, cycle):
        self.record_run(kind, on_goodpath, cycle, 1)

    def record_run(self, kind, on_goodpath, cycle, count):
        self.events.append((kind, on_goodpath, cycle, count))


class _ScalarTraceBackend(TraceBackend):
    """``trace`` with the scalar sessions for every stack.

    The parity oracle: :class:`TraceBackend` builds the fused sessions for
    every stack (and count/PaCo gate) they model, so comparing its output
    against this backend compares fused against scalar replay — the
    scalar :class:`TraceSession` for ungated stacks, the scalar
    :class:`GatedTraceSession` for gated ones.
    """

    def build(self, workload, config, instrument):
        fetch_engine = build_fetch_engine(workload, config, instrument)
        windows = (config.width * config.frontend_depth,
                   2 * config.min_mispredict_penalty)
        gating = instrument.gating_policy
        if gating is not None and not isinstance(gating, NoGating):
            return GatedTraceSession(fetch_engine, config,
                                     instrument.observers, *windows, gating,
                                     block_size=self.block_size)
        return TraceSession(fetch_engine, config, instrument.observers,
                            *windows, block_size=self.block_size)


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
    value, the knob is validated like a worker count, and it never rides
    in a job identity or cache key."""

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
        monkeypatch.setenv("REPRO_TRACE_BLOCK", str(block_size))
        result = run_accuracy_experiment(
            phased_spec, instructions=6_000, warmup_instructions=1_000,
            backend="trace", instrument="counter")
        monkeypatch.setenv("REPRO_TRACE_BLOCK", "64")
        reference = run_accuracy_experiment(
            phased_spec, instructions=6_000, warmup_instructions=1_000,
            backend="trace", instrument="counter")
        assert result == reference

    def test_env_knob_overrides_default(self, tiny_spec, small_machine,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BLOCK", "32")
        session = TraceBackend().build(
            Workload(spec=tiny_spec, seed=1), small_machine,
            Instrumentation(path_confidence=PaCoPredictor()),
        )
        assert session.block_size == 32

    @pytest.mark.parametrize("bad", ["0", "-3", "many", ""])
    def test_env_knob_validated_loudly(self, tiny_spec, small_machine,
                                       monkeypatch, bad):
        monkeypatch.setenv("REPRO_TRACE_BLOCK", bad)
        with pytest.raises(ValueError, match="REPRO_TRACE_BLOCK"):
            TraceBackend().build(
                Workload(spec=tiny_spec, seed=1), small_machine,
                Instrumentation(path_confidence=PaCoPredictor()),
            )

    def test_explicit_block_size_validated(self, tiny_spec, small_machine):
        with pytest.raises(ValueError):
            TraceBackend(block_size=0).build(
                Workload(spec=tiny_spec, seed=1), small_machine,
                Instrumentation(path_confidence=PaCoPredictor()),
            )

    def test_block_size_excluded_from_job_identity(self, tmp_path,
                                                   monkeypatch):
        """Different block sizes must hit the same cache entry: the knob
        cannot change results, so it must not fragment the cache."""
        def make_job():
            return accuracy_job("gzip", instructions=2_000,
                                warmup_instructions=500, seed=1,
                                backend="trace")

        monkeypatch.delenv("REPRO_TRACE_BLOCK", raising=False)
        job = make_job()
        digest_default = job.digest()
        cache = ResultCache(tmp_path)
        key_default = cache.key(job)
        assert "block" not in str(job.payload()).lower()
        monkeypatch.setenv("REPRO_TRACE_BLOCK", "8")
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
                            gating_policy=gating,
                            observers=(observer,)))
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
                Instrumentation(path_confidence=path_confidence,
                                observers=(observer,)))
            assert type(session) is session_cls
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
    """The fused gated session is bit-identical to :class:`GatedTraceSession`.

    :class:`TraceBackend` output (asserted to be the fused gated session)
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
                            gating_policy=policy,
                            observers=(observer,) if observe else ()))
        session.run(max_instructions=instructions // 4)
        stats = session.run(max_instructions=instructions)
        return session, observer.events, stats

    def _check(self, spec, machine, block_size, gate, observe,
               instructions=4_000):
        fused = self._run(TraceBackend, spec, machine, block_size, gate,
                          observe, instructions)
        scalar = self._run(_ScalarTraceBackend, spec, machine, block_size,
                           gate, observe, instructions)
        assert type(fused[0]) is FusedGatedTraceSession
        assert type(scalar[0]) is GatedTraceSession
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
        ones in the fused gated session too."""
        self._check(phased_spec, small_machine, block_size, gate, observe,
                    instructions=12_000)


class TestVecTraceStreamParity:
    """Count-gated stacks build the fused gated session, and its stream
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
                                                      gate_count=2),
                            observers=(observer,)))
        assert type(session) is FusedGatedTraceSession
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


class TestFusedSessionRouting:
    """:meth:`TraceBackend.build` must pick the fused session for every
    stack the campaigns run, so a stack that loses the fused path fails
    here instead of silently running slower."""

    @staticmethod
    def _built_sessions(monkeypatch, jobs):
        built = []
        build = TraceBackend.build

        def spy(self, workload, config, instrument):
            session = build(self, workload, config, instrument)
            built.append(type(session))
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
        assert built == [FusedTraceSession]

    def test_ungated_and_single_ipc_stacks_build_fused_session(
            self, monkeypatch):
        built = self._built_sessions(monkeypatch, [
            gating_job("gzip", mode="none", instructions=500,
                       warmup_instructions=0, backend="trace"),
            single_ipc_job("gzip", instructions=500, warmup_instructions=0,
                           backend="trace"),
        ])
        assert built == [FusedTraceSession, FusedTraceSession]

    @pytest.mark.parametrize("mode, knob", [
        ("count", {"gate_count": 2}),
        ("paco", {"gating_probability": 0.2}),
    ], ids=["count", "paco"])
    def test_gated_stacks_build_gated_session(self, monkeypatch, mode, knob):
        """The fig10 count and PaCo gating jobs run the fused gate."""
        built = self._built_sessions(monkeypatch, [gating_job(
            "gzip", mode=mode, instructions=500, warmup_instructions=0,
            backend="trace", **knob)])
        assert built == [FusedGatedTraceSession]

    def test_paper_preset_gating_jobs_build_fused_sessions(self,
                                                           monkeypatch):
        """Every fig10 job of ``campaign plan --preset paper`` builds a
        fused session: the gated one for count and PaCo gating, the
        ungated one for the baseline.  Each build is stopped before the
        job runs."""

        class Built(Exception):
            pass

        build = TraceBackend.build

        def spy(self, workload, config, instrument):
            raise Built(type(build(self, workload, config, instrument)))

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
        assert built == {"count": {FusedGatedTraceSession},
                         "paco": {FusedGatedTraceSession},
                         "none": {FusedTraceSession}}

    @pytest.mark.parametrize("case", [
        "probability", "foreign-count", "foreign-paco", "custom"])
    def test_unmodelled_gates_build_scalar_gated_session(
            self, tiny_spec, small_machine, case):
        """Gates the fused loops do not model fall back to the scalar
        :class:`GatedTraceSession`: a policy type they were not written
        for, a count or PaCo policy over a predictor that is not the
        session's own member, and a gate over an unmodelled stack."""
        if case == "probability":
            path_confidence = PaCoPredictor()
            policy = ProbabilityGating(path_confidence, 0.5)
        elif case == "foreign-count":
            path_confidence = ThresholdAndCountPredictor(threshold=3)
            policy = CountGating(ThresholdAndCountPredictor(threshold=3), 1)
        elif case == "foreign-paco":
            path_confidence = PaCoPredictor()
            policy = PaCoGating(PaCoPredictor(), 0.5)
        else:
            path_confidence = _CustomPathConfidence()
            policy = CountGating(ThresholdAndCountPredictor(threshold=3), 1)
        session = TraceBackend().build(
            Workload(spec=tiny_spec, seed=2), small_machine,
            Instrumentation(path_confidence=path_confidence,
                            gating_policy=policy))
        assert type(session) is GatedTraceSession
        assert session.run(max_instructions=500).retired_instructions >= 500

    def test_fused_session_rejects_unmodelled_gate(self, tiny_spec,
                                                   small_machine):
        """Built directly, the fused gated session refuses a gate it
        would not model instead of running without it."""
        path_confidence = PaCoPredictor()
        instrument = Instrumentation(path_confidence=path_confidence)
        fetch_engine = build_fetch_engine(Workload(spec=tiny_spec, seed=2),
                                          small_machine, instrument)
        with pytest.raises(ValueError, match="GatedTraceSession"):
            FusedGatedTraceSession(
                fetch_engine, small_machine, (), 16, 8,
                {"paco": path_confidence},
                gating_policy=ProbabilityGating(path_confidence, 0.5))

    def test_custom_predictor_builds_scalar_session(self, tiny_spec,
                                                    small_machine):
        session = TraceBackend().build(
            Workload(spec=tiny_spec, seed=2), small_machine,
            Instrumentation(path_confidence=_CustomPathConfidence()))
        assert type(session) is TraceSession
        assert session.run(max_instructions=500).retired_instructions >= 500


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
        assert type(session) is (FusedGatedTraceSession if gating
                                 else FusedTraceSession)
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


class TestGateCodegen:
    """The gate is a seventh shape flag that leaves the six ungated
    flags' generated sources untouched."""

    UNGATED_SHAPES = list(itertools.product([False, True], repeat=6))

    @pytest.mark.parametrize("flags", UNGATED_SHAPES,
                             ids=lambda f: "".join("1" if b else "0"
                                                   for b in f))
    def test_ungated_shapes_emit_no_gate_code(self, flags):
        for source in (_build_step_source(*flags),
                       _build_replay_source(*flags)):
            for marker in ("gated_cycles", "gate_bound",
                           "_low_confidence_outstanding >=",
                           "path_confidence_register >", "gating_policy",
                           "next_branch_into"):
                assert marker not in source

    @pytest.mark.parametrize("gate, member", [("count", 3), ("paco", 0)])
    def test_gated_shapes_cached_apart(self, gate, member):
        flags = [False] * 6
        flags[member] = True
        ungated = _fused_methods(tuple(flags) + (None,))
        gated = _fused_methods(tuple(flags) + (gate,))
        assert _fused_methods(tuple(flags) + (gate,)) is gated
        assert gated is not ungated
        for gated_fn, ungated_fn in zip(gated, ungated):
            filename = gated_fn.__code__.co_filename
            assert filename != ungated_fn.__code__.co_filename
            assert filename.endswith("-" + gate + ">")
            assert "gated_cycles" in "".join(linecache.getlines(filename))
            assert "gated_cycles" not in "".join(
                linecache.getlines(ungated_fn.__code__.co_filename))


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
