"""Unit and integration tests for the out-of-order core model."""

import pytest

from repro.eval.harness import build_single_core
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.core import InstanceObserver, SimulationTruncated
from repro.pipeline.gating import CountGating, NoGating


class _CountingObserver(InstanceObserver):
    def __init__(self):
        self.fetch_instances = 0
        self.execute_instances = 0
        self.goodpath_instances = 0

    def record_runs(self, events):
        for i in range(0, len(events), 4):
            if events[i] == "fetch":
                self.fetch_instances += events[i + 3]
            else:
                self.execute_instances += events[i + 3]
            if events[i + 1]:
                self.goodpath_instances += events[i + 3]


def _run_core(spec, machine, predictor=None, instructions=4000, gating=None,
              seed=1):
    predictor = predictor if predictor is not None else PaCoPredictor(
        relog_period_cycles=5_000
    )
    core, fetch_engine, generator = build_single_core(
        spec, predictor, config=machine, seed=seed,
        gating_policy=gating if gating is not None else NoGating(),
    )
    stats = core.run(max_instructions=instructions)
    return core, stats, predictor


class TestCoreBasics:
    def test_retires_requested_instructions(self, tiny_spec, small_machine):
        _core, stats, _ = _run_core(tiny_spec, small_machine, instructions=3000)
        assert stats.retired_instructions >= 3000
        assert stats.cycles > 0
        assert 0.05 < stats.ipc <= small_machine.width

    def test_rejects_nonpositive_budget(self, tiny_spec, small_machine):
        predictor = PaCoPredictor()
        core, _, _ = build_single_core(tiny_spec, predictor, config=small_machine)
        with pytest.raises(ValueError):
            core.run(max_instructions=0)

    def test_deterministic_given_seed(self, tiny_spec, small_machine):
        _, stats_a, _ = _run_core(tiny_spec, small_machine, instructions=2000, seed=4)
        _, stats_b, _ = _run_core(tiny_spec, small_machine, instructions=2000, seed=4)
        assert stats_a.cycles == stats_b.cycles
        assert stats_a.badpath_executed == stats_b.badpath_executed
        assert stats_a.conditional_mispredicts_retired == \
            stats_b.conditional_mispredicts_retired

    def test_different_seeds_change_timing(self, tiny_spec, small_machine):
        _, stats_a, _ = _run_core(tiny_spec, small_machine, instructions=2000, seed=1)
        _, stats_b, _ = _run_core(tiny_spec, small_machine, instructions=2000, seed=2)
        assert stats_a.cycles != stats_b.cycles

    def test_rob_capacity_never_exceeded(self, tiny_spec, small_machine):
        predictor = PaCoPredictor()
        core, _, _ = build_single_core(tiny_spec, predictor, config=small_machine)
        for _ in range(3000):
            core.step()
            assert core.rob_occupancy <= small_machine.rob_size

    def test_max_cycles_guard_raises_instead_of_truncating(self, tiny_spec,
                                                           small_machine):
        predictor = PaCoPredictor()
        core, _, _ = build_single_core(tiny_spec, predictor, config=small_machine)
        with pytest.raises(SimulationTruncated) as excinfo:
            core.run(max_instructions=10_000_000, max_cycles=500)
        # The partial statistics ride along for post-mortem inspection.
        assert excinfo.value.stats.cycles <= 500
        assert excinfo.value.stats.retired_instructions < 10_000_000
        assert excinfo.value.max_cycles == 500


class TestCoreSpeculation:
    def test_badpath_work_exists_and_is_bounded(self, tiny_spec, small_machine):
        _, stats, _ = _run_core(tiny_spec, small_machine, instructions=4000)
        assert stats.badpath_fetched > 0
        assert stats.badpath_executed > 0
        assert stats.badpath_executed <= stats.badpath_fetched
        assert stats.badpath_executed_fraction < 0.6

    def test_flushes_follow_mispredicts(self, tiny_spec, small_machine):
        _, stats, _ = _run_core(tiny_spec, small_machine, instructions=4000)
        assert stats.flushes > 0
        # Every retired conditional mispredict triggered exactly one flush;
        # non-conditional mispredicts (returns, indirects) add more.
        assert stats.flushes >= stats.conditional_mispredicts_retired

    def test_mispredict_rate_in_plausible_range(self, tiny_spec, small_machine):
        _, stats, _ = _run_core(tiny_spec, small_machine, instructions=6000)
        assert 0.0 < stats.conditional_mispredict_rate < 0.35

    def test_paco_window_drains(self, tiny_spec, small_machine):
        _, _, predictor = _run_core(tiny_spec, small_machine, instructions=4000)
        # At the end of a run the number of outstanding branches must be small
        # (bounded by the ROB) and non-negative.
        assert 0 <= predictor.outstanding_branches() <= small_machine.rob_size

    def test_retired_instructions_are_goodpath_only(self, tiny_spec, small_machine):
        _, stats, _ = _run_core(tiny_spec, small_machine, instructions=4000)
        # Retired count can never exceed the number of good-path instructions
        # fetched (bad-path instructions never retire).
        assert stats.retired_instructions <= stats.goodpath_fetched


class TestCoreObservers:
    def test_instances_are_recorded_for_fetch_and_execute(self, tiny_spec,
                                                          small_machine):
        predictor = PaCoPredictor(relog_period_cycles=5_000)
        core, _, _ = build_single_core(tiny_spec, predictor, config=small_machine)
        observer = _CountingObserver()
        core.add_observer(observer)
        core.run(max_instructions=2000)
        assert observer.fetch_instances > 0
        assert observer.execute_instances > 0
        # Every fetched instruction eventually produces at most one execute
        # instance (squashed ones may not execute).
        assert observer.execute_instances <= observer.fetch_instances

    def test_most_instances_are_on_goodpath(self, tiny_spec, small_machine):
        predictor = PaCoPredictor(relog_period_cycles=5_000)
        core, _, _ = build_single_core(tiny_spec, predictor, config=small_machine)
        observer = _CountingObserver()
        core.add_observer(observer)
        core.run(max_instructions=2000)
        total = observer.fetch_instances + observer.execute_instances
        assert observer.goodpath_instances / total > 0.5

    def test_cycle_model_delivers_one_event_batches(self, tiny_spec,
                                                   small_machine):
        """Every instance reaches the observer as its own ``record_runs``
        batch: one ``(kind, on_goodpath, cycle, 1)`` group, cycles in
        order."""
        core, _, _ = build_single_core(
            tiny_spec, PaCoPredictor(relog_period_cycles=5_000),
            config=small_machine)
        batches = []

        class Recorder(InstanceObserver):
            def record_runs(self, events):
                batches.append(list(events))

        core.add_observer(Recorder())
        core.run(max_instructions=500)
        assert batches
        assert all(len(batch) == 4 and batch[3] == 1 for batch in batches)
        assert {batch[0] for batch in batches} == {"fetch", "execute"}
        cycles = [batch[2] for batch in batches]
        assert cycles == sorted(cycles)

    def test_observer_without_record_runs_cannot_be_built(self):
        class Incomplete(InstanceObserver):
            pass

        with pytest.raises(TypeError, match="record_runs"):
            Incomplete()


class TestCoreGating:
    def test_count_gating_reduces_badpath_fetch(self, tiny_spec, small_machine):
        predictor = ThresholdAndCountPredictor(threshold=3)
        baseline_core, baseline, _ = _run_core(tiny_spec, small_machine,
                                               instructions=5000)
        gated_predictor = ThresholdAndCountPredictor(threshold=3)
        core, _, _ = build_single_core(
            tiny_spec, gated_predictor, config=small_machine, seed=1,
            gating_policy=CountGating(gated_predictor, gate_count=1),
        )
        gated = core.run(max_instructions=5000)
        assert gated.gated_cycles > 0
        assert gated.badpath_fetched < baseline.badpath_fetched

    def test_gating_reduces_badpath_execution(self, tiny_spec, small_machine):
        gated_predictor = ThresholdAndCountPredictor(threshold=3)
        core, _, _ = build_single_core(
            tiny_spec, gated_predictor, config=small_machine, seed=1,
            gating_policy=CountGating(gated_predictor, gate_count=1),
        )
        gated = core.run(max_instructions=5000)
        _, baseline, _ = _run_core(tiny_spec, small_machine, instructions=5000)
        # Aggressive gating at count>=1 stalls fetch while branches are
        # unresolved, so wrong-path execution must drop substantially.
        assert gated.gated_cycles > 0
        assert gated.badpath_executed < baseline.badpath_executed
