"""Unit tests for repro.workloads.branch_models."""

import pytest

from repro.common.rng import DeterministicRng
from repro.workloads.branch_models import (
    BiasedRandomBranch,
    CorrelatedBranch,
    GlobalCorrelationState,
    IndirectTargetModel,
    LoopBranch,
)


class TestBiasedRandomBranch:
    def test_taken_frequency_matches_bias(self):
        rng = DeterministicRng(1)
        branch = BiasedRandomBranch(0.8)
        taken = sum(branch.next_outcome(rng) for _ in range(5000))
        assert abs(taken / 5000 - 0.8) < 0.03

    def test_extreme_biases(self):
        rng = DeterministicRng(2)
        always = BiasedRandomBranch(1.0)
        never = BiasedRandomBranch(0.0)
        assert all(always.next_outcome(rng) for _ in range(100))
        assert not any(never.next_outcome(rng) for _ in range(100))

    def test_rejects_out_of_range_bias(self):
        with pytest.raises(ValueError):
            BiasedRandomBranch(1.5)


class TestLoopBranch:
    def test_taken_trip_minus_one_times(self):
        rng = DeterministicRng(3)
        loop = LoopBranch(trip_count=5, jitter_probability=0.0)
        outcomes = [loop.next_outcome(rng) for _ in range(10)]
        # Pattern: T T T T N repeated.
        assert outcomes[:5] == [True, True, True, True, False]
        assert outcomes[5:10] == [True, True, True, True, False]

    def test_exit_rate_is_one_over_trip(self):
        rng = DeterministicRng(4)
        loop = LoopBranch(trip_count=8, jitter_probability=0.0)
        not_taken = sum(not loop.next_outcome(rng) for _ in range(8000))
        assert abs(not_taken / 8000 - 1.0 / 8) < 0.01

    def test_jitter_changes_exit_positions(self):
        rng = DeterministicRng(5)
        loop = LoopBranch(trip_count=6, jitter_probability=1.0)
        exits = [i for i in range(600) if not loop.next_outcome(rng)]
        gaps = {b - a for a, b in zip(exits, exits[1:])}
        assert len(gaps) > 1  # trip counts vary

    def test_rejects_trivial_trip_count(self):
        with pytest.raises(ValueError):
            LoopBranch(trip_count=1)

    def test_reset_restores_trip(self):
        rng = DeterministicRng(6)
        loop = LoopBranch(trip_count=4, jitter_probability=0.0)
        loop.next_outcome(rng)
        loop.reset()
        outcomes = [loop.next_outcome(rng) for _ in range(4)]
        assert outcomes == [True, True, True, False]


class TestCorrelatedBranch:
    def test_turbulence_raises_mispredictability(self):
        state = GlobalCorrelationState(enter_probability=0.0, exit_probability=1.0)
        rng = DeterministicRng(10)
        branch = CorrelatedBranch(state, calm_probability=0.95,
                                  turbulent_probability=0.5)
        calm_taken = sum(branch.next_outcome(rng) for _ in range(2000)) / 2000
        state_turbulent = GlobalCorrelationState(enter_probability=1.0,
                                                 exit_probability=0.0)
        branch_turbulent = CorrelatedBranch(state_turbulent, calm_probability=0.95,
                                            turbulent_probability=0.5)
        turbulent_taken = sum(branch_turbulent.next_outcome(rng)
                              for _ in range(2000)) / 2000
        assert calm_taken > 0.9
        assert turbulent_taken < 0.65

    def test_shared_state_is_advanced(self):
        state = GlobalCorrelationState(enter_probability=1.0, exit_probability=0.0)
        rng = DeterministicRng(11)
        branch = CorrelatedBranch(state)
        branch.next_outcome(rng)
        assert state.turbulent

    def test_state_eventually_exits_turbulence(self):
        state = GlobalCorrelationState(enter_probability=0.0, exit_probability=1.0)
        state.turbulent = True
        state.step(DeterministicRng(12))
        assert not state.turbulent


class TestPhaseArgument:
    """The generator passes its phase index to ``next_outcome``; phase
    behaviour lives in ``PhaseSpec``, so no model's stream may depend on
    the index."""

    @pytest.mark.parametrize("make", [
        lambda: BiasedRandomBranch(0.7),
        lambda: LoopBranch(trip_count=6, jitter_probability=0.3),
        lambda: CorrelatedBranch(GlobalCorrelationState(0.2, 0.3)),
    ], ids=["biased", "loop", "correlated"])
    def test_next_outcome_ignores_phase(self, make):
        a, b = make(), make()
        rng_a, rng_b = DeterministicRng(21), DeterministicRng(21)
        outcomes_a = [a.next_outcome(rng_a) for _ in range(500)]
        outcomes_b = [b.next_outcome(rng_b, phase=i % 3) for i in range(500)]
        assert outcomes_a == outcomes_b
        assert rng_a._state == rng_b._state


class TestIndirectTargetModel:
    def test_single_target_always_repeats(self):
        rng = DeterministicRng(15)
        model = IndirectTargetModel(base_target=0x800000, num_targets=1)
        first = model.next_target(rng)
        assert all(model.next_target(rng) == first for _ in range(20))

    def test_low_repeat_probability_switches_targets(self):
        rng = DeterministicRng(16)
        model = IndirectTargetModel(base_target=0x800000, num_targets=8,
                                    repeat_probability=0.1)
        targets = {model.next_target(rng) for _ in range(400)}
        assert len(targets) == 8

    def test_targets_are_distinct_addresses(self):
        model = IndirectTargetModel(base_target=0x800000, num_targets=4, stride=0x40)
        assert len(set(model.targets)) == 4

    def test_reset_returns_to_first_target(self):
        rng = DeterministicRng(17)
        model = IndirectTargetModel(base_target=0x800000, num_targets=4,
                                    repeat_probability=0.0)
        model.next_target(rng)
        model.reset()
        assert model._last == model.targets[0]

    def test_rejects_zero_targets(self):
        with pytest.raises(ValueError):
            IndirectTargetModel(base_target=0x800000, num_targets=0)
