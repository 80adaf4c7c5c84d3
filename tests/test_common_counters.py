"""Unit tests for repro.common.counters."""

import pytest

from repro.common.counters import HalvingRateCounter, RateSnapshot


class TestHalvingRateCounter:
    def test_records_correct_and_mispredicted(self):
        counter = HalvingRateCounter()
        counter.record(True)
        counter.record(True)
        counter.record(False)
        assert counter.correct == 2
        assert counter.mispredicted == 1
        assert counter.total == 3

    def test_correct_rate_with_no_samples_is_half(self):
        assert HalvingRateCounter().correct_rate == pytest.approx(0.5)

    def test_mispredict_rate_complements_correct_rate(self):
        counter = HalvingRateCounter()
        for _ in range(3):
            counter.record(True)
        counter.record(False)
        assert counter.mispredict_rate == pytest.approx(0.25)

    def test_halving_preserves_rate_on_correct_overflow(self):
        counter = HalvingRateCounter(correct_bits=4, mispredict_bits=4)
        for _ in range(8):
            counter.record(True)
        for _ in range(2):
            counter.record(False)
        rate_before = counter.mispredict_rate
        # Push the correct counter to its maximum, then once more to halve.
        while counter.correct < 15:
            counter.record(True)
        counter.record(True)
        assert counter.correct <= 15
        assert counter.mispredict_rate == pytest.approx(rate_before, abs=0.15)

    def test_halving_triggered_by_mispredict_overflow(self):
        counter = HalvingRateCounter(correct_bits=6, mispredict_bits=2)
        for _ in range(6):
            counter.record(True)
        for _ in range(3):
            counter.record(False)
        # Next mispredict overflows the 2-bit counter and halves both.
        counter.record(False)
        assert counter.mispredicted <= 3
        assert counter.correct <= 6

    def test_reset_clears_both(self):
        counter = HalvingRateCounter()
        counter.record(True)
        counter.record(False)
        counter.reset()
        assert counter.total == 0

    def test_snapshot_is_immutable_copy(self):
        counter = HalvingRateCounter()
        counter.record(True)
        snap = counter.snapshot()
        counter.record(False)
        assert snap.correct == 1
        assert snap.mispredicted == 0

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            HalvingRateCounter(correct_bits=0)


class TestRateSnapshot:
    def test_empty_snapshot_rate_is_half(self):
        snapshot = RateSnapshot(correct=0, mispredicted=0)
        assert snapshot.total == 0
        assert snapshot.correct_rate == 0.5
        assert snapshot.mispredict_rate == 0.5

    def test_rates_follow_the_counts(self):
        snapshot = RateSnapshot(correct=6, mispredicted=2)
        assert snapshot.total == 8
        assert snapshot.correct_rate == pytest.approx(0.75)
        assert snapshot.mispredict_rate == pytest.approx(0.25)
