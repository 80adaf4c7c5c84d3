"""Unit tests for repro.common.stats."""

import pytest

from repro.common.stats import ReliabilityDiagram


class TestReliabilityDiagram:
    def test_perfect_predictions_give_zero_rms(self):
        diagram = ReliabilityDiagram(num_bins=10)
        # Predicted 0.8, observed 80% on-goodpath.
        for i in range(100):
            diagram.record(0.8, on_goodpath=(i % 10) < 8)
        assert diagram.rms_error() < 0.02

    def test_systematic_error_is_measured(self):
        diagram = ReliabilityDiagram(num_bins=10)
        # Predicted 0.9 but only 50% observed.
        for i in range(100):
            diagram.record(0.9, on_goodpath=(i % 2 == 0))
        assert diagram.rms_error() == pytest.approx(0.4, abs=0.02)

    def test_record_clamps_out_of_range_predictions(self):
        diagram = ReliabilityDiagram(num_bins=10)
        diagram.record(1.3, True)
        diagram.record(-0.2, False)
        assert diagram.total_instances == 2

    def test_weights_accumulate(self):
        diagram = ReliabilityDiagram(num_bins=4)
        diagram.record(0.6, True, weight=5)
        assert diagram.total_instances == 5
        assert diagram.total_goodpath == 5

    def test_points_filter_by_min_instances(self):
        diagram = ReliabilityDiagram(num_bins=10)
        diagram.record(0.05, True)
        for _ in range(50):
            diagram.record(0.95, True)
        assert len(diagram.points(min_instances=10)) == 1

    def test_histogram_covers_all_bins(self):
        diagram = ReliabilityDiagram(num_bins=5)
        assert len(diagram.histogram()) == 5

    def test_merge_requires_same_binning(self):
        with pytest.raises(ValueError):
            ReliabilityDiagram(10).merge(ReliabilityDiagram(20))

    def test_merge_combines_counts(self):
        a, b = ReliabilityDiagram(10), ReliabilityDiagram(10)
        a.record(0.5, True)
        b.record(0.5, False)
        a.merge(b)
        assert a.total_instances == 2
        assert a.observed_goodpath_fraction() == pytest.approx(0.5)

    def test_empty_diagram_has_zero_rms(self):
        assert ReliabilityDiagram().rms_error() == 0.0

    def test_format_table_contains_rows(self):
        diagram = ReliabilityDiagram(num_bins=10)
        for _ in range(20):
            diagram.record(0.75, True)
        text = diagram.format_table()
        assert "predicted%" in text
        assert len(text.splitlines()) == 2

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ValueError):
            ReliabilityDiagram(num_bins=0)

    def test_record_folded_bit_identical_to_record_sequence(self):
        """A pre-folded batch must leave the diagram in exactly the state
        the equivalent record() calls do — including predicted_sum, which
        accumulates per event in order so the float is bit-identical, not
        merely close.  Out-of-range predictions clamp the same way."""
        events = [
            "fetch", True, 10, 3,
            "execute", True, 10, 1,
            "fetch", False, 12, 7,
            "execute", False, 13, 2,
        ]
        weights = events[3::4]
        instances = sum(weights)
        goodpath = sum(events[i + 3] for i in range(0, len(events), 4)
                       if events[i + 1])
        for predicted in (0.0, 0.314159, 0.730001, 1.0, 1.3, -0.2):
            folded = ReliabilityDiagram(num_bins=100)
            folded.record_folded(predicted, weights, instances, goodpath)
            reference = ReliabilityDiagram(num_bins=100)
            for i in range(0, len(events), 4):
                reference.record(predicted, events[i + 1],
                                 weight=events[i + 3])
            assert folded.total_instances == reference.total_instances
            assert folded.total_goodpath == reference.total_goodpath
            for mine, theirs in zip(folded.bins, reference.bins):
                assert mine.instances == theirs.instances
                assert mine.goodpath_instances == theirs.goodpath_instances
                assert mine.predicted_sum == theirs.predicted_sum

    def test_record_folded_empty_batch_is_noop(self):
        diagram = ReliabilityDiagram(num_bins=10)
        diagram.record_folded(0.5, [], 0, 0)
        assert diagram.total_instances == 0
        assert all(b.predicted_sum == 0.0 for b in diagram.bins)
