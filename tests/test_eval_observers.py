"""Unit tests for observers, profiling and metrics in repro.eval."""

import pytest

from repro.eval.metrics import hmwipc, weighted_ipc
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
    PathConfidenceObserver,
    PhaseAwareCounterObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.eval.reports import format_table
from repro.pathconf.base import BranchFetchInfo
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor


def _info(mdc_value):
    return BranchFetchInfo(pc=0x400000, mdc_value=mdc_value, mdc_index=0,
                           predicted_taken=True, history=0)


class _FakeGenerator:
    def __init__(self):
        self.current_phase_label = "p0"


class TestPathConfidenceObserver:
    def test_records_instances_into_diagram(self):
        paco = PaCoPredictor()
        observer = PathConfidenceObserver(paco)
        observer.record("fetch", on_goodpath=True, cycle=0)
        paco.on_branch_fetch(_info(0))
        observer.record("execute", on_goodpath=False, cycle=1)
        assert observer.diagram.total_instances == 2

    def test_kind_filter(self):
        observer = PathConfidenceObserver(PaCoPredictor(), kinds=("fetch",))
        observer.record("execute", True, 0)
        assert observer.diagram.total_instances == 0
        observer.record("fetch", True, 0)
        assert observer.diagram.total_instances == 1

    def test_rms_error_property(self):
        paco = PaCoPredictor()
        observer = PathConfidenceObserver(paco)
        for _ in range(50):
            observer.record("fetch", True, 0)
        assert observer.rms_error == pytest.approx(0.0, abs=0.01)


class TestMultiPredictorObserver:
    def test_one_diagram_per_predictor(self):
        paco = PaCoPredictor()
        static = StaticMRTPredictor()
        observer = MultiPredictorObserver([paco, static])
        observer.record("fetch", True, 0)
        assert set(observer.diagrams) == {"paco", "static-mrt"}
        assert observer.diagrams["paco"].total_instances == 1
        assert set(observer.rms_errors()) == {"paco", "static-mrt"}

    def test_duplicate_predictor_names_rejected(self):
        # Two same-named predictors would share one diagram and record
        # every run twice into it.
        with pytest.raises(ValueError, match="'paco'"):
            MultiPredictorObserver([PaCoPredictor(), PaCoPredictor()])


class TestCounterGoodpathObserver:
    def test_counts_by_counter_value(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        observer = CounterGoodpathObserver(predictor, max_count=8)
        observer.record("fetch", True, 0)              # count 0
        predictor.on_branch_fetch(_info(0))
        observer.record("fetch", True, 1)              # count 1
        observer.record("fetch", False, 2)             # count 1
        assert observer.occupancy(0) == 1
        assert observer.occupancy(1) == 2
        assert observer.goodpath_probability(1) == pytest.approx(0.5)

    def test_counter_values_above_max_are_clamped(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        observer = CounterGoodpathObserver(predictor, max_count=2)
        for _ in range(5):
            predictor.on_branch_fetch(_info(0))
        observer.record("fetch", True, 0)
        assert observer.occupancy(2) == 1

    @pytest.mark.parametrize("count", [-1, 5])
    def test_out_of_range_queries_raise(self, count):
        observer = CounterGoodpathObserver(ThresholdAndCountPredictor(), max_count=4)
        with pytest.raises(ValueError):
            observer.goodpath_probability(count)
        with pytest.raises(ValueError):
            observer.occupancy(count)

    def test_empty_bucket_probability_is_zero(self):
        observer = CounterGoodpathObserver(ThresholdAndCountPredictor(), max_count=4)
        assert observer.goodpath_probability(3) == 0.0


class TestPhaseAwareCounterObserver:
    def test_split_by_phase(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        generator = _FakeGenerator()
        observer = PhaseAwareCounterObserver(predictor, generator, max_count=4)
        observer.record("fetch", True, 0)
        generator.current_phase_label = "p1"
        observer.record("fetch", False, 1)
        assert set(observer.phases()) == {"p0", "p1"}
        assert observer.goodpath_probability("p0", 0) == 1.0
        assert observer.goodpath_probability("p1", 0) == 0.0

    def test_unknown_phase_raises(self):
        observer = PhaseAwareCounterObserver(ThresholdAndCountPredictor(),
                                             _FakeGenerator())
        with pytest.raises(KeyError):
            observer.goodpath_probability("nope", 0)

    def test_occupancy_of_unknown_phase_is_zero(self):
        observer = PhaseAwareCounterObserver(ThresholdAndCountPredictor(),
                                             _FakeGenerator())
        assert observer.occupancy("nope", 0) == 0

    @pytest.mark.parametrize("count", [-1, 5])
    def test_out_of_range_queries_raise(self, count):
        observer = PhaseAwareCounterObserver(ThresholdAndCountPredictor(),
                                             _FakeGenerator(), max_count=4)
        observer.record("fetch", True, 0)
        with pytest.raises(ValueError):
            observer.goodpath_probability("p0", count)
        with pytest.raises(ValueError):
            observer.occupancy("p0", count)


class TestRecordRunsBatching:
    """Batched event delivery must equal the per-event record_run calls.

    ``events`` is the trace backend's flat stride-4 buffer; every
    observer's record_runs must leave it in the same state as looping
    record_run over the groups (the InstanceObserver default).
    """

    EVENTS = [
        "fetch", True, 5, 4,
        "execute", True, 5, 2,
        "fetch", False, 9, 3,
        "execute", False, 11, 1,
    ]

    def _loop(self, observer):
        events = self.EVENTS
        for i in range(0, len(events), 4):
            observer.record_run(events[i], events[i + 1], events[i + 2],
                                events[i + 3])

    def test_path_confidence_observer(self):
        batched = PathConfidenceObserver(PaCoPredictor())
        batched.record_runs(self.EVENTS)
        reference = PathConfidenceObserver(PaCoPredictor())
        self._loop(reference)
        assert (batched.diagram.total_instances
                == reference.diagram.total_instances == 10)
        assert (batched.diagram.total_goodpath
                == reference.diagram.total_goodpath == 6)
        for mine, theirs in zip(batched.diagram.bins, reference.diagram.bins):
            assert mine.instances == theirs.instances
            assert mine.predicted_sum == theirs.predicted_sum

    def test_path_confidence_observer_kind_filter(self):
        batched = PathConfidenceObserver(PaCoPredictor(), kinds=("fetch",))
        batched.record_runs(self.EVENTS)
        reference = PathConfidenceObserver(PaCoPredictor(), kinds=("fetch",))
        self._loop(reference)
        assert (batched.diagram.total_instances
                == reference.diagram.total_instances == 7)
        assert (batched.diagram.total_goodpath
                == reference.diagram.total_goodpath == 4)

    def test_multi_predictor_observer(self):
        def build():
            return MultiPredictorObserver([PaCoPredictor(),
                                           StaticMRTPredictor()])
        batched, reference = build(), build()
        batched.record_runs(self.EVENTS)
        self._loop(reference)
        for name in ("paco", "static-mrt"):
            assert (batched.diagrams[name].total_instances
                    == reference.diagrams[name].total_instances == 10)

    def test_counter_observer(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        predictor.on_branch_fetch(_info(0))
        batched = CounterGoodpathObserver(predictor, max_count=8)
        batched.record_runs(self.EVENTS)
        reference = CounterGoodpathObserver(predictor, max_count=8)
        self._loop(reference)
        assert batched.instances == reference.instances
        assert batched.goodpath_instances == reference.goodpath_instances
        assert batched.occupancy(1) == 10

    def test_phase_aware_observer(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        generator = _FakeGenerator()
        batched = PhaseAwareCounterObserver(predictor, generator, max_count=4)
        batched.record_runs(self.EVENTS)
        reference = PhaseAwareCounterObserver(predictor, generator,
                                              max_count=4)
        self._loop(reference)
        assert batched.phases() == reference.phases() == ["p0"]
        assert batched.occupancy("p0", 0) == reference.occupancy("p0", 0) == 10
        assert (batched.goodpath_probability("p0", 0)
                == reference.goodpath_probability("p0", 0))


class TestMDCProfiler:
    def test_counts_per_bucket(self):
        profiler = MDCProfiler()
        token = profiler.on_branch_fetch(_info(2))
        profiler.on_branch_resolve(token, mispredicted=True)
        token = profiler.on_branch_fetch(_info(2))
        profiler.on_branch_resolve(token, mispredicted=False)
        assert profiler.samples(2) == 2
        assert profiler.mispredict_rate(2) == pytest.approx(0.5)

    def test_squash_does_not_count(self):
        profiler = MDCProfiler()
        token = profiler.on_branch_fetch(_info(1))
        profiler.on_branch_squash(token)
        assert profiler.samples(1) == 0

    def test_double_resolution_counts_once(self):
        profiler = MDCProfiler()
        token = profiler.on_branch_fetch(_info(1))
        profiler.on_branch_resolve(token, mispredicted=True)
        profiler.on_branch_resolve(token, mispredicted=True)
        assert profiler.samples(1) == 1

    def test_rates_dict_only_sampled_buckets(self):
        profiler = MDCProfiler()
        token = profiler.on_branch_fetch(_info(3))
        profiler.on_branch_resolve(token, mispredicted=False)
        assert set(profiler.mispredict_rates()) == {3}

    def test_static_profile_fills_gaps(self):
        profiler = MDCProfiler()
        token = profiler.on_branch_fetch(_info(0))
        profiler.on_branch_resolve(token, mispredicted=True)
        profile = profiler.static_profile()
        assert len(profile) == 16
        assert profile[0] >= profile[15] or profile[15] == profile[0]

    def test_mdc_values_above_range_clamp(self):
        profiler = MDCProfiler(num_mdc_values=4)
        token = profiler.on_branch_fetch(_info(9))
        profiler.on_branch_resolve(token, mispredicted=False)
        assert profiler.samples(3) == 1

    def test_goodpath_probability_is_neutral(self):
        assert MDCProfiler().goodpath_probability() == 1.0


class TestMetrics:
    def test_weighted_ipc(self):
        assert weighted_ipc(2.0, 1.0) == pytest.approx(0.5)

    def test_weighted_ipc_rejects_zero_single(self):
        with pytest.raises(ValueError):
            weighted_ipc(0.0, 1.0)

    def test_hmwipc_equal_threads(self):
        assert hmwipc([2.0, 2.0], [1.0, 1.0]) == pytest.approx(0.5)

    def test_hmwipc_penalises_imbalance(self):
        balanced = hmwipc([2.0, 2.0], [1.0, 1.0])
        unbalanced = hmwipc([2.0, 2.0], [1.8, 0.2])
        assert unbalanced < balanced

    def test_hmwipc_validation(self):
        with pytest.raises(ValueError):
            hmwipc([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            hmwipc([], [])
        with pytest.raises(ValueError):
            hmwipc([1.0, 1.0], [0.0, 1.0])


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "b" in lines[2]
        assert "2.5000" in text

    def test_handles_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text
