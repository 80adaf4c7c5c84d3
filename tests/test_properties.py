"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.counters import HalvingRateCounter
from repro.common.logcircuit import (
    ENCODED_PROBABILITY_MAX,
    ENCODED_PROBABILITY_SCALE,
    MitchellLogCircuit,
    decode_probability,
    encode_probability_exact,
)
from repro.common.rng import DeterministicRng
from repro.common.stats import ReliabilityDiagram
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
    PhaseAwareCounterObserver,
)
from repro.pathconf.base import BranchFetchInfo
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor


def _info(mdc):
    return BranchFetchInfo(pc=0x400000, mdc_value=mdc, mdc_index=0,
                           predicted_taken=True, history=0)


class TestCounterProperties:
    @given(outcomes=st.lists(st.booleans(), min_size=1, max_size=3000))
    def test_halving_counter_rate_stays_in_unit_interval(self, outcomes):
        counter = HalvingRateCounter()
        for outcome in outcomes:
            counter.record(outcome)
            assert 0.0 <= counter.mispredict_rate <= 1.0
            assert counter.correct <= (1 << counter.correct_bits) - 1
            assert counter.mispredicted <= (1 << counter.mispredict_bits) - 1

    @given(outcomes=st.lists(st.booleans(), max_size=3000))
    def test_halving_counter_snapshot_matches_live_state(self, outcomes):
        counter = HalvingRateCounter(correct_bits=5, mispredict_bits=3)
        for outcome in outcomes:
            counter.record(outcome)
        snapshot = counter.snapshot()
        assert (snapshot.correct, snapshot.mispredicted) == (
            counter.correct, counter.mispredicted)
        assert snapshot.total == counter.total
        assert snapshot.correct_rate == counter.correct_rate
        assert snapshot.mispredict_rate == counter.mispredict_rate


class TestEncodingProperties:
    @given(probability=st.floats(min_value=0.001, max_value=1.0))
    # Just above 2**-4 the ceil lands exactly on the clamp value without
    # clamping; 2**-4 itself encodes to it exactly.
    @example(probability=0.06250540632659769)
    @example(probability=2 ** -4)
    def test_encode_decode_roundtrip_bounds(self, probability):
        encoded = encode_probability_exact(probability)
        assert 0 <= encoded <= ENCODED_PROBABILITY_MAX
        decoded = decode_probability(encoded)
        unclamped = math.ceil(-ENCODED_PROBABILITY_SCALE
                              * math.log2(probability))
        if unclamped <= ENCODED_PROBABILITY_MAX:
            # ceil() in the encoder rounds the probability down (or keeps it),
            # by at most one encoding step.
            assert encoded == unclamped
            assert decoded <= probability + 1e-9
            assert decoded >= probability * (2 ** (-1.5 / 1024))
        else:
            # Probabilities below the clamp (mispredict rate > ~93.75%) all
            # decode to the clamped value, which is an overestimate.
            assert encoded == ENCODED_PROBABILITY_MAX
            assert decoded >= probability - 1e-9

    @given(a=st.floats(min_value=0.05, max_value=1.0),
           b=st.floats(min_value=0.05, max_value=1.0))
    def test_encoding_is_monotone(self, a, b):
        if a <= b:
            assert encode_probability_exact(a) >= encode_probability_exact(b)

    @given(value=st.integers(min_value=1, max_value=1023))
    def test_mitchell_log_error_bound(self, value):
        circuit = MitchellLogCircuit(input_bits=10)
        assert abs(circuit.log2(value) - math.log2(value)) <= 0.09

    @given(correct=st.integers(min_value=0, max_value=1023),
           mispredicted=st.integers(min_value=0, max_value=63))
    def test_encode_rate_bounds(self, correct, mispredicted):
        circuit = MitchellLogCircuit(input_bits=10)
        encoded = circuit.encode_rate(correct, correct + mispredicted)
        assert 0 <= encoded <= ENCODED_PROBABILITY_MAX


class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2 ** 63),
           low=st.integers(min_value=-1000, max_value=1000),
           span=st.integers(min_value=0, max_value=500))
    def test_randint_stays_in_bounds(self, seed, low, span):
        rng = DeterministicRng(seed)
        for _ in range(20):
            value = rng.randint(low, low + span)
            assert low <= value <= low + span

    @given(seed=st.integers(min_value=0, max_value=2 ** 63))
    def test_random_unit_interval(self, seed):
        rng = DeterministicRng(seed)
        for _ in range(50):
            assert 0.0 <= rng.random() < 1.0


def _uniform(x):
    """The uniform a draw's raw 64-bit output ``x`` stands for."""
    return (x >> 11) / 9007199254740992.0


#: Raw 64-bit draw outputs.
_DRAWS = st.integers(min_value=0, max_value=(1 << 64) - 1)

#: Non-negative selection weights, not all zero.
_SELECTION_WEIGHTS = st.lists(st.floats(min_value=0.0, max_value=1e6),
                              min_size=1, max_size=8).filter(any)


class TestIntegerThresholdProperties:
    """``x < T`` on the raw draw selects exactly what the generators' float
    comparisons selected: at the boundary (``T - 1`` passes, ``T`` fails)
    and at random draws."""

    @staticmethod
    def _edges(threshold):
        return [x for x in (threshold - 1, threshold)
                if 0 <= x < (1 << 64)]

    @settings(max_examples=300)
    @given(probability=st.floats(min_value=-0.5, max_value=1.5,
                                 allow_nan=False),
           draws=st.lists(_DRAWS, max_size=20))
    def test_probability_threshold_equals_float_compare(self, probability,
                                                        draws):
        threshold = DeterministicRng.probability_threshold(probability)
        for x in self._edges(threshold) + draws:
            assert (x < threshold) == (_uniform(x) < probability)

    @settings(max_examples=300)
    @given(weights=st.lists(st.floats(min_value=1e-9, max_value=1e6,
                                      allow_nan=False),
                            min_size=1, max_size=8),
           draws=st.lists(_DRAWS, max_size=20))
    def test_cumulative_thresholds_equal_float_compare(self, weights, draws):
        cumulative, total = DeterministicRng.cumulative_weights(weights)
        thresholds = DeterministicRng.cumulative_thresholds(cumulative,
                                                            total)
        for acc, threshold in zip(cumulative, thresholds):
            for x in self._edges(threshold) + draws:
                assert (x < threshold) == (_uniform(x) * total < acc)

    @settings(max_examples=300)
    @given(weights=_SELECTION_WEIGHTS)
    @example(weights=[2.225073858507203e-309])
    def test_last_threshold_is_two_to_the_64(self, weights):
        """Every draw is below the last threshold, so
        ``items[bisect_right(thresholds, x)]`` is always in range, a
        subnormal total (whose float bound rounds lower) included."""
        cumulative, total = DeterministicRng.cumulative_weights(weights)
        thresholds = DeterministicRng.cumulative_thresholds(cumulative,
                                                            total)
        assert thresholds[-1] == 1 << 64

    @settings(max_examples=300)
    @given(weights=_SELECTION_WEIGHTS, draws=st.lists(_DRAWS, max_size=20))
    def test_bisect_picks_what_the_scan_picked(self, weights, draws):
        """The generators' ``bisect_right`` selection equals the linear
        first-threshold-above-the-draw scan it replaced, zero weights
        (repeated thresholds) and threshold edges included."""
        cumulative, total = DeterministicRng.cumulative_weights(weights)
        thresholds = DeterministicRng.cumulative_thresholds(cumulative,
                                                            total)
        edges = [x for threshold in thresholds
                 for x in self._edges(threshold)]
        for x in edges + draws:
            scanned = len(thresholds) - 1
            for j, threshold in enumerate(thresholds):
                if x < threshold:
                    scanned = j
                    break
            assert bisect_right(thresholds, x) == scanned

    @settings(max_examples=100)
    @given(weights=_SELECTION_WEIGHTS,
           seed=st.integers(min_value=1, max_value=2 ** 63))
    def test_threshold_choice_matches_cumulative_choice(self, weights, seed):
        """The block generator's integer selection loop picks the item
        ``cumulative_choice`` picks from the same stream state."""
        cumulative, total = DeterministicRng.cumulative_weights(weights)
        thresholds = DeterministicRng.cumulative_thresholds(cumulative,
                                                            total)
        items = list(range(len(weights)))
        reference = DeterministicRng(seed)
        raw = DeterministicRng(seed)
        for _ in range(30):
            expected = reference.cumulative_choice(items, cumulative, total)
            x = raw.next_u64()
            assert items[bisect_right(thresholds, x)] == expected


class TestReliabilityDiagramProperties:
    @given(samples=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.booleans()),
        max_size=500,
    ))
    def test_counts_and_rms_bounds(self, samples):
        diagram = ReliabilityDiagram(num_bins=20)
        for predicted, on_goodpath in samples:
            diagram.record(predicted, on_goodpath)
        assert diagram.total_instances == len(samples)
        assert diagram.total_goodpath == sum(1 for _, g in samples if g)
        assert 0.0 <= diagram.rms_error() <= 1.0
        assert sum(count for _, count in diagram.histogram()) == len(samples)

    @given(predicted=st.floats(min_value=-0.5, max_value=1.5),
           runs=st.lists(st.tuples(st.booleans(),
                                   st.integers(min_value=1, max_value=500)),
                         max_size=40))
    def test_record_folded_equals_record_sequence(self, predicted, runs):
        """The folded batch update is bit-identical to one weighted
        ``record`` per run, including the ordered ``predicted_sum``."""
        folded = ReliabilityDiagram(num_bins=50)
        folded.record_folded(predicted, [w for _, w in runs],
                             sum(w for _, w in runs),
                             sum(w for g, w in runs if g))
        reference = ReliabilityDiagram(num_bins=50)
        for on_goodpath, weight in runs:
            reference.record(predicted, on_goodpath, weight=weight)
        assert ([(b.instances, b.goodpath_instances, b.predicted_sum)
                 for b in folded.bins]
                == [(b.instances, b.goodpath_instances, b.predicted_sum)
                    for b in reference.bins])
        assert folded.total_instances == reference.total_instances
        assert folded.total_goodpath == reference.total_goodpath

    @given(first=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                    st.booleans()), max_size=100),
           second=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                     st.booleans()), max_size=100))
    def test_merge_equals_one_diagram_over_both_streams(self, first, second):
        mine = ReliabilityDiagram(num_bins=20)
        theirs = ReliabilityDiagram(num_bins=20)
        both = ReliabilityDiagram(num_bins=20)
        for predicted, on_goodpath in first:
            mine.record(predicted, on_goodpath)
            both.record(predicted, on_goodpath)
        for predicted, on_goodpath in second:
            theirs.record(predicted, on_goodpath)
            both.record(predicted, on_goodpath)
        mine.merge(theirs)
        assert mine.total_instances == both.total_instances
        assert mine.total_goodpath == both.total_goodpath
        for merged, direct in zip(mine.bins, both.bins):
            assert merged.instances == direct.instances
            assert merged.goodpath_instances == direct.goodpath_instances
            assert merged.predicted_sum == pytest.approx(direct.predicted_sum)


class TestPathConfidenceInvariants:
    @settings(max_examples=50, deadline=None)
    @given(events=st.lists(
        st.tuples(st.integers(min_value=0, max_value=15),   # mdc value
                  st.sampled_from(["resolve", "squash"]),    # how it leaves
                  st.booleans()),                            # mispredicted?
        max_size=200,
    ))
    def test_paco_register_returns_to_zero_when_window_drains(self, events):
        paco = PaCoPredictor()
        tokens = []
        for mdc, leave_kind, mispredicted in events:
            tokens.append((paco.on_branch_fetch(_info(mdc)), leave_kind,
                           mispredicted))
            assert paco.path_confidence_register >= 0
            assert 0.0 <= paco.goodpath_probability() <= 1.0
        for token, leave_kind, mispredicted in tokens:
            if leave_kind == "resolve":
                paco.on_branch_resolve(token, mispredicted=mispredicted)
            else:
                paco.on_branch_squash(token)
        assert paco.path_confidence_register == 0
        assert paco.outstanding_branches() == 0

    @settings(max_examples=50, deadline=None)
    @given(mdcs=st.lists(st.integers(min_value=0, max_value=15), max_size=100),
           threshold=st.integers(min_value=0, max_value=16))
    def test_count_predictor_counter_matches_definition(self, mdcs, threshold):
        predictor = ThresholdAndCountPredictor(threshold=threshold)
        tokens = [predictor.on_branch_fetch(_info(mdc)) for mdc in mdcs]
        expected = sum(1 for mdc in mdcs if mdc < threshold)
        assert predictor.low_confidence_count == expected
        for token in tokens:
            predictor.on_branch_resolve(token, mispredicted=False)
        assert predictor.low_confidence_count == 0

    @settings(max_examples=30, deadline=None)
    @given(mdcs=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                         max_size=40))
    def test_paco_probability_equals_product_of_bucket_probabilities(self, mdcs):
        paco = PaCoPredictor()
        expected = 1.0
        for mdc in mdcs:
            encoded = paco.mrt.encoded_probability(mdc)
            expected *= decode_probability(encoded)
            paco.on_branch_fetch(_info(mdc))
        assert paco.goodpath_probability() == pytest.approx(expected,
                                                            rel=1e-9)


class _Phase:
    """The generator attribute a phase-aware observer reads."""

    def __init__(self):
        self.current_phase_label = None


def _multi_setup():
    predictors = [PaCoPredictor(), StaticMRTPredictor()]
    observer = MultiPredictorObserver(predictors)

    def state(observer):
        return {name: ([(b.instances, b.goodpath_instances, b.predicted_sum)
                        for b in diagram.bins],
                       diagram.total_instances, diagram.total_goodpath)
                for name, diagram in observer.diagrams.items()}
    return observer, predictors, None, state


def _counter_setup():
    predictor = ThresholdAndCountPredictor(threshold=8)
    observer = CounterGoodpathObserver(predictor, max_count=5)
    return (observer, [predictor], None,
            lambda o: (list(o.instances), list(o.goodpath_instances)))


def _phase_setup():
    predictor = ThresholdAndCountPredictor(threshold=8)
    phase = _Phase()
    observer = PhaseAwareCounterObserver(predictor, phase, max_count=5)
    return (observer, [predictor], phase,
            lambda o: ({k: list(v) for k, v in o._instances.items()},
                       {k: list(v) for k, v in o._goodpath.items()}))


#: One run event plus what happens just before it: ``False`` continues
#: the batch, ``None`` cuts it, an MDC value cuts it and fetches a branch
#: with that MDC (a predictor state change, and a phase roll).
_EVENT = st.tuples(st.sampled_from(["fetch", "execute"]), st.booleans(),
                   st.integers(min_value=0, max_value=10 ** 6),
                   st.integers(min_value=1, max_value=200),
                   st.one_of(st.just(False), st.none(),
                             st.integers(min_value=0, max_value=15)))


class TestObserverBatchingProperties:
    """Any cut of an event stream into ``record_runs`` batches leaves an
    observer exactly as one-event delivery does: every integer and every
    ``predicted_sum`` float bit-identical.  Predictor state (and the phase
    label) changes only between batches, as it does in the trace replay;
    the one-event reference makes the same change at the same point."""

    @pytest.mark.parametrize("setup", [_multi_setup, _counter_setup,
                                       _phase_setup],
                             ids=["multi", "counter", "phase-aware"])
    @settings(max_examples=80, deadline=None)
    @given(start=st.lists(st.integers(min_value=0, max_value=15),
                          max_size=3),
           events=st.lists(_EVENT, min_size=1, max_size=60))
    def test_any_batching_equals_one_event_delivery(self, setup, start,
                                                    events):
        def drive(batched):
            observer, predictors, phase, state = setup()
            buffer = []       # reused across batches, like the replay's

            def change(mdc):
                for predictor in predictors:
                    predictor.on_branch_fetch(_info(mdc))
                if phase is not None:
                    phase.current_phase_label = f"p{mdc % 3}"

            def deliver():
                if buffer:
                    observer.record_runs(buffer)
                    del buffer[:]
            for mdc in start:
                change(mdc)
            for *event, before in events:
                if before is not False:
                    deliver()
                    if before is not None:
                        change(before)
                buffer.extend(event)
                if not batched:
                    deliver()
            deliver()
            return state(observer)

        assert drive(batched=True) == drive(batched=False)
