"""Unit tests for the gating policies."""

import pytest

from repro.pathconf.base import BranchFetchInfo
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.gating import CountGating, NoGating, PaCoGating


def _info(mdc_value):
    return BranchFetchInfo(pc=0x400000, mdc_value=mdc_value, mdc_index=0,
                           predicted_taken=True, history=0)


class TestNoGating:
    def test_never_gates(self):
        assert not NoGating().should_gate()


class TestCountGating:
    def test_gates_at_gate_count(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        policy = CountGating(predictor, gate_count=2)
        assert not policy.should_gate()
        predictor.on_branch_fetch(_info(0))
        assert not policy.should_gate()
        predictor.on_branch_fetch(_info(0))
        assert policy.should_gate()

    def test_high_confidence_branches_do_not_trigger(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        policy = CountGating(predictor, gate_count=1)
        predictor.on_branch_fetch(_info(10))
        assert not policy.should_gate()

    def test_name_mentions_threshold_and_count(self):
        predictor = ThresholdAndCountPredictor(threshold=7)
        policy = CountGating(predictor, gate_count=4)
        assert "7" in policy.name and "4" in policy.name

    def test_rejects_nonpositive_gate_count(self):
        with pytest.raises(ValueError):
            CountGating(ThresholdAndCountPredictor(), gate_count=0)


class TestPaCoGating:
    def test_gates_when_probability_below_target(self):
        paco = PaCoPredictor()
        policy = PaCoGating(paco, target_goodpath_probability=0.5)
        assert not policy.should_gate()
        while paco.goodpath_probability() >= 0.5:
            paco.on_branch_fetch(_info(0))
        assert policy.should_gate()

    def test_threshold_is_precomputed_in_encoded_space(self):
        paco = PaCoPredictor()
        policy = PaCoGating(paco, target_goodpath_probability=0.10)
        assert policy.encoded_threshold == paco.encoded_threshold(0.10)

    def test_resolution_ungates(self):
        paco = PaCoPredictor()
        policy = PaCoGating(paco, target_goodpath_probability=0.5)
        tokens = [paco.on_branch_fetch(_info(0)) for _ in range(10)]
        assert policy.should_gate()
        for token in tokens:
            paco.on_branch_resolve(token, mispredicted=False)
        assert not policy.should_gate()

    def test_rejects_degenerate_targets(self):
        with pytest.raises(ValueError):
            PaCoGating(PaCoPredictor(), target_goodpath_probability=0.0)
        with pytest.raises(ValueError):
            PaCoGating(PaCoPredictor(), target_goodpath_probability=1.0)

