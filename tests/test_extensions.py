"""Tests for the selective-throttling extension."""

import pytest

from repro.pathconf.base import BranchFetchInfo
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.throttling import (
    CountThrottling,
    NoThrottling,
    PaCoThrottling,
    ThrottledGatingAdapter,
)


def _info(mdc_value):
    return BranchFetchInfo(pc=0x400000, mdc_value=mdc_value, mdc_index=0,
                           predicted_taken=True, history=0)


class TestThrottlingPolicies:
    def test_no_throttling_allows_full_width(self):
        assert NoThrottling().allowed_width(4) == 4

    def test_count_throttling_steps_down_with_count(self):
        predictor = ThresholdAndCountPredictor(threshold=3)
        policy = CountThrottling(predictor)
        assert policy.allowed_width(4) == 4
        predictor.on_branch_fetch(_info(0))
        predictor.on_branch_fetch(_info(0))
        assert policy.allowed_width(4) == 2
        predictor.on_branch_fetch(_info(0))
        predictor.on_branch_fetch(_info(0))
        assert policy.allowed_width(4) == 1
        predictor.on_branch_fetch(_info(0))
        predictor.on_branch_fetch(_info(0))
        assert policy.allowed_width(4) == 0

    def test_count_throttling_validates_steps(self):
        with pytest.raises(ValueError):
            CountThrottling(ThresholdAndCountPredictor(), steps=((2, 1.5),))

    def test_paco_throttling_steps_down_with_probability(self):
        paco = PaCoPredictor()
        policy = PaCoThrottling(paco)
        assert policy.allowed_width(8) == 8
        widths = []
        for _ in range(16):
            paco.on_branch_fetch(_info(0))
            widths.append(policy.allowed_width(8))
        # Width must be non-increasing as confidence falls, and reach zero.
        assert all(a >= b for a, b in zip(widths, widths[1:]))
        assert widths[-1] == 0

    def test_paco_throttling_validates_steps(self):
        with pytest.raises(ValueError):
            PaCoThrottling(PaCoPredictor(), steps=((1.5, 0.5),))

    def test_adapter_gates_only_at_zero_width(self):
        paco = PaCoPredictor()
        adapter = ThrottledGatingAdapter(PaCoThrottling(paco), full_width=4)
        assert not adapter.should_gate()
        while adapter.allowed_width() > 0:
            paco.on_branch_fetch(_info(0))
        assert adapter.should_gate()

    def test_adapter_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ThrottledGatingAdapter(NoThrottling(), full_width=0)

    def test_adapter_works_in_core(self, tiny_spec, small_machine):
        from repro.eval.harness import build_single_core
        paco = PaCoPredictor(relog_period_cycles=5_000)
        adapter = ThrottledGatingAdapter(PaCoThrottling(paco),
                                         full_width=small_machine.width)
        core, _, _ = build_single_core(tiny_spec, paco, config=small_machine,
                                       gating_policy=adapter)
        stats = core.run(max_instructions=3_000)
        assert stats.retired_instructions >= 3_000
