"""Unit tests for the fused predictor state engine.

The engine (``repro.branch_predictor.engine``) is the hot-path
reimplementation of the front-end predict/resolve flow plus the JRS
confidence lookup, operating on one shared :class:`BranchRecord` per
branch.  These tests drive its record entry points
(``predict_columns``/``resolve_record``, the one path both backends
use) against the readable reference implementation —
``FrontEndPredictor.predict``/``resolve`` with their per-step objects —
because every backend's golden results depend on the two being
behaviour-identical.
"""

import pytest

from repro.branch_predictor.engine import BranchRecord, PredictorStateEngine
from repro.branch_predictor.frontend import FrontEndPredictor
from repro.branch_predictor.tournament import TournamentPredictor
from repro.common.rng import DeterministicRng
from repro.confidence.jrs import JRSConfidencePredictor
from repro.isa.instruction import BranchOutcome, Instruction
from repro.isa.types import BranchKind, InstructionClass
from repro.pathconf.base import BranchFetchInfo
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor


def _branch(seq, pc, kind=BranchKind.CONDITIONAL, taken=True,
            target=0x400100):
    """A branch Instruction for the ``FrontEndPredictor`` reference."""
    return Instruction(
        seq=seq, pc=pc, iclass=InstructionClass.BRANCH, branch_kind=kind,
        outcome=BranchOutcome(taken=taken, target=target),
    )


def _predict(engine, pc, kind=BranchKind.CONDITIONAL, taken=True,
             target=0x400100, static_branch_id=None):
    """Predict one branch through the engine's record path, with its
    outcome stashed in the record for ``resolve_record``."""
    record = engine.predict_columns(pc, kind, static_branch_id, 0)
    record.kind = kind
    record.out_taken = taken
    record.out_target = target
    return record


def _frontend_pair(**kwargs):
    """Two identically configured frontend+JRS stacks (reference, engine)."""
    frontends = [FrontEndPredictor(**kwargs) for _ in range(2)]
    tables = [JRSConfidencePredictor(index_bits=10) for _ in range(2)]
    return frontends, tables


class TestBranchRecord:
    def test_constructs_with_branch_fetch_info_kwargs(self):
        record = BranchRecord(pc=0x400000, mdc_value=7, mdc_index=3,
                              predicted_taken=True, history=0b1010)
        assert record.pc == 0x400000
        assert record.mdc_value == 7
        assert record.mdc_index == 3
        assert record.predicted_taken is True
        assert record.history == 0b1010
        assert record.static_branch_id is None
        assert record.thread_id == 0

    def test_branch_fetch_info_is_the_record(self):
        assert BranchFetchInfo is BranchRecord

    def test_per_predictor_slots_start_empty(self):
        record = BranchRecord()
        assert record.encoded_added is None
        assert record.static_encoded is None
        assert record.pbm_encoded is None
        assert record.counted is None
        assert record.profile_bucket is None
        assert record.path_token is None
        assert not record.resolved

    def test_history_at_predict_aliases_history(self):
        record = BranchRecord(history=0b1100)
        assert record.history_at_predict == 0b1100


class TestIndexMath:
    """The engine's precomputed indices match the component index methods."""

    def test_conditional_indices_match_components(self):
        (reference, fused), (jrs_ref, jrs_fused) = _frontend_pair(
            history_bits=8, direction_index_bits=12, btb_sets=128)
        engine = PredictorStateEngine(fused, jrs_fused)
        rng = DeterministicRng(7)
        for seq in range(300):
            pc = 0x400000 + (rng.next_u64() % 512) * 4
            # Push some history so the XOR indices are non-trivial.
            history = fused.history.value
            record = _predict(engine, pc, taken=rng.bernoulli(0.6))
            tournament = fused.direction
            assert record.gshare_index == tournament.gshare._index(pc, history)
            assert record.bimodal_index == tournament.bimodal._index(pc)
            assert record.chooser_index == tournament._chooser_index(pc, history)
            assert record.mdc_index == jrs_fused._index(pc, history,
                                                        record.taken)
            assert record.mdc_value == jrs_fused.table[record.mdc_index]
            assert record.history == history
            engine.resolve_record(record, train=True)

    def test_prediction_values_match_tables(self):
        _, (jrs, _) = _frontend_pair()
        frontend = FrontEndPredictor(direction_index_bits=10)
        engine = PredictorStateEngine(frontend, jrs)
        record = _predict(engine, 0x400040)
        tournament = frontend.direction
        assert record.gshare_taken == (
            tournament.gshare.table[record.gshare_index]
            >= tournament.gshare._threshold)
        assert record.bimodal_taken == (
            tournament.bimodal.table[record.bimodal_index]
            >= tournament.bimodal._threshold)
        expected = (record.gshare_taken if record.chose_gshare
                    else record.bimodal_taken)
        assert record.taken == expected


class TestChooserParityWithTokenObjects:
    """Fused tournament training == the old token-object update path."""

    def test_chooser_and_component_tables_identical(self):
        reference = TournamentPredictor(index_bits=10, history_bits=8)
        frontend = FrontEndPredictor(history_bits=8, direction_index_bits=10)
        engine = PredictorStateEngine(frontend, None)
        fused = frontend.direction
        rng = DeterministicRng(11)
        history = 0
        for seq in range(2_000):
            pc = 0x400000 + (rng.next_u64() % 256) * 4
            taken = rng.bernoulli(0.55)
            # Reference path: the old BranchPredictionResult/_TournamentMeta
            # token objects.
            result = reference.predict(pc, history)
            reference.update(pc, history, taken, result)
            # Fused path: one BranchRecord, indices precomputed at fetch.
            frontend.history.value = history  # keep histories in lockstep
            record = _predict(engine, pc, taken=taken)
            engine.resolve_record(record, train=True)
            assert record.chose_gshare == (result.meta.chose_gshare)
            assert record.taken == result.taken
            history = ((history << 1) | (1 if taken else 0)) & 0xFF
        assert fused.chooser == reference.chooser
        assert fused.gshare.table == reference.gshare.table
        assert fused.bimodal.table == reference.bimodal.table


class TestEnginePredictorParity:
    """Engine predict/resolve == FrontEndPredictor reference + JRS update."""

    KINDS = (
        BranchKind.CONDITIONAL, BranchKind.CONDITIONAL, BranchKind.CONDITIONAL,
        BranchKind.UNCONDITIONAL, BranchKind.CALL, BranchKind.RETURN,
        BranchKind.INDIRECT, BranchKind.INDIRECT_CALL,
    )

    def _run_streams(self, train):
        (reference, fused), (jrs_ref, jrs_fused) = _frontend_pair(
            history_bits=8, direction_index_bits=11, btb_sets=64, ras_depth=8)
        engine = PredictorStateEngine(fused, jrs_fused)
        rng = DeterministicRng(23)
        pending = []  # delayed resolution: (ref instr, ref pred, ref lookup,
                      #                      fused record)
        for seq in range(1_500):
            kind = self.KINDS[rng.next_u64() % len(self.KINDS)]
            pc = 0x400000 + (rng.next_u64() % 200) * 4
            taken = rng.bernoulli(0.5) if kind is BranchKind.CONDITIONAL else True
            target = 0x410000 + (rng.next_u64() % 64) * 4
            instr_ref = _branch(seq, pc, kind, taken, target)

            pred = reference.predict(instr_ref)
            record = _predict(engine, pc, kind, taken, target)
            assert record.taken == pred.taken
            assert record.target == pred.target
            assert record.btb_hit == pred.btb_hit
            assert record.history == pred.history_at_predict
            assert record.is_conditional == (kind is BranchKind.CONDITIONAL)

            if kind is BranchKind.CONDITIONAL:
                mispredicted = pred.taken != taken
                lookup = jrs_ref.lookup(pc, pred.history_at_predict, pred.taken)
                assert record.mdc_index == lookup.index
                assert record.mdc_value == lookup.mdc_value
            else:
                mispredicted = pred.target != target
                lookup = None
            pred.mispredicted = mispredicted
            record.mispredicted = mispredicted
            pending.append((instr_ref, pred, lookup, record))

            # Resolve a few branches out of band so histories move between
            # predict and resolve, exactly as in-flight windows do.
            while len(pending) > 4:
                i_ref, p_ref, lk, rec = pending.pop(0)
                reference.resolve(i_ref, p_ref, train=train)
                if lk is not None and train:
                    jrs_ref.update(lk, was_correct=not p_ref.mispredicted)
                engine.resolve_record(rec, train=train)
        for i_ref, p_ref, lk, rec in pending:
            reference.resolve(i_ref, p_ref, train=train)
            if lk is not None and train:
                jrs_ref.update(lk, was_correct=not p_ref.mispredicted)
            engine.resolve_record(rec, train=train)
        return reference, fused, jrs_ref, jrs_fused

    def test_trained_state_identical(self):
        reference, fused, jrs_ref, jrs_fused = self._run_streams(train=True)
        assert fused.direction.gshare.table == reference.direction.gshare.table
        assert fused.direction.bimodal.table == reference.direction.bimodal.table
        assert fused.direction.chooser == reference.direction.chooser
        assert fused.history.value == reference.history.value
        assert jrs_fused.table == jrs_ref.table
        assert jrs_fused.lookups == jrs_ref.lookups
        assert jrs_fused.updates == jrs_ref.updates
        assert jrs_fused.resets == jrs_ref.resets
        assert fused.indirect._table == reference.indirect._table

    def test_untrained_resolution_repairs_history_only(self):
        reference, fused, jrs_ref, jrs_fused = self._run_streams(train=False)
        assert fused.direction.gshare.table == reference.direction.gshare.table
        assert fused.direction.chooser == reference.direction.chooser
        assert fused.history.value == reference.history.value
        assert jrs_fused.updates == jrs_ref.updates == 0


class TestResetSemantics:
    """Component resets stay visible through the engine's borrowed tables."""

    def test_direction_and_jrs_reset_in_place(self):
        frontend = FrontEndPredictor(direction_index_bits=10)
        jrs = JRSConfidencePredictor(index_bits=10)
        engine = PredictorStateEngine(frontend, jrs)
        rng = DeterministicRng(3)
        for seq in range(400):
            record = _predict(engine, 0x400000 + (rng.next_u64() % 64) * 4,
                              taken=rng.bernoulli(0.5))
            record.mispredicted = record.taken != record.out_taken
            engine.resolve_record(record, train=True)
        assert any(v != 2 for v in frontend.direction.gshare.table)
        assert any(v != 0 for v in jrs.table)
        frontend.direction.reset()
        jrs.reset()
        frontend.history.restore(0)
        # The engine's borrowed references observe the cleared state.
        record = _predict(engine, 0x400000)
        assert record.mdc_value == 0
        assert record.gshare_taken and record.bimodal_taken  # weakly taken
        assert record.chose_gshare  # chooser back at its weak-gshare init

    def test_rebind_recaptures_replaced_tables(self):
        frontend = FrontEndPredictor(direction_index_bits=8)
        jrs = JRSConfidencePredictor(index_bits=8)
        engine = PredictorStateEngine(frontend, jrs)
        # Wholesale replacement (not the supported in-place reset) needs an
        # explicit rebind.
        jrs.table = [5] * jrs.size
        engine.rebind()
        record = _predict(engine, 0x400000)
        assert record.mdc_value == 5


class TestSharedRecordTokens:
    def _info(self, mdc_value=0):
        return BranchFetchInfo(pc=0x400000, mdc_value=mdc_value, mdc_index=0,
                               predicted_taken=True, history=0)

    def test_builtin_predictors_return_the_record(self):
        info = self._info(mdc_value=2)
        paco = PaCoPredictor()
        assert paco.on_branch_fetch(info) is info
        assert info.encoded_added is not None
        count = ThresholdAndCountPredictor(threshold=3)
        assert count.on_branch_fetch(info) is info
        assert info.counted is True

    def test_composite_of_sharing_predictors_uses_record_token(self):
        composite = CompositePathConfidence(
            [PaCoPredictor(), ThresholdAndCountPredictor(threshold=3),
             StaticMRTPredictor()])
        info = self._info(mdc_value=1)
        token = composite.on_branch_fetch(info)
        assert token is info
        composite.on_branch_resolve(token, mispredicted=False)
        for predictor in composite.predictors:
            assert predictor.outstanding_branches() == 0

    def test_composite_rejects_slot_collisions(self):
        with pytest.raises(ValueError, match="record slot"):
            CompositePathConfidence([PaCoPredictor(), PaCoPredictor()])

    def test_composite_with_custom_predictor_falls_back_to_lists(self):
        class Custom(ThresholdAndCountPredictor):
            record_slots = ()
            name = "custom"

            def on_branch_fetch(self, info):
                self.fetched_branches += 1
                return {"own": "token"}

            def on_branch_resolve(self, token, mispredicted):
                assert token == {"own": "token"}

            def on_branch_squash(self, token):
                assert token == {"own": "token"}

        composite = CompositePathConfidence([PaCoPredictor(), Custom()])
        info = self._info(mdc_value=0)
        token = composite.on_branch_fetch(info)
        assert type(token) is list and token[0] is info
        composite.on_branch_resolve(token, mispredicted=False)
