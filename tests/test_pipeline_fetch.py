"""Unit tests for the speculative fetch engine."""

import pytest

from repro.branch_predictor.frontend import FrontEndPredictor
from repro.common.rng import DeterministicRng
from repro.confidence.jrs import JRSConfidencePredictor
from repro.isa.instruction import BranchOutcome, Instruction
from repro.isa.types import BranchKind, InstructionClass
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.fetch import FetchEngine
from repro.workloads.generator import BranchBlock, WorkloadGenerator


def _engine(spec, path_confidence=None, seed=1):
    generator = WorkloadGenerator(spec, seed=seed)
    frontend = FrontEndPredictor(history_bits=8, direction_index_bits=12,
                                 btb_sets=128)
    confidence = JRSConfidencePredictor(index_bits=10)
    predictor = path_confidence if path_confidence is not None else PaCoPredictor()
    return FetchEngine(generator=generator, frontend=frontend,
                       confidence=confidence, path_confidence=predictor), predictor


def _fetch_until_mispredict(engine, limit=50_000):
    """Fetch until a good-path mispredict flips the engine onto the wrong path."""
    seq = 0
    while not engine.on_wrong_path and seq < limit:
        instr = engine.fetch_one(seq, cycle=seq)
        seq += 1
        if instr.is_branch and instr.mispredicted and instr.on_goodpath:
            return instr, seq
    raise AssertionError("no mispredicted good-path branch found")


class TestFetchEngine:
    def test_starts_on_goodpath(self, tiny_spec):
        engine, _ = _engine(tiny_spec)
        assert engine.fetching_goodpath
        instr = engine.fetch_one(0, cycle=0)
        assert instr.on_goodpath

    def test_goodpath_mispredict_switches_to_wrongpath(self, tiny_spec):
        engine, _ = _engine(tiny_spec)
        mispredicted, seq = _fetch_until_mispredict(engine)
        assert engine.on_wrong_path
        follower = engine.fetch_one(seq, cycle=seq)
        assert not follower.on_goodpath

    def test_recover_resumes_goodpath(self, tiny_spec):
        engine, _ = _engine(tiny_spec)
        mispredicted, seq = _fetch_until_mispredict(engine)
        # Fetch a few wrong-path instructions, then resolve and recover.
        for offset in range(5):
            engine.fetch_one(seq + offset, cycle=seq + offset)
        engine.resolve_record(mispredicted.conf_token)
        engine.recover(mispredicted)
        assert engine.fetching_goodpath
        resumed = engine.fetch_one(seq + 10, cycle=seq + 10)
        assert resumed.on_goodpath

    def test_recover_ignores_other_branches(self, tiny_spec):
        engine, _ = _engine(tiny_spec)
        mispredicted, seq = _fetch_until_mispredict(engine)
        other = engine.fetch_one(seq, cycle=seq)
        engine.recover(other)           # not the pending mispredict
        assert engine.on_wrong_path
        engine.recover(mispredicted)
        assert not engine.on_wrong_path

    def test_conditional_branches_register_with_path_confidence(self, tiny_spec):
        engine, paco = _engine(tiny_spec)
        fetched_conditionals = 0
        for seq in range(400):
            instr = engine.fetch_one(seq, cycle=seq)
            if instr.branch_kind is BranchKind.CONDITIONAL:
                fetched_conditionals += 1
        assert fetched_conditionals > 0
        assert paco.fetched_branches == fetched_conditionals
        assert paco.outstanding_branches() == fetched_conditionals

    def test_resolution_clears_outstanding_branches(self, tiny_spec):
        engine, paco = _engine(tiny_spec)
        branches = []
        for seq in range(300):
            instr = engine.fetch_one(seq, cycle=seq)
            if instr.branch_kind is BranchKind.CONDITIONAL:
                branches.append(instr)
        for branch in branches:
            engine.resolve_record(branch.conf_token)
        assert paco.outstanding_branches() == 0

    def test_squash_clears_outstanding_branches(self, tiny_spec):
        engine, paco = _engine(tiny_spec)
        branches = []
        for seq in range(300):
            instr = engine.fetch_one(seq, cycle=seq)
            if instr.branch_kind is BranchKind.CONDITIONAL:
                branches.append(instr)
        for branch in branches:
            engine.squash_record(branch.conf_token)
        assert paco.outstanding_branches() == 0

    def test_double_resolution_is_safe(self, tiny_spec):
        engine, paco = _engine(tiny_spec)
        branch = None
        for seq in range(300):
            instr = engine.fetch_one(seq, cycle=seq)
            if instr.branch_kind is BranchKind.CONDITIONAL:
                branch = instr
                break
        engine.resolve_record(branch.conf_token)
        engine.resolve_record(branch.conf_token)
        engine.squash_record(branch.conf_token)
        assert paco.outstanding_branches() == 0

    def test_non_branch_instructions_have_no_tokens(self, tiny_spec):
        engine, _ = _engine(tiny_spec)
        for seq in range(100):
            instr = engine.fetch_one(seq, cycle=seq)
            if not instr.is_branch:
                assert instr.conf_token is None

    def test_wrongpath_branches_do_not_train_confidence(self, tiny_spec):
        engine, _ = _engine(tiny_spec, path_confidence=ThresholdAndCountPredictor())
        mispredicted, seq = _fetch_until_mispredict(engine)
        jrs_updates_before = engine.confidence.updates
        wrong_branches = []
        offset = 0
        while len(wrong_branches) < 3 and offset < 2000:
            instr = engine.fetch_one(seq + offset, cycle=seq + offset)
            if instr.branch_kind is BranchKind.CONDITIONAL:
                wrong_branches.append(instr)
            offset += 1
        for branch in wrong_branches:
            engine.resolve_record(branch.conf_token)
        assert engine.confidence.updates == jrs_updates_before

    def test_statistics_split_by_path(self, tiny_spec):
        engine, _ = _engine(tiny_spec)
        _fetch_until_mispredict(engine)
        seq = engine.goodpath_fetched + engine.badpath_fetched
        for offset in range(10):
            engine.fetch_one(seq + offset, cycle=seq + offset)
        assert engine.badpath_fetched >= 10
        assert engine.goodpath_fetched > 0


def _fetch_state(engine):
    """Tables, registers and counters a predicted/resolved branch moves."""
    state = engine.state_engine
    frontend = engine.frontend
    paco = engine.path_confidence
    return {
        "gshare": list(state._gshare_table),
        "bimodal": list(state._bimodal_table),
        "chooser": list(state._chooser),
        "jrs": list(state._jrs_table),
        "history": state._history.value,
        "counters": (engine.branches_fetched,
                     engine.conditional_branches_fetched,
                     frontend.total_predictions,
                     frontend.conditional_predictions,
                     frontend.total_mispredictions,
                     frontend.conditional_mispredictions,
                     engine.confidence.lookups, engine.confidence.updates),
        "paco": (paco.path_confidence_register, paco._outstanding,
                 paco.fetched_branches, paco.resolved_branches,
                 paco.squashed_branches),
        "path": (engine.on_wrong_path, engine._pending_mispredict_seq),
    }


class TestOneSlotAdapter:
    """The cycle model's ``_predict_branch`` adapter is the block path.

    It copies an Instruction into a one-slot ``BranchBlock`` and calls
    ``predict_from_block``; driving a second engine straight through a
    wide block with the same branches must give the same records and
    leave every table, register and counter in the same place.
    """

    KINDS = (BranchKind.CONDITIONAL, BranchKind.CONDITIONAL,
             BranchKind.CONDITIONAL, BranchKind.UNCONDITIONAL,
             BranchKind.CALL, BranchKind.RETURN, BranchKind.INDIRECT,
             BranchKind.INDIRECT_CALL)

    @pytest.mark.parametrize("goodpath_share", [1.0, 0.7],
                             ids=["goodpath", "mixed-path"])
    def test_adapter_matches_wide_block_path(self, tiny_spec,
                                             goodpath_share):
        adapter, _ = _engine(tiny_spec)
        direct, _ = _engine(tiny_spec)
        block = BranchBlock(16)
        rng = DeterministicRng(41)
        pending = []
        for seq in range(2_000):
            kind = self.KINDS[rng.next_u64() % len(self.KINDS)]
            conditional = kind is BranchKind.CONDITIONAL
            pc = 0x400000 + (rng.next_u64() % 200) * 4
            taken = rng.bernoulli(0.5) if conditional else True
            target = 0x410000 + (rng.next_u64() % 64) * 4
            sid = seq % 32 if conditional else None
            on_goodpath = rng.bernoulli(goodpath_share)
            instr = Instruction(
                seq=seq, pc=pc, iclass=InstructionClass.BRANCH,
                branch_kind=kind,
                outcome=BranchOutcome(taken=taken, target=target),
                on_goodpath=on_goodpath, static_branch_id=sid)
            adapter._predict_branch(instr)

            slot = seq % block.capacity
            block.pc[slot] = pc
            block.kind[slot] = kind
            block.taken[slot] = taken
            block.target[slot] = target
            block.static_branch_id[slot] = sid
            record = direct.predict_from_block(block, slot, seq, on_goodpath)

            token = instr.conf_token
            assert instr.mispredicted == record.mispredicted
            for field in ("pc", "taken", "target", "btb_hit", "history",
                          "mdc_index", "mdc_value", "is_conditional",
                          "static_branch_id", "kind", "out_taken",
                          "out_target", "on_goodpath", "seq"):
                assert getattr(token, field) == getattr(record, field), field
            assert (token.path_token is None) == (record.path_token is None)
            pending.append((instr, record))

            # Resolve out of band so histories move between predict and
            # resolve, and recover so the wrong-path switch re-arms.
            while len(pending) > 6:
                old, old_record = pending.pop(0)
                if old.seq % 5 == 0:
                    adapter.squash_record(old.conf_token)
                    direct.squash_record(old_record)
                else:
                    adapter.resolve_record(old.conf_token)
                    direct.resolve_record(old_record)
                adapter.recover(old)
                direct.recover(old)
        for old, old_record in pending:
            adapter.resolve_record(old.conf_token)
            direct.resolve_record(old_record)

        assert adapter.frontend.total_mispredictions > 0
        assert _fetch_state(adapter) == _fetch_state(direct)

    def test_adapter_reuses_its_slot(self, tiny_spec):
        """Every fetched branch goes through the engine's one slot, and its
        record carries that branch's own outcome, not the slot's."""
        engine, _ = _engine(tiny_spec)
        slot = engine._branch_slot
        branches = []
        for seq in range(400):
            instr = engine.fetch_one(seq, cycle=seq)
            if instr.is_branch:
                branches.append(instr)
        assert len(branches) > 10
        assert engine._branch_slot is slot
        assert slot.capacity == 1
        for instr in branches:
            record = instr.conf_token
            assert record.seq == instr.seq
            assert record.kind is instr.branch_kind
            assert record.out_taken == instr.outcome.taken
            assert record.out_target == instr.outcome.target
            assert record.on_goodpath == instr.on_goodpath
