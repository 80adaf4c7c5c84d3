"""Speculative fetch engine.

The fetch engine is where the good path and the wrong path meet:

* While on the good path it pulls instructions from the benchmark's
  :class:`~repro.workloads.generator.WorkloadGenerator`, predicts every
  control-flow instruction with the front-end predictor and, because the
  generator also supplies the architectural outcome, knows immediately
  whether the prediction was wrong (this is the oracle knowledge an
  execution-driven simulator has).
* The moment a good-path branch is mispredicted, fetch switches to the
  :class:`~repro.workloads.generator.WrongPathGenerator`; everything
  fetched from then on is wrong-path and will eventually be squashed.
* When the mispredicted branch resolves in the backend, the core calls
  :meth:`FetchEngine.recover` and fetch resumes on the good path.

The engine is also the single place where the confidence machinery is
driven.  Per fetched branch it runs the fused
:class:`~repro.branch_predictor.engine.PredictorStateEngine` hot path —
direction prediction, target prediction, the JRS confidence lookup and
the resolution-time training all operate on one shared
:class:`~repro.branch_predictor.engine.BranchRecord` carried in
``instr.conf_token`` instead of a handful of per-branch token objects.
Path confidence predictors receive the same record as their fetch-time
information and stash their per-branch state in its dedicated slots.
"""

from __future__ import annotations

from typing import Optional

from repro.branch_predictor.engine import BranchRecord, PredictorStateEngine
from repro.branch_predictor.frontend import FrontEndPredictor
from repro.confidence.jrs import JRSConfidencePredictor
from repro.isa.instruction import Instruction
from repro.isa.types import BranchKind
from repro.pathconf.base import PathConfidencePredictor
from repro.workloads.generator import (
    BranchBlock,
    WorkloadGenerator,
    WrongPathGenerator,
)


class FetchEngine:
    """Per-thread speculative fetch, path tracking and confidence hookup."""

    def __init__(self, generator: WorkloadGenerator,
                 frontend: FrontEndPredictor,
                 confidence: JRSConfidencePredictor,
                 path_confidence: PathConfidencePredictor,
                 wrongpath_seed: int = 2) -> None:
        self.generator = generator
        self.wrongpath_generator = WrongPathGenerator(generator, seed=wrongpath_seed)
        self.frontend = frontend
        self.confidence = confidence
        self.path_confidence = path_confidence
        self.state_engine = PredictorStateEngine(frontend, confidence)
        # The one-branch block the cycle model's fetch predicts through.
        self._branch_slot = BranchBlock(1)

        self.on_wrong_path = False
        self._pending_mispredict_seq: Optional[int] = None

        self.goodpath_fetched = 0
        self.badpath_fetched = 0
        self.branches_fetched = 0
        self.conditional_branches_fetched = 0

    # ------------------------------------------------------------------ #
    # fetch
    # ------------------------------------------------------------------ #

    def fetch_one(self, seq: int, cycle: int) -> Instruction:
        """Fetch the next instruction (good-path or wrong-path) and predict it."""
        if self.on_wrong_path:
            instr = self.wrongpath_generator.next_instruction(seq)
            self.badpath_fetched += 1
        else:
            instr = self.generator.next_instruction(seq)
            self.goodpath_fetched += 1
        instr.fetch_cycle = cycle
        if instr.branch_kind is not BranchKind.NOT_A_BRANCH:
            self._predict_branch(instr)
        return instr

    def _predict_branch(self, instr: Instruction) -> None:
        """Predict a fetched branch through :meth:`predict_from_block`."""
        block = self._branch_slot
        outcome = instr.outcome
        block.pc[0] = instr.pc
        block.kind[0] = instr.branch_kind
        block.taken[0] = outcome.taken
        block.target[0] = outcome.target
        block.static_branch_id[0] = instr.static_branch_id
        record = self.predict_from_block(block, 0, instr.seq,
                                         instr.on_goodpath)
        instr.mispredicted = record.mispredicted
        instr.conf_token = record

    # ------------------------------------------------------------------ #
    # record entry points (the one predict/resolve path of both backends)
    # ------------------------------------------------------------------ #

    def predict_from_block(self, block, i: int, seq: int,
                           on_goodpath: bool = True) -> BranchRecord:
        """Predict branch ``i`` of a generated branch block.

        Runs the predictor work (through
        :meth:`~repro.branch_predictor.engine.PredictorStateEngine.predict_columns`),
        the accuracy bookkeeping, the path confidence registration and the
        wrong-path switch.  The branch arrives as
        :class:`~repro.workloads.generator.BranchBlock` columns and its
        architectural outcome is stashed in the record's outcome slots for
        resolution.  Fetch counters (``goodpath_fetched`` /
        ``badpath_fetched``) stay with the caller.
        """
        self.branches_fetched += 1
        kind = block.kind[i]
        record = self.state_engine.predict_columns(
            block.pc[i], kind, block.static_branch_id[i],
            self.generator.thread_id)
        if record.is_conditional:
            mispredicted = record.taken != block.taken[i]
        else:
            mispredicted = record.target != block.target[i]
        record.mispredicted = mispredicted
        # Accuracy bookkeeping (note_prediction_outcome, inlined).
        frontend = self.frontend
        frontend.total_predictions += 1
        if record.is_conditional:
            frontend.conditional_predictions += 1
            if mispredicted:
                frontend.total_mispredictions += 1
                frontend.conditional_mispredictions += 1
            self.conditional_branches_fetched += 1
            record.path_token = self.path_confidence.on_branch_fetch(record)
        elif mispredicted:
            frontend.total_mispredictions += 1
        record.kind = kind
        record.out_taken = block.taken[i]
        record.out_target = block.target[i]
        record.on_goodpath = on_goodpath
        record.seq = seq

        if mispredicted and on_goodpath and not self.on_wrong_path:
            self.on_wrong_path = True
            self._pending_mispredict_seq = seq
        return record

    def resolve_record(self, record: BranchRecord) -> None:
        """Resolve a branch when it executes (good or wrong path).

        Good-path branches train the tables and the path confidence
        predictor; wrong-path branches leave the window without training
        (they never retire).
        """
        if record.resolved:
            return
        record.resolved = True
        train = record.on_goodpath
        self.state_engine.resolve_record(record, train)
        token = record.path_token
        if token is not None:
            if train:
                self.path_confidence.on_branch_resolve(
                    token, mispredicted=record.mispredicted
                )
            else:
                self.path_confidence.on_branch_squash(token)

    def squash_record(self, record: BranchRecord) -> None:
        """Release an unresolved branch that is flushed."""
        if record.resolved:
            return
        record.resolved = True
        if record.path_token is not None:
            self.path_confidence.on_branch_squash(record.path_token)

    # ------------------------------------------------------------------ #
    # resolution / recovery
    # ------------------------------------------------------------------ #

    def recover(self, mispredicted_instr: Instruction) -> None:
        """Resume good-path fetch after the mispredicted branch resolved."""
        if (self._pending_mispredict_seq is not None
                and mispredicted_instr.seq == self._pending_mispredict_seq):
            self.on_wrong_path = False
            self._pending_mispredict_seq = None

    # ------------------------------------------------------------------ #

    @property
    def fetching_goodpath(self) -> bool:
        """True when the next fetched instruction will be a good-path one."""
        return not self.on_wrong_path
