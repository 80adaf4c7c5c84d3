"""The fused predictor state engine — the per-branch hot path.

Every fetched branch used to drag five or six heap objects through the
machine: a :class:`~repro.branch_predictor.base.BranchPredictionResult`
wrapping a ``_TournamentMeta``, a ``FrontEndPrediction``, a JRS
``ConfidenceLookup``, a ``BranchFetchInfo`` for the path confidence
predictors, one token object *per* attached path confidence predictor and
a ``_BranchBookkeeping`` envelope tying them together.  Both simulation
backends execute this machinery once per branch, so the allocations and
the method-call indirection dominated the trace backend's wall clock and
a good share of the cycle backend's.

This module fuses all of that into one structure:

* :class:`BranchRecord` — a single ``__slots__`` record carrying the
  direction prediction, the precomputed table indices of every structure
  consulted at fetch (gshare, bimodal, chooser, JRS), the fetch-time
  confidence information the path confidence predictors consume, and a
  dedicated state slot per built-in path confidence predictor.  One
  record is allocated per fetched branch; everything else writes into it.
* :class:`PredictorStateEngine` — straight-line predict/resolve code
  operating on the *flat table storage* (plain contiguous lists of small
  ints) borrowed from the tournament predictor and the JRS table, with
  all masks and thresholds hoisted into locals.  Its two entry points,
  :meth:`~PredictorStateEngine.predict_columns` and
  :meth:`~PredictorStateEngine.resolve_record`, take the branch as plain
  columns and read its outcome from the record, so the cycle model and
  the trace replay share one predict/resolve path (the fetch engine
  adapts the cycle model's Instructions to it).

:class:`~repro.branch_predictor.frontend.FrontEndPredictor` keeps its
object-per-step ``predict``/``resolve`` as the readable reference
implementation; the engine is required to be *behaviour-identical* to it
(``tests/test_predictor_engine.py`` pins the two together over random
branch streams), which is what keeps the cycle backend's golden results
byte-identical across this refactor.
"""

from __future__ import annotations

from typing import Optional

from repro.branch_predictor.frontend import FrontEndPredictor
from repro.confidence.jrs import JRSConfidencePredictor
from repro.isa.types import BranchKind


class BranchRecord:
    """The fused per-branch record shared by the whole predictor stack.

    One :class:`BranchRecord` is allocated per fetched branch and carries
    four groups of state:

    * the *fetch-time confidence information* path confidence predictors
      receive (``pc``, ``mdc_value``, ``mdc_index``, ``predicted_taken``,
      ``history``, ``static_branch_id``, ``thread_id``) — this class **is**
      the ``BranchFetchInfo`` of :mod:`repro.pathconf.base`;
    * the front-end prediction (``taken``, ``target``, ``btb_hit``,
      ``mispredicted``);
    * the precomputed table indices and component outcomes needed to train
      exactly the entries consulted at prediction time (``gshare_index``,
      ``bimodal_index``, ``chooser_index``, ...);
    * one state slot per built-in path confidence predictor
      (``encoded_added`` for PaCo, ``static_encoded`` for Static-MRT,
      ``table_index``/``pbm_encoded`` for the per-branch MRT,
      ``counted`` for threshold-and-count, ``profile_bucket`` for the MDC
      profiler) plus the opaque ``path_token`` returned by whatever path
      confidence predictor is attached.

    Because the per-predictor slots live on the shared record, at most one
    instance of each built-in predictor class can observe a given fetch
    stream (the composite enforces this); that mirrors the hardware, where
    each confidence structure exists once.
    """

    __slots__ = (
        # fetch-time confidence information (the BranchFetchInfo surface)
        "pc",
        "mdc_value",
        "mdc_index",
        "predicted_taken",
        "history",
        "static_branch_id",
        "thread_id",
        # front-end prediction
        "taken",
        "target",
        "btb_hit",
        "mispredicted",
        # precomputed table indices / component outcomes for update time
        "gshare_taken",
        "gshare_index",
        "bimodal_taken",
        "bimodal_index",
        "chooser_index",
        "chose_gshare",
        # per-predictor path confidence state (None = not attached/removed)
        "encoded_added",
        "static_encoded",
        "table_index",
        "pbm_encoded",
        "counted",
        "profile_bucket",
        "path_token",
        # in-flight bookkeeping
        "resolved",
        "is_conditional",
        # the architectural outcome and path, read at resolve time.  Set
        # by FetchEngine.predict_from_block, never by __init__.
        "kind",
        "out_taken",
        "out_target",
        "on_goodpath",
        "seq",
    )

    def __init__(self, pc: int = 0, mdc_value: int = 0, mdc_index: int = 0,
                 predicted_taken: bool = False, history: int = 0,
                 static_branch_id: Optional[int] = None,
                 thread_id: int = 0) -> None:
        self.pc = pc
        self.mdc_value = mdc_value
        self.mdc_index = mdc_index
        self.predicted_taken = predicted_taken
        self.history = history
        self.static_branch_id = static_branch_id
        self.thread_id = thread_id

        self.taken = predicted_taken
        self.target: Optional[int] = None
        self.btb_hit = False
        self.mispredicted = False

        self.gshare_taken = False
        self.gshare_index = 0
        self.bimodal_taken = False
        self.bimodal_index = 0
        self.chooser_index = 0
        self.chose_gshare = False

        self.encoded_added: Optional[int] = None
        self.static_encoded: Optional[int] = None
        self.table_index = 0
        self.pbm_encoded: Optional[int] = None
        self.counted: Optional[bool] = None
        self.profile_bucket: Optional[int] = None
        self.path_token: object = None

        self.resolved = False
        self.is_conditional = True

    @property
    def history_at_predict(self) -> int:
        """Alias matching ``FrontEndPrediction`` (the reference object)."""
        return self.history

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"<BranchRecord pc={self.pc:#x} taken={self.taken} "
                f"mdc={self.mdc_value} resolved={self.resolved}>")


class PredictorStateEngine:
    """Fused predict/resolve over the flat predictor and confidence tables.

    The engine borrows the *storage* of an existing
    :class:`~repro.branch_predictor.frontend.FrontEndPredictor` and
    :class:`~repro.confidence.jrs.JRSConfidencePredictor` — the component
    objects remain the owners (their statistics counters and ``reset``
    methods keep working, and direct unit tests keep exercising them) while
    the engine performs the per-branch work with precomputed indices on the
    shared flat lists.  Component ``reset`` implementations clear their
    tables *in place* so the borrowed references stay valid; call
    :meth:`rebind` if a table object is ever replaced wholesale.
    """

    __slots__ = (
        "frontend", "confidence",
        "_history",
        "_btb", "_ras", "_indirect",
        # tournament flat state
        "_gshare_table", "_gshare_mask", "_gshare_hist_mask",
        "_gshare_max", "_gshare_threshold",
        "_bimodal_table", "_bimodal_mask", "_bimodal_max",
        "_bimodal_threshold",
        "_chooser", "_chooser_mask", "_chooser_hist_mask",
        # JRS flat state
        "_jrs_table", "_jrs_mask", "_jrs_hist_mask", "_jrs_enhanced_shift",
        "_jrs_max",
    )

    def __init__(self, frontend: FrontEndPredictor,
                 confidence: Optional[JRSConfidencePredictor] = None) -> None:
        self.frontend = frontend
        self.confidence = confidence
        self.rebind()

    def rebind(self) -> None:
        """(Re)capture table references, masks and thresholds."""
        frontend = self.frontend
        self._history = frontend.history
        self._btb = frontend.btb
        self._ras = frontend.ras
        self._indirect = frontend.indirect

        tournament = frontend.direction
        gshare = tournament.gshare
        self._gshare_table = gshare.table
        self._gshare_mask = gshare._mask
        self._gshare_hist_mask = gshare._history_mask
        self._gshare_max = gshare._max
        self._gshare_threshold = gshare._threshold
        bimodal = tournament.bimodal
        self._bimodal_table = bimodal.table
        self._bimodal_mask = bimodal._mask
        self._bimodal_max = bimodal._max
        self._bimodal_threshold = bimodal._threshold
        self._chooser = tournament.chooser
        self._chooser_mask = tournament._chooser_mask
        self._chooser_hist_mask = tournament._history_mask

        confidence = self.confidence
        if confidence is not None:
            self._jrs_table = confidence.table
            self._jrs_mask = confidence._mask
            self._jrs_hist_mask = confidence._history_mask
            self._jrs_enhanced_shift = (confidence.index_bits - 1
                                        if confidence.enhanced else -1)
            self._jrs_max = confidence.mdc_max
        else:
            self._jrs_table = None
            self._jrs_mask = 0
            self._jrs_hist_mask = 0
            self._jrs_enhanced_shift = -1
            self._jrs_max = 0

    # ------------------------------------------------------------------ #
    # fetch-time: predict + confidence lookup
    # ------------------------------------------------------------------ #

    def predict_columns(self, pc: int, kind: BranchKind,
                        static_branch_id: Optional[int],
                        thread_id: int) -> BranchRecord:
        """Predict one branch given as plain columns.

        Behaviour-identical to
        :meth:`FrontEndPredictor.predict <repro.branch_predictor.frontend.FrontEndPredictor.predict>`
        — same table reads, same speculative history/RAS updates, same BTB
        LRU touches — plus, for conditional branches, the JRS confidence
        lookup.
        """
        history = self._history
        history_now = history.value

        if kind is BranchKind.CONDITIONAL:
            pc_bits = pc >> 2
            gshare_index = ((pc_bits ^ (history_now & self._gshare_hist_mask))
                            & self._gshare_mask)
            gshare_taken = (self._gshare_table[gshare_index]
                            >= self._gshare_threshold)
            bimodal_index = pc_bits & self._bimodal_mask
            bimodal_taken = (self._bimodal_table[bimodal_index]
                             >= self._bimodal_threshold)
            chooser_index = ((pc_bits ^ (history_now & self._chooser_hist_mask))
                             & self._chooser_mask)
            chose_gshare = self._chooser[chooser_index] >= 2
            taken = gshare_taken if chose_gshare else bimodal_taken

            btb_target = self._btb.predict_target(pc)

            record = BranchRecord(pc, 0, 0, taken, history_now,
                                  static_branch_id, thread_id)
            record.target = btb_target if taken else None
            record.btb_hit = btb_target is not None
            record.gshare_taken = gshare_taken
            record.gshare_index = gshare_index
            record.bimodal_taken = bimodal_taken
            record.bimodal_index = bimodal_index
            record.chooser_index = chooser_index
            record.chose_gshare = chose_gshare

            jrs_table = self._jrs_table
            if jrs_table is not None:
                index = ((pc_bits ^ (history_now & self._jrs_hist_mask))
                         & self._jrs_mask)
                shift = self._jrs_enhanced_shift
                if shift >= 0 and taken:
                    index = (index ^ (1 << shift)) & self._jrs_mask
                confidence = self.confidence
                confidence.lookups += 1
                record.mdc_index = index
                record.mdc_value = jrs_table[index]

            # Speculative global-history update with the predicted direction.
            history.value = (((history_now << 1) | (1 if taken else 0))
                             & history.mask)
            return record

        record = BranchRecord(pc, 0, 0, True, history_now,
                              static_branch_id, thread_id)
        record.is_conditional = False
        if kind in (BranchKind.UNCONDITIONAL, BranchKind.CALL):
            target = self._btb.predict_target(pc)
            if kind is BranchKind.CALL:
                self._ras.push(pc + 4)
        elif kind is BranchKind.RETURN:
            target = self._ras.pop()
        else:  # indirect jump / indirect call
            target = self._indirect.predict_target(pc, history_now)
            if target is None:
                target = self._btb.predict_target(pc)
            if kind is BranchKind.INDIRECT_CALL:
                self._ras.push(pc + 4)
        record.target = target
        record.btb_hit = target is not None
        return record

    # ------------------------------------------------------------------ #
    # resolution-time: history repair + table training
    # ------------------------------------------------------------------ #

    def resolve_record(self, record: BranchRecord, train: bool) -> None:
        """Resolve a branch whose outcome rides in the record itself.

        Repairs the history, trains the tables consulted at fetch and (for
        trained conditional branches) updates the JRS entry:
        behaviour-identical to
        :meth:`FrontEndPredictor.resolve <repro.branch_predictor.frontend.FrontEndPredictor.resolve>`
        followed by ``JRSConfidencePredictor.update``.  The fetch engine
        stores the outcome in ``record.kind`` / ``record.out_taken`` /
        ``record.out_target`` at predict time.
        """
        if record.is_conditional:
            actual_taken = record.out_taken
            if record.mispredicted:
                history = self._history
                history.value = ((((record.history & history.mask) << 1)
                                  | (1 if actual_taken else 0)) & history.mask)
            if not train:
                return
            # Tournament training with the indices consulted at fetch:
            # chooser first (only on component disagreement), then both
            # component tables — exactly the reference update order.
            gshare_correct = record.gshare_taken == actual_taken
            bimodal_correct = record.bimodal_taken == actual_taken
            if gshare_correct != bimodal_correct:
                chooser = self._chooser
                index = record.chooser_index
                value = chooser[index]
                if gshare_correct:
                    if value < 3:
                        chooser[index] = value + 1
                elif value > 0:
                    chooser[index] = value - 1
            table = self._gshare_table
            index = record.gshare_index
            value = table[index]
            if actual_taken:
                if value < self._gshare_max:
                    table[index] = value + 1
            elif value > 0:
                table[index] = value - 1
            table = self._bimodal_table
            index = record.bimodal_index
            value = table[index]
            if actual_taken:
                if value < self._bimodal_max:
                    table[index] = value + 1
            elif value > 0:
                table[index] = value - 1
            if actual_taken:
                self._btb.update(record.pc, record.out_target)
            # JRS miss-distance-counter update on the entry read at fetch.
            jrs_table = self._jrs_table
            if jrs_table is not None:
                confidence = self.confidence
                confidence.updates += 1
                index = record.mdc_index
                if record.mispredicted:
                    confidence.resets += 1
                    jrs_table[index] = 0
                else:
                    value = jrs_table[index]
                    if value < self._jrs_max:
                        jrs_table[index] = value + 1
            return

        if not train:
            return
        kind = record.kind
        if kind in (BranchKind.UNCONDITIONAL, BranchKind.CALL):
            self._btb.update(record.pc, record.out_target)
        elif kind in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL):
            self._indirect.update(record.pc, record.out_target, record.history)
            self._btb.update(record.pc, record.out_target)
