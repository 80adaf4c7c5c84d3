"""The fused trace session: codegen-fused predictor loops on the trace replay.

:class:`FusedTraceSession` is what :class:`~repro.backends.trace.TraceBackend`
builds for every ungated predictor stack :func:`_fused_plan` models, and
:class:`FusedGatedTraceSession` for such a stack under a count or PaCo
fetch gate (:func:`_fused_gate`).  It reuses every mechanism of the
batched :class:`TraceSession` — block staging, closed-form gap drawing,
the in-flight slot window, run-event batching — and replaces the per-branch python predictor work with
step/episode loops generated per predictor-stack shape:

* per staged :class:`~repro.workloads.generator.BranchBlock`,
  :meth:`FusedTraceSession._stage` computes the speculative global
  history at every branch position and the gshare / bimodal / chooser /
  JRS (and per-branch-MRT) table indices in one pure-python pass.  On the
  good path a *correctly predicted* conditional branch pushes its
  predicted == actual direction into the history register, so as long as
  no misprediction intervenes the history at position ``i`` is a pure
  function of the history at the block start and the block's outcome
  column;
* the generated loops read those columns and inline the table
  reads/updates, the path confidence predictor fan-out and the observer
  run batching — removing the per-branch ``predict_from_block`` /
  ``resolve_record`` / composite call chain entirely;
* observer delivery is inlined too when the attached observers are the
  accuracy harness's kinds over the stack's own members: per block,
  :meth:`FusedTraceSession._delivery_plan` resolves the diagram and
  counter targets the generated delivery writes directly, and any other
  observer set delivers through ``record_runs``.

Everything that is *not* the straight-line good path runs the scalar
machinery on the shared state: phase-boundary branches step through
:meth:`TraceSession._step_boundary_branch` (behind the gate wait of
:meth:`GatedTraceSession._step_boundary_branch` when gated),
non-conditional branches predict through ``FetchEngine.predict_from_block``
(RAS / indirect-target state stays live), and a misprediction episode
that leaves the history register diverged re-stages the affected span.
Stacks the generated loops do not model — custom path confidence
predictors, oracle tokens, JRS-less configurations — and gating policies
they do not model (``ProbabilityGating``, policies over a predictor that
is not the stack's own member) get the scalar :class:`TraceSession` or
:class:`GatedTraceSession` instead.

The gate is the seventh stack-shape flag: none, count or paco.  A gated
step inlines ``GatedTraceSession._gated_wait`` before every gap+branch
step, and a gated episode runs the scalar gated episode's per-slot
skeleton (gate check, then one gap draw and one generated branch) with
the fused predicts and drains.  Ungated shapes generate exactly the
source they did before the flag existed.

The contract is bit-identity with the scalar sessions, which stay as the
references: the run-event stream, every statistic and every trained
table must match exactly (``tests/test_backends.py`` pins block sizes
1/17/256/4096 for paco/counter and wrong-path-heavy configs, the
whole ``AccuracyResult`` of every accuracy profile at the harness
level, the reliability diagrams' float accumulators included, and the
fused gate against :class:`GatedTraceSession` on tiny, wrong-path-heavy
and phased specs).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.backends.trace import (
    GatedTraceSession,
    TraceSession,
    _compile_method,
    _has_cycle_work,
    _indent,
)
from repro.branch_predictor.btb import _BTBSet
from repro.branch_predictor.engine import BranchRecord
from repro.common.rng import _MASK64
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
    PhaseAwareCounterObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.isa.types import BranchKind
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.per_branch_mrt import PerBranchMRTPredictor
from repro.pathconf.static_mrt import StaticMRTPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.config import MachineConfig
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.gating import CountGating, GatingPolicy, PaCoGating


# --------------------------------------------------------------------- #
# Fused-loop codegen.
#
# Like the trace backend's templates, the hot loops are assembled from
# module-level source fragments and compiled once per predictor-stack
# shape (which built-in path confidence predictors are attached, whether
# any cycle-periodic work exists, and which fetch gate, if any, is in the
# loop).  Every fragment is written at zero indentation and placed with
# the trace module's ``_indent``.
#
# Fragment vocabulary: ``record``/``entry`` (the BranchRecord being
# fetched / resolved), ``mdc`` (its JRS value), ``i`` (block position,
# good path only), ``pc_bits``/``h`` (wrong-path scalar index inputs),
# plus the deferred counters declared by the setup fragments.  Deferred
# counters are purely additive statistics nothing reads mid-run; every
# value an observer can read at a delivery point (path confidence
# registers, the low-confidence count, the MRT counters and encoded
# probabilities) is kept live.
# --------------------------------------------------------------------- #

_PROLOGUE = '''\
engine = self.fetch_engine
stats = self.stats
window = self._window
observers = self.observers
has_observers = bool(observers)
events = self._events
path_confidence = engine.path_confidence
resolve_window = self.resolve_window
kind_conditional = BranchKind.CONDITIONAL
frontend = engine.frontend
confidence = engine.confidence
state = engine.state_engine
history = state._history
hist_mask = history.mask
btb = state._btb
btb_sets = btb._sets
btb_set_mask = btb._set_mask
btb_ways = btb.ways
btb_set_cls = _BTBSet
gshare_table = state._gshare_table
gshare_threshold = state._gshare_threshold
gshare_max = state._gshare_max
bimodal_table = state._bimodal_table
bimodal_threshold = state._bimodal_threshold
bimodal_max = state._bimodal_max
chooser = state._chooser
jrs_table = state._jrs_table
jrs_mask_v = state._jrs_mask
jrs_max = state._jrs_max
jrs_shift = state._jrs_enhanced_shift
jrs_enh_bit = (1 << jrs_shift) if jrs_shift >= 0 else 0
record_cls = BranchRecord
record_new = BranchRecord.__new__
thread_id = engine.generator.thread_id
eng_branches = 0
eng_cond = 0
fe_total = 0
fe_cond = 0
fe_misp = 0
fe_cond_misp = 0
jrs_lookups = 0
jrs_updates = 0
btb_lookups = 0
btb_hits = 0
btb_evictions = 0
'''

#: Scalar index masks, needed only by the wrong-path episode (the good
#: path reads its indices from the precomputed columns).
_REPLAY_MASKS = '''\
gshare_hmask = state._gshare_hist_mask
gshare_mask_v = state._gshare_mask
bimodal_mask_v = state._bimodal_mask
chooser_hmask = state._chooser_hist_mask
chooser_mask_v = state._chooser_mask
jrs_hmask = state._jrs_hist_mask
'''

_PBM_MASKS = '''\
pbm_hmask = pbm._history_mask
pbm_mask_v = pbm._mask
'''

# ----- per-member setup / fetch / resolve / squash / sync fragments --- #

_PACO_SETUP = '''\
paco = self._paco
mrt = paco.mrt
mrt_counters = mrt.counters
mrt_encoded = mrt.encoded_probabilities
paco_fetched = 0
paco_resolved = 0
paco_squashed = 0
paco_outstanding = 0
mrt_samples = 0
'''

_PACO_SETUP_CYCLE = '''\
mrt_period = mrt.relog_period_cycles
mrt_last = mrt._last_relog_cycle
'''

_STATIC_SETUP = '''\
smrt = self._static
smrt_encoded = smrt.encoded_probabilities
smrt_outstanding = 0
'''

_PBM_SETUP = '''\
pbm = self._pbm
pbm_correct = pbm._correct
pbm_total = pbm._total
pbm_memo = self._pbm_memo
pbm_encode = pbm._encoded_for
pbm_outstanding = 0
'''

_TC_SETUP = '''\
tc = self._tc
tc_threshold = tc.threshold
tc_fetched = 0
tc_low = 0
tc_outstanding = 0
'''

_PROF_SETUP = '''\
prof = self._profiler
prof_correct = prof.correct
prof_mispredicted = prof.mispredicted
prof_num_max = prof.num_mdc_values - 1
'''

_PACO_FETCH = '''\
paco_fetched += 1
enc = mrt_encoded[mdc]
record.encoded_added = enc
paco.path_confidence_register += enc
paco_outstanding += 1
'''

_STATIC_FETCH = '''\
enc = smrt_encoded[mdc]
record.static_encoded = enc
smrt.path_confidence_register += enc
smrt_outstanding += 1
'''

# The per-branch MRT's encoded probability is a float log of the entry's
# (correct, total) counters; memoizing on that pair keeps the fused loop
# off the float/log path for the (dominant) repeated-counter lookups.
_PBM_FETCH_TAIL = '''\
pkey = (pbm_correct[pidx], pbm_total[pidx])
enc = pbm_memo.get(pkey)
if enc is None:
    enc = pbm_encode(pidx)
    pbm_memo[pkey] = enc
record.table_index = pidx
record.pbm_encoded = enc
pbm.path_confidence_register += enc
pbm_outstanding += 1
'''

_PBM_FETCH_GOOD = "pidx = col_pbm[i]\n" + _PBM_FETCH_TAIL
_PBM_FETCH_WP = ("pidx = (pc_bits ^ (h & pbm_hmask)) & pbm_mask_v\n"
                 + _PBM_FETCH_TAIL)

_TC_FETCH = '''\
tc_fetched += 1
tc_outstanding += 1
counted = mdc < tc_threshold
record.counted = counted
if counted:
    tc_low += 1
    tc._low_confidence_outstanding += 1
'''

_PROF_FETCH = '''\
record.profile_bucket = mdc if mdc < prof_num_max else prof_num_max
'''

# Resolve fragments run only for *good-path* records, which are never
# mispredicted in the fused drains (a mispredicted good-path branch
# triggers an episode instead of entering the window), so the MRT record
# is always was_correct=True and the profiler always counts correct.
_PACO_RESOLVE = '''\
paco_resolved += 1
counter = mrt_counters[entry.mdc_value]
cc = counter.correct
if cc >= counter._correct_max:
    counter.correct = (cc >> 1) + 1
    counter.mispredicted >>= 1
else:
    counter.correct = cc + 1
mrt_samples += 1
enc = entry.encoded_added
if enc is not None:
    entry.encoded_added = None
    reg = paco.path_confidence_register - enc
    paco.path_confidence_register = reg if reg > 0 else 0
    paco_outstanding -= 1
'''

_STATIC_REMOVE = '''\
enc = entry.static_encoded
if enc is not None:
    entry.static_encoded = None
    reg = smrt.path_confidence_register - enc
    smrt.path_confidence_register = reg if reg > 0 else 0
    smrt_outstanding -= 1
'''

_PBM_REMOVE = '''\
enc = entry.pbm_encoded
if enc is not None:
    entry.pbm_encoded = None
    reg = pbm.path_confidence_register - enc
    pbm.path_confidence_register = reg if reg > 0 else 0
    pbm_outstanding -= 1
'''

_PBM_RESOLVE = '''\
pidx = entry.table_index
pbm_total[pidx] += 1
pbm_correct[pidx] += 1
''' + _PBM_REMOVE

_TC_REMOVE = '''\
counted = entry.counted
if counted is not None:
    entry.counted = None
    tc_outstanding -= 1
    if counted:
        tc._low_confidence_outstanding -= 1
'''

_PROF_RESOLVE = '''\
bucket = entry.profile_bucket
if bucket is not None:
    entry.profile_bucket = None
    prof_correct[bucket] += 1
'''

_PACO_SQUASH = '''\
paco_squashed += 1
enc = entry.encoded_added
if enc is not None:
    entry.encoded_added = None
    reg = paco.path_confidence_register - enc
    paco.path_confidence_register = reg if reg > 0 else 0
    paco_outstanding -= 1
'''

_PROF_SQUASH = '''\
entry.profile_bucket = None
'''

_SYNC_BASE = '''\
engine.branches_fetched += eng_branches
engine.conditional_branches_fetched += eng_cond
frontend.total_predictions += fe_total
frontend.conditional_predictions += fe_cond
frontend.total_mispredictions += fe_misp
frontend.conditional_mispredictions += fe_cond_misp
confidence.lookups += jrs_lookups
confidence.updates += jrs_updates
btb.lookups += btb_lookups
btb.hits += btb_hits
btb.evictions += btb_evictions
eng_branches = 0
eng_cond = 0
fe_total = 0
fe_cond = 0
fe_misp = 0
fe_cond_misp = 0
jrs_lookups = 0
jrs_updates = 0
btb_lookups = 0
btb_hits = 0
btb_evictions = 0
'''

_PACO_SYNC = '''\
paco.fetched_branches += paco_fetched
paco.resolved_branches += paco_resolved
paco.squashed_branches += paco_squashed
paco._outstanding += paco_outstanding
mrt.samples_recorded += mrt_samples
paco_fetched = 0
paco_resolved = 0
paco_squashed = 0
paco_outstanding = 0
mrt_samples = 0
'''

_STATIC_SYNC = '''\
smrt._outstanding += smrt_outstanding
smrt_outstanding = 0
'''

_PBM_SYNC = '''\
pbm._outstanding += pbm_outstanding
pbm_outstanding = 0
'''

_TC_SYNC = '''\
tc.fetched_branches += tc_fetched
tc.low_confidence_branches += tc_low
tc._outstanding += tc_outstanding
tc_fetched = 0
tc_low = 0
tc_outstanding = 0
'''


# ----- shared drain / training blocks --------------------------------- #

#: Conditional-branch training on a good-path record (never mispredicted
#: in the fused drains): the inlined body of
#: ``PredictorStateEngine.resolve_record`` minus the repair/reset paths
#: that a misprediction would take.  Uses ``entry`` and ``actual``.
_TRAIN_COND = '''\
gshare_correct = entry.gshare_taken == actual
if gshare_correct != (entry.bimodal_taken == actual):
    index = entry.chooser_index
    value = chooser[index]
    if gshare_correct:
        if value < 3:
            chooser[index] = value + 1
    elif value > 0:
        chooser[index] = value - 1
index = entry.gshare_index
value = gshare_table[index]
if actual:
    if value < gshare_max:
        gshare_table[index] = value + 1
elif value > 0:
    gshare_table[index] = value - 1
index = entry.bimodal_index
value = bimodal_table[index]
if actual:
    if value < bimodal_max:
        bimodal_table[index] = value + 1
elif value > 0:
    bimodal_table[index] = value - 1
if actual:
    # btb.update inlined (one call per retired taken conditional).
    tag = entry.pc >> 2
    bset = btb_sets[tag & btb_set_mask]
    if bset is None:
        bset = btb_set_cls(btb_ways)
        btb_sets[tag & btb_set_mask] = bset
    bentries = bset.entries
    for position, way in enumerate(bentries):
        if way[0] == tag:
            way[1] = entry.out_target
            if position:
                bentries.insert(0, bentries.pop(position))
            break
    else:
        if len(bentries) >= btb_ways:
            bentries.pop()
            btb_evictions += 1
        bentries.insert(0, [tag, entry.out_target])
jrs_updates += 1
index = entry.mdc_index
value = jrs_table[index]
if value < jrs_max:
    jrs_table[index] = value + 1
'''


def _good_drain(resolve_members: str, targets=None) -> str:
    """The good-path drain body (zero indent).

    Simplified relative to the trace backend's general drain by two
    window invariants that hold throughout the fused good-path loop: the
    window contains only positive gap runs (wrong-path tails are fully
    popped by ``_finish_wrongpath``) and only never-mispredicted
    good-path records (a mispredicted good-path branch takes the episode
    path instead of entering the window), so the negative-gap arm, the
    mispredict-retire counters and the ``run_goodpath`` recomputation
    all drop out.
    """
    return '''\
entry = window[0]
if type(entry) is int:
    take = entry if entry <= excess else excess
    good_executed += take
    retired += take
    run_execute += take
    if take < entry:
        window[0] = entry - take
    else:
        window.popleft()
    excess -= take
    inflight -= take
else:
    window.popleft()
    inflight -= 1
    excess -= 1
    if has_observers:
''' + _indent(_runs_delivery("entry.path_token is not None",
                          targets), 2) \
    + '''\
    run_fetch = 0
    run_execute = 0
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
''' + _indent(_TRAIN_COND, 2) + _indent(resolve_members, 2) + '''\
        cond_retired += 1
    else:
        engine.resolve_record(entry)
    good_executed += 1
    retired += 1
    branches_retired += 1
    run_execute += 1
'''


def _episode_drain(resolve_members: str, squash_members: str,
                   targets=None) -> str:
    """The wrong-path-episode drain body (zero indent).

    The general form: gap runs can be positive (pre-trigger good-path
    slots) or negative, and record entries can be good-path (resolve and
    train) or wrong-path (squash; a wrong-path mispredict repairs the
    *deferred* history local ``h``, exactly the live-register repair the
    scalar engine performs).  ``run_goodpath`` stays False for the whole
    episode, and good-path records are never mispredicted (window
    invariant), so those recomputations drop out here too.
    """
    return '''\
entry = window[0]
if type(entry) is int:
    if entry > 0:
        take = entry if entry <= excess else excess
        good_executed += take
        retired += take
    else:
        take = -entry if -entry <= excess else excess
        bad_executed += take
    run_execute += take
    if take < (entry if entry > 0 else -entry):
        window[0] = entry - take if entry > 0 else entry + take
    else:
        window.popleft()
    excess -= take
    inflight -= take
else:
    window.popleft()
    inflight -= 1
    excess -= 1
    if has_observers:
''' + _indent(_runs_delivery("entry.path_token is not None",
                          targets), 2) \
    + '''\
    run_fetch = 0
    run_execute = 0
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
        if entry.on_goodpath:
''' + _indent(_TRAIN_COND, 3) + _indent(resolve_members, 3) + '''\
        else:
            if entry.mispredicted:
                h = (((entry.history & hist_mask) << 1)
                     | (1 if actual else 0)) & hist_mask
''' + _indent(squash_members, 3) + '''\
    else:
        engine.resolve_record(entry)
    if entry.on_goodpath:
        good_executed += 1
        retired += 1
        branches_retired += 1
        if entry.is_conditional:
            cond_retired += 1
    else:
        bad_executed += 1
    run_execute += 1
'''


#: The per-branch cycle tick, specialized to the one cycle-periodic
#: machine the fused plan admits (PaCo's re-log pass): buffered events
#: always flush pre-tick exactly as the scalar tick does, but the
#: ``on_cycle`` *call* — a composite fan-out plus ``maybe_relog``'s own
#: period check, every branch — is guarded by the same period
#: comparison on hoisted locals, which is what makes the fused loop's
#: tick nearly free.  When the pass runs, it returns True by
#: construction, so the open run closes unconditionally.
_TICK = '''\
if has_observers and events:
    for observer in observers:
        observer.record_runs(events)
    del events[:]
if cycle - mrt_last >= mrt_period:
    path_confidence.on_cycle(cycle)
    if has_observers:
        if run_fetch:
            events.extend(("fetch", run_goodpath, cycle, run_fetch))
        if run_execute:
            events.extend(("execute", run_goodpath, cycle, run_execute))
        if events:
            for observer in observers:
                observer.record_runs(events)
            del events[:]
    run_fetch = 0
    run_execute = 0
    mrt_last = mrt._last_relog_cycle
'''


# ----- fetch gating ----------------------------------------------------- #

#: The gate kinds the generated loops model: the bound hoist (read once
#: per generated call) and the gate expression, which reads only state
#: the fused fragments keep live — the count member's low-confidence
#: count, PaCo's path confidence register.  :func:`_fused_gate` admits a
#: policy only over the session's own member, so each expression is
#: exactly its policy's ``should_gate``.
_GATES = {
    "count": ("gate_bound = self.gating_policy.gate_count\n",
              "tc._low_confidence_outstanding >= gate_bound"),
    "paco": ("gate_bound = self.gating_policy.encoded_threshold\n",
             "paco.path_confidence_register > gate_bound"),
}


def _good_gate_wait(gate_expr: str, resolve_members: str,
                    cycle_work: bool) -> str:
    """``GatedTraceSession._gated_wait`` before a good-path step (zero indent).

    Each gated cycle completes one slot through the good-path drain (the
    window invariants hold while fetch is stalled) and ticks; the budget
    and cycle limit are re-checked before the step fetches, as the
    scalar step does.
    """
    return (f"if {gate_expr}:\n"
            f"    while {gate_expr} and window:\n"
            "        gated_cycles += 1\n"
            "        cycle += 1\n"
            "        excess = 1\n"
            + _indent(_good_drain(resolve_members), 2)
            + (_indent(_TICK, 2) if cycle_work else "")
            + "    if (retired_base + retired >= max_instructions\n"
            "            or cycle >= max_cycles):\n"
            "        break\n")


# ----- inline observer delivery ---------------------------------------- #

#: Hoist of the per-block delivery plan that
#: :meth:`FusedTraceSession._delivery_plan` resolves: None (deliver
#: through every observer's ``record_runs``) or the ``(diagram targets,
#: counter targets)`` pair the inlined delivery writes into directly.
_PLAN_HOISTS = '''\
dv_plan = self._dv_plan
if dv_plan is not None:
    dv_diags, dv_counters = dv_plan
'''

#: The shared integer fold of a buffered batch.  A single-run batch
#: keeps ``dv_weights`` None, so the diagrams take
#: ``ReliabilityDiagram.record``'s one-term update; longer batches fold
#: once for every diagram and counter, as ``record_folded`` expects.
_EVENTS_FOLD = '''\
if len(events) == 4:
    dv_weights = None
    dv_inst = events[3]
    dv_good = dv_inst if events[1] else 0
else:
    dv_weights = events[3::4]
    dv_inst = 0
    dv_good = 0
    for dv_i in range(1, len(events), 4):
        dv_w = events[dv_i + 2]
        dv_inst += dv_w
        if events[dv_i]:
            dv_good += dv_w
'''

#: ``predicted_sum`` update for a buffered batch: one ``p * weight`` term
#: per run event, in order — ``record`` for one run, ``record_folded``'s
#: loop for more — so the float stays bit-identical to the observers'.
_EVENTS_ACCUMULATE = '''\
if dv_weights is None:
    dv_bucket.predicted_sum += dv_p * dv_inst
else:
    dv_ps = dv_bucket.predicted_sum
    for dv_w in dv_weights:
        dv_ps += dv_p * dv_w
    dv_bucket.predicted_sum = dv_ps
'''

#: The fold of the 1-2 open runs when nothing is buffered: the same
#: values the events path would compute over the tuples it would build.
_LOCAL_FOLD = '''\
dv_inst = run_fetch + run_execute
dv_good = dv_inst if run_goodpath else 0
'''

#: The open runs' ``predicted_sum`` terms, fetch run before execute run:
#: the order the tuples would have been buffered in.
_LOCAL_ACCUMULATE = '''\
if run_fetch:
    dv_bucket.predicted_sum += dv_p * run_fetch
if run_execute:
    dv_bucket.predicted_sum += dv_p * run_execute
'''

#: One diagram target: the probability memo keyed on the raw register
#: (each admitted predictor's probability is a pure function of it), the
#: bin resolution of ``ReliabilityDiagram.record``, the batch's terms,
#: then the integer totals.
_DIAG_DELIVER = '''\
for dv_pred, dv_probs, dv_bins, dv_nb, dv_diag in dv_diags:
    dv_p = dv_probs.get(dv_pred.path_confidence_register)
    if dv_p is None:
        dv_p = _memo_probability(dv_pred, dv_probs)
    dv_bi = int(dv_p * dv_nb)
    dv_bucket = dv_bins[dv_bi if dv_bi < dv_nb else dv_nb - 1]
%(accumulate)s\
    dv_bucket.instances += dv_inst
    dv_bucket.goodpath_instances += dv_good
    dv_diag.total_instances += dv_inst
    dv_diag.total_goodpath += dv_good
'''

#: Every counter target reads the session's own count member once.
_COUNTER_DELIVER = '''\
dv_low = tc._low_confidence_outstanding
for dv_ci, dv_cg, dv_max in dv_counters:
    dv_b = dv_low if dv_low < dv_max else dv_max
    dv_ci[dv_b] += dv_inst
    dv_cg[dv_b] += dv_good
'''


def _memo_probability(predictor, memo: dict) -> float:
    """Decode ``predictor``'s probability into ``memo`` (a delivery's miss).

    Stores the value ``ReliabilityDiagram.record`` would bin — clamped
    into [0, 1] — under the register it was decoded from.
    """
    if len(memo) > (1 << 20):  # unbounded-growth guard
        memo.clear()
    probability = predictor.goodpath_probability()
    if not 0.0 <= probability <= 1.0:
        probability = min(max(probability, 0.0), 1.0)
    memo[predictor.path_confidence_register] = probability
    return probability


def _plan_targets(has_paco: bool, has_static: bool, has_pbm: bool,
                  has_tc: bool, gate: Optional[str]):
    """The target loops a shape's inlined delivery carries, or None.

    ``(diagrams, counters)``: a diagram loop when the stack has a
    probability member a plan can target, a counter loop when it has the
    count member.  Gated shapes (no campaign attaches observers to them)
    and member-less shapes deliver generically only, which keeps their
    generated source to the size it needs.
    """
    diagrams = has_paco or has_static or has_pbm
    if gate is not None or not (diagrams or has_tc):
        return None
    return diagrams, has_tc


def _plan_delivery(targets, fold: str, accumulate: str) -> str:
    """The inlined delivery over a plan's targets (zero indent)."""
    diagrams, counters = targets
    source = fold
    if diagrams:
        source += _DIAG_DELIVER % {"accumulate": _indent(accumulate, 1)}
    if counters:
        source += _COUNTER_DELIVER
    return source


def _runs_delivery(cond: str, targets) -> str:
    """One site's close-the-open-runs + deliver block (zero indent).

    ``cond`` is the site's delivery condition ("" = deliver whenever
    events are pending).  The generic shape buffers the open runs as
    event tuples and delivers the batch; with plan ``targets``, when a
    plan is resolved, delivery is due and nothing is already buffered,
    the open runs fold straight into the targets without touching the
    events list at all (the post-pass :func:`_inline_deliveries` still
    rewrites the generic arm's delivery for the buffered case).
    """
    extend = '''\
if run_fetch:
    events.extend(("fetch", run_goodpath, cycle, run_fetch))
if run_execute:
    events.extend(("execute", run_goodpath, cycle, run_execute))
'''
    deliver_head = f"if events and {cond}:" if cond else "if events:"
    generic = (extend + deliver_head + '''
    for observer in observers:
        observer.record_runs(events)
    del events[:]
''')
    if targets is None:
        return generic
    local_head = ("if dv_plan is not None and not events"
                  + (f" and {cond}" if cond else "") + ":\n")
    return (local_head
            + _indent("if run_fetch or run_execute:\n", 1)
            + _indent(_plan_delivery(targets, _LOCAL_FOLD,
                                     _LOCAL_ACCUMULATE), 2)
            + "else:\n"
            + _indent(generic, 1))


def _inline_deliveries(source: str, targets) -> str:
    """Give every generic delivery site an inlined arm over the plan.

    Every observer delivery in the generated sources is the literal
    three-line ``for observer in observers: observer.record_runs(events)``
    / ``del events[:]`` sequence; this rewrites each occurrence (at its
    own indentation) into ``if dv_plan is None:`` the generic loop,
    ``else:`` the inlined delivery, keeping the trailing ``del`` shared
    by both arms.
    """
    arm = ("if dv_plan is None:\n"
           "    for observer in observers:\n"
           "        observer.record_runs(events)\n"
           "else:\n"
           + _indent(_plan_delivery(targets, _EVENTS_FOLD,
                                    _EVENTS_ACCUMULATE), 1)).rstrip("\n")
    lines = source.split("\n")
    out: list = []
    i = 0
    replaced = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.lstrip()
        if (stripped == "for observer in observers:"
                and i + 2 < len(lines)
                and lines[i + 1].lstrip() == "observer.record_runs(events)"
                and lines[i + 2].lstrip() == "del events[:]"):
            indent = line[:len(line) - len(stripped)]
            for arm_line in arm.split("\n"):
                out.append(indent + arm_line if arm_line else arm_line)
            out.append(lines[i + 2])
            replaced += 1
            i += 3
            continue
        out.append(line)
        i += 1
    if not replaced:  # a fragment edit broke the pattern — fail loudly
        raise AssertionError("no observer delivery sites found to inline")
    return "\n".join(out)


# ----- inline predict fragments ---------------------------------------- #

#: Good-path conditional predict, reading every table index from the
#: precomputed columns (the inlined body of ``predict_columns`` +
#: ``predict_from_block`` for the conditional/good-path case).  The
#: speculative history push is deferred — ``col_f`` already encodes it
#: for every later position — and materialized into the live register
#: only when a misprediction hands control to the scalar episode
#: machinery.  ``%(fetch_members)s`` receives the path confidence
#: fan-out; ``%(episode)s`` the sync/replay/re-stage block.
_PREDICT_GOOD = '''\
hist = col_f[i]
pc = block_pc[i]
gshare_taken = gshare_table[col_g[i]] >= gshare_threshold
bimodal_taken = bimodal_table[col_b[i]] >= bimodal_threshold
chose_gshare = chooser[col_c[i]] >= 2
taken = gshare_taken if chose_gshare else bimodal_taken
btb_lookups += 1
tag = pc >> 2
bset = btb_sets[tag & btb_set_mask]
btb_target = None
if bset is not None:
    bentries = bset.entries
    for position, way in enumerate(bentries):
        if way[0] == tag:
            if position:
                bentries.insert(0, bentries.pop(position))
            btb_hits += 1
            btb_target = way[1]
            break
%(record_init)srecord.target = btb_target if taken else None
record.btb_hit = btb_target is not None
record.gshare_taken = gshare_taken
record.gshare_index = col_g[i]
record.bimodal_taken = bimodal_taken
record.bimodal_index = col_b[i]
record.chooser_index = col_c[i]
record.chose_gshare = chose_gshare
ji = col_j[i]
if taken and jrs_enh_bit:
    ji = (ji ^ jrs_enh_bit) & jrs_mask_v
jrs_lookups += 1
record.mdc_index = ji
mdc = jrs_table[ji]
record.mdc_value = mdc
eng_branches += 1
eng_cond += 1
fe_total += 1
fe_cond += 1
actual = block_taken[i]
mispredicted = taken != actual
record.mispredicted = mispredicted
if mispredicted:
    fe_misp += 1
    fe_cond_misp += 1
record.path_token = record
%(fetch_members)srecord.kind = kind_conditional
record.out_taken = actual
record.out_target = block_target[i]
record.on_goodpath = True
record.seq = seq
i += 1
good_fetched += 1
cycle += 1
run_fetch += 1
if mispredicted:
    # The wrong-path switch (predict_from_block, inlined), plus the
    # speculative push the scalar predict made unconditionally: the
    # episode machinery reads the live register.
    engine.on_wrong_path = True
    engine._pending_mispredict_seq = seq
    history.value = ((hist << 1) | (1 if taken else 0)) & hist_mask
%(episode)srun_goodpath = True
window.append(record)
inflight += 1
'''

#: Wrong-path conditional predict inside the fused episode: scalar index
#: arithmetic from the deferred history local ``h`` (bit-identical to the
#: live-register reads the scalar episode performs).
_PREDICT_WP = '''\
pc = wp_pc[g]
pc_bits = pc >> 2
gidx = (pc_bits ^ (h & gshare_hmask)) & gshare_mask_v
gshare_taken = gshare_table[gidx] >= gshare_threshold
bidx = pc_bits & bimodal_mask_v
bimodal_taken = bimodal_table[bidx] >= bimodal_threshold
cidx = (pc_bits ^ (h & chooser_hmask)) & chooser_mask_v
chose_gshare = chooser[cidx] >= 2
taken = gshare_taken if chose_gshare else bimodal_taken
btb_lookups += 1
bset = btb_sets[pc_bits & btb_set_mask]
btb_target = None
if bset is not None:
    bentries = bset.entries
    for position, way in enumerate(bentries):
        if way[0] == pc_bits:
            if position:
                bentries.insert(0, bentries.pop(position))
            btb_hits += 1
            btb_target = way[1]
            break
%(record_init)srecord.target = btb_target if taken else None
record.btb_hit = btb_target is not None
record.gshare_taken = gshare_taken
record.gshare_index = gidx
record.bimodal_taken = bimodal_taken
record.bimodal_index = bidx
record.chooser_index = cidx
record.chose_gshare = chose_gshare
ji = (pc_bits ^ (h & jrs_hmask)) & jrs_mask_v
if taken and jrs_enh_bit:
    ji = (ji ^ jrs_enh_bit) & jrs_mask_v
jrs_lookups += 1
record.mdc_index = ji
mdc = jrs_table[ji]
record.mdc_value = mdc
eng_branches += 1
eng_cond += 1
fe_total += 1
fe_cond += 1
actual = wp_taken[g]
mispredicted = taken != actual
record.mispredicted = mispredicted
if mispredicted:
    fe_misp += 1
    fe_cond_misp += 1
record.path_token = record
%(fetch_members)srecord.kind = kind_conditional
record.out_taken = actual
record.out_target = wp_target[g]
record.on_goodpath = False
record.seq = seq
h = ((h << 1) | (1 if taken else 0)) & hist_mask
bad_fetched += 1
cycle += 1
run_fetch += 1
window.append(record)
inflight += 1
'''


def _record_init(history_expr: str, sid_expr: str, has_paco: bool,
                 has_static: bool, has_pbm: bool, has_tc: bool,
                 has_prof: bool) -> str:
    """Inline ``BranchRecord`` construction: ``__new__`` plus exactly the
    slot writes the surrounding predict fragment does not perform itself.

    ``BranchRecord.__init__`` stores 24 defaults only for the predict
    fragment to overwrite half of them; allocating with ``__new__`` and
    writing each live slot once drops a call plus the redundant stores
    from every fetched conditional.  Slots owned by attached path
    confidence predictors are written by their fetch members, so the
    defaults emitted here cover only the detached ones — every slot
    ``__init__`` would have initialized is still written exactly once (a
    missed slot would raise ``AttributeError`` loudly downstream).
    """
    lines = [
        "record = record_new(record_cls)",
        "record.pc = pc",
        "record.predicted_taken = taken",
        "record.taken = taken",
        f"record.history = {history_expr}",
        f"record.static_branch_id = {sid_expr}",
        "record.thread_id = thread_id",
        "record.resolved = False",
        "record.is_conditional = True",
    ]
    if not has_paco:
        lines.append("record.encoded_added = None")
    if not has_static:
        lines.append("record.static_encoded = None")
    if not has_pbm:
        lines.append("record.table_index = 0")
        lines.append("record.pbm_encoded = None")
    if not has_tc:
        lines.append("record.counted = None")
    if not has_prof:
        lines.append("record.profile_bucket = None")
    return "\n".join(lines) + "\n"


def _build_step_source(has_paco: bool, has_static: bool, has_pbm: bool,
                       has_tc: bool, has_prof: bool, cycle_work: bool,
                       gate: Optional[str] = None) -> str:
    """Assemble the fused ``_fused_step_block`` source for one stack shape.

    ``gate`` (a :data:`_GATES` key, or None for the ungated shapes) adds
    the inlined ``GatedTraceSession._gated_wait`` before every step.
    """
    targets = _plan_targets(has_paco, has_static, has_pbm, has_tc, gate)
    setup = ""
    fetch_members = ""
    resolve_members = ""
    sync = _SYNC_BASE
    if has_paco:
        setup += _PACO_SETUP
        if cycle_work:
            setup += _PACO_SETUP_CYCLE
        fetch_members += _PACO_FETCH
        resolve_members += _PACO_RESOLVE
        sync += _PACO_SYNC
    if has_static:
        setup += _STATIC_SETUP
        fetch_members += _STATIC_FETCH
        resolve_members += _STATIC_REMOVE
        sync += _STATIC_SYNC
    if has_pbm:
        setup += _PBM_SETUP + _PBM_MASKS
        fetch_members += _PBM_FETCH_GOOD
        resolve_members += _PBM_RESOLVE
        sync += _PBM_SYNC
    if has_tc:
        setup += _TC_SETUP
        fetch_members += _TC_FETCH
        resolve_members += _TC_REMOVE
        sync += _TC_SYNC
    if has_prof:
        setup += _PROF_SETUP
        fetch_members += _PROF_FETCH
        resolve_members += _PROF_RESOLVE

    stat_sync = '''\
stats.goodpath_fetched += good_fetched
engine.goodpath_fetched += good_fetched
stats.goodpath_executed += good_executed
stats.badpath_executed += bad_executed
stats.retired_instructions += retired
stats.branches_retired += branches_retired
stats.conditional_branches_retired += cond_retired
'''
    stat_reset = '''\
good_fetched = good_executed = bad_executed = retired = 0
branches_retired = cond_retired = 0
'''
    gate_wait = ""
    if gate is not None:
        setup += _GATES[gate][0] + "gated_cycles = 0\n"
        stat_sync += "stats.gated_cycles += gated_cycles\n"
        stat_reset += "gated_cycles = 0\n"
        gate_wait = _good_gate_wait(_GATES[gate][1], resolve_members,
                                    cycle_work)
    # Take the (rare) misprediction episode through the fused episode
    # method: materialize every deferred delta, replay, then — only when
    # the repaired history diverged from the staged F column — splice the
    # short divergent span back in.  A mispredicted conditional trigger
    # repairs history to ``(record.history << 1) | actual``, which is
    # exactly what staging (actual outcomes) computed, so the staged tail
    # stays valid; only non-conditional triggers (whose resolve never
    # repairs history, leaving the wrong-path speculative bits live)
    # actually diverge, and their divergence shifts out of the history
    # window after ``history_bits`` conditional outcomes.  The splice
    # mutates the hoisted column lists in place, so no reloads.
    restage = '''\
if history.value != col_f[i]:
    self._stage(i, repair=True)
'''
    if has_paco and cycle_work:
        restage += "mrt_last = mrt._last_relog_cycle\n"
    episode = ('''\
run_goodpath = False
self._next_seq = next_seq
self._cycle = cycle
self._inflight = inflight
self._run_fetch = run_fetch
self._run_execute = run_execute
self._run_goodpath = run_goodpath
''' + stat_sync + stat_reset + sync + '''\
self._fused_replay(self, record)
next_seq = self._next_seq
cycle = self._cycle
inflight = self._inflight
run_fetch = self._run_fetch
run_execute = self._run_execute
run_goodpath = self._run_goodpath
retired_base = stats.retired_instructions
''' + restage + '''\
took_episode = True
break
''')

    predict_good = _PREDICT_GOOD % {
        "fetch_members": fetch_members,
        "episode": _indent(episode, 1),
        "record_init": _record_init("hist", "block_sid[i]", has_paco,
                                    has_static, has_pbm, has_tc, has_prof),
    }
    hoists = '''\
block = self._block
block_pc = block.pc
block_kinds = block.kind
block_taken = block.taken
block_target = block.target
block_sid = block.static_branch_id
col_f = self._col_f
col_g = self._col_g
col_b = self._col_b
col_c = self._col_c
col_j = self._col_j
'''
    if has_pbm:
        hoists += "col_pbm = self._col_pbm\n"
    if targets is not None:
        hoists += _PLAN_HOISTS
    hoists += '''\
gaps = self._gap_buf
gap_pos = self._gap_pos
i = self._branch_pos
stop = self._branch_len
next_seq = self._next_seq
cycle = self._cycle
inflight = self._inflight
run_fetch = self._run_fetch
run_execute = self._run_execute
run_goodpath = self._run_goodpath
retired_base = stats.retired_instructions
good_fetched = 0
good_executed = 0
bad_executed = 0
retired = 0
branches_retired = 0
cond_retired = 0
'''

    source = ('''\
def _fused_step_block(self, max_instructions, max_cycles):
    """Fused-predictor twin of ``TraceSession._step_block``.

    Same control skeleton (gap accounting, the double-drain loop, the
    per-branch tick), with conditional predict/resolve inlined against
    the precomputed columns and the simplified good-path drain (see
    ``_good_drain``).  Mispredicted good-path branches never retire
    here — they hand off to the episode immediately — so the
    mispredict-retired stat deltas are identically zero and drop out
    of the sync lists.
    """
'''
              + _indent(_PROLOGUE + setup + hoists, 1) + '''
    while i < stop:
        if retired_base + retired >= max_instructions or cycle >= max_cycles:
            break
''' + _indent(gate_wait, 2) + '''\
        gap = gaps[gap_pos]
        gap_pos += 1
        if gap:
            good_fetched += gap
            cycle += gap
            run_fetch += gap
            if window and type(window[-1]) is int and window[-1] > 0:
                window[-1] += gap
            else:
                window.append(gap)
            inflight += gap
        took_episode = False
        predicted = False
        while True:
            if inflight > resolve_window:
                excess = inflight - resolve_window
                while excess > 0:
'''
              + _indent(_good_drain(resolve_members, targets), 5) + '''\
            if predicted:
                break
            predicted = True
            kind = block_kinds[i]
            if has_observers:
''' + _indent(_runs_delivery("kind is kind_conditional", targets),
              4) + '''\
            run_fetch = 0
            run_execute = 0
            seq = next_seq
            next_seq += 1
            if kind is kind_conditional:
'''
              + _indent(predict_good, 4) + '''\
            else:
                # Non-conditional branches predict through the live
                # scalar engine (RAS / indirect-target state): restore
                # the deferred history register first.
                history.value = col_f[i]
                record = engine.predict_from_block(block, i, seq)
                i += 1
                good_fetched += 1
                cycle += 1
                run_fetch += 1
                if engine.on_wrong_path:
'''
              + _indent(episode, 5) + '''\
                run_goodpath = True
                window.append(record)
                inflight += 1
        if took_episode:
            continue
'''
              + (_indent(_TICK, 2) if cycle_work else "") + '''
    self._branch_pos = i
    self._gap_pos = gap_pos
    self._next_seq = next_seq
    self._cycle = cycle
    self._inflight = inflight
    self._run_fetch = run_fetch
    self._run_execute = run_execute
    self._run_goodpath = run_goodpath
    history.value = col_f[i]
'''
              + _indent(stat_sync + sync, 1))
    if targets is not None:
        source = _inline_deliveries(source, targets)
    return source


#: The episode's loop-local run state and stat deltas (indent 1).
_EPISODE_LOCALS = '''\
    h = history.value
    next_seq = self._next_seq
    cycle = self._cycle
    inflight = self._inflight
    run_fetch = self._run_fetch
    run_execute = self._run_execute
    run_goodpath = self._run_goodpath
    bad_fetched = 0
    good_executed = 0
    bad_executed = 0
    retired = 0
    branches_retired = 0
    cond_retired = 0
'''

#: The ungated episode body: every gap of the ``mispredict_window``
#: budget from one ``geometric_episode`` call and every branch from one
#: ``next_branch_block`` call, then one (gap, branch) step per gap.
_EPISODE = '''\
    wp_gaps = self._wp_gap_buf
    n_gaps, n_branches = self._wp_gap_rng.geometric_episode(
        self._log_one_minus_p, wp_gaps, self.mispredict_window)
    wp_block = self._wp_episode_block
    if n_branches:
        engine.wrongpath_generator.next_branch_block(wp_block, n_branches)
    wp_pc = wp_block.pc
    wp_taken = wp_block.taken
    wp_target = wp_block.target
    wp_sid = wp_block.static_branch_id
''' + _EPISODE_LOCALS + '''
    for g in range(n_gaps):
        gap = wp_gaps[g]
        if gap:
            bad_fetched += gap
            cycle += gap
            run_fetch += gap
            if window and type(window[-1]) is int and window[-1] < 0:
                window[-1] -= gap
            else:
                window.append(-gap)
            inflight += gap
        fetched_branch = False
        while True:
            if inflight > resolve_window:
                excess = inflight - resolve_window
                while excess > 0:
%(drain)s\
            if fetched_branch or g >= n_branches:
                break
            fetched_branch = True
            if has_observers:
%(deliver)s\
            run_fetch = 0
            run_execute = 0
            seq = next_seq
            next_seq += 1
%(predict)s\
        if g >= n_branches:
            break
%(tick)s'''

#: The gated episode body: the per-slot loop of
#: ``GatedTraceSession._replay_wrongpath``.  The budget counts cycles; a
#: gated slot completes the oldest in-flight slot (if any) and ticks,
#: otherwise exactly one gap is drawn — ``geometric_block(..., 1)`` with
#: the xorshift inlined on a local copy of the stream state — clamped to
#: the remaining budget, and exactly one branch is generated.  Neither
#: stream may be pre-drawn: a gated slot or a clamped gap ends the
#: draws wherever the scalar loop would have stopped.
_GATED_EPISODE = '''\
    log = math.log
    log_one_minus_p = self._log_one_minus_p
    mask64 = _MASK64
    wp_rng = self._wp_gap_rng
    wp_state = wp_rng._state
    next_branch_into = engine.wrongpath_generator.next_branch_into
    wp_block = self._wp_block
    wp_pc = wp_block.pc
    wp_taken = wp_block.taken
    wp_target = wp_block.target
    wp_sid = wp_block.static_branch_id
    g = 0
''' + _EPISODE_LOCALS + '''\
    gated_cycles = 0
    remaining = self.mispredict_window

    while remaining:
        if %(gate)s:
            gated_cycles += 1
            cycle += 1
            if window:
                excess = 1
%(gated_drain)s\
%(gated_tick)s\
            remaining -= 1
            continue
        if log_one_minus_p is None:
            gap = 0
        else:
            wp_state ^= (wp_state >> 12)
            wp_state ^= (wp_state << 25) & mask64
            wp_state ^= (wp_state >> 27)
            u = (((wp_state * 0x2545F4914F6CDD1D) & mask64) >> 11) \\
                / 9007199254740992.0
            gap = int(log(u) / log_one_minus_p) if u > 0.0 else 0
            if gap > remaining:
                gap = remaining
        if gap:
            bad_fetched += gap
            cycle += gap
            run_fetch += gap
            if window and type(window[-1]) is int and window[-1] < 0:
                window[-1] -= gap
            else:
                window.append(-gap)
            inflight += gap
            remaining -= gap
        fetched_branch = False
        while True:
            if inflight > resolve_window:
                excess = inflight - resolve_window
                while excess > 0:
%(drain)s\
            if fetched_branch or not remaining:
                break
            fetched_branch = True
            if has_observers:
%(deliver)s\
            run_fetch = 0
            run_execute = 0
            seq = next_seq
            next_seq += 1
            next_branch_into(wp_block, 0)
%(predict)s\
            remaining -= 1
        if not fetched_branch:
            break
%(tick)s'''


def _build_replay_source(has_paco: bool, has_static: bool, has_pbm: bool,
                         has_tc: bool, has_prof: bool, cycle_work: bool,
                         gate: Optional[str] = None) -> str:
    """Assemble the fused ``_fused_replay_wrongpath`` source for one shape.

    Ungated shapes pre-draw the whole episode; a ``gate`` swaps in the
    per-slot skeleton of ``GatedTraceSession._replay_wrongpath`` (see
    :data:`_GATED_EPISODE`).
    """
    targets = _plan_targets(has_paco, has_static, has_pbm, has_tc, gate)
    setup = _REPLAY_MASKS
    fetch_members = ""
    resolve_members = ""
    squash_members = ""
    sync = _SYNC_BASE
    if has_paco:
        setup += _PACO_SETUP
        if cycle_work:
            setup += _PACO_SETUP_CYCLE
        fetch_members += _PACO_FETCH
        resolve_members += _PACO_RESOLVE
        squash_members += _PACO_SQUASH
        sync += _PACO_SYNC
    if has_static:
        setup += _STATIC_SETUP
        fetch_members += _STATIC_FETCH
        resolve_members += _STATIC_REMOVE
        squash_members += _STATIC_REMOVE
        sync += _STATIC_SYNC
    if has_pbm:
        setup += _PBM_SETUP + _PBM_MASKS
        fetch_members += _PBM_FETCH_WP
        resolve_members += _PBM_RESOLVE
        squash_members += _PBM_REMOVE
        sync += _PBM_SYNC
    if has_tc:
        setup += _TC_SETUP
        fetch_members += _TC_FETCH
        resolve_members += _TC_REMOVE
        squash_members += _TC_REMOVE
        sync += _TC_SYNC
    if has_prof:
        setup += _PROF_SETUP
        fetch_members += _PROF_FETCH
        resolve_members += _PROF_RESOLVE
        squash_members += _PROF_SQUASH
    if targets is not None:
        setup += _PLAN_HOISTS

    predict_wp = _PREDICT_WP % {
        "fetch_members": fetch_members,
        "record_init": _record_init("h", "wp_sid[g]", has_paco, has_static,
                                    has_pbm, has_tc, has_prof),
    }
    drain = _episode_drain(resolve_members, squash_members, targets)
    parts = {
        "drain": _indent(drain, 5),
        "deliver": _indent(_runs_delivery("", targets), 4),
        "predict": _indent(predict_wp, 3),
        "tick": _indent(_TICK, 2) if cycle_work else "",
    }
    if gate is None:
        docstring = '''\
    """Fused-predictor twin of ``TraceSession._replay_wrongpath``.

    Same episode skeleton, with the wrong-path predicts inlined and the
    history register deferred to the local ``h`` for the episode's
    extent (wrong-path mispredict repairs write ``h``, exactly the
    live-register repairs the scalar engine performs; the register is
    restored before ``_finish_wrongpath`` takes the scalar path).
    """
'''
        body = _EPISODE % parts
        gate_sync = ""
        issued = "self.mispredict_window"
    else:
        bound, gate_expr = _GATES[gate]
        setup += bound
        docstring = '''\
    """Fused-predictor twin of ``GatedTraceSession._replay_wrongpath``.

    The ungated fused episode's predicts, drains and deferred history
    local ``h``, on the gated session's per-slot skeleton: the gate is
    checked before every slot, a gated slot spends episode budget on
    one drained slot, and each fetched branch draws its own gap.
    """
'''
        body = _GATED_EPISODE % dict(
            parts, gate=gate_expr,
            gated_drain=_indent(drain, 4),
            gated_tick=_indent(_TICK, 3) if cycle_work else "")
        gate_sync = '''\
    wp_rng._state = wp_state
    stats.gated_cycles += gated_cycles
'''
        issued = "bad_fetched"

    source = ("def _fused_replay_wrongpath(self, trigger):\n" + docstring
              + _indent(_PROLOGUE + setup, 1) + body + '''
    self._next_seq = next_seq
    self._cycle = cycle
    self._inflight = inflight
    self._run_fetch = run_fetch
    self._run_execute = run_execute
    self._run_goodpath = run_goodpath
    history.value = h
''' + gate_sync + '''\
    stats.badpath_fetched += bad_fetched
    engine.badpath_fetched += bad_fetched
    stats.goodpath_executed += good_executed
    stats.badpath_executed += bad_executed
    stats.retired_instructions += retired
    stats.branches_retired += branches_retired
    stats.conditional_branches_retired += cond_retired
'''
              + _indent(sync, 1) + f'''\
    self._finish_wrongpath(
        trigger, {issued} - self.config.frontend_depth)
''')
    if targets is not None:
        source = _inline_deliveries(source, targets)
    return source


_FUSED_CACHE: dict = {}


def _fused_methods(flags):
    """Compile (or fetch cached) fused step/replay methods for one shape.

    ``flags`` is the six member/cycle-work booleans plus the gate kind
    (None when ungated); gated shapes carry the kind in their tag.
    """
    methods = _FUSED_CACHE.get(flags)
    if methods is None:
        *bits, gate = flags
        tag = "".join("1" if flag else "0" for flag in bits)
        if gate is not None:
            tag += "-" + gate
        methods = (
            _compile_method("_fused_step_block", _build_step_source(*flags),
                            globals(), tag),
            _compile_method("_fused_replay_wrongpath",
                            _build_replay_source(*flags), globals(), tag),
        )
        _FUSED_CACHE[flags] = methods
    return methods


# --------------------------------------------------------------------- #
# The fused plan: which stacks the generated loops model exactly.
# --------------------------------------------------------------------- #

_MEMBER_KEYS = {
    PaCoPredictor: "paco",
    StaticMRTPredictor: "static",
    PerBranchMRTPredictor: "pbm",
    ThresholdAndCountPredictor: "tc",
    MDCProfiler: "profiler",
}


def _fused_plan(fetch_engine: FetchEngine):
    """Decide whether the fused loops model this engine's stack exactly.

    Returns the ``{key: predictor}`` member map when they do, or None to
    fall back to the scalar :class:`TraceSession` (which is always
    correct); a gated stack needs :func:`_fused_gate` to model its
    policy as well, or it falls back to :class:`GatedTraceSession`.  The
    checks are exact-type and exhaustive on purpose: anything the
    generated fragments were not written against — custom path
    confidence predictors, subclassed members, oracle tokens, JRS-less
    engines, member-triggered index-range errors the scalar path would
    raise — takes the scalar session, keeping bit-identity trivially.
    """
    confidence = fetch_engine.confidence
    if confidence is None:
        return None
    path_confidence = fetch_engine.path_confidence
    members = {}
    if type(path_confidence) is CompositePathConfidence:
        if not path_confidence._shared_record_tokens:
            return None
        for predictor in path_confidence.predictors:
            key = _MEMBER_KEYS.get(type(predictor))
            if key is None or key in members:
                return None
            members[key] = predictor
        cycle_predictors = list(path_confidence._cycle_predictors)
    elif type(path_confidence) is PaCoPredictor:
        members["paco"] = path_confidence
        cycle_predictors = [path_confidence]
    elif type(path_confidence) is ThresholdAndCountPredictor:
        members["tc"] = path_confidence
        cycle_predictors = []
    else:
        return None
    paco = members.get("paco")
    # The specialized tick models exactly one cycle-periodic machine:
    # PaCo's re-log pass.  Any other cycle work (or a disagreement with
    # _has_cycle_work's conservative answer) falls back.
    if cycle_predictors != ([paco] if paco is not None else []):
        return None
    if _has_cycle_work(path_confidence) != (paco is not None):
        return None
    num_mdc = confidence.num_mdc_values
    if paco is not None and paco.mrt.num_buckets < num_mdc:
        return None
    static = members.get("static")
    if static is not None and static.num_mdc_values < num_mdc:
        return None
    return members


def _fused_gate(policy: GatingPolicy, members: dict) -> Optional[str]:
    """The :data:`_GATES` kind that models ``policy`` over ``members``.

    Returns None — build the scalar :class:`GatedTraceSession` — for
    anything else: ``ProbabilityGating``, subclassed policies, and
    count/PaCo policies over a predictor that is not the session's own
    member (the generated gate reads the member's live state).
    """
    if type(policy) is CountGating:
        key = "count"
        member = members.get("tc")
    elif type(policy) is PaCoGating:
        key = "paco"
        member = members.get("paco")
    else:
        return None
    if member is None or policy.predictor is not member:
        return None
    return key


class FusedTraceSession(TraceSession):
    """A trace replay with staged index columns and fused predictor loops.

    Construction requires a *member map* from :func:`_fused_plan`; the
    session compiles (or reuses) the fused step/episode methods for that
    stack shape and keeps the staged index columns (``_col_*``) aligned
    with the live block buffer.  Every fallback path — phase boundaries,
    non-conditional predicts, the episode tail — runs the inherited
    scalar machinery on the same shared state.
    """

    #: No gate: the generated loops' gate flag is off.
    #: :class:`FusedGatedTraceSession` gets a policy from
    #: :class:`GatedTraceSession`.
    gating_policy: Optional[GatingPolicy] = None

    def __init__(self, fetch_engine: FetchEngine, config: MachineConfig,
                 observers, resolve_window: int, mispredict_window: int,
                 members: dict, block_size: Optional[int] = None,
                 **kwargs) -> None:
        # ``kwargs`` go on along the MRO: the gated subclass passes
        # ``gating_policy`` through to GatedTraceSession.
        super().__init__(fetch_engine, config, observers, resolve_window,
                         mispredict_window, block_size=block_size, **kwargs)
        gate = None
        if self.gating_policy is not None:
            gate = _fused_gate(self.gating_policy, members)
            if gate is None:
                raise ValueError(
                    f"the fused loops do not model {self.gating_policy.name};"
                    " build GatedTraceSession")
        self._paco = members.get("paco")
        self._static = members.get("static")
        self._pbm = members.get("pbm")
        self._tc = members.get("tc")
        self._profiler = members.get("profiler")
        #: The delivery plan of the block being stepped (see
        #: :meth:`_delivery_plan`); None delivers generically.
        self._dv_plan = None
        #: register -> clamped probability memo per probability member,
        #: keyed by the member's id; kept across blocks.
        self._prob_memos = {id(member): {} for member in
                            (self._paco, self._static, self._pbm)
                            if member is not None}
        #: Encoded-probability memo for the per-branch MRT, keyed by the
        #: entry's (correct, total) counters — the exact inputs of
        #: ``_encoded_for`` — so repeated lookups skip the float/log math.
        self._pbm_memo: dict = {}
        flags = (self._paco is not None, self._static is not None,
                 self._pbm is not None, self._tc is not None,
                 self._profiler is not None, self._cycle_work_possible, gate)
        self._fused_step, self._fused_replay = _fused_methods(flags)
        # One slot per block position (``col_f`` one more: the history
        # after the last branch), rewritten in place by ``_stage``.
        size = self.block_size
        self._col_f = [0] * (size + 1)
        self._col_g = [0] * size
        self._col_b = [0] * size
        self._col_c = [0] * size
        self._col_j = [0] * size
        self._col_pbm = [0] * size if self._pbm is not None else None

    def _stage(self, start: int, repair: bool = False) -> None:
        """Stage the history and table-index columns from ``start`` on.

        ``col_f[p]`` is the history register at block position ``p``,
        computed from the live register at ``start`` by pushing every
        conditional's *actual* outcome; at conditional positions
        ``col_g``/``col_b``/``col_c``/``col_j`` (and ``col_pbm``) hold
        the table indices that history selects.  A correctly predicted
        conditional pushes exactly that bit, so the columns stay exact
        until a misprediction episode repairs the register.  ``col_f``
        carries one extra entry, the history after the last branch, so
        the fused loop can sync the live register at any stop position.
        The JRS enhanced-index XOR depends on the *predicted* direction,
        so the fused loop applies it.

        With ``repair`` the call splices the history-divergent span after
        an episode instead (a non-conditional trigger leaves wrong-path
        speculative bits in the register).  The divergence is transient:
        once ``history_bits`` conditional outcomes have pushed, the stale
        bits have shifted out and the staged tail is exact again, so
        staging stops there.  The lists are mutated in place, so the
        fused loop's hoisted locals stay valid without reloading.
        """
        state = self.fetch_engine.state_engine
        history = state._history
        h = history.value
        hist_mask = history.mask
        g_hmask = state._gshare_hist_mask
        g_mask = state._gshare_mask
        b_mask = state._bimodal_mask
        c_hmask = state._chooser_hist_mask
        c_mask = state._chooser_mask
        j_hmask = state._jrs_hist_mask
        j_mask = state._jrs_mask
        col_f = self._col_f
        col_g = self._col_g
        col_b = self._col_b
        col_c = self._col_c
        col_j = self._col_j
        col_pbm = self._col_pbm
        if col_pbm is not None:
            p_hmask = self._pbm._history_mask
            p_mask = self._pbm._mask
        block = self._block
        pcs = block.pc
        kinds = block.kind
        takens = block.taken
        cond_kind = BranchKind.CONDITIONAL
        # Full staging counts down from -1, so it never reconverges early.
        remaining = history.bits if repair else -1
        stop = self._branch_len
        for p in range(start, stop):
            col_f[p] = h
            if kinds[p] is cond_kind:
                pc_bits = pcs[p] >> 2
                col_g[p] = (pc_bits ^ (h & g_hmask)) & g_mask
                col_b[p] = pc_bits & b_mask
                col_c[p] = (pc_bits ^ (h & c_hmask)) & c_mask
                col_j[p] = (pc_bits ^ (h & j_hmask)) & j_mask
                if col_pbm is not None:
                    col_pbm[p] = (pc_bits ^ (h & p_hmask)) & p_mask
                h = ((h << 1) | (1 if takens[p] else 0)) & hist_mask
                remaining -= 1
                if not remaining:
                    # Reconverged: col_f[p + 1] onward already equals the
                    # value staged from the pre-divergence history.
                    return
        col_f[stop] = h

    def _delivery_plan(self):
        """Resolve the inlined observer delivery for the current block.

        Returns ``(diagram targets, counter targets)`` when every attached
        observer is one the generated delivery models exactly, else None
        (each delivery calls every observer's ``record_runs``).  Exact
        types only: at most one :class:`MultiPredictorObserver`, whose
        predictors are all this session's own PaCo / Static-MRT /
        per-branch-MRT members, each pair a ``(predictor, memo, bins,
        num_bins, diagram)`` target; and any number of
        :class:`CounterGoodpathObserver` over the count member, or
        :class:`PhaseAwareCounterObserver` over it and this session's
        generator, each an ``(instances, goodpath, max_count)`` target.
        A phase-aware observer targets its current phase's lists only once
        that phase exists in it; until then the block delivers
        generically, which creates the entry exactly when the observer
        would (the label cannot change inside a staged block).  Gated
        sessions always deliver generically.
        """
        if self.gating_policy is not None:
            return None
        memos = self._prob_memos
        tc = self._tc
        generator = self.fetch_engine.generator
        diagrams = None
        counters = []
        for observer in self.observers:
            kind = type(observer)
            if kind is MultiPredictorObserver:
                if diagrams is not None:
                    return None
                diagrams = []
                for predictor, diagram in observer._pairs:
                    memo = memos.get(id(predictor))
                    if memo is None:
                        return None
                    diagrams.append((predictor, memo, diagram.bins,
                                     diagram.num_bins, diagram))
            elif kind is CounterGoodpathObserver:
                if tc is None or observer.predictor is not tc:
                    return None
                counters.append((observer.instances,
                                 observer.goodpath_instances,
                                 observer.max_count))
            elif kind is PhaseAwareCounterObserver:
                if (tc is None or observer.predictor is not tc
                        or observer.generator is not generator):
                    return None
                phase = generator.current_phase_label or "all"
                instances = observer._instances.get(phase)
                if instances is None:
                    return None
                counters.append((instances, observer._goodpath[phase],
                                 observer.max_count))
            else:
                return None
        return tuple(diagrams or ()), tuple(counters)

    def _step_block(self, max_instructions: int, max_cycles: int) -> None:
        if self._branch_pos >= self._branch_len:
            if not self._refill_block():
                self._step_boundary_branch()
                return
            self._stage(0)
        self._dv_plan = self._delivery_plan()
        self._fused_step(self, max_instructions, max_cycles)


class FusedGatedTraceSession(FusedTraceSession, GatedTraceSession):
    """The fused session with a count or PaCo fetch gate in its loops.

    Built for the gating policies :func:`_fused_gate` models; bit-identical
    to :class:`GatedTraceSession`, which stays the reference and the
    fallback.  The generated step and episode carry the gate; everything
    else comes from the MRO: the block wrapper and staging from
    :class:`FusedTraceSession`, and from :class:`GatedTraceSession` the
    gated boundary step (its wait, then a scalar step whose episode is the
    gated scalar ``_replay_wrongpath``) with its gated-cycle helpers.
    """
