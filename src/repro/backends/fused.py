"""The fused trace loops: codegen-fused steps on the trace replays.

:class:`FusedTraceSession` is what :class:`~repro.backends.trace.TraceBackend`
builds for every predictor stack :func:`_fused_plan` models, ungated or
under a count or PaCo fetch gate (:func:`_fused_gate`).  It reuses every
mechanism of the plain :class:`TraceSession` — block staging,
closed-form gap drawing, the in-flight slot window, run-event batching,
the carried wrong-path branch buffer — and replaces the per-branch
python predictor work with one step function generated per
predictor-stack shape:

* per staged :class:`~repro.workloads.generator.BranchBlock`,
  :meth:`FusedTraceSession._stage` computes the speculative global
  history at every branch position and the gshare / bimodal / chooser /
  JRS (and per-branch-MRT) table indices in one pure-python pass.  On the
  good path a *correctly predicted* conditional branch pushes its
  predicted == actual direction into the history register, so as long as
  no misprediction intervenes the history at position ``i`` is a pure
  function of the history at the block start and the block's outcome
  column;
* the generated step reads those columns and inlines the table
  reads/updates, the path confidence predictor fan-out and the observer
  run batching — removing the per-branch ``predict_from_block`` /
  ``resolve_record`` / composite call chain entirely.  Non-conditional
  branches are predicted and resolved inline as well (BTB lookup and
  insert, RAS push and pop, indirect-target predict and update);
* a mispredicted good-path branch runs the wrong-path episode and its
  tail (trigger resolve, squash, recovery, retire accounting, redirect
  penalty, tick) inside the step, on the same hoisted locals and
  deferred counters; only a trigger that leaves the history register
  diverged from the staged column (a non-conditional one) re-stages the
  affected span;
* observer delivery is inlined too when the attached observers are the
  accuracy harness's kinds over the stack's own members: per block,
  :meth:`FusedTraceSession._delivery_plan` resolves the diagram and
  counter targets every delivery site of the step (the episode tail's
  included) writes directly — a diagram into step-local columns that
  :meth:`FusedTraceSession._write_back` folds into its bins once the
  step returns — and any other observer set delivers through
  ``record_runs``.  Every delivery site emits both arms in place.

Only phase-boundary branches run the scalar machinery on the shared
state: they step through :meth:`TraceSession._step_boundary_branch`
(gate wait and wrong-path episode included).  Stacks the generated step
does not model — custom path confidence predictors, oracle tokens,
JRS-less configurations — and gating policies it does not model
(subclassed policies, policies over a predictor that is not the stack's
own member) get the plain :class:`TraceSession` instead.

The gate is the seventh stack-shape flag: none, count or paco.  A gated
step inlines ``TraceSession._gated_wait`` before every gap+branch step,
and a gated episode runs the plain episode's per-slot skeleton (gate
check, then one gap draw and the next buffered wrong-path branch) with
the fused predicts and drains.  Gated cycles over a run of non-branch
slots batch, exactly (see :func:`_step_head`).

The same fragments also assemble the two-thread SMT loop,
``_fused_smt_run``, which :meth:`TraceSMTCore.run
<repro.backends.smt_trace.TraceSMTCore.run>` runs for every core the
fig12 harness builds under ICOUNT, count or PaCo fetch arbitration
(:func:`_smt_plan` admits two threads with one PaCo or one
threshold-and-count predictor each).  Each thread's copy of a fragment
is renamed with a ``t0_``/``t1_`` prefix, so every single-thread step
source stays byte-identical (``tests/test_fused_sources.py``).  Its
contract is bit-identity with ``TraceSMTCore._run_scalar``
(``tests/test_smt_fused_parity.py``).  Every loop compiles lazily, at
the first run of its shape.

The session's contract is bit-identity with :class:`TraceSession`, which
stays as the reference: the run-event stream, every statistic and every
trained table must match exactly (``tests/test_backends.py`` pins block
sizes 1/17/256/4096 for paco/counter and wrong-path-heavy configs, the
whole ``AccuracyResult`` of every accuracy profile at the harness level,
the reliability diagrams' float accumulators included, and the fused
gate against the gated :class:`TraceSession` on tiny, wrong-path-heavy
and phased specs).
"""

from __future__ import annotations

import linecache
import math
import re
from typing import Optional

from repro.backends.trace import TraceSession, _has_cycle_work
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
# The step is assembled from module-level source fragments and compiled
# once per predictor-stack shape (which built-in path confidence
# predictors are attached, whether any cycle-periodic work exists, and
# which fetch gate, if any, is in the loop).  Every fragment is written
# at zero indentation and placed with ``_indent``.
#
# Each piece of generated text has one source.  One builder,
# ``_predict_cond``, emits every conditional predict, parameterised by
# its index source: staged columns on the good path, a hash of a history
# local on the wrong path and in the SMT loop.  Each delivery site emits
# its own generic and plan arms (``_deliver``), so no pass rewrites an
# assembled source.
#
# Fragment vocabulary: ``record``/``entry`` (the BranchRecord being
# fetched / resolved), ``trigger`` (an episode's mispredicted good-path
# branch), ``mdc`` (its JRS value), ``i`` (block position, good path
# only), ``pc_bits``/``h`` (wrong-path scalar index inputs; ``h`` is the
# history register for an episode's extent), plus the deferred counters
# declared by the prologue and setup fragments, added to their owners
# once when the step returns.  Deferred
# counters are purely additive statistics nothing reads mid-run; every
# value an observer can read at a delivery point (path confidence
# registers, the low-confidence count, the MRT counters and encoded
# probabilities) is kept live.
# --------------------------------------------------------------------- #


def _indent(source: str, levels: int) -> str:
    pad = "    " * levels
    return "".join(pad + line if line.strip() else line
                   for line in source.splitlines(True))


def _compile_method(name: str, source: str, scope: dict, tag: str = ""):
    """Compile one generated method against the module globals ``scope``.

    The source is registered with :mod:`linecache` under a filename naming
    the module, the method and ``tag`` (the stack shape), so tracebacks
    show the generated lines.
    """
    filename = f"<{scope['__name__']}:{name}{':' + tag if tag else ''}>"
    namespace: dict = {}
    exec(compile(source, filename, "exec"), scope, namespace)
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return namespace[name]


#: The predictor stack's tables, masks and thresholds on locals, read
#: from ``engine`` (the fetch engine).
_PREDICTOR_HOISTS = '''\
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
ras = state._ras
ras_stack = ras._stack
ras_depth = ras.depth
indirect = state._indirect
ind_table = indirect._table
ind_mask = indirect._mask
ind_hmask = indirect._history_mask if indirect.use_history else 0
gshare_table = state._gshare_table
gshare_threshold = state._gshare_threshold
gshare_max = state._gshare_max
gshare_hmask = state._gshare_hist_mask
gshare_mask_v = state._gshare_mask
bimodal_table = state._bimodal_table
bimodal_threshold = state._bimodal_threshold
bimodal_max = state._bimodal_max
bimodal_mask_v = state._bimodal_mask
chooser = state._chooser
chooser_hmask = state._chooser_hist_mask
chooser_mask_v = state._chooser_mask
jrs_table = state._jrs_table
jrs_hmask = state._jrs_hist_mask
jrs_mask_v = state._jrs_mask
jrs_max = state._jrs_max
jrs_shift = state._jrs_enhanced_shift
jrs_enh_bit = (1 << jrs_shift) if jrs_shift >= 0 else 0
'''

#: The deferred predictor-stack counters (see :data:`_SYNC_BASE`).
_DEFERRED_INIT = '''\
eng_branches = 0
eng_cond = 0
fe_total = 0
fe_cond = 0
fe_misp = 0
fe_cond_misp = 0
jrs_lookups = 0
jrs_updates = 0
jrs_resets = 0
btb_lookups = 0
btb_hits = 0
btb_evictions = 0
ras_pushes = 0
ras_pops = 0
ras_underflows = 0
ind_lookups = 0
ind_hits = 0
'''

_PROLOGUE = ('''\
engine = self.fetch_engine
stats = self.stats
window = self._window
observers = self.observers
has_observers = bool(observers)
events = self._events
path_confidence = engine.path_confidence
resolve_window = self.resolve_window
kind_conditional = BranchKind.CONDITIONAL
kind_call = BranchKind.CALL
kind_return = BranchKind.RETURN
kind_indirect = BranchKind.INDIRECT
kind_indirect_call = BranchKind.INDIRECT_CALL
''' + _PREDICTOR_HOISTS + '''\
record_cls = BranchRecord
record_new = BranchRecord.__new__
thread_id = engine.generator.thread_id
frontend_depth = self.config.frontend_depth
redirect_penalty = self.config.redirect_penalty
mispredict_window = self.mispredict_window
log_one_minus_p = self._log_one_minus_p
wp_rng = self._wp_gap_rng
next_wp_block = engine.wrongpath_generator.next_branch_block
wp_block = self._wp_block
wp_cap = wp_block.capacity
wp_pc = wp_block.pc
wp_taken = wp_block.taken
wp_target = wp_block.target
wp_sid = wp_block.static_branch_id
wp_pos = self._wp_pos
''' + _DEFERRED_INIT)

# ----- per-member setup / fetch / resolve / squash / sync fragments --- #

_PACO_SETUP = '''\
paco = %(owner)s
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
smrt = %(owner)s
smrt_encoded = smrt.encoded_probabilities
smrt_outstanding = 0
'''

_PBM_SETUP = '''\
pbm = %(owner)s
pbm_correct = pbm._correct
pbm_total = pbm._total
pbm_neg_scale = -pbm.scale
pbm_clamp = pbm.clamp
log2 = math.log2
ceil = math.ceil
pbm_hmask = pbm._history_mask
pbm_mask_v = pbm._mask
pbm_outstanding = 0
'''

_TC_SETUP = '''\
tc = %(owner)s
tc_threshold = tc.threshold
tc_fetched = 0
tc_low = 0
tc_outstanding = 0
'''

_PROF_SETUP = '''\
prof = %(owner)s
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

#: ``PerBranchMRTPredictor._encoded_for`` inlined: the entry's long-run
#: rate through the arms of ``encode_probability_exact``.
_PBM_FETCH_TAIL = '''\
pbm_p = pbm_correct[pidx] / pbm_total[pidx]
if pbm_p <= 0.0:
    enc = pbm_clamp
elif pbm_p >= 1.0:
    enc = 0
else:
    enc = ceil(pbm_neg_scale * log2(pbm_p))
    if enc < 0:
        enc = 0
    if enc > pbm_clamp:
        enc = pbm_clamp
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

# Resolve fragments run for good-path records in the drains, which are
# never mispredicted (a mispredicted good-path branch triggers an episode
# instead of entering the window), so the MRT record is always
# was_correct=True and the profiler always counts correct.  The episode
# tail resolves its mispredicted trigger with the ``_MISP`` variants.
_PACO_REMOVE = '''\
enc = entry.encoded_added
if enc is not None:
    entry.encoded_added = None
    reg = paco.path_confidence_register - enc
    paco.path_confidence_register = reg if reg > 0 else 0
    paco_outstanding -= 1
'''

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
''' + _PACO_REMOVE

_PACO_RESOLVE_MISP = '''\
paco_resolved += 1
counter = mrt_counters[entry.mdc_value]
cm = counter.mispredicted
if cm >= counter._mispredict_max:
    counter.correct >>= 1
    counter.mispredicted = (cm >> 1) + 1
else:
    counter.mispredicted = cm + 1
mrt_samples += 1
''' + _PACO_REMOVE

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

_PBM_RESOLVE_MISP = '''\
pbm_total[entry.table_index] += 1
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

_PROF_RESOLVE_MISP = '''\
bucket = entry.profile_bucket
if bucket is not None:
    entry.profile_bucket = None
    prof_mispredicted[bucket] += 1
'''

_PACO_SQUASH = "paco_squashed += 1\n" + _PACO_REMOVE

_PROF_SQUASH = '''\
entry.profile_bucket = None
'''

#: Each member's fragments: (setup, good-path fetch, wrong-path fetch,
#: resolve, mispredicted-trigger resolve, squash, sync).  The setup binds
#: the member from ``%(owner)s``: the session's ``self._<key>`` or an SMT
#: thread's ``engine.path_confidence``.  The PaCo re-log hoist is added
#: separately when the shape has cycle work.
_MEMBERS = {
    "paco": (_PACO_SETUP, _PACO_FETCH, _PACO_FETCH, _PACO_RESOLVE,
             _PACO_RESOLVE_MISP, _PACO_SQUASH, '''\
paco.fetched_branches += paco_fetched
paco.resolved_branches += paco_resolved
paco.squashed_branches += paco_squashed
paco._outstanding += paco_outstanding
mrt.samples_recorded += mrt_samples
'''),
    "static": (_STATIC_SETUP, _STATIC_FETCH, _STATIC_FETCH, _STATIC_REMOVE,
               _STATIC_REMOVE, _STATIC_REMOVE, '''\
smrt._outstanding += smrt_outstanding
'''),
    "pbm": (_PBM_SETUP, _PBM_FETCH_GOOD, _PBM_FETCH_WP,
            _PBM_RESOLVE, _PBM_RESOLVE_MISP, _PBM_REMOVE, '''\
pbm._outstanding += pbm_outstanding
'''),
    "tc": (_TC_SETUP, _TC_FETCH, _TC_FETCH, _TC_REMOVE, _TC_REMOVE,
           _TC_REMOVE, '''\
tc.fetched_branches += tc_fetched
tc.low_confidence_branches += tc_low
tc._outstanding += tc_outstanding
'''),
    "profiler": (_PROF_SETUP, _PROF_FETCH, _PROF_FETCH, _PROF_RESOLVE,
                 _PROF_RESOLVE_MISP, _PROF_SQUASH, ""),
}

#: The deferred counters, added to their owners once when the generated
#: step returns.  Nothing reads them mid-run.
_SYNC_BASE = '''\
engine.branches_fetched += eng_branches
engine.conditional_branches_fetched += eng_cond
frontend.total_predictions += fe_total
frontend.conditional_predictions += fe_cond
frontend.total_mispredictions += fe_misp
frontend.conditional_mispredictions += fe_cond_misp
confidence.lookups += jrs_lookups
confidence.updates += jrs_updates
confidence.resets += jrs_resets
btb.lookups += btb_lookups
btb.hits += btb_hits
btb.evictions += btb_evictions
ras.pushes += ras_pushes
ras.pops += ras_pops
ras.underflows += ras_underflows
indirect.lookups += ind_lookups
indirect.hits += ind_hits
'''


# ----- BTB, training and resolve blocks ------------------------------- #

#: ``BranchTargetBuffer.predict_target`` for the tag ``tag``, into
#: ``btb_target``.
_BTB_LOOKUP = '''\
btb_lookups += 1
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
'''

#: ``BranchTargetBuffer.update`` of the tag ``tag`` to ``btarget``.
_BTB_INSERT = '''\
bset = btb_sets[tag & btb_set_mask]
if bset is None:
    bset = btb_set_cls(btb_ways)
    btb_sets[tag & btb_set_mask] = bset
bentries = bset.entries
for position, way in enumerate(bentries):
    if way[0] == tag:
        way[1] = btarget
        if position:
            bentries.insert(0, bentries.pop(position))
        break
else:
    if len(bentries) >= btb_ways:
        bentries.pop()
        btb_evictions += 1
    bentries.insert(0, [tag, btarget])
'''

#: Conditional-branch training of the tournament tables on a good-path
#: record: the inlined body of ``PredictorStateEngine.resolve_record`` up
#: to the JRS update.  Uses ``entry`` and ``actual``.  The BTB update
#: (taken branches only) is the resolving site's :data:`_BTB_TRAIN`.
_TRAIN_TABLES = '''\
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
btarget = entry.out_target if actual else None
jrs_updates += 1
'''

#: A correctly predicted conditional: its MDC counts up.
_TRAIN_COND = _TRAIN_TABLES + '''\
index = entry.mdc_index
value = jrs_table[index]
if value < jrs_max:
    jrs_table[index] = value + 1
'''

#: The mispredicted episode trigger: its MDC resets.
_TRAIN_COND_MISP = _TRAIN_TABLES + '''\
jrs_resets += 1
jrs_table[entry.mdc_index] = 0
'''

#: A good-path non-conditional branch resolving (``FetchEngine.
#: resolve_record`` inlined): jumps and calls train the BTB (through the
#: site's :data:`_BTB_TRAIN`), indirect branches the indirect-target
#: table and the BTB, returns nothing.  Wrong-path branches are all
#: conditional, so every non-conditional record in the window trains.
_RESOLVE_OTHER = '''\
entry.resolved = True
ekind = entry.kind
if ekind is kind_return:
    btarget = None
else:
    btarget = entry.out_target
    if ekind is kind_indirect or ekind is kind_indirect_call:
        ind_table[((entry.pc >> 2) ^ (entry.history & ind_hmask))
                  & ind_mask] = btarget
'''

#: The BTB update a resolving record's training left in ``btarget``
#: (None: no update).  Architectural targets are never None, and the BTB
#: is independent of the JRS and path confidence updates it follows.
_BTB_TRAIN = '''\
if btarget is not None:
    tag = entry.pc >> 2
''' + _indent(_BTB_INSERT, 1)


def _good_drain(resolve_members: str, targets=None) -> str:
    """The good-path drain body (zero indent).

    Simplified relative to the trace backend's general drain by two
    window invariants that hold throughout the fused good-path loop: the
    window contains only positive gap runs (the episode tail squashes
    every wrong-path entry) and only never-mispredicted good-path records
    (a mispredicted good-path branch takes the episode path instead of
    entering the window), so the negative-gap arm, the mispredict-retire
    counters and the ``run_goodpath`` recomputation all drop out.
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
''' + _indent(_runs_delivery("entry.path_token is not None",
                          targets), 1) + '''\
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
''' + _indent(_TRAIN_COND, 2) + _indent(resolve_members, 2) + '''\
        cond_retired += 1
    else:
''' + _indent(_RESOLVE_OTHER, 2) + _indent(_BTB_TRAIN, 1) + '''\
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
    episode's history local ``h``, exactly the live-register repair the
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
''' + _indent(_runs_delivery("entry.path_token is not None",
                          targets), 1) + '''\
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
        if entry.on_goodpath:
''' + _indent(_TRAIN_COND, 3) + _indent(resolve_members, 3) + '''\
        else:
            btarget = None
            if entry.mispredicted:
                h = (((entry.history & hist_mask) << 1)
                     | (1 if actual else 0)) & hist_mask
''' + _indent(squash_members, 3) + '''\
    else:
''' + _indent(_RESOLVE_OTHER, 2) + _indent(_BTB_TRAIN, 1) + '''\
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


def _tick_deliver(targets) -> str:
    """The delivery half of the cycle tick: buffered events flush before
    the tick could change state (zero indent)."""
    return "if has_observers and events:\n" + _indent(_deliver(targets), 1)


def _tick(targets) -> str:
    """The per-branch cycle tick (zero indent), specialized to the one
    cycle-periodic machine the fused plan admits (PaCo's re-log pass).

    Buffered events always flush pre-tick exactly as the scalar tick
    does, but the ``on_cycle`` *call* — a composite fan-out plus
    ``maybe_relog``'s own period check, every branch — is guarded by the
    same period comparison on hoisted locals, which is what makes the
    fused loop's tick nearly free.  When the pass runs, it returns True
    by construction, so the open run closes unconditionally.
    """
    return _tick_deliver(targets) + '''\
if cycle - mrt_last >= mrt_period:
    path_confidence.on_cycle(cycle)
    if has_observers:
''' + _indent(_close_runs("", targets), 2) + '''\
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

#: Caps a batch of gated cycles before the next re-log pass falls due:
#: the cycle that runs it is stepped on its own.
_RELOG_LIMIT = '''\
limit = mrt_last + mrt_period - cycle - 1
if batch > limit:
    batch = limit
'''


def _gap_append(goodpath: bool) -> str:
    """A gap of ``gap`` slots joins the window's last run of its path, or
    opens one (zero indent): good-path runs count up, wrong-path runs
    down."""
    if goodpath:
        test, add, run = "> 0", "+=", "gap"
    else:
        test, add, run = "< 0", "-=", "-gap"
    return f'''\
if window and type(window[-1]) is int and window[-1] {test}:
    window[-1] {add} gap
else:
    window.append({run})
inflight += gap
'''


def _gap_fetch(goodpath: bool) -> str:
    """A nonzero single-thread gap: fetched in ``gap`` cycles into the
    open fetch run, then appended (zero indent)."""
    return (("good" if goodpath else "bad") + "_fetched += gap\n"
            "cycle += gap\nrun_fetch += gap\n" + _gap_append(goodpath))


#: One good-path gap: fetched and appended to the window's last good
#: run (zero indent).
_GOOD_GAP = '''\
gap = gaps[gap_pos]
gap_pos += 1
if gap:
''' + _indent(_gap_fetch(True), 1)


def _step_head(gate_expr: Optional[str], drain: str,
               cycle_work: bool) -> str:
    """The good-path step up to the predict (indent 2 of the step loop).

    Ungated: the gap, then the drain loop.  Gated, the step opens with
    ``TraceSession._gated_wait`` on the same drain: each gated cycle
    completes one slot and ticks, and once the gate opens the budget and
    cycle limit are re-checked before the gap, as the scalar step does
    (a stop leaves ``predicted`` False).  A run of non-branch slots at
    the head of the window drains in one batch of gated cycles: nothing
    the gate reads changes until a record resolves, so the gate stays
    closed for the whole run.  A batch stops short of a due re-log pass.
    Gated shapes deliver generically (:func:`_plan_targets`).
    """
    if gate_expr is None:
        return (_indent(_GOOD_GAP, 2) + '''\
        predicted = False
        while True:
            if inflight > resolve_window:
                excess = inflight - resolve_window
                while excess > 0:
''' + _indent(drain, 5))
    return ('''\
        waiting = True
        predicted = False
        while True:
            if waiting:
''' + f"                if {gate_expr} and window:\n" + '''\
                    batch = window[0]
                    if type(batch) is int:
''' + (_indent(_RELOG_LIMIT, 6) if cycle_work else "") + '''\
                        if batch > 0:
                            gated_cycles += batch
                            cycle += batch
                            good_executed += batch
                            retired += batch
                            run_execute += batch
                            inflight -= batch
                            if batch < window[0]:
                                window[0] -= batch
                            else:
                                window.popleft()
''' + (_indent(_tick_deliver(None), 7) if cycle_work else "") + '''\
                            continue
                    gated_cycles += 1
                    cycle += 1
                    excess = 1
                else:
                    waiting = False
                    if (retired_base + retired >= max_instructions
                            or cycle >= max_cycles):
                        break
''' + _indent(_GOOD_GAP, 5) + '''\
                    excess = inflight - resolve_window
            else:
                excess = inflight - resolve_window
            while excess > 0:
''' + _indent(drain, 4) + '''\
            if waiting:
''' + _indent(_tick(None) if cycle_work else "continue\n", 4)
            + ("                continue\n" if cycle_work else ""))


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
    dv_sums[dv_bi] += dv_p * dv_inst
else:
    dv_ps = dv_sums[dv_bi]
    for dv_w in dv_weights:
        dv_ps += dv_p * dv_w
    dv_sums[dv_bi] = dv_ps
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
    dv_sums[dv_bi] += dv_p * run_fetch
if run_execute:
    dv_sums[dv_bi] += dv_p * run_execute
'''

#: One diagram target: the ``(probability, bin)`` memo keyed on the raw
#: register (each admitted predictor's probability is a pure function of
#: it), the batch's terms into the local ``predicted_sum`` column, then
#: the local integer columns.  :meth:`FusedTraceSession._write_back`
#: folds the columns into the diagram (the target's last element) once
#: the step returns.
_DIAG_DELIVER = '''\
for dv_pred, dv_memo, dv_sums, dv_ins, dv_gps, dv_diag in dv_diags:
    dv_pb = dv_memo.get(dv_pred.path_confidence_register)
    if dv_pb is None:
        dv_pb = _memo_probability(dv_pred, dv_memo, len(dv_sums))
    dv_p, dv_bi = dv_pb
%(accumulate)s\
    dv_ins[dv_bi] += dv_inst
    dv_gps[dv_bi] += dv_good
'''

#: Every counter target reads the session's own count member once.
_COUNTER_DELIVER = '''\
dv_low = tc._low_confidence_outstanding
for dv_ci, dv_cg, dv_max in dv_counters:
    dv_b = dv_low if dv_low < dv_max else dv_max
    dv_ci[dv_b] += dv_inst
    dv_cg[dv_b] += dv_good
'''


def _memo_probability(predictor, memo: dict, num_bins: int) -> tuple:
    """Decode ``predictor``'s probability into ``memo`` (a delivery's miss).

    Stores what ``ReliabilityDiagram.record`` computes for a diagram of
    ``num_bins`` bins — the probability clamped into [0, 1] and its bin
    index — under the register it was decoded from.
    """
    if len(memo) > (1 << 20):  # unbounded-growth guard
        memo.clear()
    probability = predictor.goodpath_probability()
    if not 0.0 <= probability <= 1.0:
        probability = min(max(probability, 0.0), 1.0)
    entry = (probability, min(int(probability * num_bins), num_bins - 1))
    memo[predictor.path_confidence_register] = entry
    return entry


def _plan_targets(has_paco: bool, has_static: bool, has_pbm: bool,
                  has_tc: bool, gate: Optional[str]):
    """The target loops a shape's inlined delivery carries, or None.

    ``(diagrams, counters)``: a diagram loop when the stack has a
    probability member a plan can target, a counter loop when it has the
    count member.  A diagram loop accumulates into the plan's local
    columns, so no delivery inside such a step may call ``record_runs``
    (it would write the diagram behind them): the episode tail delivers
    inline as well.  Gated shapes (no campaign attaches observers to
    them) and member-less shapes deliver generically only, which keeps
    their generated source to the size it needs.
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


def _deliver(targets) -> str:
    """One delivery of the buffered events, which it then clears (zero
    indent).

    Without plan ``targets`` every observer's ``record_runs`` takes the
    batch.  With them the site carries both arms: ``record_runs`` while
    no plan is resolved (``dv_plan is None``), else the batch folds into
    the plan's targets.
    """
    source = '''\
for observer in observers:
    observer.record_runs(events)
'''
    if targets is not None:
        source = ("if dv_plan is None:\n" + _indent(source, 1) + "else:\n"
                  + _indent(_plan_delivery(targets, _EVENTS_FOLD,
                                           _EVENTS_ACCUMULATE), 1))
    return source + "del events[:]\n"


def _close_runs(cond: str, targets) -> str:
    """Buffer the open runs as event tuples, then deliver the batch when
    it is nonempty and ``cond`` holds ("" = always) (zero indent)."""
    return ('''\
if run_fetch:
    events.extend(("fetch", run_goodpath, cycle, run_fetch))
if run_execute:
    events.extend(("execute", run_goodpath, cycle, run_execute))
''' + (f"if events and {cond}:\n" if cond else "if events:\n")
            + _indent(_deliver(targets), 1))


def _runs_delivery(cond: str, targets) -> str:
    """One delivery site (zero indent): with observers attached, the
    open runs close and deliver, then restart empty.

    ``cond`` is the site's delivery condition ("" = deliver whenever
    events are pending).  The generic shape buffers the open runs and
    delivers the batch (:func:`_close_runs`); with plan ``targets``,
    when a plan is resolved, delivery is due and nothing is already
    buffered, the open runs fold straight into the targets without
    touching the events list at all.
    """
    source = _close_runs(cond, targets)
    if targets is not None:
        source = ("if dv_plan is not None and not events"
                  + (f" and {cond}" if cond else "") + ":\n"
                  + _indent("if run_fetch or run_execute:\n", 1)
                  + _indent(_plan_delivery(targets, _LOCAL_FOLD,
                                           _LOCAL_ACCUMULATE), 2)
                  + "else:\n" + _indent(source, 1))
    return ("if has_observers:\n" + _indent(source, 1)
            + "run_fetch = 0\nrun_execute = 0\n")


# ----- inline predict fragments ---------------------------------------- #

def _predict_cond(hist: Optional[str], fetch_members: str, record_flags,
                  wrong_path: bool = False) -> str:
    """One conditional predict: the inlined body of ``predict_columns`` +
    ``predict_from_block`` for a conditional branch (zero indent).

    ``hist`` is the index source.  None reads every table index from the
    staged ``col_*`` columns at good-path position ``i`` and defers the
    speculative history push: ``col_f`` already encodes it for every
    later position, and the episode head materializes it only when the
    branch mispredicts.  Otherwise the indices hash from the history
    local ``hist`` names, which then takes the push: ``h``, the
    episode's history local, for a wrong-path branch (bit-identical to
    the live-register reads the scalar episode performs), and ``hist``
    for an SMT thread's good-path branch.  ``wrong_path`` predicts the
    next branch of the session's carried wrong-path buffer (refilled a
    whole buffer at a time) in place of the staged block's, and fetches
    it into the window as one episode slot.  ``fetch_members`` is the
    path confidence fan-out; ``record_flags`` are the member flags of
    :func:`_record_init`.
    """
    src, pos = ("wp_", "wp_i") if wrong_path else ("block_", "i")
    if hist is None:
        head = "hist = col_f[i]\n"
        g, b, c, j = "col_g[i]", "col_b[i]", "col_c[i]", "col_j[i]"
        g_set = b_set = c_set = ""
        tag = "pc >> 2"
    else:
        def hashed(table):
            return f"(pc_bits ^ ({hist} & {table}_hmask)) & {table}_mask_v"
        head = ""
        g, b, c, j = "gidx", "bidx", "cidx", hashed("jrs")
        g_set = f"pc_bits = pc >> 2\ngidx = {hashed('gshare')}\n"
        b_set = "bidx = pc_bits & bimodal_mask_v\n"
        c_set = f"cidx = {hashed('chooser')}\n"
        tag = "pc_bits"
    if wrong_path:
        head = '''\
if wp_pos >= wp_cap:
    next_wp_block(wp_block, wp_cap)
    wp_pos = 0
wp_i = wp_pos
wp_pos += 1
'''
    source = (head + f"pc = {src}pc[{pos}]\n" + g_set
              + f"gshare_taken = gshare_table[{g}] >= gshare_threshold\n"
              + b_set
              + f"bimodal_taken = bimodal_table[{b}] >= bimodal_threshold\n"
              + c_set + f'''\
chose_gshare = chooser[{c}] >= 2
taken = gshare_taken if chose_gshare else bimodal_taken
tag = {tag}
''' + _BTB_LOOKUP
              + _record_init(hist or "hist", f"{src}sid[{pos}]", *record_flags)
              + f'''\
record.target = btb_target if taken else None
record.btb_hit = btb_target is not None
record.gshare_taken = gshare_taken
record.gshare_index = {g}
record.bimodal_taken = bimodal_taken
record.bimodal_index = {b}
record.chooser_index = {c}
record.chose_gshare = chose_gshare
ji = {j}
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
actual = {src}taken[{pos}]
mispredicted = taken != actual
record.mispredicted = mispredicted
if mispredicted:
    fe_misp += 1
    fe_cond_misp += 1
record.path_token = record
''' + fetch_members + f'''\
record.kind = kind_conditional
record.out_taken = actual
record.out_target = {src}target[{pos}]
record.on_goodpath = {not wrong_path}
record.seq = seq
''')
    if hist is not None:
        source += (f"{hist} = (({hist} << 1) | (1 if taken else 0))"
                   " & hist_mask\n")
    if wrong_path:
        source += '''\
bad_fetched += 1
cycle += 1
run_fetch += 1
window.append(record)
inflight += 1
'''
    return source


#: Good-path non-conditional predict (the non-conditional arm of
#: ``predict_columns`` + ``predict_from_block``): a return pops the RAS,
#: an indirect branch reads the indirect-target table and falls back to
#: the BTB, jumps and calls read the BTB, and calls push their return
#: address.  The record carries the slots the drains and the episode
#: tail read; it never gets a path token.  It reads the history local
#: ``hist``: the single-thread step loads it from ``col_f`` first.
_PREDICT_OTHER = '''\
pc = block_pc[i]
if kind is kind_return:
    ras_pops += 1
    if ras_stack:
        predicted_target = ras_stack.pop()
    else:
        ras_underflows += 1
        predicted_target = None
else:
    predicted_target = None
    if kind is kind_indirect or kind is kind_indirect_call:
        ind_lookups += 1
        predicted_target = ind_table.get(((pc >> 2) ^ (hist & ind_hmask))
                                         & ind_mask)
        if predicted_target is not None:
            ind_hits += 1
    if predicted_target is None:
        tag = pc >> 2
''' + _indent(_BTB_LOOKUP, 2) + '''\
        predicted_target = btb_target
    if kind is kind_call or kind is kind_indirect_call:
        ras_pushes += 1
        if len(ras_stack) >= ras_depth:
            del ras_stack[0]
        ras_stack.append(pc + 4)
actual_target = block_target[i]
mispredicted = predicted_target != actual_target
record = record_new(record_cls)
record.pc = pc
record.mdc_value = 0
record.predicted_taken = True
record.taken = True
record.history = hist
record.static_branch_id = block_sid[i]
record.thread_id = thread_id
record.target = predicted_target
record.btb_hit = predicted_target is not None
record.mispredicted = mispredicted
record.path_token = None
record.resolved = False
record.is_conditional = False
record.kind = kind
record.out_taken = block_taken[i]
record.out_target = actual_target
record.on_goodpath = True
record.seq = seq
eng_branches += 1
fe_total += 1
if mispredicted:
    fe_misp += 1
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


# ----- the wrong-path episode ------------------------------------------- #

#: Episode entry: the trigger leaves the window path, and the history
#: local ``h`` takes the live register's value after its predict (a
#: conditional pushed its predicted direction, a non-conditional left
#: the register alone).
_EPISODE_HEAD = '''\
run_goodpath = False
trigger = record
if kind is kind_conditional:
    h = ((hist << 1) | (1 if taken else 0)) & hist_mask
else:
    h = hist
'''

#: The ungated episode body: every gap of the ``mispredict_window``
#: budget from one ``geometric_episode`` call, then one (gap, branch)
#: step per gap.  The budget is always spent exactly, so every slot
#: counts as fetched for the issue estimate.
_EPISODE = '''\
n_gaps, n_branches = wp_episode(log_one_minus_p, wp_gaps, mispredict_window)
for g in range(n_gaps):
    gap = wp_gaps[g]
    if gap:
''' + _indent(_gap_fetch(False), 2) + '''\
    fetched_branch = False
    while True:
        if inflight > resolve_window:
            excess = inflight - resolve_window
            while excess > 0:
%(drain)s\
        if fetched_branch or g >= n_branches:
            break
        fetched_branch = True
%(deliver)s\
        seq = next_seq
        next_seq += 1
%(predict)s\
    if g >= n_branches:
        break
%(tick)s\
issued = mispredict_window
'''

#: The gated episode body: the per-slot loop of
#: ``TraceSession._replay_wrongpath``.  The budget counts cycles; a
#: gated slot completes the oldest in-flight slot (if any) and ticks,
#: otherwise exactly one gap is drawn — ``geometric_block(..., 1)`` with
#: the xorshift inlined on a local copy of the stream state — clamped to
#: the remaining budget.  The gap stream may not be pre-drawn: a gated
#: slot or a clamped gap ends the draws wherever the scalar loop would
#: have stopped.  Gated slots over a non-branch run at the window head
#: (or over an empty window) batch: nothing the gate reads changes until
#: a record resolves.  A batch stops at the remaining budget and short
#: of a due re-log pass.
_GATED_EPISODE = '''\
wp_start = bad_fetched
remaining = mispredict_window
while remaining:
    if %(gate)s:
        batch = remaining
        if window:
            entry = window[0]
            if type(entry) is int:
                size = entry if entry > 0 else -entry
                if size < batch:
                    batch = size
            else:
                batch = 0
%(relog_limit)s\
        if batch > 0:
            gated_cycles += batch
            cycle += batch
            remaining -= batch
            if window:
                if entry > 0:
                    good_executed += batch
                    retired += batch
                else:
                    bad_executed += batch
                run_execute += batch
                inflight -= batch
                if batch < size:
                    window[0] = entry - batch if entry > 0 else entry + batch
                else:
                    window.popleft()
%(batch_tick)s\
            continue
        gated_cycles += 1
        cycle += 1
        remaining -= 1
        fetched_branch = True
        excess = 1 if window else 0
    else:
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
''' + _indent(_gap_fetch(False), 3) + '''\
            remaining -= gap
        fetched_branch = False
        excess = inflight - resolve_window
    while True:
        while excess > 0:
%(drain)s\
        if fetched_branch or not remaining:
            break
        fetched_branch = True
%(deliver)s\
        seq = next_seq
        next_seq += 1
%(predict)s\
        remaining -= 1
        excess = inflight - resolve_window
    if not fetched_branch:
        break
%(tick)s\
issued = bad_fetched - wp_start
'''

#: The episode tail (``TraceSession._finish_wrongpath``, inlined):
#: account the wrong-path slots estimated to have issued, close and
#: deliver the open runs (``%(deliver)s``), resolve the trigger (history
#: repair, training, MDC reset, the members' resolve), squash every
#: younger wrong-path entry, retire the trigger, and charge the redirect
#: penalty before the tick.
_TAIL = '''\
issued -= frontend_depth
if issued > 0:
    bad_executed += issued
%(deliver)s\
flushes += 1
entry = trigger
entry.resolved = True
if entry.is_conditional:
    actual = entry.out_taken
    h = (((entry.history & hist_mask) << 1) | (1 if actual else 0)) \\
        & hist_mask
%(train)s\
%(resolve_misp)s\
    cond_retired += 1
    cond_misp_retired += 1
else:
%(resolve_other)s\
%(btb_train)s\
while window:
    entry = window[-1]
    if type(entry) is int:
        if entry > 0:
            break
        window.pop()
        inflight += entry
    elif entry.on_goodpath:
        break
    else:
        window.pop()
        inflight -= 1
        entry.resolved = True
%(squash)s\
good_executed += 1
retired += 1
branches_retired += 1
misp_retired += 1
run_goodpath = True
run_execute += 1
stall_cycles += redirect_penalty
cycle += redirect_penalty
%(tick)s'''

#: The episode tail's delivery where no step-local diagram column can go
#: stale: the generic ``_flush_runs`` on the synced open runs.
_TAIL_FLUSH = '''\
if has_observers:
    self._cycle = cycle
    self._run_fetch = run_fetch
    self._run_execute = run_execute
    self._run_goodpath = run_goodpath
    self._flush_runs()
run_fetch = 0
run_execute = 0
'''


def _build_step_source(has_paco: bool, has_static: bool, has_pbm: bool,
                       has_tc: bool, has_prof: bool, cycle_work: bool,
                       gate: Optional[str] = None) -> str:
    """Assemble the fused ``_fused_step_block`` source for one stack shape.

    ``gate`` (a :data:`_GATES` key, or None for the ungated shapes) adds
    the inlined ``TraceSession._gated_wait`` before every step and swaps
    the gated per-slot episode in for the pre-drawn one.
    """
    targets = _plan_targets(has_paco, has_static, has_pbm, has_tc, gate)
    present = {"paco": has_paco, "static": has_static, "pbm": has_pbm,
               "tc": has_tc, "profiler": has_prof}
    keys = [key for key, flag in present.items() if flag]
    parts = [_MEMBERS[key] for key in keys]
    setup = "".join(_MEMBERS[key][0] % {"owner": f"self._{key}"}
                    for key in keys)
    if has_paco and cycle_work:
        setup += _PACO_SETUP_CYCLE
    fetch_good = "".join(part[1] for part in parts)
    fetch_wp = "".join(part[2] for part in parts)
    resolve_members = "".join(part[3] for part in parts)
    resolve_misp = "".join(part[4] for part in parts)
    squash_members = "".join(part[5] for part in parts)
    sync = _SYNC_BASE + "".join(part[6] for part in parts)
    record_flags = (has_paco, has_static, has_pbm, has_tc, has_prof)
    tick = _tick(targets) if cycle_work else ""

    stat_sync = '''\
stats.goodpath_fetched += good_fetched
engine.goodpath_fetched += good_fetched
stats.badpath_fetched += bad_fetched
engine.badpath_fetched += bad_fetched
stats.goodpath_executed += good_executed
stats.badpath_executed += bad_executed
stats.retired_instructions += retired
stats.branches_retired += branches_retired
stats.branch_mispredicts_retired += misp_retired
stats.conditional_branches_retired += cond_retired
stats.conditional_mispredicts_retired += cond_misp_retired
stats.flushes += flushes
stats.fetch_stall_cycles += stall_cycles
'''
    drain = _episode_drain(resolve_members, squash_members, targets)
    episode_parts = {
        "drain": _indent(drain, 4),
        "deliver": _indent(_runs_delivery("", targets), 2),
        "predict": _indent(_predict_cond("h", fetch_wp, record_flags,
                                         wrong_path=True), 2),
        "tick": _indent(tick, 1),
    }
    gate_expr = None
    if gate is None:
        setup += '''\
wp_episode = wp_rng.geometric_episode
wp_gaps = self._wp_gap_buf
'''
        episode = _EPISODE % episode_parts
        wp_sync = ""
    else:
        bound, gate_expr = _GATES[gate]
        setup += bound + '''\
gated_cycles = 0
log = math.log
mask64 = _MASK64
wp_state = wp_rng._state
'''
        stat_sync += "stats.gated_cycles += gated_cycles\n"
        episode = _GATED_EPISODE % dict(
            episode_parts, gate=gate_expr, drain=_indent(drain, 3),
            relog_limit=_indent(_RELOG_LIMIT, 2) if cycle_work else "",
            batch_tick=(_indent(_tick_deliver(targets), 3) if cycle_work
                        else ""))
        wp_sync = "wp_rng._state = wp_state\n"
    tail_deliver = (_runs_delivery("", targets)
                    if targets is not None and targets[0] else _TAIL_FLUSH)
    tail = _TAIL % {
        "deliver": tail_deliver,
        "train": _indent(_TRAIN_COND_MISP, 1),
        "resolve_misp": _indent(resolve_misp, 1),
        "resolve_other": _indent(_RESOLVE_OTHER, 1),
        "btb_train": _BTB_TRAIN,
        "squash": _indent(squash_members, 2),
        "tick": tick,
    }
    predict_good = _predict_cond(None, fetch_good, record_flags)
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
bad_fetched = 0
good_executed = 0
bad_executed = 0
retired = 0
branches_retired = 0
misp_retired = 0
cond_retired = 0
cond_misp_retired = 0
flushes = 0
stall_cycles = 0
'''

    return ('''\
def _fused_step_block(self, max_instructions, max_cycles):
    """Fused-predictor twin of ``TraceSession._step_block``.

    Same control skeleton (gap accounting, the double-drain loop, the
    per-branch tick), with every good-path predict and resolve inlined
    against the precomputed columns and the simplified good-path drain
    (see ``_good_drain``).  A mispredicted good-path branch never enters
    the window: it runs the wrong-path episode and its tail right here,
    on the same locals and deferred counters, with the history register
    deferred to the local ``h`` for the episode's extent.
    """
'''
              + _indent(_PROLOGUE + setup + hoists, 1) + '''
    while i < stop:
        if retired_base + retired >= max_instructions or cycle >= max_cycles:
            break
''' + _step_head(gate_expr, _good_drain(resolve_members, targets),
                 cycle_work) + '''\
            if predicted:
                break
            predicted = True
            kind = block_kinds[i]
''' + _indent(_runs_delivery("kind is kind_conditional", targets),
              3) + '''\
            seq = next_seq
            next_seq += 1
            if kind is kind_conditional:
'''
              + _indent(predict_good, 4) + '''\
            else:
'''
              + _indent("hist = col_f[i]\n" + _PREDICT_OTHER, 4) + '''\
            i += 1
            good_fetched += 1
            cycle += 1
            run_fetch += 1
            if mispredicted:
                break
            run_goodpath = True
            window.append(record)
            inflight += 1
''' + ("        if not predicted:\n            break\n" if gate else "") + '''\
        if mispredicted:
'''
              + _indent(_EPISODE_HEAD + episode + tail, 3) + '''\
            # A conditional trigger repairs history to exactly what
            # staging (actual outcomes) computed; a non-conditional one
            # leaves the wrong-path bits in, and that span re-stages.
            # The splice mutates the hoisted column lists in place.
            if h != col_f[i]:
                history.value = h
                self._stage(i, repair=True)
            continue
'''
              + _indent(tick, 2) + '''
    self._branch_pos = i
    self._gap_pos = gap_pos
    self._next_seq = next_seq
    self._cycle = cycle
    self._inflight = inflight
    self._run_fetch = run_fetch
    self._run_execute = run_execute
    self._run_goodpath = run_goodpath
    self._wp_pos = wp_pos
    history.value = col_f[i]
'''
              + _indent(wp_sync + stat_sync + sync, 1))


_FUSED_CACHE: dict = {}


def _fused_methods(flags):
    """Compile (or fetch cached) the fused step method for one shape.

    ``flags`` is the six member/cycle-work booleans plus the gate kind
    (None when ungated); gated shapes carry the kind in their tag.
    """
    method = _FUSED_CACHE.get(flags)
    if method is None:
        *bits, gate = flags
        tag = "".join("1" if flag else "0" for flag in bits)
        if gate is not None:
            tag += "-" + gate
        method = _compile_method("_fused_step_block",
                                 _build_step_source(*flags), globals(), tag)
        _FUSED_CACHE[flags] = method
    return method


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
    fall back to the plain :class:`TraceSession` (which is always
    correct); a gated stack needs :func:`_fused_gate` to model its
    policy as well, or it falls back to :class:`TraceSession` too.  The
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

    Returns None — build the plain :class:`TraceSession` — for
    anything else: other and subclassed policies, and count/PaCo
    policies over a predictor that is not the session's own member (the
    generated gate reads the member's live state).
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
    session compiles (or reuses) the fused step method for that stack
    shape and keeps the staged index columns (``_col_*``) aligned with
    the live block buffer.  A ``gating_policy`` must be one
    :func:`_fused_gate` models; the generated step then carries the gate.
    Phase-boundary branches, the one fallback path, run the inherited
    plain machinery on the same shared state.
    """

    def __init__(self, fetch_engine: FetchEngine, config: MachineConfig,
                 resolve_window: int, mispredict_window: int,
                 members: dict, block_size: Optional[int] = None,
                 gating_policy: Optional[GatingPolicy] = None) -> None:
        super().__init__(fetch_engine, config, resolve_window,
                         mispredict_window, block_size=block_size,
                         gating_policy=gating_policy)
        gate = None
        if gating_policy is not None:
            gate = _fused_gate(gating_policy, members)
            if gate is None:
                raise ValueError(
                    f"the fused loops do not model {gating_policy.name};"
                    " build TraceSession")
        # The ungated episode draws every gap up front.
        self._wp_gap_buf = [0] * mispredict_window
        self._paco = members.get("paco")
        self._static = members.get("static")
        self._pbm = members.get("pbm")
        self._tc = members.get("tc")
        self._profiler = members.get("profiler")
        #: The delivery plan of the block being stepped (see
        #: :meth:`_delivery_plan`); None delivers generically.
        self._dv_plan = None
        #: register -> (clamped probability, bin) memos per probability
        #: member (keyed by its id), one per diagram width; kept across
        #: blocks.
        self._prob_memos = {id(member): {} for member in
                            (self._paco, self._static, self._pbm)
                            if member is not None}
        flags = (self._paco is not None, self._static is not None,
                 self._pbm is not None, self._tc is not None,
                 self._profiler is not None, self._cycle_work_possible, gate)
        self._fused_step = _fused_methods(flags)
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
        per-branch-MRT members, each pair a ``(predictor, memo, sums,
        instances, goodpath, diagram)`` target — the member's
        ``(probability, bin)`` memo for the diagram's width, a copy of the
        bins' ``predicted_sum`` column and two zeroed integer columns, all
        step-local until :meth:`_write_back`; and any number of
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
                    by_width = memos.get(id(predictor))
                    if by_width is None:
                        return None
                    num_bins = diagram.num_bins
                    memo = by_width.get(num_bins)
                    if memo is None:
                        memo = by_width[num_bins] = {}
                    diagrams.append((
                        predictor, memo,
                        [bucket.predicted_sum for bucket in diagram.bins],
                        [0] * num_bins, [0] * num_bins, diagram))
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
        plan = self._dv_plan = self._delivery_plan()
        self._fused_step(self, max_instructions, max_cycles)
        if plan is not None:
            self._write_back(plan[0])

    @staticmethod
    def _write_back(diagram_targets) -> None:
        """Fold a stepped plan's local diagram columns into the diagrams.

        Only bins a delivery reached change: each takes its accumulated
        ``predicted_sum`` (the same ordered additions ``record`` and
        ``record_folded`` make, started from the bin's own value) and adds
        its integer counts; the totals add the columns' sums.
        """
        for _, _, sums, instances, goodpath, diagram in diagram_targets:
            bins = diagram.bins
            for index, count in enumerate(instances):
                if count:
                    bucket = bins[index]
                    bucket.predicted_sum = sums[index]
                    bucket.instances += count
                    bucket.goodpath_instances += goodpath[index]
            diagram.total_instances += sum(instances)
            diagram.total_goodpath += sum(goodpath)



# --------------------------------------------------------------------- #
# The two-thread SMT loop.
#
# ``TraceSMTCore.run``'s generated twin, one per (path confidence
# member, arbitration) shape.  Each thread's predictor stack lives on its
# own locals: the thread fragments below, and the single-thread
# fragments they reuse, are written against unprefixed names, and
# :func:`_per_thread` prefixes every name a thread's setup binds with
# ``t0_`` or ``t1_``.  Good-path predicts, the drains' resolves and
# squashes and PaCo's re-log check run inline.  The rare paths — a
# wrong-path gap or branch, the due mispredict resolution — call the
# thread's methods, which the scalar loop calls too: around each call
# the locals the method reads or writes (the history register, the
# in-flight count) are written back and reloaded, and before one that
# can remove a branch from the member, the deferred outstanding count is
# added to its owner (``_remove`` clamps it at zero).
#
# A thread's setup and sync run once per ``run()``, so they compile
# apart, per member, as two small companions of the loop: the loop
# unpacks the setup's values and passes its final ones to the sync.
# That keeps the loop itself, the one large compile, to its hot paths.
# --------------------------------------------------------------------- #

#: One thread's hoists: its replay state, predictor stack, staged
#: good-path buffers and deferred statistics (``thread`` is the
#: :class:`~repro.backends.smt_trace.TraceSMTThread`).
_SMT_SETUP = '''\
engine = thread.fetch_engine
stats = thread.stats
window = thread.window
inflight = thread.inflight
next_seq = thread.next_seq
stall = thread.fetch_stall_until
pending_gap = thread.pending_gap
wp_record = thread.wp_record
wp_resolve_at = thread.wp_resolve_at
''' + _PREDICTOR_HOISTS + '''\
hist = history.value
thread_id = engine.generator.thread_id
generator = engine.generator
phased = bool(generator.spec.phases)
log_one_minus_p = thread.log_one_minus_p
gap_buf = thread.gap_buf
gap_cap = len(gap_buf)
gap_pos = thread.gap_pos
draw_gaps = thread.gap_rng.geometric_block
block = thread.block
block_cap = block.capacity
block_pc = block.pc
block_kinds = block.kind
block_taken = block.taken
block_target = block.target
block_sid = block.static_branch_id
block_pos = thread.block_pos
next_block = generator.next_branch_block
retired_own = 0
good_fetched = 0
bad_executed = 0
branches_retired = 0
granted = 0
''' + _DEFERRED_INIT

#: One thread's write-back: its replay state, its deferred statistics
#: and the predictor stack's deferred counters (the member's follow).
_SMT_SYNC = '''\
thread.inflight = inflight
thread.next_seq = next_seq
thread.pending_gap = pending_gap
thread.gap_pos = gap_pos
thread.block_pos = block_pos
history.value = hist
stats.retired_instructions += retired_own
stats.goodpath_fetched += good_fetched
engine.goodpath_fetched += good_fetched
stats.badpath_executed += bad_executed
stats.branches_retired += branches_retired
stats.fetch_cycles_granted += granted
''' + _SYNC_BASE

#: Adds a member's deferred outstanding count to its owner.
_SMT_FLUSH = {
    "paco": "paco._outstanding += paco_outstanding\npaco_outstanding = 0\n",
    "tc": "tc._outstanding += tc_outstanding\ntc_outstanding = 0\n",
}

#: ``thread.on_cycle(cycle)`` for PaCo, called only when the re-log pass
#: is due (``MispredictRateTable.maybe_relog``'s own test).
_SMT_RELOG = '''\
if cycle - mrt_last >= mrt_period:
    paco.on_cycle(cycle)
    mrt_last = mrt._last_relog_cycle
'''

#: The due mispredict resolution (``TraceSMTThread._resolve_due``).
_SMT_DUE = '''\
if wp_record is not None and cycle >= wp_resolve_at:
    wp_record = None
%(flush)s\
    history.value = hist
    thread.inflight = inflight
    thread._resolve_due(cycle, redirect_penalty)
    inflight = thread.inflight
    hist = history.value
    stall = thread.fetch_stall_until
    retired += 1
'''

#: The granted thread's gap: a signed run of ``slots`` or ``slots - 1``
#: slots clamped at the next pending resolution (``fetch_branch`` when a
#: branch follows it).  An unphased generator's ``advance_instructions``
#: is only the count.
_SMT_GAP = '''\
limit = next_due - cycle
wrong_path = wp_record is not None
if wrong_path:
    thread.inflight = inflight
    slots, fetch_branch = thread._wrongpath_gap(limit)
    inflight = thread.inflight
else:
    gap = pending_gap
    if not gap:
        pos = gap_pos
        if pos >= gap_cap:
            draw_gaps(log_one_minus_p, gap_buf, gap_cap)
            pos = 0
        gap_pos = pos + 1
        gap = gap_buf[pos]
    if gap >= limit:
        pending_gap = gap - limit
        gap = slots = limit
    else:
        pending_gap = 0
        slots = gap + 1
        fetch_branch = True
    if gap:
        if phased:
            remaining = gap
            while remaining:
                remaining -= generator.advance_instructions(remaining)
        else:
            generator.instructions_generated += gap
        good_fetched += gap
''' + _indent(_gap_append(True), 2) + '''\
granted += slots
'''

#: The granted thread's branch: the next wrong-path branch through
#: ``TraceSMTThread._wrongpath_branch``, or the next good-path branch
#: inline.  A mispredicted good-path branch becomes the thread's pending
#: resolution, due a calibrated number of estimated cycles after its
#: fetch however much wrong-path work the policy lets the thread fetch;
#: it leaves ``record`` None.
_SMT_FETCH = '''\
seq = next_seq
next_seq = seq + 1
if wrong_path:
    history.value = hist
    record = thread._wrongpath_branch(seq)
    hist = history.value
else:
    i = block_pos
    if i >= block_cap:
        next_block(seq, block_cap, block)
        i = 0
    block_pos = i + 1
    kind = block_kinds[i]
    if kind is kind_conditional:
%(predict_cond)s\
    else:
%(predict_other)s\
    good_fetched += 1
    if mispredicted:
        engine.on_wrong_path = True
        engine._pending_mispredict_seq = seq
        wp_record = thread.wp_record = record
        wp_resolve_at = cycle + slots + mispredict_window
        thread.wp_resolve_at = wp_resolve_at
        if wp_resolve_at < next_due:
            next_due = wp_resolve_at
        record = None
'''


def _smt_drain(key: str) -> str:
    """One thread's drain of ``count`` slots (zero indent).

    Good-path records train and resolve (they are never mispredicted: a
    mispredicted good-path branch becomes the pending resolution instead
    of entering the window); wrong-path records, all conditional, repair
    the history when mispredicted, as ``PredictorStateEngine.
    resolve_record`` does, and squash.
    """
    member = _MEMBERS[key]
    return '''\
while count > 0 and window:
    entry = window[0]
    if type(entry) is int:
        if entry > 0:
            take = entry if entry <= count else count
            retired_own += take
            retired += take
            if take < entry:
                window[0] = entry - take
            else:
                window.popleft()
        else:
            take = -entry if -entry <= count else count
            bad_executed += take
            if take < -entry:
                window[0] = entry + take
            else:
                window.popleft()
        inflight -= take
        count -= take
        continue
    window.popleft()
    inflight -= 1
    count -= 1
    if not entry.on_goodpath:
        entry.resolved = True
        if entry.mispredicted:
            hist = (((entry.history & hist_mask) << 1)
                    | (1 if entry.out_taken else 0)) & hist_mask
''' + _indent(member[5], 2) + '''\
        bad_executed += 1
        continue
    if entry.is_conditional:
        entry.resolved = True
        actual = entry.out_taken
''' + _indent(_TRAIN_COND + member[3], 2) + '''\
    else:
''' + _indent(_RESOLVE_OTHER, 2) + _indent(_BTB_TRAIN, 1) + '''\
    retired_own += 1
    retired += 1
    branches_retired += 1
'''


def _smt_thread(key: str):
    """Member ``key``'s thread fragments, unprefixed: ``(setup, sync,
    relog, due, gap, drain-and-fetch)``.

    The drain-and-fetch part drains ``count`` slots; the granted thread
    (``grant == THREAD_N``) then fetches its branch and, when the branch
    overflows the window, drains the one slot that completes.
    """
    setup = (_SMT_SETUP
             + _MEMBERS[key][0] % {"owner": "engine.path_confidence"}
             + (_PACO_SETUP_CYCLE if key == "paco" else ""))
    fetch = _SMT_FETCH % {
        "predict_cond": _indent(_predict_cond(
            "hist", _MEMBERS[key][1],
            (key == "paco", False, False, key == "tc", False)), 2),
        "predict_other": _indent(_PREDICT_OTHER, 2),
    }
    part = ("count = inflight - resolve_window if grant == THREAD_N"
            " else slots\n"
            "while True:\n" + _indent(_smt_drain(key), 1) + '''\
    if grant != THREAD_N or not fetch_branch:
        break
    fetch_branch = False
''' + _indent(fetch, 1) + '''\
    if record is None:
        break
    window.append(record)
    inflight += 1
    count = inflight - resolve_window
''')
    return (setup, _SMT_SYNC + _MEMBERS[key][6],
            _SMT_RELOG if key == "paco" else "",
            _SMT_DUE % {"flush": _indent(_SMT_FLUSH[key], 1)}, _SMT_GAP,
            part)


def _smt_names(setup: str) -> list:
    """The names a thread's setup binds, in binding order."""
    return list(dict.fromkeys(re.findall(r"^(\w+) = ", setup, re.M)))


def _free_names(source: str, names) -> list:
    """The members of ``names`` that ``source`` reads or writes."""
    return [name for name in names
            if re.search(r"(?<![\w.])" + name + r"\b", source)]


def _per_thread(source: str, n: int, names) -> str:
    """Thread ``n``'s copy of ``source``: every free occurrence of
    ``names`` and of ``thread`` prefixed with ``t<n>_``, and the
    ``THREAD_N`` placeholder replaced by ``n``.  Attribute names after a
    dot stay as they are."""
    pattern = r"(?<![\w.])(" + "|".join(
        sorted([*names, "thread"], key=len, reverse=True)) + r")\b"
    return re.sub(pattern, rf"t{n}_\1", source).replace("THREAD_N", str(n))


def _name_tuple(names, level: int) -> str:
    """``names`` as a parenthesized display, wrapped for indent
    ``level`` (a call's argument list when it follows a name)."""
    lines, line = [], ""
    for name in names:
        if line and len(line) + len(name) > 68 - 4 * level:
            lines.append(line.rstrip())
            line = ""
        line += name + ", "
    lines.append(line.rstrip())
    return "(\n" + "".join("    " * (level + 1) + line + "\n"
                           for line in lines) + "    " * level + ")"


def _build_smt_companions(key: str) -> tuple:
    """Member ``key``'s companion sources: ``_smt_hoist(thread)``, which
    returns the values of the names a thread's setup binds, and
    ``_smt_sync(thread, ...)``, which takes the final values of the ones
    its sync reads."""
    setup, sync = _smt_thread(key)[:2]
    names = _smt_names(setup)
    return ("def _smt_hoist(thread):\n" + _indent(setup, 1)
            + "    return " + _name_tuple(names, 1) + "\n",
            "def _smt_sync" + _name_tuple(
                ["thread", *_free_names(sync, names)], 0)
            + ":\n" + _indent(sync, 1))


#: The inline fetch choice's first key per arbitration (None: ICOUNT
#: only); ties go to ICOUNT, then to cycle parity.
_SMT_KEYS = {"icount": None, "count": "tc._low_confidence_outstanding",
             "paco": "paco.path_confidence_register"}


def _build_smt_source(key: str, arbitration: str) -> str:
    """Assemble ``_fused_smt_run``, the two-thread loop of one shape:
    member ``key`` (``"paco"`` or ``"tc"``) on both threads, fetch choice
    ``arbitration`` (a :data:`_SMT_KEYS` key).  It calls the companions
    of :func:`_build_smt_companions` as ``smt_hoist`` and ``smt_sync``.
    """
    setup, sync, *loop = _smt_thread(key)
    names = _smt_names(setup)
    sync_names = _free_names(sync, names)
    relog, due, gap, part = (
        [_per_thread(piece, n, names) for n in (0, 1)] for piece in loop)
    unpack, write_back = "", ""
    for n in (0, 1):
        unpack += (_name_tuple([f"t{n}_{name}" for name in names], 0)
                   + f" = smt_hoist(t{n}_thread)\n")
        write_back += "smt_sync" + _name_tuple(
            [f"t{n}_thread", *(f"t{n}_{name}" for name in sync_names)],
            0) + "\n"
    icount = '''\
key0 = t0_inflight + (t0_wp_record is not None)
key1 = t1_inflight + (t1_wp_record is not None)
if key0 == key1:
    key0 = cycle & 1
    key1 = 1 - key0
'''
    attr = _SMT_KEYS[arbitration]
    if attr is None:
        choice = icount
    else:
        choice = (f"key0 = t0_{attr}\nkey1 = t1_{attr}\nif key0 == key1:\n"
                  + _indent(icount, 1))
    choice += "grant = 0 if key0 < key1 else 1\n"
    pending = '''\
next_due = t0_wp_resolve_at if t0_wp_record is not None else never
if t1_wp_record is not None and t1_wp_resolve_at < next_due:
    next_due = t1_wp_resolve_at
stall_min = min(t0_stall, t1_stall)
stall_max = max(t0_stall, t1_stall)
'''
    return ('''\
def _fused_smt_run(self, max_total_instructions, max_cycles):
    """Fused-predictor twin of ``TraceSMTCore._run_scalar``: the same
    grant loop, with both threads' predictor stacks on prefixed locals.
    Returns the total retired instructions."""
    threads = self.threads
    t0_thread, t1_thread = threads
    policy = self.fetch_policy
    resolve_window = self.resolve_window
    mispredict_window = self.mispredict_window
    redirect_penalty = self.machine.redirect_penalty
    kind_conditional = BranchKind.CONDITIONAL
    kind_call = BranchKind.CALL
    kind_return = BranchKind.RETURN
    kind_indirect = BranchKind.INDIRECT
    kind_indirect_call = BranchKind.INDIRECT_CALL
    record_cls = BranchRecord
    record_new = BranchRecord.__new__
    never = 1 << 62
''' + _indent(unpack + pending, 1) + '''\
    cross_check = True
    cycle = self._cycle
    retired = t0_stats.retired_instructions + t1_stats.retired_instructions
    while retired < max_total_instructions and cycle < max_cycles:
''' + _indent(relog[0] + relog[1], 2) + '''\
        if cycle >= next_due:
''' + _indent(due[0] + due[1] + pending, 3) + '''\
        if cycle >= stall_max:
''' + _indent(choice, 3) + '''\
            if cross_check:
                # The first contested grant of every run() is also put
                # to the policy, which must agree.
                cross_check = False
                t0_thread.inflight = t0_inflight
                t1_thread.inflight = t1_inflight
                chosen = policy.select(cycle, threads)
                if threads[chosen] is not threads[grant]:
                    raise RuntimeError(
                        "inline fetch arbitration disagrees with "
                        f"{policy.name}.select() at cycle {cycle}")
        elif cycle < stall_min:
            grant = 2
        elif cycle >= t0_stall:
            grant = 0
        else:
            grant = 1
        fetch_branch = False
        if grant == 0:
''' + _indent(gap[0], 3) + '''\
        elif grant == 1:
''' + _indent(gap[1], 3) + '''\
        else:
            slots = min(stall_min, next_due) - cycle
''' + _indent(part[0] + part[1], 2) + '''\
        cycle += slots
''' + _indent(write_back, 1) + '''\
    self._cycle = cycle
    self.stats.cycles = cycle
    return retired
''')


def _smt_plan(threads) -> Optional[str]:
    """The member key (``"paco"`` or ``"tc"``) of the generated SMT loop
    that models these threads exactly, or None (run the scalar loop).

    Both threads must carry exactly one :func:`_fused_plan` member of the
    same kind as their whole path confidence predictor, share no
    predictor state, and agree with their fetch engines on whether a
    mispredict is pending.
    """
    if len(threads) != 2:
        return None
    keys = set()
    for thread in threads:
        engine = thread.fetch_engine
        members = _fused_plan(engine)
        if not members or len(members) != 1:
            return None
        ((key, member),) = members.items()
        if (key not in ("paco", "tc")
                or member is not engine.path_confidence):
            return None
        if engine.on_wrong_path != (thread.wp_record is not None):
            return None
        keys.add(key)
    e0, e1 = (thread.fetch_engine for thread in threads)
    if len(keys) != 1 or any(
            a is b for a, b in zip(_smt_owned(e0), _smt_owned(e1))):
        return None
    return keys.pop()


def _smt_owned(engine: FetchEngine) -> tuple:
    """The objects one thread's generated loop writes through."""
    return (engine, engine.generator, engine.wrongpath_generator,
            engine.frontend, engine.confidence, engine.path_confidence,
            engine.state_engine)


def _smt_method(threads, arbitration: str):
    """Compile (or fetch cached) the SMT loop modelling ``threads`` under
    ``arbitration``, or None when :func:`_smt_plan` rejects them.

    The loop runs in a copy of this module's globals that also holds its
    member's companions, compiled apart first.
    """
    key = _smt_plan(threads)
    if key is None:
        return None
    flags = ("smt", key, arbitration)
    method = _FUSED_CACHE.get(flags)
    if method is None:
        scope = dict(globals())
        hoist, sync = _build_smt_companions(key)
        scope["smt_hoist"] = _compile_method("_smt_hoist", hoist, scope, key)
        scope["smt_sync"] = _compile_method("_smt_sync", sync, scope, key)
        method = _compile_method("_fused_smt_run",
                                 _build_smt_source(key, arbitration),
                                 scope, f"{key}-{arbitration}")
        _FUSED_CACHE[flags] = method
    return method
