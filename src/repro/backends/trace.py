"""The trace-replay backend: predictor-level statistics without a pipeline.

:class:`TraceBackend` drives the branch predictors, BTB/RAS and the
confidence machinery directly over the workload generator's *branch*
stream — the same :class:`~repro.pipeline.fetch.FetchEngine`, front-end
predictor, JRS table and path confidence predictors as the cycle model.
The branch-content streams (``site-selection``, ``branch-outcomes``) are
consumed only by branches, so the good-path branch sequence the predictors
see (PCs, directions, targets, kinds) is bit-identical to the cycle
model's for unphased benchmarks, and statistically identical for phased
ones (branch positions, and therefore phase assignment near boundaries,
come from the replay's own gap process).

The replay is *branch-driven and batched*: non-branch instructions are
never generated at all, and branches are produced and consumed in blocks.
Per block (:data:`DEFAULT_TRACE_BLOCK` branches):

* the geometric inter-branch gaps are drawn in one
  :meth:`~repro.common.rng.DeterministicRng.geometric_block` call (one
  uniform per branch, exactly the draws the scalar path made);
* the branches themselves come from
  :meth:`~repro.workloads.generator.WorkloadGenerator.next_branch_block`
  as struct-of-arrays :class:`~repro.workloads.generator.BranchBlock`
  columns — no :class:`~repro.isa.instruction.Instruction` objects exist
  on this path at all (the cycle backend keeps them, bit-identically);
* prediction and resolution run straight over the columns through the
  record-based engine entry points
  (:meth:`~repro.pipeline.fetch.FetchEngine.predict_from_block` /
  :meth:`~repro.pipeline.fetch.FetchEngine.resolve_record`), with the
  in-flight window holding the
  :class:`~repro.branch_predictor.engine.BranchRecord` itself.

A wrong-path episode draws one gap per slot (a gate may stall any slot)
and reads its branches from a wrong-path buffer the session carries
across episodes, refilled by
:meth:`~repro.workloads.generator.WrongPathGenerator.next_branch_block`
:data:`WRONGPATH_STAGE` branches at a time; the fused session draws a
whole ungated episode's gaps in one
:meth:`~repro.common.rng.DeterministicRng.geometric_episode` call.  The
gap and content streams are independent, so either way each stream is
consumed in the same order, bit for bit.

Blocking changes *when* values are computed, never *which*: every stream
is consumed in the same per-branch order as the scalar path, phased
benchmarks split blocks at phase boundaries (a boundary block falls back
to slot-by-slot stepping so phase-aware observers read the right phase at
every run boundary), and the observer-run event boundaries — branch
fetch/resolve/squash, re-log passes, phase boundaries — are exactly the
scalar flush points.  Results are byte-identical to the pre-batching
replay, which is itself parity-gated against the cycle model.

The gap between consecutive branches is drawn in closed form from the
same geometric distribution the per-instruction Bernoulli process
induces, and everything a gap contributes — fetch/retire counters,
instance observations, window residency — is pure integer arithmetic.
Timing is replaced by two calibrated windows:

* every fetched slot *completes* (resolves, trains, retires)
  ``resolve_window`` slots after fetch, standing in for the
  fetch-to-resolve depth of the pipeline;
* a good-path misprediction replays the wrong-path stream for
  ``mispredict_window`` slots before the branch resolves and fetch is
  redirected, standing in for the wrong-path fetch episode (calibrated
  against the cycle model's wrong-path-fetches-per-flush, roughly twice
  the minimum misprediction penalty).

The replay clock models an idealized IPC-1 machine (one cycle per slot,
plus redirect stalls), which keeps cycle-periodic machinery — PaCo's
re-logarithmizing pass — at a per-instruction cadence comparable to the
cycle model's.  Instance observations are batched in two stages.  First,
between two predictor state changes every instance carries identical
observable state, so the engine counts instances in run counters and
closes the run — one ``(kind, on_goodpath, cycle, count)`` event — at
each scalar flush point.  Second, closed events themselves buffer in a
flat stride-4 column list across spans where predictor state provably
does not change: a branch prediction (in the fused loops only a
*conditional* one), a conditional resolution (``path_token`` set), a
re-log pass that reports a change, and a phase roll force the buffer out
through :meth:`~repro.pipeline.core.InstanceObserver.record_runs`, while
non-conditional resolutions and quiet ticks merely close events into it.
An observer therefore reads predictor state once per delivered batch,
and reads exactly the values one-event batches would have read —
delivery happens strictly before the next state change.

The same two calibrated windows double as a *timing estimator*: the
replay clock (slots fetched, plus redirect stalls, plus gated stalls) is
an estimated cycle count, so ``stats.ipc`` is meaningful — not
cycle-accurate, but preserving the orderings the application studies
consume (``supports_timing``).  Fetch gating is modelled on top of it by
a session's optional ``gating_policy`` (``supports_gating``): a gated
cycle stalls fetch while the oldest in-flight slot completes, so
good-path gated cycles show up as pure IPC loss while wrong-path gated
cycles trade fetched wrong-path slots for (nearly free) stall cycles —
exactly the energy/performance trade-off of fig10.  SMT arbitration over two
interleaved trace sessions lives in :mod:`repro.backends.smt_trace`.

For the predictor stacks the campaigns run, :class:`TraceBackend` builds
:class:`~repro.backends.fused.FusedTraceSession`, which replaces this
module's per-branch predictor calls with a generated step over staged
table-index columns; under a count or PaCo gate over the stack's own
member (every fig10 gating job) that step carries the gate.  The plain
:class:`TraceSession` here is the fallback for every other stack and
policy and the reference the fused session is pinned against.

Parity with the cycle backend for fig2 MDC rates, fig3 counters, fig8/9
reliability, table7 RMS and tableA1 MRT variants — and for the fig10
gating-throttle and fig12 SMT-priority orderings — is enforced (with
stated tolerances) by ``tests/test_backends.py``.  What this backend
still does **not** model: cycle-accurate IPC and wrong-path cache/BTB
pollution timing; the cycle backend remains ground truth for absolute
timing numbers.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional

from repro.backends.base import (
    Instrumentation,
    SimulationBackend,
    SimulationSession,
    Workload,
)
from repro.backends.cycle import build_fetch_engine
from repro.branch_predictor.engine import BranchRecord
from repro.common.rng import RngPool
from repro.isa.types import BranchKind
from repro.pathconf.base import PathConfidencePredictor
from repro.pathconf.composite import CompositePathConfidence
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import CoreStats, InstanceObserver, SimulationTruncated
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.gating import GatingPolicy, NoGating
from repro.workloads.generator import BranchBlock

#: Branches generated (and gaps drawn) per batch.  Block size is pure
#: mechanism — results are bit-identical for every value >= 1 (pinned by
#: ``tests/test_backends.py``) — so it rides in neither Job identities
#: nor result-cache keys.
DEFAULT_TRACE_BLOCK = 256

#: Wrong-path branches staged per refill of a session's wrong-path
#: buffer.  The buffer carries over between episodes: wrong-path branches
#: draw three ``main``-stream values each from a fixed site set, so
#: staging ahead draws exactly what per-branch draws would.
WRONGPATH_STAGE = 256


def _has_cycle_work(path_confidence) -> bool:
    """Whether ``on_cycle`` can ever do (or report) state-changing work.

    :meth:`~repro.pathconf.base.PathConfidencePredictor.on_cycle` is a
    no-op unless overridden, and the composite delegates only to members
    that override it — so a predictor stack with no cycle-periodic
    machinery can skip the per-branch tick (and the event deliveries
    bracketing it) entirely.  Anything that overrides ``on_cycle`` is
    conservatively treated as cycle work, so custom predictors keep the
    exact per-branch call sequence.
    """
    if isinstance(path_confidence, CompositePathConfidence):
        return bool(path_confidence._cycle_predictors)
    cls_on_cycle = getattr(type(path_confidence), "on_cycle", None)
    return cls_on_cycle is not PathConfidencePredictor.on_cycle


class TraceSession(SimulationSession):
    """One branch-driven replay: a fetch engine plus a slot window.

    The in-flight window is a deque whose entries are either a
    :class:`~repro.branch_predictor.engine.BranchRecord` (a branch
    occupying one slot) or an ``int`` run of non-branch slots — positive
    for good-path slots, negative for wrong-path slots.  ``_inflight``
    tracks the total slot count so drains are O(1) amortized per branch,
    not per instruction.

    Branches arrive through a reusable :class:`BranchBlock` buffer that
    carries over between :meth:`run` legs: a leg that stops mid-block
    (budget or cycle limit) resumes from the buffered position, so the
    consumed stream order — and therefore every statistic — matches the
    scalar one-branch-at-a-time replay bit for bit.

    With a ``gating_policy`` the predicate is evaluated before every
    good-path fetch step and before every wrong-path slot of a
    misprediction episode — the points where the predictors' state (and
    therefore the predicate) can have changed.  A gated cycle stalls
    fetch for one estimated cycle while the oldest in-flight slot
    completes, mirroring how the cycle model's back end keeps draining
    under a gated front end:

    * on the good path a gated cycle is pure delay — the completed slot
      would have drained for free at the next fetch — so good-path
      gating shows up as IPC loss;
    * inside a wrong-path episode the mispredicted branch resolves on
      its own schedule, so a gated cycle substitutes for a wrong-path
      fetch slot at (nearly) no time cost — the episode still spans
      ``mispredict_window`` estimated cycles but fetches fewer
      wrong-path slots, which is the energy saving gating exists for.

    Termination is guaranteed: a gated cycle always completes a slot, and
    an empty window means every branch has resolved, which zeroes the
    low-confidence count / path-confidence register that gates fetch.
    The wait still fails open on an empty window in case a policy gates
    on something else.  ``None`` (the default) never gates.
    """

    def __init__(self, fetch_engine: FetchEngine, config: MachineConfig,
                 resolve_window: int, mispredict_window: int,
                 block_size: Optional[int] = None,
                 gating_policy: Optional[GatingPolicy] = None) -> None:
        if resolve_window < 1:
            raise ValueError("resolve window must be at least one instruction")
        if mispredict_window < 1:
            raise ValueError("mispredict window must be at least one instruction")
        if block_size is None:
            block_size = DEFAULT_TRACE_BLOCK
        elif block_size < 1:
            raise ValueError("block size must be at least 1")
        self.fetch_engine = fetch_engine
        self.config = config
        self.stats = CoreStats()
        self.observers: List[InstanceObserver] = []
        self.resolve_window = resolve_window
        self.mispredict_window = mispredict_window
        self.block_size = block_size
        self.gating_policy = gating_policy

        spec = fetch_engine.generator.spec
        pool = RngPool(fetch_engine.generator._pool.master_seed).fork("trace-gaps")
        self._gap_rng = pool.stream("goodpath")
        self._wp_gap_rng = pool.stream("wrongpath")
        branch_fraction = min(max(spec.branch_fraction, 1e-9), 1.0)
        #: log(1 - p) of the per-instruction branch probability, used to
        #: draw geometric inter-branch gaps in closed form.
        self._log_one_minus_p = (math.log(1.0 - branch_fraction)
                                 if branch_fraction < 1.0 else None)

        self._window: Deque[object] = deque()
        self._inflight = 0
        self._cycle = 0
        self._next_seq = 0
        self._started = False

        # Batched generation buffers.  Good-path gaps and branches are
        # drawn block-at-a-time and consumed in lockstep; a phase
        # boundary splits a block (``_refill_block`` returns 0 and the
        # boundary branch is stepped slot-by-slot instead).  The
        # wrong-path episode draws one gap per slot and reads its
        # branches from the carried wrong-path buffer (spent at
        # ``_wp_pos == capacity``).
        self._block = BranchBlock(block_size)
        self._boundary_block = BranchBlock(1)
        self._wp_block = BranchBlock(WRONGPATH_STAGE)
        self._wp_pos = WRONGPATH_STAGE
        self._gap_buf = [0] * block_size
        self._gap_pos = 0
        self._gap_len = 0
        self._branch_pos = 0
        self._branch_len = 0
        self._wp_gap_scratch = [0]

        # Batched instance recording (see module docstring): the pending
        # run counters plus the closed-run event buffer awaiting
        # delivery at the next predictor state change.
        self._run_fetch = 0
        self._run_execute = 0
        self._run_goodpath = True
        self._events: list = []
        self._has_phases = bool(spec.phases)
        self._cycle_work_possible = _has_cycle_work(
            fetch_engine.path_confidence)

    # ------------------------------------------------------------------ #
    # public API (the SimulationSession contract)
    # ------------------------------------------------------------------ #

    def add_observer(self, observer: InstanceObserver) -> None:
        # Instances recorded while this observer was not attached must not
        # leak into it: flush the pending run (and deliver the buffered
        # events) to the existing observers first.
        self._flush_runs()
        self.observers.append(observer)

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> CoreStats:
        """Replay until ``max_instructions`` good-path instructions retired."""
        if max_instructions <= 0:
            raise ValueError("instruction budget must be positive")
        if max_cycles is None:
            max_cycles = max_instructions * 40
        if not self._started:
            self._started = True
            self.fetch_engine.path_confidence.on_cycle(0)
        stats = self.stats
        while (stats.retired_instructions < max_instructions
               and self._cycle < max_cycles):
            self._step_block(max_instructions, max_cycles)
        self._flush_runs()
        stats.cycles = self._cycle
        if stats.retired_instructions < max_instructions:
            raise SimulationTruncated(stats, max_instructions, max_cycles)
        return stats

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def window_occupancy(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------ #
    # batched replay mechanics
    # ------------------------------------------------------------------ #

    def _refill_block(self) -> int:
        """Refill the branch buffer; return the number of branches staged.

        Draws a fresh gap block when the gap buffer is spent, then
        generates as many branches as fit before the next phase boundary
        (all of them for unphased benchmarks).  Generator-side state
        (instruction count, phase schedule, RNG streams) is advanced for
        the whole staged block up front; because no boundary falls inside
        it, nothing observable differs from slot-by-slot advancement.
        Returns 0 when the very next branch straddles a boundary — the
        caller steps that one branch with :meth:`_step_boundary_branch`.
        """
        generator = self.fetch_engine.generator
        if self._gap_pos >= self._gap_len:
            n = self.block_size
            self._gap_rng.geometric_block(self._log_one_minus_p,
                                          self._gap_buf, n)
            self._gap_pos = 0
            self._gap_len = n
        available = self._gap_len - self._gap_pos
        if not self._has_phases:
            m = available
            pos = self._gap_pos
            gap_slots = sum(self._gap_buf[pos:pos + m])
        else:
            # Largest prefix of (gap + branch) steps that leaves at least
            # one slot of the current phase unconsumed (i.e. no roll).
            remaining_budget = generator._phase_remaining - 1
            gaps = self._gap_buf
            pos = self._gap_pos
            m = 0
            total = 0
            for k in range(available):
                step = gaps[pos + k] + 1
                if total + step > remaining_budget:
                    break
                total += step
                m += 1
            if m == 0:
                return 0
            gap_slots = total - m
        if gap_slots:
            taken = generator.advance_instructions(gap_slots)
            assert taken == gap_slots  # no boundary inside the block
        generator.next_branch_block(self._next_seq, m, self._block)
        self._branch_pos = 0
        self._branch_len = m
        return m

    def _step_block(self, max_instructions: int, max_cycles: int) -> None:
        """Advance the replay by up to one block of gap+branch steps.

        Steps one (gate check, gap, branch) tuple at a time through the
        self-state helpers: gating decisions depend on predictor state
        that changes branch by branch.  Per staged branch it accounts the
        inter-branch gap, closes the pending observer run, predicts the
        branch straight from the block columns, and either appends the
        record to the in-flight window (draining and running the
        per-cycle confidence work) or replays the wrong-path episode.
        Stops early — leaving the buffer position for the next call or
        :meth:`run` leg — when the instruction budget or cycle limit is
        reached.
        """
        if self._branch_pos >= self._branch_len:
            if not self._refill_block():
                self._step_boundary_branch()
                return
        engine = self.fetch_engine
        stats = self.stats
        block = self._block
        policy = self.gating_policy
        while self._branch_pos < self._branch_len:
            if (stats.retired_instructions >= max_instructions
                    or self._cycle >= max_cycles):
                return
            if policy is not None and policy.should_gate():
                self._gated_wait()
                if (stats.retired_instructions >= max_instructions
                        or self._cycle >= max_cycles):
                    return
            gap = self._gap_buf[self._gap_pos]
            self._gap_pos += 1
            if gap:
                self._fetch_good_gap(gap)
            self._flush_runs()
            i = self._branch_pos
            self._branch_pos = i + 1
            seq = self._next_seq
            self._next_seq = seq + 1
            record = engine.predict_from_block(block, i, seq)
            engine.goodpath_fetched += 1
            stats.goodpath_fetched += 1
            self._cycle += 1
            self._run_fetch += 1
            if engine.on_wrong_path:
                self._run_goodpath = False
                self._replay_wrongpath(record)
                continue
            self._run_goodpath = True
            self._window.append(record)
            self._inflight += 1
            self._drain()
            self._cycle_tick()

    def _step_boundary_branch(self) -> None:
        """One gap+branch step with the gap applied slot-by-slot.

        Taken when a phase boundary falls inside the next branch's gap
        (or on the branch itself): instances on either side of the
        boundary belong to different phases, so the gap is advanced in
        boundary-bounded chunks with an observer flush between them —
        exactly the scalar path — and the branch is generated only after
        the schedule has settled, so phase-aware observers and the
        per-phase site selection read the right phase.  Under a gate the
        step waits first, like every good-path step; the fused session
        steps its boundary branches here too.
        """
        if self.gating_policy is not None:
            self._gated_wait()
        # Events closed before the boundary must be observed with the
        # pre-roll phase label: deliver them before the schedule can
        # advance.  (The *open* run keeps riding across the roll and is
        # closed by the chunk flushes below, exactly as the scalar path
        # always did.)
        self._deliver_events()
        generator = self.fetch_engine.generator
        gap = self._gap_buf[self._gap_pos]
        self._gap_pos += 1
        while gap:
            taken = generator.advance_instructions(gap)
            self._fetch_good_gap(taken)
            gap -= taken
            if gap:
                # Phase boundary inside the gap: instances on either
                # side belong to different phases; close the run.
                self._flush_runs()
        self._flush_runs()
        seq = self._next_seq
        self._next_seq = seq + 1
        block = self._boundary_block
        generator.next_branch_block(seq, 1, block)
        engine = self.fetch_engine
        stats = self.stats
        record = engine.predict_from_block(block, 0, seq)
        engine.goodpath_fetched += 1
        stats.goodpath_fetched += 1
        self._cycle += 1
        self._run_goodpath = not engine.on_wrong_path
        self._run_fetch += 1
        if engine.on_wrong_path:
            self._replay_wrongpath(record)
            return
        self._window.append(record)
        self._inflight += 1
        self._drain()
        self._cycle_tick()

    def _replay_wrongpath(self, record: BranchRecord) -> None:
        """Replay the wrong-path stream for the calibrated resolution window.

        The episode budget counts estimated *cycles*, not fetched slots:
        the mispredicted branch resolves ``mispredict_window`` cycles
        after fetch whether or not the front end kept fetching, so a
        gated cycle consumes episode budget without fetching a wrong-path
        slot.  Each fetched slot draws its own gap, since the gate
        interleaves with the draws, and takes the next branch of the
        carried wrong-path buffer; the gap and branch-content streams are
        independent, so the values are the ones an episode-at-a-time
        draw produces.  Resolution and recovery are
        :meth:`_finish_wrongpath`.
        """
        engine = self.fetch_engine
        wrongpath = engine.wrongpath_generator
        stats = self.stats
        wp_block = self._wp_block
        gap_scratch = self._wp_gap_scratch
        log1p = self._log_one_minus_p
        wp_rng = self._wp_gap_rng
        policy = self.gating_policy
        remaining = self.mispredict_window
        fetched = 0
        while remaining:
            if policy is not None and policy.should_gate():
                self._gated_step()
                remaining -= 1
                continue
            wp_rng.geometric_block(log1p, gap_scratch, 1)
            gap = gap_scratch[0]
            if gap > remaining:
                gap = remaining
            if gap:
                self._fetch_bad_gap(gap)
                remaining -= gap
                fetched += gap
            if not remaining:
                break
            self._flush_runs()
            seq = self._next_seq
            self._next_seq = seq + 1
            pos = self._wp_pos
            if pos >= wp_block.capacity:
                wrongpath.next_branch_block(wp_block, wp_block.capacity)
                pos = 0
            self._wp_pos = pos + 1
            wp_record = engine.predict_from_block(wp_block, pos, seq,
                                                  on_goodpath=False)
            engine.badpath_fetched += 1
            stats.badpath_fetched += 1
            self._cycle += 1
            self._run_fetch += 1
            self._window.append(wp_record)
            self._inflight += 1
            self._drain()
            remaining -= 1
            fetched += 1
            self._cycle_tick()
        # Estimate of the wrong-path slots that issued before the squash:
        # everything fetched more than a front-end depth ahead of
        # resolution has left the front end and consumed execution
        # resources.  Gated cycles consume episode budget without
        # fetching, so gating directly shrinks the wrong-path work both
        # fetched and executed.
        self._finish_wrongpath(record, fetched - self.config.frontend_depth)

    def _gated_wait(self) -> None:
        """Stall good-path fetch until the policy stops gating."""
        policy = self.gating_policy
        while policy.should_gate() and self._window:
            self._gated_step()

    def _gated_step(self) -> None:
        """One gated cycle: fetch stalls, the oldest in-flight slot completes."""
        self.stats.gated_cycles += 1
        self._cycle += 1
        if self._window:
            self._complete_oldest(1)
        self._cycle_tick()

    def _fetch_good_gap(self, count: int) -> None:
        """Account ``count`` good-path non-branch slots in one step."""
        if count <= 0:
            return
        stats = self.stats
        stats.goodpath_fetched += count
        self.fetch_engine.goodpath_fetched += count
        self._cycle += count
        self._run_fetch += count
        window = self._window
        if window and type(window[-1]) is int and window[-1] > 0:
            window[-1] += count
        else:
            window.append(count)
        self._inflight += count
        self._drain()

    def _fetch_bad_gap(self, count: int) -> None:
        """Account ``count`` wrong-path non-branch slots in one step."""
        if count <= 0:
            return
        stats = self.stats
        stats.badpath_fetched += count
        self.fetch_engine.badpath_fetched += count
        self._cycle += count
        self._run_fetch += count
        window = self._window
        if window and type(window[-1]) is int and window[-1] < 0:
            window[-1] -= count
        else:
            window.append(-count)
        self._inflight += count
        self._drain()

    def _drain(self) -> None:
        """Complete the oldest slots once the window exceeds its depth."""
        excess = self._inflight - self.resolve_window
        if excess > 0:
            self._complete_oldest(excess)

    def _complete_oldest(self, excess: int) -> None:
        """Complete the ``excess`` oldest in-flight slots.

        The one drain implementation: gap fetches past the window depth,
        branch fetches, wrong-path slots and (with ``excess == 1``) gated
        cycles all complete slots here.  It runs on locals and syncs them
        back once, so a long gap run drains in one pass.
        """
        engine = self.fetch_engine
        stats = self.stats
        window = self._window
        observers = self.observers
        has_observers = bool(observers)
        events = self._events
        kind_conditional = BranchKind.CONDITIONAL
        cycle = self._cycle
        inflight = self._inflight
        run_fetch = self._run_fetch
        run_execute = self._run_execute
        run_goodpath = self._run_goodpath
        good_executed = 0
        bad_executed = 0
        retired = 0
        branches_retired = 0
        branch_misp_retired = 0
        cond_retired = 0
        cond_misp_retired = 0
        while excess > 0:
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
                # A branch resolution closes the pending instance run.
                # Only a *conditional* resolution (path_token set) can
                # change confidence state, so only those force the
                # buffered events out; the rest close into the buffer and
                # ride along.
                if has_observers:
                    if run_fetch:
                        events.extend(("fetch", run_goodpath, cycle,
                                       run_fetch))
                    if run_execute:
                        events.extend(("execute", run_goodpath, cycle,
                                       run_execute))
                    if events and entry.path_token is not None:
                        for observer in observers:
                            observer.record_runs(events)
                        del events[:]
                run_fetch = 0
                run_execute = 0
                engine.resolve_record(entry)
                run_goodpath = not engine.on_wrong_path
                if entry.on_goodpath:
                    good_executed += 1
                    retired += 1
                    branches_retired += 1
                    if entry.mispredicted:
                        branch_misp_retired += 1
                    if entry.kind is kind_conditional:
                        cond_retired += 1
                        if entry.mispredicted:
                            cond_misp_retired += 1
                else:
                    bad_executed += 1
                run_execute += 1
        self._inflight = inflight
        self._run_fetch = run_fetch
        self._run_execute = run_execute
        self._run_goodpath = run_goodpath
        stats.goodpath_executed += good_executed
        stats.badpath_executed += bad_executed
        stats.retired_instructions += retired
        stats.branches_retired += branches_retired
        stats.branch_mispredicts_retired += branch_misp_retired
        stats.conditional_branches_retired += cond_retired
        stats.conditional_mispredicts_retired += cond_misp_retired

    def _finish_wrongpath(self, record: BranchRecord, issued: int) -> None:
        """Resolve the mispredicted branch: the shared episode tail.

        Mirrors the cycle core's recovery order — account the
        ``issued`` wrong-path slots estimated to have left the front
        end, resolve (train/repair), squash everything younger, redirect
        fetch, then record the execute instance.  The scalar session's
        only; the fused session generates the same tail inline.
        """
        engine = self.fetch_engine
        stats = self.stats
        if issued > 0:
            stats.badpath_executed += issued
        self._flush_runs()
        stats.flushes += 1
        engine.resolve_record(record)
        window = self._window
        while window:
            entry = window[-1]
            if type(entry) is int:
                if entry > 0:
                    break
                window.pop()
                self._inflight += entry  # entry is negative
            elif entry.on_goodpath:
                break
            else:
                window.pop()
                self._inflight -= 1
                engine.squash_record(entry)
        engine.recover(record)
        self._retire_branch(record)
        self._run_goodpath = not engine.on_wrong_path
        self._run_execute += 1
        stats.fetch_stall_cycles += self.config.redirect_penalty
        self._cycle += self.config.redirect_penalty
        self._cycle_tick()

    def _retire_branch(self, record: BranchRecord) -> None:
        stats = self.stats
        stats.goodpath_executed += 1
        stats.retired_instructions += 1
        stats.branches_retired += 1
        if record.mispredicted:
            stats.branch_mispredicts_retired += 1
        if record.kind is BranchKind.CONDITIONAL:
            stats.conditional_branches_retired += 1
            if record.mispredicted:
                stats.conditional_mispredicts_retired += 1

    # ------------------------------------------------------------------ #
    # batched instance recording
    # ------------------------------------------------------------------ #

    def _deliver_events(self) -> None:
        """Deliver the buffered run events to the observers.

        Legal at any point up to (and including) the moment predictor
        state next changes: no state change happened since the events
        were closed, so the observers read exactly the values one-event
        batches would have read.
        """
        events = self._events
        if events:
            for observer in self.observers:
                observer.record_runs(events)
            del events[:]

    def _flush_runs(self) -> None:
        """Close the pending instance run and deliver everything buffered."""
        fetches = self._run_fetch
        executes = self._run_execute
        self._run_fetch = 0
        self._run_execute = 0
        observers = self.observers
        if not observers:
            return
        events = self._events
        if fetches:
            events.extend(("fetch", self._run_goodpath, self._cycle, fetches))
        if executes:
            events.extend(("execute", self._run_goodpath, self._cycle,
                           executes))
        if events:
            for observer in observers:
                observer.record_runs(events)
            del events[:]

    def _cycle_tick(self) -> None:
        """Per-cycle confidence work for the scalar (self-state) paths.

        Buffered events are delivered before the tick (pre-mutation
        state) and the open run is closed after a tick that reports a
        change — the scalar flush points.  Skipped entirely when the
        predictor stack has no cycle-periodic machinery.
        """
        if not self._cycle_work_possible:
            return
        self._deliver_events()
        if self.fetch_engine.path_confidence.on_cycle(self._cycle):
            self._flush_runs()


class TraceBackend(SimulationBackend):
    """Fast branch-driven replay for predictor-level experiments.

    :meth:`build` picks the session from the stack it is given.  A stack
    that :func:`~repro.backends.fused._fused_plan` models gets the
    bit-identical :class:`~repro.backends.fused.FusedTraceSession` when
    ungated or under a gate :func:`~repro.backends.fused._fused_gate`
    models (count or PaCo gating over the stack's own member).  Every
    other stack or gate gets the scalar :class:`TraceSession`, which is
    also the reference the fused session is tested against.  A
    ``NoGating`` policy builds the same session as no policy at all.

    Parameters
    ----------
    resolve_window:
        Slots between fetch and resolution.  Defaults to
        ``width * frontend_depth`` of the machine configuration
        (calibrated against the cycle model's outstanding-branch window
        and reliability diagrams; see tests/test_backends.py).
    mispredict_window:
        Wrong-path slots replayed per good-path misprediction.  Defaults
        to ``2 * min_mispredict_penalty`` (calibrated against the cycle
        model's wrong-path fetches per flush).
    block_size:
        Branches generated per batch.  Defaults to
        :data:`DEFAULT_TRACE_BLOCK`; results are bit-identical for any
        value >= 1, so this is never part of a job identity or cache key.
    """

    #: Cycles/IPC are *estimates* over the calibrated windows — ordering-
    #: preserving (parity-gated by tests/test_backends.py), not
    #: cycle-accurate; the cycle backend stays ground truth.
    name = "trace"
    supports_timing = True
    supports_gating = True

    def __init__(self, resolve_window: Optional[int] = None,
                 mispredict_window: Optional[int] = None,
                 block_size: Optional[int] = None) -> None:
        self.resolve_window = resolve_window
        self.mispredict_window = mispredict_window
        self.block_size = block_size

    def build(self, workload: Workload, config: MachineConfig,
              instrument: Instrumentation) -> TraceSession:
        fetch_engine = build_fetch_engine(workload, config, instrument)
        resolve_window = (self.resolve_window if self.resolve_window is not None
                          else config.width * config.frontend_depth)
        mispredict_window = (self.mispredict_window
                             if self.mispredict_window is not None
                             else 2 * config.min_mispredict_penalty)
        # Imported here: the fused session subclasses this module's.
        from repro.backends.fused import (FusedTraceSession, _fused_gate,
                                          _fused_plan)
        members = _fused_plan(fetch_engine)
        gating = instrument.gating_policy
        if isinstance(gating, NoGating):
            gating = None
        if members is not None and (
                gating is None or _fused_gate(gating, members) is not None):
            return FusedTraceSession(fetch_engine, config, resolve_window,
                                     mispredict_window, members,
                                     block_size=self.block_size,
                                     gating_policy=gating)
        return TraceSession(fetch_engine, config, resolve_window,
                            mispredict_window, block_size=self.block_size,
                            gating_policy=gating)
