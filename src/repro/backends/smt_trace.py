"""SMT fetch prioritization over interleaved trace replays.

:class:`TraceSMTCore` models the paper's 2-thread SMT machine (Table 11)
at the same level of abstraction as the single-thread trace backend: each
hardware thread is a branch-driven replay — its own
:class:`~repro.pipeline.fetch.FetchEngine`, geometric inter-branch gaps,
an in-flight window of ``resolve_window`` slots, and a time-based
wrong-path episode of ``mispredict_window`` estimated cycles per
good-path misprediction.  The shared front end is arbitrated by the same
:class:`~repro.pipeline.fetch_policy.FetchPolicy` objects the cycle model
uses, over the same :class:`~repro.pipeline.fetch_policy.ThreadView`
signals (in-flight count, per-thread path confidence predictor).

The replay advances in *grants* rather than cycles: the selected thread
fetches its next inter-branch gap plus branch (the estimated clock
advances one cycle per fetched slot, the idealized IPC-1 front end of the
trace backend), while every other thread's in-flight window drains one
slot per elapsed cycle — completing, retiring and resolving its oldest
work exactly as the shared back end would.  Draining the loser is what
keeps the policies honest: a deprioritized thread's unresolved
low-confidence branches resolve as its window empties, so its confidence
signal recovers and fetch priority oscillates instead of starving.  A
grant is clamped so it never skips past a pending misprediction
resolution, which happens at its recorded estimated cycle: resolve,
squash younger wrong-path work, recover, retire the branch, and stall
the thread's fetch for the redirect penalty.

**Two loops.**  :meth:`TraceSMTCore.run` runs one of two loops with the
same grant skeleton.  For two threads under ICOUNT or the count or PaCo
confidence policy (exact types, over exact predictor types), each thread
carrying one PaCo or one threshold-and-count predictor, it runs the loop
:mod:`repro.backends.fused` generates for that (predictor, policy) shape:
both threads' predictor stacks on prefixed locals, every good-path
predict and every resolve or squash in the drains inline, PaCo's re-log
only when due.  Wrong-path gaps and branches and the due mispredict
resolution go through the thread methods both loops share.  Every other
core runs :meth:`TraceSMTCore._run_scalar`, which predicts and resolves
every branch through the thread's
:class:`~repro.pipeline.fetch.FetchEngine`; it is the bit-identical
reference (``tests/test_smt_fused_parity.py``).

Both loops arbitrate ICOUNT and the count and PaCo confidence policies
inline on the live counters with the policies' tie-breaks, and put only
the first contested grant of each ``run()`` to ``select()`` as a
cross-check; every other policy is asked through ``select()`` every
grant.  Threads must share no predictor state: a step drains the other
threads before the granted thread predicts its branch.

**Staging.**  Branch content is generated ahead into per-thread buffers
and consumed in order, which reorders no stream's draws:

* an unphased thread's good-path branches come ``BRANCH_STAGE`` at a
  time from ``WorkloadGenerator.next_branch_block``; a phased thread
  (gcc, mcf) stages one branch per call, because its gap slots advance
  the phase schedule between branches;
* wrong-path branches come ``BRANCH_STAGE`` at a time from
  ``WrongPathGenerator.next_branch_block``, for every thread: the
  wrong-path site set is built once and never changes at phase rolls;
* gaps stay on their own buffered streams (``GAP_BUFFER``), because
  gaps and branches are not in lockstep (see the deviation below).

**Known model deviation.**  A grant clamped at a pending resolution
banks the rest of its gap as ``pending_gap``.  When the clamp consumes
the gap exactly (``pending_gap == 0``), the next grant draws a fresh gap
before the same branch, so that branch is fetched one extra gap late.
Fixing it would change every fig12 trace result, so it is kept (and
pinned by ``tests/test_smt_trace_pin.py``).

Per-thread IPCs out of this model are *estimates* (bounded by the IPC-1
front end), but the fig12 metric — HMWIPC over per-thread SMT/single
IPC ratios — consumes only relative throughput, and the fetch policies
consume only ordering signals, so the policy ranking survives; the
trace-vs-cycle parity gates in ``tests/test_backends.py`` pin that.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.backends.fused import _smt_method
from repro.backends.trace import _has_cycle_work
from repro.branch_predictor.engine import BranchRecord
from repro.common.rng import RngPool
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.config import SMTConfig
from repro.pipeline.core import SimulationTruncated
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.fetch_policy import (
    CountConfidencePolicy,
    FetchPolicy,
    ICountPolicy,
    PaCoConfidencePolicy,
    ThreadView,
)
from repro.pipeline.smt import SMTStats, ThreadStats
from repro.workloads.generator import BranchBlock

#: Geometric gaps drawn per refill of a thread's gap buffers.  Grants
#: consume one gap at a time, so buffering amortizes the draw-call
#: overhead without changing per-stream draw order (each stream's gaps
#: are consumed in exactly the order they are drawn).
GAP_BUFFER = 64

#: Branches generated per refill of an unphased thread's good-path
#: buffer and of every thread's wrong-path buffer (read when a thread is
#: built).  Results do not depend on it.
BRANCH_STAGE = 64

#: ``next_due`` when no mispredict is pending: later than any run ends.
_NEVER = 1 << 62

#: Arbitration modes of :meth:`TraceSMTCore._arbitration`; the inline
#: ones double as the generated loop's arbitration key.
_SELECT, _ICOUNT, _COUNT, _PACO = "select", "icount", "count", "paco"


class TraceSMTThread(ThreadView):
    """One hardware thread of the trace SMT model.

    Holds the thread's fetch engine, its in-flight slot window (the same
    ``BranchRecord``-or-signed-int-run encoding as
    :class:`~repro.backends.trace.TraceSession`), its gap RNG streams,
    its staged branch buffers and its pending wrong-path episode, and
    exposes the :class:`~repro.pipeline.fetch_policy.ThreadView` signals
    the fetch policies arbitrate on.
    """

    def __init__(self, thread_id: int, fetch_engine: FetchEngine) -> None:
        self.thread_id = thread_id
        self.fetch_engine = fetch_engine
        self.stats = ThreadStats()
        self.window: Deque[object] = deque()
        self.inflight = 0
        self.next_seq = 0
        self.fetch_stall_until = 0
        self.pending_gap = 0
        #: The unresolved good-path mispredict, if any, and the estimated
        #: cycle its episode ends (time-based, like the gated replay).
        self.wp_record: Optional[BranchRecord] = None
        self.wp_resolve_at = 0

        spec = fetch_engine.generator.spec
        pool = RngPool(fetch_engine.generator._pool.master_seed).fork(
            "trace-gaps")
        self.gap_rng = pool.stream("goodpath")
        self.wp_gap_rng = pool.stream("wrongpath")
        branch_fraction = min(max(spec.branch_fraction, 1e-9), 1.0)
        self.log_one_minus_p = (math.log(1.0 - branch_fraction)
                                if branch_fraction < 1.0 else None)
        # Buffered gap draws and staged branches, one buffer per stream;
        # a position at the end marks the buffer as spent.
        self.gap_buf = [0] * GAP_BUFFER
        self.gap_pos = GAP_BUFFER
        self.wp_gap_buf = [0] * GAP_BUFFER
        self.wp_gap_pos = GAP_BUFFER
        stage = 1 if spec.phases else BRANCH_STAGE
        self.block = BranchBlock(stage)
        self.block_pos = stage
        self.wp_block = BranchBlock(BRANCH_STAGE)
        self.wp_block_pos = BRANCH_STAGE
        #: The path confidence predictor's ``on_cycle`` when it has cycle
        #: work, else None (the tick is skipped).
        confidence = fetch_engine.path_confidence
        self.on_cycle = (confidence.on_cycle
                         if _has_cycle_work(confidence) else None)

    def _resolve_due(self, cycle: int, redirect_penalty: int) -> None:
        """Resolve the pending mispredict at ``cycle``: resolve the
        branch, squash younger wrong-path work, recover, retire the
        branch and stall fetch for the redirect penalty.  The caller adds
        the retired branch to its running total."""
        record = self.wp_record
        self.wp_record = None
        engine = self.fetch_engine
        engine.resolve_record(record)
        window = self.window
        while window:
            entry = window[-1]
            if type(entry) is int:
                if entry > 0:
                    break
                window.pop()
                self.inflight += entry  # entry is negative
            elif entry.on_goodpath:
                break
            else:
                window.pop()
                self.inflight -= 1
                engine.squash_record(entry)
        engine.recover(record)
        stats = self.stats
        stats.retired_instructions += 1
        stats.branches_retired += 1
        if record.mispredicted:
            stats.branch_mispredicts_retired += 1
        self.fetch_stall_until = max(self.fetch_stall_until,
                                     cycle + redirect_penalty)

    def _wrongpath_gap(self, limit: int) -> Tuple[int, bool]:
        """Fetch the next wrong-path gap, clamped at ``limit`` slots (the
        remainder is dropped).  Returns ``(slots, fetch_branch)``: the
        slots the grant takes, and whether a branch follows the gap."""
        pos = self.wp_gap_pos
        if pos >= GAP_BUFFER:
            self.wp_gap_rng.geometric_block(self.log_one_minus_p,
                                            self.wp_gap_buf, GAP_BUFFER)
            pos = 0
        self.wp_gap_pos = pos + 1
        gap = self.wp_gap_buf[pos]
        if gap >= limit:
            gap = slots = limit
        else:
            slots = gap + 1
        if gap:
            self.fetch_engine.badpath_fetched += gap
            self.stats.badpath_fetched += gap
            window = self.window
            last = window[-1] if window else None
            if type(last) is int and last < 0:
                window[-1] = last - gap
            else:
                window.append(-gap)
            self.inflight += gap
        return slots, slots > gap

    def _wrongpath_branch(self, seq: int) -> BranchRecord:
        """Fetch and predict the next staged wrong-path branch."""
        block = self.wp_block
        pos = self.wp_block_pos
        engine = self.fetch_engine
        if pos >= block.capacity:
            engine.wrongpath_generator.next_branch_block(block,
                                                         block.capacity)
            pos = 0
        self.wp_block_pos = pos + 1
        record = engine.predict_from_block(block, pos, seq, False)
        engine.badpath_fetched += 1
        self.stats.badpath_fetched += 1
        return record

    @property
    def in_flight_instructions(self) -> int:
        return self.inflight + (1 if self.wp_record is not None else 0)

    @property
    def path_confidence(self) -> object:
        return self.fetch_engine.path_confidence


class TraceSMTCore:
    """The 8-wide 2-thread SMT machine as two interleaved trace replays."""

    def __init__(self, config: SMTConfig, threads: List[TraceSMTThread],
                 fetch_policy: Optional[FetchPolicy] = None,
                 resolve_window: Optional[int] = None,
                 mispredict_window: Optional[int] = None) -> None:
        if len(threads) != config.num_threads:
            raise ValueError(
                f"expected {config.num_threads} threads, got {len(threads)}")
        self.config = config
        self.machine = config.machine
        self.threads = threads
        self.fetch_policy = (fetch_policy if fetch_policy is not None
                             else ICountPolicy())
        machine = config.machine
        self.resolve_window = (resolve_window if resolve_window is not None
                               else machine.width * machine.frontend_depth)
        self.mispredict_window = (mispredict_window
                                  if mispredict_window is not None
                                  else 2 * machine.min_mispredict_penalty)
        if self.resolve_window < 1 or self.mispredict_window < 1:
            raise ValueError("trace windows must be at least one slot")
        self._cycle = 0
        self.stats = SMTStats(threads=[t.stats for t in threads])

    @property
    def cycle(self) -> int:
        return self._cycle

    def _arbitration(self) -> str:
        """Which fetch choice :meth:`run` computes inline (``_SELECT``:
        none, ask the policy)."""
        if len(self.threads) != 2:
            return _SELECT
        policy_type = type(self.fetch_policy)
        predictor_types = {type(t.fetch_engine.path_confidence)
                           for t in self.threads}
        if policy_type is ICountPolicy:
            return _ICOUNT
        if (policy_type is CountConfidencePolicy
                and predictor_types == {ThresholdAndCountPredictor}):
            return _COUNT
        if (policy_type is PaCoConfidencePolicy
                and predictor_types == {PaCoPredictor}):
            return _PACO
        return _SELECT

    def run(self, max_total_instructions: int,
            max_cycles: Optional[int] = None) -> SMTStats:
        """Run until the threads together retire the instruction budget.

        ``max_cycles`` is a safety net (default: 40x the budget); if it
        trips first the run raises
        :class:`~repro.pipeline.core.SimulationTruncated` with the
        partial statistics attached.

        A core whose fetch choice is inline (:meth:`_arbitration`) and
        whose threads each carry one PaCo or one threshold-and-count
        predictor runs the loop :mod:`repro.backends.fused` generates for
        that shape, bit-identical to :meth:`_run_scalar`, which runs
        every other core and stays the reference.
        """
        if max_total_instructions <= 0:
            raise ValueError("instruction budget must be positive")
        if max_cycles is None:
            max_cycles = max_total_instructions * 40
        arbitration = self._arbitration()
        method = (None if arbitration == _SELECT
                  else _smt_method(self.threads, arbitration))
        if method is None:
            retired = self._run_scalar(max_total_instructions, max_cycles)
        else:
            retired = method(self, max_total_instructions, max_cycles)
        if retired < max_total_instructions:
            raise SimulationTruncated(self.stats, max_total_instructions,
                                      max_cycles)
        return self.stats

    def _run_scalar(self, max_total_instructions: int,
                    max_cycles: int) -> int:
        """The reference loop: every branch through the thread's
        :class:`~repro.pipeline.fetch.FetchEngine`.  Returns the total
        retired instructions.

        Each pass of the loop is one arbitration event: per-cycle
        predictor work and due mispredict resolutions, the fetch choice,
        the granted thread's gap (or the clamped prefix of it), the
        drains of every window, then the granted thread's branch.
        """
        threads = self.threads
        policy = self.fetch_policy
        resolve_window = self.resolve_window
        mispredict_window = self.mispredict_window
        redirect_penalty = self.machine.redirect_penalty
        arbitration = self._arbitration()
        if arbitration != _SELECT:
            thread0, thread1 = threads
            conf0 = thread0.fetch_engine.path_confidence
            conf1 = thread1.fetch_engine.path_confidence
        ticking = any(t.on_cycle is not None for t in threads)
        cross_check = True
        cycle = self._cycle
        retired = sum(t.stats.retired_instructions for t in threads)
        next_due = min([t.wp_resolve_at for t in threads
                        if t.wp_record is not None], default=_NEVER)
        stall_min = min(t.fetch_stall_until for t in threads)
        stall_max = max(t.fetch_stall_until for t in threads)

        while retired < max_total_instructions and cycle < max_cycles:
            # Per-cycle predictor work, then due mispredict resolutions:
            # resolve, squash younger wrong-path work, recover, retire
            # the branch and stall the thread for the redirect penalty.
            if ticking or cycle >= next_due:
                resolved = False
                for thread in threads:
                    if thread.on_cycle is not None:
                        thread.on_cycle(cycle)
                    if (thread.wp_record is None
                            or cycle < thread.wp_resolve_at):
                        continue
                    resolved = True
                    thread._resolve_due(cycle, redirect_penalty)
                    retired += 1
                if resolved:
                    next_due = min([t.wp_resolve_at for t in threads
                                    if t.wp_record is not None],
                                   default=_NEVER)
                    stall_min = min(t.fetch_stall_until for t in threads)
                    stall_max = max(t.fetch_stall_until for t in threads)

            # The fetch choice: the policy's when every thread may fetch,
            # else the first thread not redirect-stalled, else nobody.
            if cycle >= stall_max:
                if arbitration == _SELECT:
                    thread = threads[policy.select(cycle, threads)]
                else:
                    # The policy's key, then ICOUNT, then cycle parity.
                    if arbitration == _COUNT:
                        key0 = conf0._low_confidence_outstanding
                        key1 = conf1._low_confidence_outstanding
                    elif arbitration == _PACO:
                        key0 = conf0.path_confidence_register
                        key1 = conf1.path_confidence_register
                    else:
                        key0 = key1 = 0
                    if key0 == key1:
                        key0 = (thread0.inflight
                                + (thread0.wp_record is not None))
                        key1 = (thread1.inflight
                                + (thread1.wp_record is not None))
                        if key0 == key1:
                            key0 = cycle & 1
                            key1 = 1 - key0
                    thread = thread0 if key0 < key1 else thread1
                    if cross_check:
                        # The first contested grant of every run() is
                        # also put to the policy, which must agree.
                        cross_check = False
                        chosen = threads[policy.select(cycle, threads)]
                        if chosen is not thread:
                            raise RuntimeError(
                                "inline fetch arbitration disagrees with "
                                f"{policy.name}.select() at cycle {cycle}")
            elif cycle < stall_min:
                thread = None
            else:
                thread = next(t for t in threads
                              if cycle >= t.fetch_stall_until)

            # The granted thread's gap: a signed run (positive good path,
            # negative wrong path) of ``slots`` or ``slots - 1`` slots,
            # clamped at the next pending resolution.
            fetch_branch = False
            if thread is None:
                # Every thread is redirect-stalled: idle the front end
                # until the earliest wake-up, draining meanwhile.
                slots = min(stall_min, next_due) - cycle
            else:
                engine = thread.fetch_engine
                stats = thread.stats
                limit = next_due - cycle
                wrong_path = engine.on_wrong_path
                if wrong_path:
                    slots, fetch_branch = thread._wrongpath_gap(limit)
                else:
                    gap = thread.pending_gap
                    if not gap:
                        pos = thread.gap_pos
                        if pos >= GAP_BUFFER:
                            thread.gap_rng.geometric_block(
                                thread.log_one_minus_p, thread.gap_buf,
                                GAP_BUFFER)
                            pos = 0
                        thread.gap_pos = pos + 1
                        gap = thread.gap_buf[pos]
                    if gap >= limit:
                        # Fetch the prefix that fits before the pending
                        # resolution; bank the rest for the next grant.
                        thread.pending_gap = gap - limit
                        gap = slots = limit
                    else:
                        thread.pending_gap = 0
                        slots = gap + 1
                        fetch_branch = True
                    if gap:
                        generator = engine.generator
                        remaining = gap
                        while remaining:
                            remaining -= generator.advance_instructions(
                                remaining)
                        engine.goodpath_fetched += gap
                        stats.goodpath_fetched += gap
                        window = thread.window
                        last = window[-1] if window else None
                        if type(last) is int and last > 0:
                            window[-1] = last + gap
                        else:
                            window.append(gap)
                        thread.inflight += gap

            # Drains: the other threads complete one slot per elapsed
            # cycle; the granted thread completes its window overflow
            # before it predicts its branch.
            for other in threads:
                if other is thread:
                    count = other.inflight - resolve_window
                    if count <= 0:
                        continue
                else:
                    count = slots
                window = other.window
                if not window:
                    continue
                other_stats = other.stats
                inflight = other.inflight
                while count > 0 and window:
                    entry = window[0]
                    if type(entry) is int:
                        size = entry if entry > 0 else -entry
                        take = size if size <= count else count
                        if entry > 0:
                            other_stats.retired_instructions += take
                            retired += take
                        else:
                            other_stats.badpath_executed += take
                        if take < size:
                            window[0] = (entry - take if entry > 0
                                         else entry + take)
                        else:
                            window.popleft()
                        inflight -= take
                        count -= take
                    else:
                        window.popleft()
                        inflight -= 1
                        count -= 1
                        other.fetch_engine.resolve_record(entry)
                        if entry.on_goodpath:
                            other_stats.retired_instructions += 1
                            other_stats.branches_retired += 1
                            retired += 1
                            if entry.mispredicted:
                                other_stats.branch_mispredicts_retired += 1
                        else:
                            other_stats.badpath_executed += 1
                other.inflight = inflight

            if thread is not None:
                if fetch_branch:
                    seq = thread.next_seq
                    thread.next_seq = seq + 1
                    if wrong_path:
                        record = thread._wrongpath_branch(seq)
                    else:
                        block = thread.block
                        pos = thread.block_pos
                        if pos >= block.capacity:
                            engine.generator.next_branch_block(
                                seq, block.capacity, block)
                            pos = 0
                        thread.block_pos = pos + 1
                        record = engine.predict_from_block(block, pos, seq)
                        engine.goodpath_fetched += 1
                        stats.goodpath_fetched += 1
                        if engine.on_wrong_path:
                            # The episode is time-based: the branch
                            # resolves a calibrated number of estimated
                            # cycles after its fetch, regardless of how
                            # much wrong-path work the policy lets this
                            # thread fetch.
                            thread.wp_record = record
                            due = cycle + slots + mispredict_window
                            thread.wp_resolve_at = due
                            if due < next_due:
                                next_due = due
                            record = None
                    if record is not None:
                        window = thread.window
                        window.append(record)
                        if thread.inflight < resolve_window:
                            thread.inflight += 1
                        else:
                            # The window overflows by the new branch:
                            # complete its oldest slot.
                            entry = window[0]
                            if type(entry) is not int:
                                window.popleft()
                                engine.resolve_record(entry)
                                if entry.on_goodpath:
                                    stats.retired_instructions += 1
                                    stats.branches_retired += 1
                                    retired += 1
                                    if entry.mispredicted:
                                        stats.branch_mispredicts_retired += 1
                                else:
                                    stats.badpath_executed += 1
                            else:
                                if entry > 0:
                                    stats.retired_instructions += 1
                                    retired += 1
                                    entry -= 1
                                else:
                                    stats.badpath_executed += 1
                                    entry += 1
                                if entry:
                                    window[0] = entry
                                else:
                                    window.popleft()
                stats.fetch_cycles_granted += slots
            cycle += slots

        self._cycle = cycle
        self.stats.cycles = cycle
        return retired


def build_trace_smt_core(fetch_engines: Sequence[FetchEngine],
                         config: Optional[SMTConfig] = None,
                         fetch_policy: Optional[FetchPolicy] = None
                         ) -> TraceSMTCore:
    """Wire per-thread fetch engines into a :class:`TraceSMTCore`.

    The engines must be built with the same per-thread seeds the cycle
    SMT harness uses (``seed + thread_id`` / ``wrongpath_seed = seed +
    10 + thread_id``) so both backends replay the same streams.
    """
    config = config if config is not None else SMTConfig()
    threads = [TraceSMTThread(thread_id, engine)
               for thread_id, engine in enumerate(fetch_engines)]
    return TraceSMTCore(config, threads, fetch_policy=fetch_policy)
