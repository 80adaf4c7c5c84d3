"""The 2-thread SMT core model (paper Table 11).

An 8-wide machine executing two hardware threads.  Each thread has its own
front-end state (branch predictor, JRS confidence table, path confidence
predictor, workload generator) — path confidence must be per-thread because
the fetch policy compares threads against each other — while the backend
resources (reorder buffer capacity, scheduler capacity, functional units,
cache hierarchy) are dynamically shared.

Each cycle the configured :class:`~repro.pipeline.fetch_policy.FetchPolicy`
selects one thread, which then receives the machine's full fetch bandwidth
for that cycle, following the fetch-prioritization formulation of Luo et
al. that the paper evaluates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.types import InstructionClass
from repro.pipeline.caches import CacheHierarchy
from repro.pipeline.config import SMTConfig
from repro.pipeline.core import SimulationTruncated
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.fetch_policy import FetchPolicy, ICountPolicy, ThreadView


@dataclass
class ThreadStats:
    """Per-thread statistics of an SMT run."""

    retired_instructions: int = 0
    goodpath_fetched: int = 0
    badpath_fetched: int = 0
    badpath_executed: int = 0
    branches_retired: int = 0
    branch_mispredicts_retired: int = 0
    fetch_cycles_granted: int = 0

    def ipc(self, cycles: int) -> float:
        if cycles == 0:
            return 0.0
        return self.retired_instructions / cycles


@dataclass
class SMTStats:
    """Aggregate statistics of one SMT run."""

    cycles: int = 0
    threads: List[ThreadStats] = field(default_factory=list)

    @property
    def total_retired(self) -> int:
        return sum(t.retired_instructions for t in self.threads)

    @property
    def total_ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.total_retired / self.cycles

    def thread_ipc(self, index: int) -> float:
        return self.threads[index].ipc(self.cycles)


class SMTThread(ThreadView):
    """One hardware thread: its fetch engine plus its backend bookkeeping."""

    def __init__(self, thread_id: int, fetch_engine: FetchEngine) -> None:
        self.thread_id = thread_id
        self.fetch_engine = fetch_engine
        self.rob: Deque[Instruction] = deque()
        self.stats = ThreadStats()
        self.fetch_stall_until = 0
        self.next_seq = 0

    @property
    def in_flight_instructions(self) -> int:
        return len(self.rob)

    @property
    def path_confidence(self) -> object:
        return self.fetch_engine.path_confidence


class SMTCore:
    """The 8-wide, 2-thread SMT core."""

    def __init__(self, config: SMTConfig, threads: List[SMTThread],
                 fetch_policy: Optional[FetchPolicy] = None,
                 caches: Optional[CacheHierarchy] = None) -> None:
        if len(threads) != config.num_threads:
            raise ValueError(
                f"expected {config.num_threads} threads, got {len(threads)}"
            )
        self.config = config
        self.machine = config.machine
        self.threads = threads
        self.fetch_policy = fetch_policy if fetch_policy is not None else ICountPolicy()
        self.caches = caches if caches is not None else CacheHierarchy(self.machine)

        self._scheduler: List[Instruction] = []
        self._completion_queue: Dict[int, List[Instruction]] = {}
        self._cycle = 0
        self.stats = SMTStats(threads=[t.stats for t in threads])

    # ------------------------------------------------------------------ #

    def run(self, max_total_instructions: int,
            max_cycles: Optional[int] = None) -> SMTStats:
        """Run until the two threads together retire the instruction budget.

        ``max_cycles`` is a safety net (default: 40x the budget); if it
        trips first the run raises :class:`SimulationTruncated` with the
        partial statistics attached.
        """
        if max_total_instructions <= 0:
            raise ValueError("instruction budget must be positive")
        if max_cycles is None:
            max_cycles = max_total_instructions * 40
        while (self.stats.total_retired < max_total_instructions
               and self._cycle < max_cycles):
            self.step()
        self.stats.cycles = self._cycle
        if self.stats.total_retired < max_total_instructions:
            raise SimulationTruncated(self.stats, max_total_instructions,
                                      max_cycles)
        return self.stats

    def step(self) -> None:
        """Advance the SMT core by one cycle (completion before retirement,
        matching :meth:`repro.pipeline.core.OutOfOrderCore.step`)."""
        cycle = self._cycle
        for thread in self.threads:
            thread.fetch_engine.path_confidence.on_cycle(cycle)
        self._complete(cycle)
        self._retire(cycle)
        self._issue(cycle)
        self._fetch_and_dispatch(cycle)
        self._cycle = cycle + 1

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def rob_occupancy(self) -> int:
        return sum(len(t.rob) for t in self.threads)

    # ------------------------------------------------------------------ #
    # backend (shared)
    # ------------------------------------------------------------------ #

    def _retire(self, cycle: int) -> None:
        budget = self.machine.width
        # Round-robin the retire bandwidth across threads, oldest-first within
        # each thread (per-thread program order).
        progress = True
        while budget > 0 and progress:
            progress = False
            for thread in self.threads:
                if budget <= 0:
                    break
                rob = thread.rob
                if not rob:
                    continue
                head = rob[0]
                if head.complete_cycle < 0 or head.complete_cycle > cycle:
                    continue
                rob.popleft()
                head.retired = True
                budget -= 1
                progress = True
                thread.stats.retired_instructions += 1
                if head.is_branch:
                    thread.stats.branches_retired += 1
                    if head.mispredicted:
                        thread.stats.branch_mispredicts_retired += 1

    def _complete(self, cycle: int) -> None:
        completions = self._completion_queue.pop(cycle, None)
        if not completions:
            return
        for instr in completions:
            if instr.squashed:
                continue
            if instr.is_branch:
                thread = self.threads[instr.thread_id]
                thread.fetch_engine.resolve_record(instr.conf_token)
                if instr.mispredicted and instr.on_goodpath:
                    self._recover_thread(thread, instr, cycle)

    def _recover_thread(self, thread: SMTThread, branch: Instruction,
                        cycle: int) -> None:
        survivors: Deque[Instruction] = deque()
        for instr in thread.rob:
            if instr.seq <= branch.seq:
                survivors.append(instr)
                continue
            instr.squashed = True
            if instr.is_branch:
                thread.fetch_engine.squash_record(instr.conf_token)
        thread.rob = survivors
        self._scheduler = [i for i in self._scheduler if not i.squashed]
        thread.fetch_engine.recover(branch)
        thread.fetch_stall_until = max(
            thread.fetch_stall_until, cycle + 1 + self.machine.redirect_penalty
        )

    def _issue(self, cycle: int) -> None:
        if not self._scheduler:
            return
        issued = 0
        still_waiting: List[Instruction] = []
        for instr in self._scheduler:
            if instr.squashed:
                continue
            if issued >= self.machine.num_functional_units:
                still_waiting.append(instr)
                continue
            if not self._is_ready(instr, cycle):
                still_waiting.append(instr)
                continue
            self._execute(instr, cycle)
            issued += 1
        self._scheduler = still_waiting

    @staticmethod
    def _is_ready(instr: Instruction, cycle: int) -> bool:
        if cycle < instr.ready_cycle:
            return False
        producer = instr.producer
        if producer is None or producer.squashed:
            return True
        return 0 <= producer.complete_cycle <= cycle

    def _execute(self, instr: Instruction, cycle: int) -> None:
        latency = instr.latency_class
        if instr.iclass in (InstructionClass.LOAD, InstructionClass.STORE):
            if instr.address is not None:
                latency += self.caches.access_data(instr.address)
        instr.issue_cycle = cycle
        instr.complete_cycle = cycle + max(1, latency)
        self._completion_queue.setdefault(instr.complete_cycle, []).append(instr)
        if not instr.on_goodpath:
            self.threads[instr.thread_id].stats.badpath_executed += 1

    # ------------------------------------------------------------------ #
    # front end (policy-arbitrated)
    # ------------------------------------------------------------------ #

    def _fetch_and_dispatch(self, cycle: int) -> None:
        machine = self.machine
        if self.rob_occupancy >= machine.rob_size:
            return
        if len(self._scheduler) >= machine.scheduler_size:
            return
        eligible = [i for i, t in enumerate(self.threads)
                    if cycle >= t.fetch_stall_until]
        if not eligible:
            return
        if len(eligible) == len(self.threads):
            index = self.fetch_policy.select(cycle, self.threads)
        else:
            index = eligible[0]
        thread = self.threads[index]
        thread.stats.fetch_cycles_granted += 1
        for slot in range(machine.width):
            if self.rob_occupancy >= machine.rob_size:
                break
            if len(self._scheduler) >= machine.scheduler_size:
                break
            instr = thread.fetch_engine.fetch_one(thread.next_seq, cycle)
            thread.next_seq += 1
            if instr.on_goodpath:
                thread.stats.goodpath_fetched += 1
            else:
                thread.stats.badpath_fetched += 1

            # One instruction-cache access per fetch group, tagged by thread
            # so the two threads' code does not alias onto the same lines.
            icache_penalty = (self.caches.access_instruction(
                instr.pc ^ (instr.thread_id << 30)) if slot == 0 else 0)
            if icache_penalty > 0:
                thread.fetch_stall_until = cycle + 1 + icache_penalty

            instr.ready_cycle = cycle + machine.frontend_depth
            if instr.dep_distance > 0 and len(thread.rob) >= instr.dep_distance:
                instr.producer = thread.rob[-instr.dep_distance]
            thread.rob.append(instr)
            self._scheduler.append(instr)

            if icache_penalty > 0:
                break
