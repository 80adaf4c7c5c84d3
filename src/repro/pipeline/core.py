"""The single-thread out-of-order core model.

A cycle-approximate model of the paper's 4-wide machine (Table 6).  Each
cycle, in backend-to-frontend order, the core:

1. runs the path confidence predictor's periodic work (PaCo's
   re-logarithmizing pass),
2. retires completed instructions in order from the reorder buffer,
3. processes completion events (branch resolution, misprediction recovery),
4. issues ready instructions to the functional units, and
5. fetches/dispatches new instructions unless fetch is stalled, gated by
   the gating policy, or a structural resource (ROB/scheduler) is full.

The model is deliberately lighter than an RTL-faithful simulator — it does
not rename registers or model a memory dependence predictor — but it keeps
everything that path confidence prediction interacts with: a window of
unresolved branches whose depth depends on backend latencies, wrong-path
fetch and execution, cache and BTB pollution by wrong-path instructions,
and a misprediction penalty of at least the paper's 10 cycles.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.isa.instruction import Instruction
from repro.isa.types import InstructionClass
from repro.pipeline.caches import CacheHierarchy
from repro.pipeline.config import MachineConfig
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.gating import GatingPolicy, NoGating


class SimulationTruncated(RuntimeError):
    """A run hit its ``max_cycles`` safety net before the instruction budget.

    Raised instead of returning truncated statistics that look like a
    normal run (a configuration error — e.g. a gating policy that never
    ungates — would otherwise silently produce garbage rates).  The
    partial statistics (``CoreStats``, or ``SMTStats`` from the SMT
    cores) are attached for post-mortem inspection.
    """

    def __init__(self, stats: "CoreStats", max_instructions: int,
                 max_cycles: int) -> None:
        # SMT runs attach SMTStats, whose budget counts every thread.
        retired = getattr(stats, "total_retired", None)
        if retired is None:
            retired = stats.retired_instructions
        super().__init__(
            f"simulation truncated: only {retired} of "
            f"{max_instructions} instructions retired when the max_cycles "
            f"safety net ({max_cycles}) tripped"
        )
        self.stats = stats
        self.retired = retired
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles


class InstanceObserver(abc.ABC):
    """Callback hook for path-confidence "instances".

    The paper defines an instance as any event that can change the path
    confidence estimate: fetching an instruction or executing one.  The
    evaluation harness registers an observer and, at every instance, records
    the predictors' current estimates together with whether the front end is
    actually on the good path.  A run of identical instances is one weighted
    observation, so a single instance is a run of length 1.
    """

    @abc.abstractmethod
    def record_runs(self, events: list) -> None:
        """Record a batch of instance runs that share one predictor state.

        ``events`` is a flat stride-4 list of ``(kind, on_goodpath,
        cycle, count)`` groups, in recording order; ``kind`` is
        ``"fetch"`` or ``"execute"``.  The trace backend buffers run
        events across spans where no predictor state changes and
        delivers them just before the next state change, so an observer
        may read predictor state once for the whole batch.  The cycle
        model delivers every instance as a one-event batch with count 1.
        The buffer is reused by the caller — observers must not keep a
        reference.
        """


@dataclass
class CoreStats:
    """Aggregate statistics of one core run."""

    cycles: int = 0
    retired_instructions: int = 0
    goodpath_fetched: int = 0
    badpath_fetched: int = 0
    goodpath_executed: int = 0
    badpath_executed: int = 0
    branches_retired: int = 0
    conditional_branches_retired: int = 0
    conditional_mispredicts_retired: int = 0
    branch_mispredicts_retired: int = 0
    gated_cycles: int = 0
    fetch_stall_cycles: int = 0
    flushes: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.retired_instructions / self.cycles

    @property
    def conditional_mispredict_rate(self) -> float:
        if self.conditional_branches_retired == 0:
            return 0.0
        return (self.conditional_mispredicts_retired
                / self.conditional_branches_retired)

    @property
    def overall_mispredict_rate(self) -> float:
        if self.branches_retired == 0:
            return 0.0
        return self.branch_mispredicts_retired / self.branches_retired

    @property
    def badpath_executed_fraction(self) -> float:
        total = self.goodpath_executed + self.badpath_executed
        if total == 0:
            return 0.0
        return self.badpath_executed / total


class OutOfOrderCore:
    """The 4-wide out-of-order core."""

    def __init__(self, config: MachineConfig, fetch_engine: FetchEngine,
                 caches: Optional[CacheHierarchy] = None,
                 gating_policy: Optional[GatingPolicy] = None) -> None:
        self.config = config
        self.fetch_engine = fetch_engine
        self.caches = caches if caches is not None else CacheHierarchy(config)
        self.gating_policy = gating_policy if gating_policy is not None else NoGating()

        self.stats = CoreStats()
        self.observers: List[InstanceObserver] = []
        #: The one-event batch every instance is delivered as; reused,
        #: since observers must not keep the buffer.
        self._event: list = [None, True, 0, 1]

        self._rob: Deque[Instruction] = deque()
        self._scheduler: List[Instruction] = []
        self._completion_queue: Dict[int, List[Instruction]] = {}
        self._cycle = 0
        self._next_seq = 0
        self._fetch_stall_until = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def add_observer(self, observer: InstanceObserver) -> None:
        self.observers.append(observer)

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> CoreStats:
        """Run until ``max_instructions`` good-path instructions have retired.

        ``max_cycles`` is a safety net (default: 40x the instruction budget)
        so a configuration error cannot loop forever.  If the safety net
        trips before the budget is met the run raises
        :class:`SimulationTruncated` (with the partial statistics attached)
        rather than returning truncated stats that look like a normal run.
        """
        if max_instructions <= 0:
            raise ValueError("instruction budget must be positive")
        if max_cycles is None:
            max_cycles = max_instructions * 40
        while (self.stats.retired_instructions < max_instructions
               and self._cycle < max_cycles):
            self.step()
        self.stats.cycles = self._cycle
        if self.stats.retired_instructions < max_instructions:
            raise SimulationTruncated(self.stats, max_instructions, max_cycles)
        return self.stats

    def step(self) -> None:
        """Advance the core by one cycle.

        Completion (branch resolution and misprediction recovery) is
        processed before retirement so that a mispredicted branch's flush
        always squashes its wrong-path successors before the retire stage
        could reach them.
        """
        cycle = self._cycle
        self.fetch_engine.path_confidence.on_cycle(cycle)
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
        return len(self._rob)

    # ------------------------------------------------------------------ #
    # pipeline stages (back to front)
    # ------------------------------------------------------------------ #

    def _retire(self, cycle: int) -> None:
        retired = 0
        stats = self.stats
        rob = self._rob
        while rob and retired < self.config.width:
            head = rob[0]
            if head.complete_cycle < 0 or head.complete_cycle > cycle:
                break
            rob.popleft()
            head.retired = True
            retired += 1
            stats.retired_instructions += 1
            if head.is_branch:
                stats.branches_retired += 1
                if head.mispredicted:
                    stats.branch_mispredicts_retired += 1
                if head.is_conditional_branch:
                    stats.conditional_branches_retired += 1
                    if head.mispredicted:
                        stats.conditional_mispredicts_retired += 1

    def _complete(self, cycle: int) -> None:
        completions = self._completion_queue.pop(cycle, None)
        if not completions:
            return
        for instr in completions:
            if instr.squashed:
                continue
            if instr.is_branch:
                self.fetch_engine.resolve_record(instr.conf_token)
                if instr.mispredicted and instr.on_goodpath:
                    self._recover_from_mispredict(instr, cycle)
            self._record_instance("execute", cycle)

    def _recover_from_mispredict(self, branch: Instruction, cycle: int) -> None:
        """Flush everything younger than the mispredicted branch and redirect."""
        self.stats.flushes += 1
        rob = self._rob
        survivors: Deque[Instruction] = deque()
        for instr in rob:
            if instr.seq <= branch.seq:
                survivors.append(instr)
                continue
            instr.squashed = True
            if instr.is_branch:
                self.fetch_engine.squash_record(instr.conf_token)
        self._rob = survivors
        self._scheduler = [i for i in self._scheduler if not i.squashed]
        self.fetch_engine.recover(branch)
        self._fetch_stall_until = max(
            self._fetch_stall_until, cycle + 1 + self.config.redirect_penalty
        )

    def _issue(self, cycle: int) -> None:
        if not self._scheduler:
            return
        issued = 0
        still_waiting: List[Instruction] = []
        for instr in self._scheduler:
            if instr.squashed:
                continue
            if issued >= self.config.num_functional_units:
                still_waiting.append(instr)
                continue
            if not self._is_ready(instr, cycle):
                still_waiting.append(instr)
                continue
            self._execute(instr, cycle)
            issued += 1
        self._scheduler = still_waiting

    def _is_ready(self, instr: Instruction, cycle: int) -> bool:
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
        if instr.on_goodpath:
            self.stats.goodpath_executed += 1
        else:
            self.stats.badpath_executed += 1

    # ------------------------------------------------------------------ #
    # fetch / dispatch
    # ------------------------------------------------------------------ #

    def _fetch_and_dispatch(self, cycle: int) -> None:
        if cycle < self._fetch_stall_until:
            self.stats.fetch_stall_cycles += 1
            return
        if self.gating_policy.should_gate():
            self.stats.gated_cycles += 1
            return
        config = self.config
        for slot in range(config.width):
            if len(self._rob) >= config.rob_size:
                break
            if len(self._scheduler) >= config.scheduler_size:
                break
            instr = self.fetch_engine.fetch_one(self._next_seq, cycle)
            self._next_seq += 1
            if instr.on_goodpath:
                self.stats.goodpath_fetched += 1
            else:
                self.stats.badpath_fetched += 1

            # One instruction-cache access per fetch group (the group shares
            # a cache line); a miss stalls fetch for the fill latency.
            icache_penalty = (self.caches.access_instruction(instr.pc)
                              if slot == 0 else 0)
            if icache_penalty > 0:
                self._fetch_stall_until = cycle + 1 + icache_penalty

            instr.ready_cycle = cycle + config.frontend_depth
            if instr.dep_distance > 0 and len(self._rob) >= instr.dep_distance:
                instr.producer = self._rob[-instr.dep_distance]
            self._rob.append(instr)
            self._scheduler.append(instr)
            self._record_instance("fetch", cycle)

            if icache_penalty > 0:
                break

    # ------------------------------------------------------------------ #

    def _record_instance(self, kind: str, cycle: int) -> None:
        if not self.observers:
            return
        event = self._event
        event[0] = kind
        event[1] = self.fetch_engine.fetching_goodpath
        event[2] = cycle
        for observer in self.observers:
            observer.record_runs(event)
