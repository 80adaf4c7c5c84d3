"""Dynamic instruction stream generation.

:class:`WorkloadGenerator` turns a :class:`~repro.workloads.spec.BenchmarkSpec`
into an endless good-path instruction stream: the architectural path the
program would retire.  The pipeline's fetch engine consumes this stream,
runs the real branch predictor over it, and — when a prediction is wrong —
switches to a :class:`WrongPathGenerator` until the mispredicted branch
resolves, exactly mirroring how an execution-driven simulator wanders onto
the wrong path.

The generator owns all architectural state of the synthetic program: the
current phase, the call stack (so returns have real targets for the RAS to
predict), per-static-branch behaviour state and the data reference stream.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.common.rng import DeterministicRng, RngPool
from repro.isa.instruction import BranchOutcome, Instruction
from repro.isa.program import DEFAULT_LATENCY_BY_CLASS, StaticBranch
from repro.isa.types import BranchKind, InstructionClass
from repro.workloads.branch_models import (
    BiasedRandomBranch,
    BranchBehavior,
    CorrelatedBranch,
    GlobalCorrelationState,
    IndirectTargetModel,
    LoopBranch,
)
from repro.workloads.spec import BenchmarkSpec, PhaseSpec

# Behaviour class tags used when sampling which population a dynamic
# conditional branch comes from.
_CLASS_HARD = "hard"
_CLASS_CORRELATED = "correlated"
_CLASS_LOOP = "loop"
_CLASS_PATTERN = "pattern"
_CLASS_BIASED = "biased"

_MASK64 = (1 << 64) - 1

#: Small integer codes for the branch-kind dispatch in the block
#: generation loop (string comparisons per branch add up).
_KIND_CODES = {
    "conditional": 0,
    "unconditional": 1,
    "call": 2,
    "ret": 3,
    "indirect": 4,
    "indirect_call": 5,
}

#: Taken-probability of the 'leftover' mildly biased population.
_LEFTOVER_BIAS = 0.985

#: Code region layout (purely cosmetic, but keeps PCs plausible and distinct).
_CODE_BASE = 0x0040_0000
_INDIRECT_TARGET_BASE = 0x0080_0000
_WRONGPATH_CODE_BASE = 0x00C0_0000

#: Wrong-path branches are taken with this probability, and the block
#: writer compares raw draws against its integer threshold.
_WRONGPATH_TAKEN_PROBABILITY = 0.55
_WRONGPATH_TAKEN_THRESHOLD = DeterministicRng.probability_threshold(
    _WRONGPATH_TAKEN_PROBABILITY)


class BranchBlock:
    """A reusable struct-of-arrays batch of generated branches.

    Parallel columns, one entry per branch: program counter, branch kind,
    architectural direction, architectural target and static branch id
    (``None`` for non-conditional branches).  Nothing that consumes a
    block models operand dependences, so no dependence distance is drawn.
    ``count`` is the number of valid entries; the columns are preallocated
    to ``capacity`` and overwritten in place so a hot loop reuses one
    block instead of allocating per-branch objects.
    """

    __slots__ = ("capacity", "count", "pc", "kind", "taken", "target",
                 "static_branch_id")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("block capacity must be at least 1")
        self.capacity = capacity
        self.count = 0
        self.pc = [0] * capacity
        self.kind: List[BranchKind] = [BranchKind.CONDITIONAL] * capacity
        self.taken = [False] * capacity
        self.target = [0] * capacity
        self.static_branch_id: List[Optional[int]] = [None] * capacity


class _ConditionalSite:
    """One static conditional branch together with its behaviour model.

    ``threshold`` is the integer form of a :class:`BiasedRandomBranch`'s
    taken-probability (see
    :meth:`~repro.common.rng.DeterministicRng.probability_threshold`), so
    the block generator draws its outcome as one integer compare; None for
    every other behaviour.
    """

    __slots__ = ("static", "behavior", "klass", "bias", "threshold")

    def __init__(self, static: StaticBranch, behavior: BranchBehavior,
                 klass: str, bias: float = 0.5) -> None:
        self.static = static
        self.behavior = behavior
        self.klass = klass
        self.bias = bias
        self.threshold = (
            DeterministicRng.probability_threshold(behavior.taken_probability)
            if type(behavior) is BiasedRandomBranch else None)


class WorkloadGenerator:
    """Generates the good-path dynamic instruction stream for one benchmark.

    Parameters
    ----------
    spec:
        The benchmark description.
    seed:
        Master seed; every stochastic decision derives from it, so two
        generators with the same spec and seed produce identical streams.
    thread_id:
        SMT hardware-thread id stamped on every generated instruction.
    """

    def __init__(self, spec: BenchmarkSpec, seed: int = 1, thread_id: int = 0) -> None:
        self.spec = spec
        self.thread_id = thread_id
        self._pool = RngPool(seed).fork(spec.name)
        self._rng_branch = self._pool.stream("branch-outcomes")
        self._rng_select = self._pool.stream("site-selection")
        self._rng_mix = self._pool.stream("instruction-mix")
        self._rng_memory = self._pool.stream("memory")
        self._rng_dep = self._pool.stream("dependences")

        self._correlation_state = GlobalCorrelationState()
        self._conditional_sites: List[_ConditionalSite] = []
        self._sites_by_class: dict = {}
        self._build_conditional_population()
        self._build_other_branch_sites()

        # Architectural call stack (return targets) with a bounded depth.
        self._call_stack: Deque[int] = deque(maxlen=64)

        # Data reference stream state.
        self._recent_lines: Deque[int] = deque(maxlen=64)
        self._stride_pointer = 0

        # Phase schedule state.
        self.instructions_generated = 0
        self._phase_index = 0
        self._has_phases = bool(spec.phases)
        self._phase_remaining = (
            spec.phases[0].length_instructions if spec.phases else 0
        )

        # Mix weights, flattened once; cumulative tables precomputed so the
        # per-instruction weighted choices skip the per-call summation
        # (bit-identical draws, see DeterministicRng.cumulative_choice).
        mix = spec.instruction_mix.as_weights()
        self._mix_classes = list(mix.keys())
        self._mix_weights = list(mix.values())
        self._mix_cum, self._mix_total = DeterministicRng.cumulative_weights(
            self._mix_weights)
        kinds = spec.kind_mix.normalised()
        self._kind_names = list(kinds.keys())
        self._kind_weights = list(kinds.values())
        self._kind_cum, self._kind_total = DeterministicRng.cumulative_weights(
            self._kind_weights)
        self._kind_codes = [_KIND_CODES[name] for name in self._kind_names]
        self._kind_thresholds = DeterministicRng.cumulative_thresholds(
            self._kind_cum, self._kind_total)
        #: Site-selection entries ``(classes, cumulative, total,
        #: site_lists, thresholds)`` keyed by the phase's effective hard
        #: fraction (a small, finite set per benchmark).
        self._site_choice_cache: dict = {}

    # ------------------------------------------------------------------ #
    # population construction
    # ------------------------------------------------------------------ #

    def _build_conditional_population(self) -> None:
        spec = self.spec
        rng = self._pool.stream("population")
        n = spec.num_static_conditionals
        class_shares = [
            (_CLASS_HARD, spec.hard_fraction),
            (_CLASS_CORRELATED, spec.correlated_fraction),
            (_CLASS_LOOP, spec.loop_fraction),
            (_CLASS_PATTERN, spec.pattern_fraction),
            (_CLASS_BIASED, spec.biased_fraction),
        ]
        branch_id = 0
        for klass, share in class_shares:
            count = max(1, int(round(n * share))) if share > 0 else 0
            sites = []
            for _ in range(count):
                pc = _CODE_BASE + branch_id * 0x20
                static = StaticBranch(
                    branch_id=branch_id,
                    pc=pc,
                    kind=BranchKind.CONDITIONAL,
                    taken_target=pc + 0x100 + (branch_id % 7) * 0x40,
                    fallthrough=pc + 4,
                )
                behavior, bias = self._make_behavior(klass, rng)
                sites.append(_ConditionalSite(static, behavior, klass, bias))
                branch_id += 1
            self._sites_by_class[klass] = sites
            self._conditional_sites.extend(sites)
        if not self._conditional_sites:
            raise ValueError("benchmark spec produced an empty branch population")

    def _make_behavior(self, klass: str,
                       rng: DeterministicRng) -> Tuple[BranchBehavior, float]:
        spec = self.spec
        if klass == _CLASS_HARD:
            jitter = (rng.random() - 0.5) * 0.10
            bias = min(max(spec.hard_taken_bias + jitter, 0.5), 0.98)
            return BiasedRandomBranch(bias), bias
        if klass == _CLASS_CORRELATED:
            return CorrelatedBranch(self._correlation_state,
                                    calm_probability=0.97,
                                    turbulent_probability=0.65), 0.97
        if klass == _CLASS_LOOP:
            lo, hi = min(spec.loop_trip_range), max(spec.loop_trip_range)
            trip = rng.randint(lo, hi)
            return LoopBranch(trip, jitter_probability=0.05), 1.0 - 1.0 / trip
        if klass == _CLASS_PATTERN:
            # The "easy" population: strongly biased branches whose minority
            # direction is rare.  (A global-history predictor cannot exploit
            # short local patterns when unrelated branches are interleaved,
            # so predictable-by-bias is the faithful easy population here.)
            lo, hi = min(spec.easy_bias_range), max(spec.easy_bias_range)
            bias = lo + (hi - lo) * rng.random()
            return BiasedRandomBranch(bias), bias
        # leftover: very strongly biased branches
        return BiasedRandomBranch(_LEFTOVER_BIAS), _LEFTOVER_BIAS

    def _build_other_branch_sites(self) -> None:
        base = _CODE_BASE + 0x10_0000
        self._uncond_pcs = [base + i * 0x40 for i in range(32)]
        self._call_pcs = [base + 0x4000 + i * 0x40 for i in range(32)]
        self._return_pcs = [base + 0x8000 + i * 0x40 for i in range(32)]
        self._indirect_sites = []
        for i in range(4):
            pc = base + 0xC000 + i * 0x40
            model = IndirectTargetModel(
                base_target=_INDIRECT_TARGET_BASE + i * 0x1_0000,
                num_targets=self.spec.indirect_targets,
                repeat_probability=self.spec.indirect_repeat_probability,
            )
            self._indirect_sites.append((pc, model))
        # One dominant indirect-call site (the perlbmk pathology): site 0 is
        # used for 70% of indirect calls.
        self._indirect_site_weights = [0.70, 0.14, 0.10, 0.06]
        self._indirect_cum, self._indirect_total = (
            DeterministicRng.cumulative_weights(self._indirect_site_weights))
        self._indirect_thresholds = DeterministicRng.cumulative_thresholds(
            self._indirect_cum, self._indirect_total)

    # ------------------------------------------------------------------ #
    # phase handling
    # ------------------------------------------------------------------ #

    @property
    def current_phase(self) -> Optional[PhaseSpec]:
        if not self.spec.phases:
            return None
        return self.spec.phases[self._phase_index]

    @property
    def current_phase_index(self) -> int:
        return self._phase_index if self.spec.phases else 0

    @property
    def current_phase_label(self) -> str:
        phase = self.current_phase
        if phase is None:
            return ""
        return phase.label or f"phase{self._phase_index}"

    def _advance_phase(self) -> None:
        if not self.spec.phases:
            return
        self._phase_remaining -= 1
        if self._phase_remaining <= 0:
            self._phase_index = (self._phase_index + 1) % len(self.spec.phases)
            self._phase_remaining = (
                self.spec.phases[self._phase_index].length_instructions
            )

    def _phase_hard_fraction(self) -> float:
        phase = self.current_phase
        if phase is not None and phase.hard_fraction is not None:
            return phase.hard_fraction
        return self.spec.hard_fraction

    def _phase_bias_shift(self) -> float:
        phase = self.current_phase
        if phase is not None and phase.hard_taken_bias is not None:
            return phase.hard_taken_bias - self.spec.hard_taken_bias
        return 0.0

    # ------------------------------------------------------------------ #
    # instruction generation
    # ------------------------------------------------------------------ #

    def next_instruction(self, seq: int) -> Instruction:
        """Generate the next good-path dynamic instruction."""
        self.instructions_generated += 1
        self._advance_phase()
        if self._rng_mix.bernoulli(self.spec.branch_fraction):
            instr = self._generate_branch(seq)
        else:
            instr = self._generate_non_branch(seq)
        return instr

    def next_branch(self, seq: int) -> Instruction:
        """Generate the next good-path *branch*, skipping non-branch draws.

        The branch-content streams (``site-selection``, ``branch-outcomes``)
        are consumed only by branches, so the branch sequence produced here
        is bit-identical to the branch subsequence of
        :meth:`next_instruction` for unphased benchmarks (phased benchmarks
        track it statistically: positions — and therefore the phase each
        branch falls into — come from the caller's gap process).  The
        ``instruction-mix``, ``memory`` and (for non-branches)
        ``dependences`` streams are never touched.

        The one-branch reference the tests pin :meth:`next_branch_block`
        against; the trace backend itself only generates blocks.
        """
        self.instructions_generated += 1
        if self._has_phases:
            self._advance_phase()
        return self._generate_branch(seq)

    def advance_instructions(self, count: int) -> int:
        """Advance the phase schedule by up to ``count`` non-branch slots.

        The arithmetic equivalent of ``count`` :meth:`next_instruction`
        calls for instructions whose draws the caller does not need,
        preserving :meth:`_advance_phase`'s decrement-then-roll semantics:
        the instruction consuming a phase's last slot already reads as the
        *next* phase.  Stops at phase boundaries (so callers can observe
        them); returns how many instructions were consumed.
        """
        if count <= 0:
            return 0
        if not self._has_phases:
            self.instructions_generated += count
            return count
        if self._phase_remaining > 1:
            take = min(count, self._phase_remaining - 1)
            self.instructions_generated += take
            self._phase_remaining -= take
            return take
        # The boundary instruction: consumes the last slot and rolls, so
        # it is already attributed to the next phase.
        self.instructions_generated += 1
        self._phase_index = (self._phase_index + 1) % len(self.spec.phases)
        self._phase_remaining = (
            self.spec.phases[self._phase_index].length_instructions
        )
        return 1

    def next_branch_block(self, seq: int, n: int,
                          block: Optional[BranchBlock] = None) -> BranchBlock:
        """Generate the next ``n`` good-path branches as one column block.

        ``seq`` is the caller's sequence number for the first branch;
        generation itself never consumes it (the block carries no seq
        column — the trace session stamps records at predict time), it
        exists so call sites read like their scalar counterparts.

        Bit-identical to ``n`` successive :meth:`next_branch` calls with
        sequence numbers ``seq .. seq + n - 1`` in every column: the same
        draws leave the same streams in the same order (``site-selection``
        and ``branch-outcomes`` interleave per branch *within* each
        stream, never across streams), the phase schedule advances one
        slot per branch, and the call stack sees the same pushes and pops
        — so those RNG stream states afterwards are identical too
        (``tests/test_workloads_generator.py`` pins all of this).  The
        one difference is the ``dependences`` stream: a block carries no
        dependence distance, so it draws none.  No
        :class:`~repro.isa.instruction.Instruction` objects are
        materialized; the trace-replay backend consumes the columns
        directly.

        Site selection is batched per behaviour class: the per-phase
        site entry is hoisted out of the loop (refreshed only at phase
        rolls), the dominant biased-random outcome draw is inlined, and
        other behaviours draw through their scalar ``next_outcome``.
        Weighted choices and biased outcomes compare the raw draw against
        precomputed integer thresholds, which select exactly what the
        float comparisons select.
        """
        if n < 1:
            raise ValueError("block size must be at least 1")
        if block is None:
            block = BranchBlock(n)
        elif block.capacity < n:
            raise ValueError(
                f"block capacity {block.capacity} cannot hold {n} branches")
        block.count = n
        out_pc = block.pc
        out_kind = block.kind
        out_taken = block.taken
        out_target = block.target
        out_sid = block.static_branch_id

        spec = self.spec
        rng_branch = self._rng_branch
        sel_state = self._rng_select._state
        br_state = rng_branch._state

        kind_thresholds = self._kind_thresholds
        kind_codes = self._kind_codes
        num_kinds = len(kind_codes)
        uncond_pcs = self._uncond_pcs
        call_pcs = self._call_pcs
        return_pcs = self._return_pcs
        n_uncond = len(uncond_pcs)
        n_call = len(call_pcs)
        n_ret = len(return_pcs)
        indirect_sites = self._indirect_sites
        indirect_thresholds = self._indirect_thresholds
        num_indirect = len(indirect_thresholds)
        call_stack = self._call_stack

        has_phases = self._has_phases
        phases = spec.phases
        phase_index = self._phase_index
        phase_remaining = self._phase_remaining
        num_phases = len(phases)
        base_bias = spec.hard_taken_bias
        if has_phases:
            phase = phases[phase_index]
            hard_fraction = (phase.hard_fraction
                             if phase.hard_fraction is not None
                             else spec.hard_fraction)
            shift = ((phase.hard_taken_bias - base_bias)
                     if phase.hard_taken_bias is not None else 0.0)
        else:
            hard_fraction = spec.hard_fraction
            shift = 0.0
        entry = self._site_entry(hard_fraction)
        entry_sites = entry[3]
        entry_thresholds = entry[4]

        kind_cond = BranchKind.CONDITIONAL
        kind_uncond = BranchKind.UNCONDITIONAL
        kind_call = BranchKind.CALL
        kind_ret = BranchKind.RETURN
        kind_ind = BranchKind.INDIRECT
        kind_ind_call = BranchKind.INDIRECT_CALL

        for i in range(n):
            if has_phases:
                # _advance_phase inlined: the branch consuming a phase's
                # last slot already reads as the next phase.
                phase_remaining -= 1
                if phase_remaining <= 0:
                    phase_index = (phase_index + 1) % num_phases
                    phase = phases[phase_index]
                    phase_remaining = phase.length_instructions
                    hard_fraction = (phase.hard_fraction
                                     if phase.hard_fraction is not None
                                     else spec.hard_fraction)
                    shift = ((phase.hard_taken_bias - base_bias)
                             if phase.hard_taken_bias is not None else 0.0)
                    entry = self._site_entry(hard_fraction)
                    entry_sites = entry[3]
                    entry_thresholds = entry[4]
            # Branch-kind selection (cumulative_choice inlined, on the
            # integer thresholds).
            sel_state ^= (sel_state >> 12)
            sel_state ^= (sel_state << 25) & _MASK64
            sel_state ^= (sel_state >> 27)
            draw = (sel_state * 0x2545F4914F6CDD1D) & _MASK64
            code = kind_codes[num_kinds - 1]
            for j in range(num_kinds):
                if draw < kind_thresholds[j]:
                    code = kind_codes[j]
                    break
            if code == 0:  # conditional
                # Behaviour-class selection over the hoisted per-phase
                # entry (cumulative_choice inlined).
                sel_state ^= (sel_state >> 12)
                sel_state ^= (sel_state << 25) & _MASK64
                sel_state ^= (sel_state >> 27)
                draw = (sel_state * 0x2545F4914F6CDD1D) & _MASK64
                sites = entry_sites[-1]
                for j in range(len(entry_thresholds)):
                    if draw < entry_thresholds[j]:
                        sites = entry_sites[j]
                        break
                # Site selection (choice inlined).
                sel_state ^= (sel_state >> 12)
                sel_state ^= (sel_state << 25) & _MASK64
                sel_state ^= (sel_state >> 27)
                site = sites[((sel_state * 0x2545F4914F6CDD1D) & _MASK64)
                             % len(sites)]
                static = site.static
                if shift and site.klass == _CLASS_HARD:
                    bias = site.bias + shift
                    if bias < 0.02:
                        bias = 0.02
                    elif bias > 0.98:
                        bias = 0.98
                    br_state ^= (br_state >> 12)
                    br_state ^= (br_state << 25) & _MASK64
                    br_state ^= (br_state >> 27)
                    taken = ((((br_state * 0x2545F4914F6CDD1D) & _MASK64)
                              >> 11) / 9007199254740992.0) < bias
                elif site.threshold is not None:
                    # The dominant populations (hard, pattern, leftover)
                    # are all biased-random: one Bernoulli, inlined.
                    br_state ^= (br_state >> 12)
                    br_state ^= (br_state << 25) & _MASK64
                    br_state ^= (br_state >> 27)
                    taken = (((br_state * 0x2545F4914F6CDD1D) & _MASK64)
                             < site.threshold)
                else:
                    rng_branch._state = br_state
                    taken = site.behavior.next_outcome(rng_branch,
                                                       phase=phase_index)
                    br_state = rng_branch._state
                out_pc[i] = static.pc
                out_kind[i] = kind_cond
                out_taken[i] = taken
                out_target[i] = (static.taken_target if taken
                                 else static.fallthrough)
                out_sid[i] = static.branch_id
            elif code == 1:  # unconditional
                sel_state ^= (sel_state >> 12)
                sel_state ^= (sel_state << 25) & _MASK64
                sel_state ^= (sel_state >> 27)
                pc = uncond_pcs[((sel_state * 0x2545F4914F6CDD1D) & _MASK64)
                                % n_uncond]
                out_pc[i] = pc
                out_kind[i] = kind_uncond
                out_taken[i] = True
                out_target[i] = pc + 0x200
                out_sid[i] = None
            elif code == 2:  # call
                sel_state ^= (sel_state >> 12)
                sel_state ^= (sel_state << 25) & _MASK64
                sel_state ^= (sel_state >> 27)
                pc = call_pcs[((sel_state * 0x2545F4914F6CDD1D) & _MASK64)
                              % n_call]
                call_stack.append(pc + 4)
                out_pc[i] = pc
                out_kind[i] = kind_call
                out_taken[i] = True
                out_target[i] = pc + 0x1000
                out_sid[i] = None
            elif code == 3:  # ret
                sel_state ^= (sel_state >> 12)
                sel_state ^= (sel_state << 25) & _MASK64
                sel_state ^= (sel_state >> 27)
                pc = return_pcs[((sel_state * 0x2545F4914F6CDD1D) & _MASK64)
                                % n_ret]
                out_pc[i] = pc
                out_kind[i] = kind_ret
                out_taken[i] = True
                out_target[i] = (call_stack.pop() if call_stack
                                 else _CODE_BASE)
                out_sid[i] = None
            else:  # indirect / indirect call
                sel_state ^= (sel_state >> 12)
                sel_state ^= (sel_state << 25) & _MASK64
                sel_state ^= (sel_state >> 27)
                draw = (sel_state * 0x2545F4914F6CDD1D) & _MASK64
                pair = indirect_sites[-1]
                for j in range(num_indirect):
                    if draw < indirect_thresholds[j]:
                        pair = indirect_sites[j]
                        break
                pc, model = pair
                rng_branch._state = br_state
                indirect_target = model.next_target(rng_branch)
                br_state = rng_branch._state
                if code == 5:
                    call_stack.append(pc + 4)
                    out_kind[i] = kind_ind_call
                else:
                    out_kind[i] = kind_ind
                out_pc[i] = pc
                out_taken[i] = True
                out_target[i] = indirect_target
                out_sid[i] = None

        self._rng_select._state = sel_state
        rng_branch._state = br_state
        self.instructions_generated += n
        if has_phases:
            self._phase_index = phase_index
            self._phase_remaining = phase_remaining
        return block

    # -- branches ------------------------------------------------------- #

    def _generate_branch(self, seq: int) -> Instruction:
        kind_name = self._rng_select.cumulative_choice(
            self._kind_names, self._kind_cum, self._kind_total
        )
        if kind_name == "conditional":
            return self._generate_conditional(seq)
        if kind_name == "unconditional":
            pc = self._rng_select.choice(self._uncond_pcs)
            target = pc + 0x200
            return self._branch_instruction(
                seq, pc, BranchKind.UNCONDITIONAL, taken=True, target=target
            )
        if kind_name == "call":
            pc = self._rng_select.choice(self._call_pcs)
            target = pc + 0x1000
            self._call_stack.append(pc + 4)
            return self._branch_instruction(
                seq, pc, BranchKind.CALL, taken=True, target=target
            )
        if kind_name == "ret":
            pc = self._rng_select.choice(self._return_pcs)
            target = self._call_stack.pop() if self._call_stack else _CODE_BASE
            return self._branch_instruction(
                seq, pc, BranchKind.RETURN, taken=True, target=target
            )
        # indirect or indirect_call
        pc, model = self._rng_select.cumulative_choice(
            self._indirect_sites, self._indirect_cum, self._indirect_total
        )
        target = model.next_target(self._rng_branch)
        kind = (BranchKind.INDIRECT_CALL if kind_name == "indirect_call"
                else BranchKind.INDIRECT)
        if kind is BranchKind.INDIRECT_CALL:
            self._call_stack.append(pc + 4)
        return self._branch_instruction(seq, pc, kind, taken=True, target=target)

    def _generate_conditional(self, seq: int) -> Instruction:
        site = self._select_conditional_site()
        taken = self._conditional_outcome(site)
        static = site.static
        target = static.taken_target if taken else static.fallthrough
        instr = self._branch_instruction(
            seq, static.pc, BranchKind.CONDITIONAL, taken=taken, target=target
        )
        instr.static_branch_id = static.branch_id
        return instr

    def _site_entry(self, hard_fraction: float) -> tuple:
        """The cached site-selection tables for one effective hard fraction.

        ``(classes, cumulative, total, site_lists, thresholds)`` —
        ``site_lists`` is parallel to ``classes`` so the block generation
        loop indexes a population without per-branch dict lookups, and
        ``thresholds`` are the integer forms of ``cumulative`` it compares
        draws against.
        """
        entry = self._site_choice_cache.get(hard_fraction)
        if entry is None:
            spec = self.spec
            scale = 1.0
            base_other = (spec.correlated_fraction + spec.loop_fraction
                          + spec.pattern_fraction + spec.biased_fraction)
            if base_other > 0:
                scale = (1.0 - hard_fraction) / base_other
            weights = [
                hard_fraction,
                spec.correlated_fraction * scale,
                spec.loop_fraction * scale,
                spec.pattern_fraction * scale,
                spec.biased_fraction * scale,
            ]
            classes = [_CLASS_HARD, _CLASS_CORRELATED, _CLASS_LOOP,
                       _CLASS_PATTERN, _CLASS_BIASED]
            # Drop empty populations.
            available = [(klass, weight)
                         for klass, weight in zip(classes, weights)
                         if self._sites_by_class.get(klass)]
            cum, total = DeterministicRng.cumulative_weights(
                [max(a[1], 1e-9) for a in available])
            entry = ([a[0] for a in available], cum, total,
                     [self._sites_by_class[a[0]] for a in available],
                     DeterministicRng.cumulative_thresholds(cum, total))
            self._site_choice_cache[hard_fraction] = entry
        return entry

    def _select_conditional_site(self) -> _ConditionalSite:
        """Sample which population the next dynamic conditional comes from."""
        entry = self._site_entry(self._phase_hard_fraction())
        klass = self._rng_select.cumulative_choice(entry[0], entry[1], entry[2])
        return self._rng_select.choice(self._sites_by_class[klass])

    def _conditional_outcome(self, site: _ConditionalSite) -> bool:
        if site.klass == _CLASS_HARD:
            shift = self._phase_bias_shift()
            if shift:
                bias = min(max(site.bias + shift, 0.02), 0.98)
                return self._rng_branch.bernoulli(bias)
        return site.behavior.next_outcome(
            self._rng_branch, phase=self.current_phase_index
        )

    def _branch_instruction(self, seq: int, pc: int, kind: BranchKind,
                            taken: bool, target: int) -> Instruction:
        return Instruction(
            seq=seq,
            pc=pc,
            iclass=InstructionClass.BRANCH,
            branch_kind=kind,
            outcome=BranchOutcome(taken=taken, target=target),
            dep_distance=self._sample_dep_distance(),
            latency_class=DEFAULT_LATENCY_BY_CLASS[InstructionClass.BRANCH],
            thread_id=self.thread_id,
            on_goodpath=True,
        )

    # -- non-branches ---------------------------------------------------- #

    def _generate_non_branch(self, seq: int) -> Instruction:
        iclass = self._rng_mix.cumulative_choice(
            self._mix_classes, self._mix_cum, self._mix_total)
        address = None
        if iclass in (InstructionClass.LOAD, InstructionClass.STORE):
            address = self._next_data_address()
        return Instruction(
            seq=seq,
            pc=_CODE_BASE + 0x20_0000 + (seq % 4096) * 4,
            iclass=iclass,
            address=address,
            dep_distance=self._sample_dep_distance(),
            latency_class=DEFAULT_LATENCY_BY_CLASS[iclass],
            thread_id=self.thread_id,
            on_goodpath=True,
        )

    def _sample_dep_distance(self) -> int:
        """Distance to the producer of the critical source operand."""
        rng = self._rng_dep
        if rng.bernoulli(0.35):
            return 0  # operands already architecturally ready
        return rng.randint(1, 12)

    def _next_data_address(self) -> int:
        spec = self.spec.memory
        rng = self._rng_memory
        recent = self._recent_lines
        if recent and rng.bernoulli(spec.reuse_probability):
            # Same single next_u64 draw rng.choice(list(recent)) would
            # make, without materializing the deque on every reuse hit.
            line = recent[rng.next_u64() % len(recent)]
        elif rng.bernoulli(spec.stride_fraction):
            self._stride_pointer = (self._stride_pointer + 1) % spec.working_set_lines
            line = self._stride_pointer
        else:
            line = rng.randint(0, spec.working_set_lines - 1)
        self._recent_lines.append(line)
        return 0x1000_0000 + line * spec.line_bytes + self.thread_id * 0x4000_0000


class WrongPathGenerator:
    """Synthesises the instructions fetched while the machine is on the wrong path.

    Wrong-path code in a real machine is just other code from the same
    program, so the generator reuses the parent generator's static branch
    population (keeping predictor-table interference realistic) but draws
    outcomes and data addresses from its own random streams and never
    touches the parent's architectural state (call stack, phase schedule).
    Data addresses are biased towards lines *outside* the hot working set,
    which is what produces the cache/BTB pollution effects the paper
    observes for gap and perlbmk.
    """

    def __init__(self, parent: WorkloadGenerator, seed: int = 2) -> None:
        self._parent = parent
        pool = RngPool(seed).fork(f"wrongpath:{parent.spec.name}")
        self._rng = pool.stream("main")
        self._rng_memory = pool.stream("memory")
        spec = parent.spec
        mix = spec.instruction_mix.as_weights()
        self._mix_classes = list(mix.keys())
        self._mix_weights = list(mix.values())
        self._mix_cum, self._mix_total = DeterministicRng.cumulative_weights(
            self._mix_weights)

    def _generate_branch(self, seq: int) -> Instruction:
        parent = self._parent
        site = self._rng.choice(parent._conditional_sites)
        taken = self._rng.bernoulli(_WRONGPATH_TAKEN_PROBABILITY)
        static = site.static
        pc = static.pc + 0x8  # a nearby, but distinct, wrong-path PC
        target = static.taken_target if taken else static.fallthrough
        return Instruction(
            seq=seq,
            pc=pc,
            iclass=InstructionClass.BRANCH,
            branch_kind=BranchKind.CONDITIONAL,
            outcome=BranchOutcome(taken=taken, target=target),
            dep_distance=self._rng.randint(0, 8),
            latency_class=DEFAULT_LATENCY_BY_CLASS[InstructionClass.BRANCH],
            thread_id=parent.thread_id,
            on_goodpath=False,
            static_branch_id=static.branch_id,
        )

    def next_instruction(self, seq: int) -> Instruction:
        """Generate the next wrong-path instruction."""
        parent = self._parent
        spec = parent.spec
        thread_id = parent.thread_id
        if self._rng.bernoulli(spec.branch_fraction):
            return self._generate_branch(seq)
        iclass = self._rng.cumulative_choice(
            self._mix_classes, self._mix_cum, self._mix_total)
        address = None
        if iclass in (InstructionClass.LOAD, InstructionClass.STORE):
            address = self._polluting_address()
        return Instruction(
            seq=seq,
            pc=_WRONGPATH_CODE_BASE + (seq % 4096) * 4,
            iclass=iclass,
            address=address,
            dep_distance=self._rng.randint(0, 8),
            latency_class=DEFAULT_LATENCY_BY_CLASS[iclass],
            thread_id=thread_id,
            on_goodpath=False,
        )

    def next_branch_block(self, block: BranchBlock, n: int) -> None:
        """Fill ``block[0:n]`` with the next ``n`` wrong-path branches.

        Bit-identical to ``n`` successive :meth:`next_branch` calls in
        every column and in the ``main``-stream state afterwards: three
        draws per branch, in order site choice, direction and dependence
        distance.  The third draw only advances the stream — a block
        carries no dependence distance — and the direction compares the
        raw draw against the integer threshold of 0.55.  No
        :class:`~repro.isa.instruction.Instruction` objects are
        materialized.  The trace sessions stage wrong-path branches
        through this into one buffer each, carried across episodes: the
        draw order never depends on where an episode ends.  Sets
        ``block.count``.
        """
        rng = self._rng
        sites = self._parent._conditional_sites
        n_sites = len(sites)
        pcs = block.pc
        kinds = block.kind
        takens = block.taken
        targets = block.target
        branch_ids = block.static_branch_id
        kind_conditional = BranchKind.CONDITIONAL
        taken_threshold = _WRONGPATH_TAKEN_THRESHOLD
        state = rng._state
        for i in range(n):
            state ^= (state >> 12)
            state ^= (state << 25) & _MASK64
            state ^= (state >> 27)
            site = sites[((state * 0x2545F4914F6CDD1D) & _MASK64) % n_sites]
            state ^= (state >> 12)
            state ^= (state << 25) & _MASK64
            state ^= (state >> 27)
            taken = ((state * 0x2545F4914F6CDD1D) & _MASK64) < taken_threshold
            # The dependence-distance draw: advanced, never read.
            state ^= (state >> 12)
            state ^= (state << 25) & _MASK64
            state ^= (state >> 27)
            static = site.static
            pcs[i] = static.pc + 0x8  # a nearby, but distinct, wrong-path PC
            kinds[i] = kind_conditional
            takens[i] = taken
            targets[i] = static.taken_target if taken else static.fallthrough
            branch_ids[i] = static.branch_id
        rng._state = state
        block.count = n

    def next_branch(self, seq: int) -> Instruction:
        """Generate the next wrong-path *branch*, skipping non-branch draws.

        The wrong-path counterpart of
        :meth:`WorkloadGenerator.next_branch` (used by the trace-replay
        backend, which models wrong-path non-branches as arithmetic gaps).
        Wrong-path content only pollutes predictor state, so the
        ``main``-stream divergence from :meth:`next_instruction` — which
        also draws non-branch variates from it — is statistical noise by
        construction.
        """
        return self._generate_branch(seq)

    def _polluting_address(self) -> int:
        spec = self._parent.spec.memory
        rng = self._rng_memory
        if rng.bernoulli(0.4):
            # Sometimes touch the real working set (harmless prefetch effect).
            line = rng.randint(0, spec.working_set_lines - 1)
        else:
            # Mostly touch lines beyond the hot set (pollution).
            line = spec.working_set_lines + rng.randint(0, 4 * spec.working_set_lines)
        return (0x1000_0000 + line * spec.line_bytes
                + self._parent.thread_id * 0x4000_0000)
