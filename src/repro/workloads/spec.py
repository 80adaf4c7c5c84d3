"""Benchmark specification records.

A :class:`BenchmarkSpec` is a declarative description of one synthetic
benchmark: how often branches occur, what kinds they are, how hard the
conditional branches are to predict, how the program moves between phases
and what its memory reference stream looks like.  The specs for the twelve
SPEC2000-INT stand-ins live in :mod:`repro.workloads.suite`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.isa.program import StaticInstructionMix


@dataclass
class PhaseSpec:
    """One program phase.

    ``hard_fraction`` and ``hard_taken_bias`` override the benchmark-level
    values for the duration of the phase, which is how gcc/mcf-style phase
    behaviour (different mispredict rates per MDC bucket in different
    phases) is produced.
    """

    length_instructions: int
    hard_fraction: Optional[float] = None
    hard_taken_bias: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.length_instructions <= 0:
            raise ValueError("phase length must be positive")
        for attr in ("hard_fraction", "hard_taken_bias"):
            value = getattr(self, attr)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"phase {attr} must be in [0, 1]")


@dataclass
class MemorySpec:
    """Memory reference stream parameters.

    ``working_set_lines`` is the number of distinct cache lines in the hot
    working set; ``reuse_probability`` is the chance a load revisits a
    recently touched line (temporal locality); ``stride_fraction`` of the
    remaining accesses walk sequentially (spatial locality) and the rest
    touch a random working-set line.
    """

    working_set_lines: int = 4096
    reuse_probability: float = 0.6
    stride_fraction: float = 0.3
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.working_set_lines <= 0:
            raise ValueError("working set must be positive")
        if not 0.0 <= self.reuse_probability <= 1.0:
            raise ValueError("reuse_probability must be in [0, 1]")
        if not 0.0 <= self.stride_fraction <= 1.0:
            raise ValueError("stride_fraction must be in [0, 1]")


@dataclass
class BranchKindMix:
    """Relative dynamic frequency of the control-flow kinds."""

    conditional: float = 0.80
    unconditional: float = 0.06
    call: float = 0.05
    ret: float = 0.05
    indirect: float = 0.02
    indirect_call: float = 0.02

    def normalised(self) -> Dict[str, float]:
        weights = {
            "conditional": self.conditional,
            "unconditional": self.unconditional,
            "call": self.call,
            "ret": self.ret,
            "indirect": self.indirect,
            "indirect_call": self.indirect_call,
        }
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("branch kind mix must sum to a positive value")
        return {k: v / total for k, v in weights.items()}


@dataclass
class BenchmarkSpec:
    """Full description of one synthetic benchmark.

    Parameters
    ----------
    name:
        Benchmark name (matches the paper's benchmark names).
    branch_fraction:
        Fraction of dynamic instructions that are control-flow instructions
        (SPEC-INT programs sit around 0.15–0.20).
    kind_mix:
        Dynamic mix of control-flow kinds.
    num_static_conditionals:
        Size of the static conditional-branch population.
    hard_fraction:
        Fraction of dynamic conditional branches drawn from the *hard*
        (biased-random) population; together with ``hard_taken_bias`` this
        sets the benchmark's conditional mispredict rate, since a good
        predictor mispredicts a biased-random branch at roughly
        ``1 - max(bias, 1 - bias)``.
    hard_taken_bias:
        Taken-probability of the hard branches.
    correlated_fraction:
        Fraction of dynamic conditional branches drawn from the globally
        correlated population (gap-style clustered mispredicts).
    loop_fraction / pattern_fraction:
        Fractions of dynamic conditional branches that are loop back-edges
        or *easy* (strongly biased) branches.
    loop_trip_range / easy_bias_range:
        Shape parameters of the easy populations.  ``loop_trip_range``
        bounds the per-site loop trip counts (minimum at least 2);
        ``easy_bias_range`` is the taken-probability range of the easy
        population; very predictable benchmarks (vortex, perlbmk) use a
        range close to 1.
    indirect_targets / indirect_repeat_probability:
        Behaviour of indirect jumps/calls; many targets with a low repeat
        probability produce perlbmk's indirect-call pathology.
    phases:
        Optional list of :class:`PhaseSpec`; the schedule cycles through
        them.  An empty list means single-phase behaviour.
    memory:
        :class:`MemorySpec` for the data reference stream.
    instruction_mix:
        Non-branch instruction mix (latency texture).
    description:
        One-line description of the behaviour the spec is meant to mimic.
    """

    name: str
    branch_fraction: float = 0.17
    kind_mix: BranchKindMix = field(default_factory=BranchKindMix)
    num_static_conditionals: int = 64
    hard_fraction: float = 0.25
    hard_taken_bias: float = 0.70
    correlated_fraction: float = 0.0
    loop_fraction: float = 0.30
    pattern_fraction: float = 0.30
    loop_trip_range: Sequence[int] = (8, 64)
    easy_bias_range: Sequence[float] = (0.96, 0.995)
    indirect_targets: int = 4
    indirect_repeat_probability: float = 0.85
    phases: List[PhaseSpec] = field(default_factory=list)
    memory: MemorySpec = field(default_factory=MemorySpec)
    instruction_mix: StaticInstructionMix = field(default_factory=StaticInstructionMix)
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.branch_fraction < 1.0:
            raise ValueError("branch_fraction must be in (0, 1)")
        for attr in ("hard_fraction", "correlated_fraction",
                     "loop_fraction", "pattern_fraction"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1]")
        total_easy_hard = (self.hard_fraction + self.correlated_fraction
                           + self.loop_fraction + self.pattern_fraction)
        if total_easy_hard > 1.0 + 1e-9:
            raise ValueError(
                "hard + correlated + loop + pattern fractions must not exceed 1"
            )
        if not 0.0 <= self.hard_taken_bias <= 1.0:
            raise ValueError("hard_taken_bias must be in [0, 1]")
        if self.num_static_conditionals <= 0:
            raise ValueError("need a positive number of static conditionals")
        if min(self.loop_trip_range) < 2:
            raise ValueError("loop_trip_range minimum must be at least 2")
        lo, hi = min(self.easy_bias_range), max(self.easy_bias_range)
        if not 0.5 <= lo <= hi <= 1.0:
            raise ValueError("easy_bias_range must lie within [0.5, 1.0]")
        if self.indirect_targets < 1:
            raise ValueError("need at least one indirect target")

    @property
    def biased_fraction(self) -> float:
        """Dynamic fraction of 'leftover' mildly biased branches."""
        return max(
            0.0,
            1.0 - (self.hard_fraction + self.correlated_fraction
                   + self.loop_fraction + self.pattern_fraction),
        )

    @property
    def expected_conditional_mispredict_rate(self) -> float:
        """First-order estimate of the conditional mispredict rate.

        Used only for documentation and sanity tests; the measured rate
        comes out of running the real branch predictor over the stream.
        """
        hard_miss = min(self.hard_taken_bias, 1.0 - self.hard_taken_bias)
        loop_lo, loop_hi = min(self.loop_trip_range), max(self.loop_trip_range)
        mean_trip = 0.5 * (loop_lo + loop_hi)
        loop_miss = 1.0 / max(mean_trip, 2.0) * 0.5
        correlated_miss = 0.5 * hard_miss
        return (self.hard_fraction * hard_miss
                + self.loop_fraction * loop_miss
                + self.correlated_fraction * correlated_miss)
