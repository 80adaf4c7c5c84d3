"""Behaviour models for static branches in the synthetic workloads.

Each model answers one question: *given the program's dynamic history, is
this branch taken this time?*  The models are chosen so that a real
two-level branch predictor (gshare / bimodal / tournament) sees the same
kinds of easy and hard branches real integer code produces:

``LoopBranch``
    Taken ``trip_count - 1`` times then not taken once; almost perfectly
    predictable except at loop exits.

``BiasedRandomBranch``
    Independent Bernoulli outcomes with a fixed bias; the predictor can do
    no better than guessing the majority direction, so the mispredict rate
    is roughly ``min(bias, 1 - bias)``.  These are the "hard" data-dependent
    branches that dominate mispredictions in real programs.

``CorrelatedBranch``
    Bias modulated by a *global* hidden state shared by all correlated
    branches of a benchmark; mispredictions cluster in time, reproducing
    the behaviour the paper attributes to gap (and the systematic
    underestimation PaCo shows at very low good-path probability).

``IndirectTargetModel``
    A target sequence for indirect calls/jumps with a configurable number
    of hot targets; used for the perlbmk pathology where a single indirect
    call causes almost all mispredictions and the JRS table (conditional
    branches only) cannot see it.

Program phases are not a behaviour model: a
:class:`~repro.workloads.spec.PhaseSpec` overrides the hard population's
dynamic fraction and taken-bias for its duration, and the generator
applies the override around these models.  Each model has one draw
method, ``next_outcome``; the block generator inlines the
:class:`BiasedRandomBranch` draw and calls ``next_outcome`` for the rest.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.common.rng import DeterministicRng


class GlobalCorrelationState:
    """Shared hidden state that makes branch outcomes correlate in time.

    A two-state Markov chain (``calm`` / ``turbulent``).  In the turbulent
    state, correlated branches flip their bias towards 50/50, so
    mispredictions cluster; in the calm state they behave like easy biased
    branches.  One instance is shared by all :class:`CorrelatedBranch`
    models of a benchmark.
    """

    __slots__ = ("turbulent", "enter_probability", "exit_probability")

    def __init__(self, enter_probability: float = 0.02,
                 exit_probability: float = 0.10) -> None:
        self.turbulent = False
        self.enter_probability = enter_probability
        self.exit_probability = exit_probability

    def step(self, rng: DeterministicRng) -> None:
        """Advance the Markov chain by one branch event."""
        if self.turbulent:
            if rng.bernoulli(self.exit_probability):
                self.turbulent = False
        else:
            if rng.bernoulli(self.enter_probability):
                self.turbulent = True


class BranchBehavior(abc.ABC):
    """Base class for conditional-branch behaviour models."""

    @abc.abstractmethod
    def next_outcome(self, rng: DeterministicRng, phase: int = 0) -> bool:
        """Return True if the branch is taken on this dynamic instance."""

    def reset(self) -> None:
        """Reset any per-branch dynamic state (loop counters, etc.)."""


class BiasedRandomBranch(BranchBehavior):
    """Independent Bernoulli outcomes with a fixed taken-probability."""

    __slots__ = ("taken_probability",)

    def __init__(self, taken_probability: float) -> None:
        if not 0.0 <= taken_probability <= 1.0:
            raise ValueError("taken_probability must be in [0, 1]")
        self.taken_probability = taken_probability

    def next_outcome(self, rng: DeterministicRng, phase: int = 0) -> bool:
        return rng.bernoulli(self.taken_probability)


class LoopBranch(BranchBehavior):
    """A loop back-edge: taken ``trip_count - 1`` times, then not taken once.

    With ``jitter_probability`` the trip count of an individual loop
    execution is perturbed by one iteration, which keeps long-history
    predictors from becoming perfectly accurate on every exit.
    """

    __slots__ = ("trip_count", "jitter_probability", "_remaining")

    def __init__(self, trip_count: int, jitter_probability: float = 0.0) -> None:
        if trip_count < 2:
            raise ValueError("trip_count must be at least 2")
        self.trip_count = trip_count
        self.jitter_probability = jitter_probability
        self._remaining = self._new_trip(None)

    def _new_trip(self, rng: Optional[DeterministicRng]) -> int:
        trips = self.trip_count
        if rng is not None and self.jitter_probability > 0.0:
            if rng.bernoulli(self.jitter_probability):
                trips += 1 if rng.bernoulli(0.5) else -1
                trips = max(trips, 2)
        return trips

    def next_outcome(self, rng: DeterministicRng, phase: int = 0) -> bool:
        self._remaining -= 1
        if self._remaining <= 0:
            self._remaining = self._new_trip(rng)
            return False  # loop exit: fall through
        return True

    def reset(self) -> None:
        self._remaining = self.trip_count


class CorrelatedBranch(BranchBehavior):
    """A branch whose bias degrades when the shared correlation state is turbulent."""

    __slots__ = ("calm_probability", "turbulent_probability", "state")

    def __init__(self, state: GlobalCorrelationState,
                 calm_probability: float = 0.92,
                 turbulent_probability: float = 0.55) -> None:
        self.state = state
        self.calm_probability = calm_probability
        self.turbulent_probability = turbulent_probability

    def next_outcome(self, rng: DeterministicRng, phase: int = 0) -> bool:
        self.state.step(rng)
        probability = (
            self.turbulent_probability if self.state.turbulent
            else self.calm_probability
        )
        return rng.bernoulli(probability)


class IndirectTargetModel:
    """Target-sequence model for indirect jumps and indirect calls.

    ``num_targets`` possible targets; each dynamic instance picks the same
    target as last time with probability ``repeat_probability`` and a
    uniformly random different target otherwise.  A low repeat probability
    with many targets defeats a last-target indirect predictor, reproducing
    the perlbmk pathology.
    """

    __slots__ = ("targets", "repeat_probability", "_last")

    def __init__(self, base_target: int, num_targets: int,
                 repeat_probability: float = 0.5,
                 stride: int = 0x40) -> None:
        if num_targets < 1:
            raise ValueError("need at least one target")
        self.targets = [base_target + i * stride for i in range(num_targets)]
        self.repeat_probability = repeat_probability
        self._last = self.targets[0]

    def next_target(self, rng: DeterministicRng) -> int:
        if len(self.targets) == 1 or rng.bernoulli(self.repeat_probability):
            return self._last
        candidate = rng.choice(self.targets)
        while candidate == self._last and len(self.targets) > 1:
            candidate = rng.choice(self.targets)
        self._last = candidate
        return candidate

    def reset(self) -> None:
        self._last = self.targets[0]
