"""The paired correct/mispredict counters of the Mispredict Rate Table.

Each MRT bucket keeps two small hardware counters that a hardware
implementation of PaCo would hold in flip-flops.  They halve together on
overflow, so the measured mispredict rate survives while recent behaviour
dominates.  The branch history register the predictors use is
:class:`~repro.branch_predictor.history.GlobalHistory`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RateSnapshot:
    """A snapshot of a :class:`HalvingRateCounter`'s state."""

    correct: int
    mispredicted: int

    @property
    def total(self) -> int:
        return self.correct + self.mispredicted

    @property
    def correct_rate(self) -> float:
        """Fraction of observations that were correct (0.5 with no samples)."""
        if self.total == 0:
            return 0.5
        return self.correct / self.total

    @property
    def mispredict_rate(self) -> float:
        return 1.0 - self.correct_rate


class HalvingRateCounter:
    """The paired correct/mispredict counters of one MRT bucket.

    The paper's Mispredict Rate Table keeps, for each MDC value, a 10-bit
    counter of correct predictions and a 6-bit counter of mispredictions.
    Whenever either counter overflows, *both* counters are halved so the
    measured mispredict rate is preserved while recent behaviour dominates.
    """

    __slots__ = ("correct_bits", "mispredict_bits", "_correct_max",
                 "_mispredict_max", "correct", "mispredicted")

    def __init__(self, correct_bits: int = 10, mispredict_bits: int = 6) -> None:
        if correct_bits <= 0 or mispredict_bits <= 0:
            raise ValueError("counter widths must be positive")
        self.correct_bits = correct_bits
        self.mispredict_bits = mispredict_bits
        self._correct_max = (1 << correct_bits) - 1
        self._mispredict_max = (1 << mispredict_bits) - 1
        self.correct = 0
        self.mispredicted = 0

    def record(self, was_correct: bool) -> None:
        """Record one resolved branch outcome, halving on overflow."""
        if was_correct:
            if self.correct >= self._correct_max:
                self._halve()
            self.correct += 1
        else:
            if self.mispredicted >= self._mispredict_max:
                self._halve()
            self.mispredicted += 1

    def _halve(self) -> None:
        self.correct >>= 1
        self.mispredicted >>= 1

    def reset(self) -> None:
        """Reset both counters to zero (done after each re-logarithmizing pass)."""
        self.correct = 0
        self.mispredicted = 0

    def snapshot(self) -> RateSnapshot:
        return RateSnapshot(correct=self.correct, mispredicted=self.mispredicted)

    @property
    def total(self) -> int:
        return self.correct + self.mispredicted

    @property
    def correct_rate(self) -> float:
        if self.total == 0:
            return 0.5
        return self.correct / self.total

    @property
    def mispredict_rate(self) -> float:
        return 1.0 - self.correct_rate

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"HalvingRateCounter(correct={self.correct}, "
            f"mispredicted={self.mispredicted})"
        )
