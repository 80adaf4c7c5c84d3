"""Pipeline gating policies.

Pipeline gating (Manne et al.) stops instruction fetch when the processor
is very likely to be fetching wrong-path instructions, saving the energy
those instructions would burn.  The policy is evaluated every cycle before
fetch; the two real policies differ only in what signal they threshold:

* :class:`CountGating` — the conventional mechanism: gate when the number
  of unresolved low-confidence branches reaches the *gate-count*.
* :class:`PaCoGating` — gate when PaCo's estimated good-path probability
  falls below a target probability (the comparison happens in encoded
  space, as in the hardware).
"""

from __future__ import annotations

import abc

from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor


class GatingPolicy(abc.ABC):
    """Decides, each cycle, whether instruction fetch should be gated."""

    name: str = "abstract"

    @abc.abstractmethod
    def should_gate(self) -> bool:
        """Return True when fetch must be stopped this cycle."""


class NoGating(GatingPolicy):
    """Baseline: never gate."""

    name = "no-gating"

    def should_gate(self) -> bool:
        return False


class CountGating(GatingPolicy):
    """Gate when the low-confidence branch count reaches ``gate_count``."""

    def __init__(self, predictor: ThresholdAndCountPredictor, gate_count: int) -> None:
        if gate_count <= 0:
            raise ValueError("gate_count must be positive")
        self.predictor = predictor
        self.gate_count = gate_count
        self.name = f"count-gating(t={predictor.threshold}, g={gate_count})"

    def should_gate(self) -> bool:
        return self.predictor.low_confidence_count >= self.gate_count


class PaCoGating(GatingPolicy):
    """Gate when PaCo's good-path probability falls below a target.

    The target probability is converted to encoded space once at
    construction; the per-cycle decision is a single integer comparison.
    """

    def __init__(self, predictor: PaCoPredictor,
                 target_goodpath_probability: float) -> None:
        if not 0.0 < target_goodpath_probability < 1.0:
            raise ValueError("gating probability must be in (0, 1)")
        self.predictor = predictor
        self.target_goodpath_probability = target_goodpath_probability
        self.encoded_threshold = predictor.encoded_threshold(
            target_goodpath_probability
        )
        self.name = f"paco-gating(p={target_goodpath_probability:.2f})"

    def should_gate(self) -> bool:
        return self.predictor.path_confidence_register > self.encoded_threshold
