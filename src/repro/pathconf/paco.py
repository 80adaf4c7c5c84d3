"""PaCo: the probability-based path confidence predictor.

PaCo computes the probability that the processor is on the good path as the
product of the correct-prediction probabilities of all unresolved branches
(Equation 1 of the paper), using the JRS MDC value of each branch to look
up its bucket's measured correct-prediction probability.  To avoid floating
point, everything happens in *encoded* (negative, scaled log2) space: the
path confidence register is a running sum of 12-bit encoded probabilities —
added when a branch is fetched, subtracted when it resolves (Equations 2–3).

Hardware inventory (Section 3.2): a Mispredict Rate Table of 32 counters
(32 bytes), sixteen 12-bit encoded-probability registers (24 bytes), a
Mitchell log circuit (a counter and a 10-bit shift register) that runs once
every 200 000 cycles, and the path confidence adder.  Total: under 60 bytes
of counters plus the shift register.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.logcircuit import (
    ENCODED_PROBABILITY_MAX,
    ENCODED_PROBABILITY_SCALE,
    decode_probability,
    encode_threshold,
)
from repro.pathconf.base import BranchFetchInfo, PathConfidencePredictor
from repro.pathconf.mrt import MispredictRateTable


class PaCoPredictor(PathConfidencePredictor):
    """The PaCo path confidence predictor.

    Parameters
    ----------
    num_mdc_values:
        Number of MDC buckets (16 for the paper's 4-bit MDCs).
    relog_period_cycles:
        Period of the re-logarithmizing pass (paper: 200 000 cycles).
    scale / clamp:
        Encoded-probability scale (1024) and saturation (2^12).
    initial_mispredict_rates:
        Optional per-bucket mispredict-rate prior used before the first
        re-logarithmizing pass.
    use_mitchell_log:
        Use the hardware Mitchell log circuit (True, default) or exact
        floating-point logs (False) when encoding bucket probabilities.
    """

    name = "paco"
    record_slots = ("encoded_added",)

    def __init__(self, num_mdc_values: int = 16,
                 relog_period_cycles: int = 200_000,
                 scale: int = ENCODED_PROBABILITY_SCALE,
                 clamp: int = ENCODED_PROBABILITY_MAX,
                 initial_mispredict_rates: Optional[Sequence[float]] = None,
                 use_mitchell_log: bool = True) -> None:
        self.scale = scale
        self.clamp = clamp
        self.mrt = MispredictRateTable(
            num_buckets=num_mdc_values,
            relog_period_cycles=relog_period_cycles,
            scale=scale,
            clamp=clamp,
            initial_mispredict_rates=initial_mispredict_rates,
            use_mitchell_log=use_mitchell_log,
        )
        #: The path confidence register: encoded good-path probability.
        self.path_confidence_register = 0
        self._outstanding = 0
        # One-entry decode memo: the observers read the probability once
        # per instance run, and the register is unchanged between most
        # consecutive reads.
        self._decoded_register = -1
        self._decoded_probability = 1.0

        self.fetched_branches = 0
        self.resolved_branches = 0
        self.squashed_branches = 0

    # ------------------------------------------------------------------ #
    # pipeline hooks
    # ------------------------------------------------------------------ #

    def on_branch_fetch(self, info: BranchFetchInfo) -> BranchFetchInfo:
        """Add the branch's encoded correct-prediction probability to the register.

        The encoded probability *added at fetch time* is stored in the
        branch record (``encoded_added`` slot) so that the subtraction at
        resolve/squash time removes exactly the same amount even if a
        re-logarithmizing pass changed the bucket's register in between —
        functionally equivalent to the checkpoint-based recovery a hardware
        implementation would use to keep the register from drifting.
        """
        self.fetched_branches += 1
        encoded = self.mrt.encoded_probability(info.mdc_value)
        info.encoded_added = encoded
        self.path_confidence_register += encoded
        self._outstanding += 1
        return info

    def _remove(self, token: BranchFetchInfo) -> None:
        encoded = token.encoded_added
        if encoded is None:
            return
        token.encoded_added = None
        self.path_confidence_register -= encoded
        if self.path_confidence_register < 0:
            self.path_confidence_register = 0
        self._outstanding = max(0, self._outstanding - 1)

    def on_branch_resolve(self, token: BranchFetchInfo, mispredicted: bool) -> None:
        """Subtract the branch's contribution and train its MRT bucket."""
        self.resolved_branches += 1
        self.mrt.record(token.mdc_value, was_correct=not mispredicted)
        self._remove(token)

    def on_branch_squash(self, token: BranchFetchInfo) -> None:
        """Remove a squashed branch's contribution without training the MRT."""
        self.squashed_branches += 1
        self._remove(token)

    def on_cycle(self, cycle: int) -> bool:
        """Run the periodic re-logarithmizing pass when due.

        Returns True when a pass ran (the estimate-relevant state changed).
        """
        return self.mrt.maybe_relog(cycle)

    def reset_window(self) -> None:
        self.path_confidence_register = 0
        self._outstanding = 0

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #

    def goodpath_probability(self) -> float:
        """Decode the register into a real probability (evaluation use only)."""
        register = self.path_confidence_register
        if register == self._decoded_register:
            return self._decoded_probability
        probability = decode_probability(register, scale=self.scale)
        self._decoded_register = register
        self._decoded_probability = probability
        return probability

    def outstanding_branches(self) -> int:
        return self._outstanding

    def should_gate(self, target_goodpath_probability: float) -> bool:
        """Gate when the encoded register exceeds the encoded target.

        This mirrors the hardware: the target probability is converted to
        encoded space once (e.g. 10 % → 3401) and fetch is gated whenever
        the register exceeds that constant.
        """
        threshold = encode_threshold(target_goodpath_probability, scale=self.scale)
        return self.path_confidence_register > threshold

    def encoded_threshold(self, probability: float) -> int:
        """Expose the probability→encoded conversion (used by applications)."""
        return encode_threshold(probability, scale=self.scale)
