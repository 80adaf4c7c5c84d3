"""Probabilistic-forecast statistics: reliability diagrams and RMS error.

The paper evaluates PaCo as a *probabilistic forecast system* (Section 4.3):
every time the machine's path confidence can change (an "instance" — an
instruction fetch or an instruction execution), the predictor emits a
predicted good-path probability and an oracle records whether the fetch unit
was actually on the good path.  A reliability diagram bins instances by
predicted probability and plots the observed good-path fraction per bin; the
RMS error between predicted and observed probabilities (weighted by bin
occupancy) is the headline accuracy number (Table 7: 0.0377 mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass
class ReliabilityBin:
    """One bin of a reliability diagram."""

    lower: float
    upper: float
    instances: int = 0
    goodpath_instances: int = 0
    predicted_sum: float = 0.0

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def mean_predicted(self) -> float:
        """Mean predicted probability of the instances in this bin."""
        if self.instances == 0:
            return self.midpoint
        return self.predicted_sum / self.instances

    @property
    def observed(self) -> float:
        """Observed good-path fraction for this bin."""
        if self.instances == 0:
            return 0.0
        return self.goodpath_instances / self.instances


@dataclass
class ReliabilityPoint:
    """A (predicted, observed, weight) point extracted from a diagram."""

    predicted: float
    observed: float
    instances: int


class ReliabilityDiagram:
    """Accumulates (predicted probability, actually-on-goodpath) instances.

    Parameters
    ----------
    num_bins:
        Number of equal-width probability bins across [0, 1].  The paper's
        diagrams use percentage-resolution bins; 100 is the default here.
    """

    def __init__(self, num_bins: int = 100) -> None:
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        self.num_bins = num_bins
        self.bins: List[ReliabilityBin] = [
            ReliabilityBin(lower=i / num_bins, upper=(i + 1) / num_bins)
            for i in range(num_bins)
        ]
        self.total_instances = 0
        self.total_goodpath = 0

    def record(self, predicted: float, on_goodpath: bool, weight: int = 1) -> None:
        """Record one instance (or ``weight`` identical instances)."""
        if not 0.0 <= predicted <= 1.0:
            predicted = min(max(predicted, 0.0), 1.0)
        index = min(int(predicted * self.num_bins), self.num_bins - 1)
        bucket = self.bins[index]
        bucket.instances += weight
        bucket.predicted_sum += predicted * weight
        if on_goodpath:
            bucket.goodpath_instances += weight
            self.total_goodpath += weight
        self.total_instances += weight

    def record_folded(self, predicted: float, weights: Sequence,
                      instances: int, goodpath: int) -> None:
        """Record a pre-folded batch that shares one predicted probability.

        ``weights`` is the batch's run-length column (one count per run
        event, in order) and ``instances``/``goodpath`` its integer totals
        — callers that feed several diagrams from the same batch fold the
        integers once and share them.  ``predicted_sum`` still accumulates
        one ``predicted * weight`` term per event in order, keeping the
        float bit-identical to the equivalent :meth:`record` sequence.
        """
        if not 0.0 <= predicted <= 1.0:
            predicted = min(max(predicted, 0.0), 1.0)
        bucket = self.bins[min(int(predicted * self.num_bins),
                               self.num_bins - 1)]
        predicted_sum = bucket.predicted_sum
        for weight in weights:
            predicted_sum += predicted * weight
        bucket.predicted_sum = predicted_sum
        bucket.instances += instances
        bucket.goodpath_instances += goodpath
        self.total_goodpath += goodpath
        self.total_instances += instances

    def merge(self, other: "ReliabilityDiagram") -> None:
        """Fold another diagram (with the same binning) into this one."""
        if other.num_bins != self.num_bins:
            raise ValueError("cannot merge diagrams with different binning")
        for mine, theirs in zip(self.bins, other.bins):
            mine.instances += theirs.instances
            mine.goodpath_instances += theirs.goodpath_instances
            mine.predicted_sum += theirs.predicted_sum
        self.total_instances += other.total_instances
        self.total_goodpath += other.total_goodpath

    def points(self, min_instances: int = 1) -> List[ReliabilityPoint]:
        """Return the populated (predicted, observed) points of the diagram."""
        result = []
        for bucket in self.bins:
            if bucket.instances >= min_instances:
                result.append(
                    ReliabilityPoint(
                        predicted=bucket.mean_predicted,
                        observed=bucket.observed,
                        instances=bucket.instances,
                    )
                )
        return result

    def rms_error(self, min_instances: int = 1) -> float:
        """Occupancy-weighted RMS error between predicted and observed probability."""
        total = 0
        acc = 0.0
        for bucket in self.bins:
            if bucket.instances < min_instances:
                continue
            err = bucket.mean_predicted - bucket.observed
            acc += bucket.instances * err * err
            total += bucket.instances
        if total == 0:
            return 0.0
        return math.sqrt(acc / total)

    def histogram(self) -> List[Tuple[float, int]]:
        """Return (bin midpoint, instance count) pairs — the bar chart in Fig. 8."""
        return [(bucket.midpoint, bucket.instances) for bucket in self.bins]

    def observed_goodpath_fraction(self) -> float:
        """Overall fraction of instances that were on the good path."""
        if self.total_instances == 0:
            return 0.0
        return self.total_goodpath / self.total_instances

    def format_table(self, min_instances: int = 1) -> str:
        """Render the diagram as a text table (predicted %, observed %, count)."""
        lines = ["predicted%  observed%  instances"]
        for point in self.points(min_instances=min_instances):
            lines.append(
                f"{100 * point.predicted:9.1f}  {100 * point.observed:9.1f}"
                f"  {point.instances:9d}"
            )
        return "\n".join(lines)

