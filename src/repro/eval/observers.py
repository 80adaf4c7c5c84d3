"""Instance observers.

An *instance* (paper Section 4.3) is any event that can change the path
confidence estimate — fetching an instruction or executing one.  The
observers here are attached to an :class:`~repro.pipeline.core.OutOfOrderCore`
and record, at every instance, the predictions of one or more path
confidence predictors together with the oracle's knowledge of whether the
front end is currently on the good path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.common.stats import ReliabilityDiagram
from repro.pathconf.base import PathConfidencePredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.core import InstanceObserver


def _check_count(count: int, max_count: int) -> None:
    """Counter observers' query range: a negative count would index from the end."""
    if not 0 <= count <= max_count:
        raise ValueError(f"count {count} out of range")


class PathConfidenceObserver(InstanceObserver):
    """Builds a reliability diagram for one path confidence predictor."""

    def __init__(self, predictor: PathConfidencePredictor,
                 num_bins: int = 100,
                 kinds: Optional[Sequence[str]] = None) -> None:
        self.predictor = predictor
        self.diagram = ReliabilityDiagram(num_bins=num_bins)
        self.kinds = set(kinds) if kinds is not None else None

    def record(self, kind: str, on_goodpath: bool, cycle: int) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.diagram.record(self.predictor.goodpath_probability(), on_goodpath)

    def record_run(self, kind: str, on_goodpath: bool, cycle: int,
                   count: int) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.diagram.record(self.predictor.goodpath_probability(), on_goodpath,
                            weight=count)

    def record_runs(self, events: list) -> None:
        # One probability read and one bin resolution for the whole
        # constant-state batch.  The (rare) kind-filtered configuration
        # falls back to per-event updates and reads the probability only
        # if some event survives the filter.
        if self.kinds is None:
            self.diagram.record_many(self.predictor.goodpath_probability(),
                                     events)
            return
        kinds = self.kinds
        probability = None
        for i in range(0, len(events), 4):
            if events[i] in kinds:
                if probability is None:
                    probability = self.predictor.goodpath_probability()
                self.diagram.record(probability, events[i + 1],
                                    weight=events[i + 3])

    @property
    def rms_error(self) -> float:
        return self.diagram.rms_error()


class MultiPredictorObserver(InstanceObserver):
    """Builds one reliability diagram per predictor over the same run."""

    def __init__(self, predictors: Iterable[PathConfidencePredictor],
                 num_bins: int = 100) -> None:
        self.diagrams: Dict[str, ReliabilityDiagram] = {}
        self._predictors = list(predictors)
        for predictor in self._predictors:
            if predictor.name in self.diagrams:
                # Two predictors would share (and double-count into) one
                # diagram.
                raise ValueError(
                    f"duplicate predictor name {predictor.name!r}")
            self.diagrams[predictor.name] = ReliabilityDiagram(num_bins=num_bins)
        # (predictor, diagram) pairs resolved once: record_run runs per
        # instance run, so the per-call name lookups add up.
        self._pairs = [(predictor, self.diagrams[predictor.name])
                       for predictor in self._predictors]

    def record(self, kind: str, on_goodpath: bool, cycle: int) -> None:
        for predictor, diagram in self._pairs:
            diagram.record(predictor.goodpath_probability(), on_goodpath)

    def record_run(self, kind: str, on_goodpath: bool, cycle: int,
                   count: int) -> None:
        # One probability read and one weighted bin update per predictor
        # for the whole run (the trace backend guarantees the predictors'
        # state did not change across it).
        for predictor, diagram in self._pairs:
            diagram.record(predictor.goodpath_probability(), on_goodpath,
                           weight=count)

    def record_runs(self, events: list) -> None:
        # This is the fig8/fig9 hot path.  Single-run batches (the common
        # case when every branch is a predictor state change) skip the
        # fold machinery; longer batches compute the weight column and
        # its integer totals once — they are the same for every diagram —
        # so each predictor only pays one probability read, one bin
        # resolution and the ordered predicted_sum accumulation.
        if len(events) == 4:
            on_goodpath = events[1]
            weight = events[3]
            for predictor, diagram in self._pairs:
                diagram.record(predictor.goodpath_probability(),
                               on_goodpath, weight=weight)
            return
        weights = events[3::4]
        instances = 0
        goodpath = 0
        for i in range(1, len(events), 4):
            weight = events[i + 2]
            instances += weight
            if events[i]:
                goodpath += weight
        for predictor, diagram in self._pairs:
            diagram.record_folded(predictor.goodpath_probability(),
                                  weights, instances, goodpath)

    def rms_errors(self) -> Dict[str, float]:
        return {name: diagram.rms_error()
                for name, diagram in self.diagrams.items()}


class CounterGoodpathObserver(InstanceObserver):
    """Measures P(good path | low-confidence branch count == N).

    This is the statistic behind Fig. 3: the same counter value corresponds
    to very different good-path probabilities across benchmarks and phases,
    which is why a count is a poor path confidence estimate.
    """

    def __init__(self, predictor: ThresholdAndCountPredictor,
                 max_count: int = 16) -> None:
        self.predictor = predictor
        self.max_count = max_count
        self.instances = [0] * (max_count + 1)
        self.goodpath_instances = [0] * (max_count + 1)

    def record(self, kind: str, on_goodpath: bool, cycle: int) -> None:
        count = min(self.predictor.low_confidence_count, self.max_count)
        self.instances[count] += 1
        if on_goodpath:
            self.goodpath_instances[count] += 1

    def record_run(self, kind: str, on_goodpath: bool, cycle: int,
                   count: int) -> None:
        bucket = min(self.predictor.low_confidence_count, self.max_count)
        self.instances[bucket] += count
        if on_goodpath:
            self.goodpath_instances[bucket] += count

    def record_runs(self, events: list) -> None:
        # One counter read for the whole constant-state batch; the
        # integer totals fold exactly.  Single-run batches skip the loop.
        bucket = min(self.predictor.low_confidence_count, self.max_count)
        if len(events) == 4:
            weight = events[3]
            self.instances[bucket] += weight
            if events[1]:
                self.goodpath_instances[bucket] += weight
            return
        instances = 0
        goodpath = 0
        for i in range(3, len(events), 4):
            weight = events[i]
            instances += weight
            if events[i - 2]:
                goodpath += weight
        self.instances[bucket] += instances
        self.goodpath_instances[bucket] += goodpath

    def goodpath_probability(self, count: int) -> float:
        """Observed good-path probability when exactly ``count`` branches are out."""
        _check_count(count, self.max_count)
        if self.instances[count] == 0:
            return 0.0
        return self.goodpath_instances[count] / self.instances[count]

    def occupancy(self, count: int) -> int:
        _check_count(count, self.max_count)
        return self.instances[count]


class PhaseAwareCounterObserver(InstanceObserver):
    """Like :class:`CounterGoodpathObserver`, but split by program phase.

    Used for Fig. 3(b): the good-path probability at a fixed counter value
    differs between phases of the same benchmark.  The observer reads the
    current phase from the workload generator at every instance.
    """

    def __init__(self, predictor: ThresholdAndCountPredictor,
                 generator, max_count: int = 16) -> None:
        self.predictor = predictor
        self.generator = generator
        self.max_count = max_count
        self._instances: Dict[str, list] = {}
        self._goodpath: Dict[str, list] = {}

    def record(self, kind: str, on_goodpath: bool, cycle: int) -> None:
        self.record_run(kind, on_goodpath, cycle, 1)

    def record_run(self, kind: str, on_goodpath: bool, cycle: int,
                   count: int) -> None:
        phase = self.generator.current_phase_label or "all"
        if phase not in self._instances:
            self._instances[phase] = [0] * (self.max_count + 1)
            self._goodpath[phase] = [0] * (self.max_count + 1)
        bucket = min(self.predictor.low_confidence_count, self.max_count)
        self._instances[phase][bucket] += count
        if on_goodpath:
            self._goodpath[phase][bucket] += count

    def record_runs(self, events: list) -> None:
        # One phase lookup and one counter read for the whole
        # constant-state batch (the trace backend closes the buffered
        # span at phase boundaries, so the label is batch-constant too).
        phase = self.generator.current_phase_label or "all"
        if phase not in self._instances:
            self._instances[phase] = [0] * (self.max_count + 1)
            self._goodpath[phase] = [0] * (self.max_count + 1)
        bucket = min(self.predictor.low_confidence_count, self.max_count)
        instances = 0
        goodpath = 0
        for i in range(3, len(events), 4):
            weight = events[i]
            instances += weight
            if events[i - 2]:
                goodpath += weight
        self._instances[phase][bucket] += instances
        self._goodpath[phase][bucket] += goodpath

    def phases(self) -> Sequence[str]:
        return list(self._instances)

    def goodpath_probability(self, phase: str, count: int) -> float:
        _check_count(count, self.max_count)
        if phase not in self._instances:
            raise KeyError(f"unknown phase {phase!r}")
        if self._instances[phase][count] == 0:
            return 0.0
        return self._goodpath[phase][count] / self._instances[phase][count]

    def occupancy(self, phase: str, count: int) -> int:
        _check_count(count, self.max_count)
        if phase not in self._instances:
            return 0
        return self._instances[phase][count]
