"""Bench: batched vs per-event observer delivery on the trace backend.

Measures the observer side of the trace hot loop in isolation: one replay
of the multi-predictor fig8/fig9 configuration captures the actual
run-event stream (every ``record_runs`` batch the session delivers), then
the same stream is timed twice against the same observer set — once on
the batched ``record_runs``/``record_folded`` path and once through a
shim that splits every batch into one-event batches — the delivery the
cycle model makes, one ``record_runs`` call per run event on the same
observer code underneath.

Both variants consume identical streams, so their statistics must agree
bit for bit (asserted below); the wall-clock ratio is the win, and it is
machine-independent in the sense that both sides run in the same process
over the same captured list.  The tracked ``observer_throughput.txt``
carries only the stable floor and configuration; the measured table lands
in the gitignored ``benchmarks/results/measured/`` directory and the
numbers ride in the pytest-benchmark JSON (``extra_info``) CI uploads as
``BENCH_observer_throughput.json``.
"""

import time

from repro.eval.harness import accuracy_predictors_for, build_session
from repro.eval.observers import (CounterGoodpathObserver,
                                  MultiPredictorObserver)
from repro.eval.reports import format_table
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.core import InstanceObserver
from repro.workloads.suite import get_benchmark

from conftest import best_of_interleaved, write_measured, write_result

BENCHMARKS = ("gzip", "gcc")

#: The batched delivery path must beat one-event batches by a
#: clear margin on the observer-heavy configuration (observed: ~1.6-2x on
#: the 1-CPU dev container); the floor only catches regressions that
#: erase the batching win.
MIN_OBSERVER_SPEEDUP = 1.3

#: How many times the captured stream is replayed per timing — large
#: enough that the measured section is tens of milliseconds even on the
#: quick budget.
REPLAY_ROUNDS = 3

#: Each timing takes the best of this many attempts, per-event and
#: batched interleaved, which filters out scheduler and GC noise on shared
#: runners (both sides get the same treatment, so the ratio stays honest).
TIMING_ATTEMPTS = 5


class _StreamCapture(InstanceObserver):
    """Copies every delivered run-event batch (the caller reuses the buffer)."""

    def __init__(self) -> None:
        self.batches = []

    def record_runs(self, events):
        self.batches.append(list(events))


class _PerEventShim(InstanceObserver):
    """Delivers each event of a batch to a real observer as its own batch.

    The one-event batches reuse one 4-slot list, as the cycle model's
    delivery does — same observer code underneath, same values.
    """

    def __init__(self, inner: InstanceObserver) -> None:
        self._inner = inner
        self._event = [None, True, 0, 1]

    def record_runs(self, events):
        record_runs = self._inner.record_runs
        event = self._event
        for i in range(0, len(events), 4):
            event[:] = events[i:i + 4]
            record_runs(event)


def _capture_stream(spec, instructions):
    """Replay ``spec`` once and return (event batches, predictors)."""
    predictors = accuracy_predictors_for("full")
    composite = CompositePathConfidence(predictors=list(predictors),
                                        primary=predictors[0])
    capture = _StreamCapture()
    session = build_session(spec, composite, seed=1, backend="trace")
    session.add_observer(capture)
    session.run(max_instructions=instructions)
    return capture.batches, predictors


def _fresh_observers(predictors):
    probability_predictors = [
        p for p in predictors
        if not isinstance(p, ThresholdAndCountPredictor)
    ]
    count_predictor = next(
        p for p in predictors if isinstance(p, ThresholdAndCountPredictor))
    return (MultiPredictorObserver(probability_predictors),
            CounterGoodpathObserver(count_predictor, max_count=16))


def _deliver(batches, observers):
    """Replay the stream ``REPLAY_ROUNDS`` times; return the seconds taken.

    Every call mutates the observers identically (the statistics are
    pure accumulators), so repeating for timing stability does not
    perturb the equality assertions — both variants replay the stream
    the same total number of times.
    """
    start = time.perf_counter()
    for _ in range(REPLAY_ROUNDS):
        for events in batches:
            for observer in observers:
                observer.record_runs(events)
    return time.perf_counter() - start


def test_bench_observer_throughput(benchmark, results_dir, full_mode):
    instructions = 300_000 if full_mode else 60_000
    specs = [get_benchmark(name) for name in BENCHMARKS]
    streams = {spec.name: _capture_stream(spec, instructions)
               for spec in specs}

    def run_both_deliveries():
        """``{benchmark: (per-event s, batched s, reference observers,
        batched observers)}``."""
        results = {}
        for spec in specs:
            batches, predictors = streams[spec.name]
            reference = _fresh_observers(predictors)
            shims = [_PerEventShim(observer) for observer in reference]
            observers = _fresh_observers(predictors)
            per_event, batched = best_of_interleaved(
                [lambda: _deliver(batches, shims),
                 lambda: _deliver(batches, observers)], TIMING_ATTEMPTS)
            results[spec.name] = (per_event, batched, reference, observers)
        return results

    timed = benchmark.pedantic(run_both_deliveries, rounds=1, iterations=1)

    rows = []
    speedups = []
    for spec in specs:
        (per_event_seconds, batched_seconds, (ref_multi, ref_counter),
         (multi, counter)) = timed[spec.name]
        # Same stream, same observers underneath: batching may change
        # delivery grouping, never results.
        assert multi.rms_errors() == ref_multi.rms_errors()
        assert counter.instances == ref_counter.instances
        assert counter.goodpath_instances == ref_counter.goodpath_instances
        speedup = per_event_seconds / batched_seconds
        speedups.append(speedup)
        benchmark.extra_info[f"{spec.name}_per_event_seconds"] = \
            round(per_event_seconds, 3)
        benchmark.extra_info[f"{spec.name}_batched_seconds"] = \
            round(batched_seconds, 3)
        benchmark.extra_info[f"{spec.name}_speedup"] = round(speedup, 2)
        rows.append([spec.name, round(per_event_seconds, 3),
                     round(batched_seconds, 3), f"{speedup:.2f}"])

    text = format_table(
        ["benchmark", "per-event s", "batched s", "speedup"], rows,
        title=f"Observer-side throughput — fig8/fig9 stream, "
              f"{instructions} instructions x {REPLAY_ROUNDS} replays "
              f"({'full' if full_mode else 'quick'} budget)",
    )
    write_measured(results_dir, "observer_throughput", text)
    title = "Observer-side throughput — batched vs per-event delivery"
    write_result(results_dir, "observer_throughput", "\n".join([
        title,
        "=" * len(title),
        "regression floor : batched delivery >= "
        f"{MIN_OBSERVER_SPEEDUP:.1f}x the per-event replay of the same",
        "                   run-event stream, per benchmark (gzip, gcc)",
        "configuration    : fig8/fig9 shape — MultiPredictorObserver over "
        "3 diagrams",
        "                   + CounterGoodpathObserver, stream captured "
        "from one trace",
        "                   replay; 60k instructions quick, 300k with "
        "REPRO_BENCH_FULL=1",
        "measured numbers : benchmarks/results/measured/"
        "observer_throughput.txt (gitignored)",
        "                   and the BENCH_observer_throughput.json CI "
        "artifact (extra_info)",
    ]))

    for spec, speedup in zip(specs, speedups):
        assert speedup >= MIN_OBSERVER_SPEEDUP, spec.name
