"""Evaluation machinery: observers, profilers, metrics, harnesses and reports.

Everything the paper's evaluation section needs that is not itself a
hardware mechanism lives here:

* :mod:`repro.eval.observers` — instance observers that build reliability
  diagrams and conditional good-path statistics during a simulation.
* :mod:`repro.eval.profiling` — an MDC-bucket mispredict-rate profiler
  (Fig. 2) implemented as a path confidence predictor so it can ride along
  in a composite.
* :mod:`repro.eval.metrics` — HMWIPC and related SMT metrics.
* :mod:`repro.eval.harness` — convenience builders that wire a benchmark,
  the predictors and a core together, and run the standard accuracy /
  gating / SMT experiments.
* :mod:`repro.eval.reports` — plain-text table formatting shared by the
  experiment drivers and the benchmark harness.
"""

from repro.eval.observers import (
    MultiPredictorObserver,
    CounterGoodpathObserver,
    PhaseAwareCounterObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.eval.metrics import hmwipc, weighted_ipc
from repro.eval.harness import (
    AccuracyResult,
    GatingResult,
    SMTResult,
    build_single_core,
    run_accuracy_experiment,
    run_gating_experiment,
    run_smt_experiment,
    run_single_thread_ipc,
)
from repro.eval.reports import format_table

__all__ = [
    "MultiPredictorObserver",
    "CounterGoodpathObserver",
    "PhaseAwareCounterObserver",
    "MDCProfiler",
    "hmwipc",
    "weighted_ipc",
    "AccuracyResult",
    "GatingResult",
    "SMTResult",
    "build_single_core",
    "run_accuracy_experiment",
    "run_gating_experiment",
    "run_smt_experiment",
    "run_single_thread_ipc",
    "format_table",
]
