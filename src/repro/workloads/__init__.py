"""Synthetic workload substrate.

The paper evaluates PaCo on 12 SPEC2000 integer benchmarks running on an
execution-driven MIPS simulator.  Neither the binaries nor the traces are
available here, so this package provides the closest synthetic equivalent:
each benchmark is modelled as a population of static branches with
behaviour models (biased, loop, correlated, indirect) and a phase schedule,
whose parameters are calibrated so that the *predictability structure* the
paper reports — per-benchmark conditional mispredict rates (Table 7),
per-MDC-bucket mispredict spreads (Fig. 2), phase behaviour (gcc/mcf),
branch correlation (gap) and indirect-call pathology (perlbmk) — is
reproduced when the real branch predictor of :mod:`repro.branch_predictor`
runs over the generated instruction stream.

Public entry points:

* :class:`~repro.workloads.spec.BenchmarkSpec` — the description of one
  synthetic benchmark.
* :data:`~repro.workloads.suite.SPEC2000_INT` /
  :func:`~repro.workloads.suite.get_benchmark` — the calibrated suite.
* :class:`~repro.workloads.generator.WorkloadGenerator` — turns a spec into
  a good-path dynamic instruction stream.
* :class:`~repro.workloads.generator.WrongPathGenerator` — synthesises the
  wrong-path instructions fetched after a misprediction.
"""

from repro.workloads.branch_models import (
    BranchBehavior,
    BiasedRandomBranch,
    LoopBranch,
    CorrelatedBranch,
    IndirectTargetModel,
    GlobalCorrelationState,
)
from repro.workloads.spec import BenchmarkSpec, PhaseSpec, MemorySpec
from repro.workloads.suite import SPEC2000_INT, get_benchmark, benchmark_names
from repro.workloads.generator import WorkloadGenerator, WrongPathGenerator

__all__ = [
    "BranchBehavior",
    "BiasedRandomBranch",
    "LoopBranch",
    "CorrelatedBranch",
    "IndirectTargetModel",
    "GlobalCorrelationState",
    "BenchmarkSpec",
    "PhaseSpec",
    "MemorySpec",
    "SPEC2000_INT",
    "get_benchmark",
    "benchmark_names",
    "WorkloadGenerator",
    "WrongPathGenerator",
]
