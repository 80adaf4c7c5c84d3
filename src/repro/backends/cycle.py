"""The cycle-approximate backend: the out-of-order core behind the contract.

This module owns the wiring that used to live in
``repro.eval.harness.build_single_core``: generator → front-end predictor →
JRS confidence table → fetch engine → :class:`~repro.pipeline.core.OutOfOrderCore`.
The construction order (and the ``wrongpath_seed = seed + 1`` convention)
is kept exactly as before so cycle-backend results stay bit-identical to
the pre-refactor harness.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import (
    Instrumentation,
    SimulationBackend,
    SimulationSession,
    Workload,
)
from repro.branch_predictor.frontend import FrontEndPredictor
from repro.confidence.jrs import JRSConfidencePredictor
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import CoreStats, InstanceObserver, OutOfOrderCore
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.gating import NoGating
from repro.workloads.generator import WorkloadGenerator


def build_frontend(config: MachineConfig) -> FrontEndPredictor:
    """Build the front-end predictor with the machine's table geometries."""
    return FrontEndPredictor(
        history_bits=config.branch_history_bits,
        direction_index_bits=config.direction_index_bits,
        btb_sets=config.btb_sets,
        btb_ways=config.btb_ways,
        ras_depth=config.ras_depth,
    )


def build_confidence(config: MachineConfig) -> JRSConfidencePredictor:
    """Build the JRS confidence table with the machine's geometry."""
    return JRSConfidencePredictor(
        index_bits=config.jrs_index_bits,
        mdc_bits=config.jrs_mdc_bits,
        history_bits=config.branch_history_bits,
    )


def build_fetch_engine(workload: Workload, config: MachineConfig,
                       instrument: Instrumentation) -> FetchEngine:
    """Wire the per-thread front end shared by every backend."""
    generator = WorkloadGenerator(workload.spec, seed=workload.seed,
                                  thread_id=workload.thread_id)
    return FetchEngine(
        generator=generator,
        frontend=build_frontend(config),
        confidence=build_confidence(config),
        path_confidence=instrument.path_confidence,
        wrongpath_seed=workload.resolved_wrongpath_seed(),
    )


class CycleSession(SimulationSession):
    """Adapter presenting an :class:`OutOfOrderCore` as a session."""

    def __init__(self, core: OutOfOrderCore) -> None:
        self.core = core

    @property
    def stats(self) -> CoreStats:
        return self.core.stats

    @property
    def fetch_engine(self) -> FetchEngine:
        return self.core.fetch_engine

    def add_observer(self, observer: InstanceObserver) -> None:
        self.core.add_observer(observer)

    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> CoreStats:
        return self.core.run(max_instructions, max_cycles=max_cycles)


class CycleBackend(SimulationBackend):
    """The full cycle-approximate out-of-order core (ground truth)."""

    name = "cycle"
    supports_timing = True
    supports_gating = True

    def build(self, workload: Workload, config: MachineConfig,
              instrument: Instrumentation) -> CycleSession:
        fetch_engine = build_fetch_engine(workload, config, instrument)
        core = OutOfOrderCore(
            config=config,
            fetch_engine=fetch_engine,
            gating_policy=(instrument.gating_policy
                           if instrument.gating_policy is not None
                           else NoGating()),
        )
        return CycleSession(core)
