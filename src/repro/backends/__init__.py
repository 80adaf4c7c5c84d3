"""Pluggable simulation backends.

Every experiment harness runs its workloads through a
:class:`~repro.backends.base.SimulationBackend`.  The backend decides
*how* the statistics are produced:

``cycle``
    :class:`~repro.backends.cycle.CycleBackend` — the full
    cycle-approximate out-of-order core.  Ground truth, supports timing
    (IPC), gating and SMT.
``trace``
    :class:`~repro.backends.trace.TraceBackend` — the fast trace-replay
    engine for predictor- and confidence-level statistics.  Stacks that
    :func:`~repro.backends.fused._fused_plan` models run on
    :class:`~repro.backends.fused.FusedTraceSession` (generated predictor
    loops, with a count or PaCo gate in them when gated); every other
    stack or gate runs on the plain
    :class:`~repro.backends.trace.TraceSession`, the bit-identical
    reference.

Select one by name through :func:`~repro.backends.base.get_backend`, the
``backend=`` parameter of the harness entry points, the ``backend`` field
of :class:`~repro.runner.jobs.Job`, or ``python -m repro run <experiment>
--backend {cycle,trace}``.
"""

from repro.backends.base import (
    DEFAULT_BACKEND,
    Instrumentation,
    SimulationBackend,
    SimulationSession,
    UnknownBackendError,
    Workload,
    backend_names,
    describe_backends,
    get_backend,
    register_backend,
    validate_backend_name,
)
from repro.backends.cycle import CycleBackend, CycleSession, build_fetch_engine
from repro.backends.trace import TraceBackend, TraceSession

register_backend(CycleBackend.name, CycleBackend)
register_backend(TraceBackend.name, TraceBackend)

__all__ = [
    "DEFAULT_BACKEND",
    "CycleBackend",
    "CycleSession",
    "Instrumentation",
    "SimulationBackend",
    "SimulationSession",
    "TraceBackend",
    "TraceSession",
    "UnknownBackendError",
    "Workload",
    "backend_names",
    "build_fetch_engine",
    "describe_backends",
    "get_backend",
    "register_backend",
    "validate_backend_name",
]
