"""The pluggable simulation-backend contract.

A *backend* is a strategy for turning one workload into the instance- and
predictor-level statistics the experiments consume.  All backends share a
single contract:

* :meth:`SimulationBackend.build` wires a workload, a machine
  configuration and the instrumentation (path confidence predictor and
  gating policy) into a stateful :class:`SimulationSession`;
* :meth:`SimulationSession.add_observer` attaches an instance observer;
* :meth:`SimulationSession.run` advances the session until a cumulative
  good-path instruction budget has retired and returns the
  :class:`~repro.pipeline.core.CoreStats` record;
* :meth:`SimulationBackend.run` is the one-shot convenience composing the
  two.

Two backends ship with the package (both registered here by name):

``cycle``
    The full cycle-approximate out-of-order core
    (:class:`~repro.backends.cycle.CycleBackend`).  Ground truth for every
    statistic, including IPC, gating and wrong-path execution.
``trace``
    The fast trace-replay engine
    (:class:`~repro.backends.trace.TraceBackend`).  Drives the branch
    predictors, BTB/RAS and confidence machinery directly over the
    generator's good-path stream, replaying the wrong-path stream for a
    calibrated resolution window after each misprediction.  Reproduces
    predictor- and confidence-level statistics at a fraction of the cost;
    issue/retire timing is replaced by an idealized replay clock, so IPC,
    gating and SMT quantities are calibrated *estimates* (parity-gated
    against the cycle model), not cycle-accurate measurements.  Stacks
    the generated loops model run on the fused session
    (:mod:`repro.backends.fused`), everything else on the scalar one;
    both produce bit-identical results.

The registry maps backend names to zero-argument factories so callers can
select a backend by the string that also rides in
:class:`~repro.runner.jobs.Job` identities and
:class:`~repro.runner.cache.ResultCache` keys.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.pathconf.base import PathConfidencePredictor
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import CoreStats, InstanceObserver
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.gating import GatingPolicy
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import BenchmarkSpec

#: The backend every job runs on unless it says otherwise.
DEFAULT_BACKEND = "cycle"


@dataclass(frozen=True)
class Workload:
    """One benchmark binding: the spec plus the seeds that make it concrete.

    ``wrongpath_seed`` defaults to ``seed + 1`` (the convention the
    original harness used), so the same workload produces bit-identical
    good-path *and* wrong-path streams on every backend.
    """

    spec: BenchmarkSpec
    seed: int = 1
    thread_id: int = 0
    wrongpath_seed: Optional[int] = None

    def resolved_wrongpath_seed(self) -> int:
        return (self.wrongpath_seed if self.wrongpath_seed is not None
                else self.seed + 1)


@dataclass
class Instrumentation:
    """Everything a backend attaches to the simulated machine.

    ``gating_policy`` is only honoured by backends with
    ``supports_gating`` (both shipped backends); passing one to a
    backend without that capability is an error, not a silent no-op.
    Instance observers attach to the built session through
    :meth:`SimulationSession.add_observer`.
    """

    path_confidence: PathConfidencePredictor
    gating_policy: Optional[GatingPolicy] = None


class SimulationSession(abc.ABC):
    """One stateful simulation of one workload on one backend.

    Sessions are resumable: ``run`` advances until the *cumulative*
    retired-instruction count reaches the budget, so experiments can run a
    warm-up leg, snapshot the statistics, attach observers and continue —
    identically on every backend.
    """

    stats: CoreStats
    fetch_engine: FetchEngine

    @property
    def generator(self) -> WorkloadGenerator:
        """The good-path workload generator (phase-aware observers need it)."""
        return self.fetch_engine.generator

    @abc.abstractmethod
    def add_observer(self, observer: InstanceObserver) -> None:
        """Attach an instance observer to the running simulation."""

    @abc.abstractmethod
    def run(self, max_instructions: int,
            max_cycles: Optional[int] = None) -> CoreStats:
        """Advance until ``max_instructions`` good-path instructions retired.

        Raises :class:`~repro.pipeline.core.SimulationTruncated` when the
        ``max_cycles`` safety net trips first.
        """


class SimulationBackend(abc.ABC):
    """Strategy object producing :class:`SimulationSession` instances."""

    #: Registry name, also stored in job identities and cache keys.
    name: str = "abstract"
    #: Whether cycles/IPC produced by this backend are meaningful.
    supports_timing: bool = False
    #: Whether the backend honours a fetch gating policy.
    supports_gating: bool = False

    @abc.abstractmethod
    def build(self, workload: Workload, config: MachineConfig,
              instrument: Instrumentation) -> SimulationSession:
        """Wire one workload into a fresh simulation session."""

    def run(self, workload: Workload, config: MachineConfig,
            instrument: Instrumentation, max_instructions: int,
            max_cycles: Optional[int] = None) -> CoreStats:
        """One-shot convenience: build a session and run it to the budget."""
        session = self.build(workload, config, instrument)
        return session.run(max_instructions, max_cycles=max_cycles)


#: Backend name -> zero-argument factory.
_BACKENDS: Dict[str, Callable[[], SimulationBackend]] = {}


class UnknownBackendError(KeyError):
    """Raised when a backend name nobody registered is requested."""

    def __str__(self) -> str:
        # KeyError.__str__ reprs the message; keep ours readable.
        return self.args[0] if self.args else ""


def register_backend(name: str,
                     factory: Callable[[], SimulationBackend]) -> None:
    """Register the factory for backend ``name``.

    Duplicate registrations are rejected: two factories silently racing
    for one name (and one cache-key namespace) is always a bug.
    """
    if name in _BACKENDS:
        raise ValueError(
            f"simulation backend {name!r} is already registered")
    _BACKENDS[name] = factory


def describe_backends() -> str:
    """One-line summary of the registered names for error messages."""
    parts = [f"{name} (available)" for name in sorted(_BACKENDS)]
    return ", ".join(parts) if parts else "none registered"


def validate_backend_name(name: str) -> str:
    """Check that ``name`` is a registered backend; return it unchanged.

    Raises :class:`UnknownBackendError` listing every registered name, so
    the caller's error message is actionable without a second lookup.
    """
    if name not in _BACKENDS:
        raise UnknownBackendError(
            f"unknown simulation backend {name!r}"
            f" (backends: {describe_backends()})")
    return name


def get_backend(backend: "str | SimulationBackend") -> SimulationBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, SimulationBackend):
        return backend
    validate_backend_name(backend)
    return _BACKENDS[backend]()


def backend_names() -> Tuple[str, ...]:
    """Names of every registered backend."""
    return tuple(sorted(_BACKENDS))
