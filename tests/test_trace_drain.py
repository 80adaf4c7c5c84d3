"""Regression tests for the trace backend's drain.

Completing the oldest in-flight slots is one plain method,
``TraceSession._complete_oldest``; the fused session's generated loops
carry their own inlined drains.  These tests pin the method
behaviour-identical to a reference implementation of the drain semantics
across gap-only, branch-only and mixed windows, and pin the fused
session's inlined drains against it by running the fused and scalar
sessions over the same replay.
"""

from __future__ import annotations

import random

import pytest

from repro.backends import (
    Instrumentation,
    TraceBackend,
    Workload,
    build_fetch_engine,
)
from repro.backends.fused import FusedTraceSession
from repro.backends.trace import TraceSession
from repro.isa.types import BranchKind
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.core import InstanceObserver
from repro.pipeline.gating import CountGating


class _StreamObserver(InstanceObserver):
    def __init__(self):
        self.events = []

    def record_runs(self, events):
        for i in range(0, len(events), 4):
            self.events.append(tuple(events[i:i + 4]))


class _FakeRecord:
    """A window entry with just the attributes the drain body touches."""

    def __init__(self, on_goodpath=True, mispredicted=False,
                 kind=BranchKind.CONDITIONAL, path_token=None):
        self.on_goodpath = on_goodpath
        self.mispredicted = mispredicted
        self.kind = kind
        self.path_token = path_token


class _StubEngine:
    """Stands in for the fetch engine during direct drain calls."""

    def __init__(self):
        self.on_wrong_path = False
        self.resolved = []

    def resolve_record(self, record):
        self.resolved.append(record)


_STAT_FIELDS = (
    "goodpath_executed", "badpath_executed", "retired_instructions",
    "branches_retired", "branch_mispredicts_retired",
    "conditional_branches_retired", "conditional_mispredicts_retired",
)


def _reference_drain(window, excess, cycle, run_fetch, run_execute,
                     run_goodpath):
    """The scalar drain semantics, slot by slot, as plain data.

    Returns the surviving window, the stat deltas, the resolve order and
    the closed run events (the flattened stream an observer captures
    from its ``record_runs`` batches, pending or delivered).
    """
    window = list(window)
    stats = {name: 0 for name in _STAT_FIELDS}
    resolved = []
    events = []
    while excess > 0:
        entry = window[0]
        if type(entry) is int:
            size = entry if entry > 0 else -entry
            take = min(size, excess)
            if entry > 0:
                stats["goodpath_executed"] += take
                stats["retired_instructions"] += take
            else:
                stats["badpath_executed"] += take
            run_execute += take
            if take < size:
                window[0] = entry - take if entry > 0 else entry + take
            else:
                window.pop(0)
            excess -= take
        else:
            window.pop(0)
            excess -= 1
            if run_fetch:
                events.append(("fetch", run_goodpath, cycle, run_fetch))
            if run_execute:
                events.append(("execute", run_goodpath, cycle, run_execute))
            run_fetch = 0
            run_execute = 0
            resolved.append(entry)
            # After a resolution the next run's path follows the engine's
            # current fetch path (the stub engine stays on the good path).
            run_goodpath = True
            if entry.on_goodpath:
                stats["goodpath_executed"] += 1
                stats["retired_instructions"] += 1
                stats["branches_retired"] += 1
                if entry.mispredicted:
                    stats["branch_mispredicts_retired"] += 1
                if entry.kind is BranchKind.CONDITIONAL:
                    stats["conditional_branches_retired"] += 1
                    if entry.mispredicted:
                        stats["conditional_mispredicts_retired"] += 1
            else:
                stats["badpath_executed"] += 1
            run_execute += 1
    return window, stats, resolved, events, run_fetch, run_execute


class TestCompleteOldest:
    """Direct drain calls over constructed windows, against the reference."""

    def _session(self, tiny_spec, small_machine):
        session = TraceBackend().build(
            Workload(spec=tiny_spec, seed=1), small_machine,
            Instrumentation(path_confidence=PaCoPredictor()))
        observer = _StreamObserver()
        session.add_observer(observer)
        session.fetch_engine = _StubEngine()
        return session, observer

    def _drive(self, session, observer, window, excess, cycle=100,
               run_fetch=0, run_execute=0, run_goodpath=True):
        session._window.clear()
        session._window.extend(window)
        session._inflight = sum(
            (e if e > 0 else -e) if type(e) is int else 1 for e in window)
        session._cycle = cycle
        session._run_fetch = run_fetch
        session._run_execute = run_execute
        session._run_goodpath = run_goodpath
        before = {name: getattr(session.stats, name)
                  for name in _STAT_FIELDS}
        session._complete_oldest(excess)
        got_stats = {name: getattr(session.stats, name) - before[name]
                     for name in _STAT_FIELDS}
        # Flattened closed events: delivered ones plus the still-buffered
        # tail (delivery only fires at conditional resolutions).
        pending = [tuple(session._events[i:i + 4])
                   for i in range(0, len(session._events), 4)]
        return (list(session._window), got_stats,
                session.fetch_engine.resolved, observer.events + pending,
                session._run_fetch, session._run_execute)

    def _check(self, session, observer, window, excess, **run_state):
        got = self._drive(session, observer, window, excess, **run_state)
        want = _reference_drain(window, excess,
                                run_state.get("cycle", 100),
                                run_state.get("run_fetch", 0),
                                run_state.get("run_execute", 0),
                                run_state.get("run_goodpath", True))
        assert got[0] == want[0], "surviving window"
        assert got[1] == want[1], "stat deltas"
        assert got[2] == want[2], "resolve order"
        assert got[3] == want[3], "closed run events"
        assert got[4] == want[4], "pending fetch run"
        assert got[5] == want[5], "pending execute run"

    def test_goodpath_gap_window(self, tiny_spec, small_machine):
        session, observer = self._session(tiny_spec, small_machine)
        self._check(session, observer, [7], 3, run_fetch=7)

    def test_wrongpath_gap_window(self, tiny_spec, small_machine):
        session, observer = self._session(tiny_spec, small_machine)
        self._check(session, observer, [-5], 2, run_fetch=5,
                    run_goodpath=False)

    def test_branch_window(self, tiny_spec, small_machine):
        session, observer = self._session(tiny_spec, small_machine)
        window = [
            _FakeRecord(mispredicted=True, path_token=object()),
            _FakeRecord(kind=BranchKind.CALL),
            _FakeRecord(on_goodpath=False),
        ]
        self._check(session, observer, window, 3, run_fetch=3)

    def test_mixed_window_partial_run_split(self, tiny_spec, small_machine):
        session, observer = self._session(tiny_spec, small_machine)
        window = [3, _FakeRecord(path_token=object()), -4,
                  _FakeRecord(on_goodpath=False), 6]
        # excess lands mid-run twice: after splitting the good run and
        # inside the trailing one.
        self._check(session, observer, window, 9, run_fetch=5,
                    run_execute=2)

    def test_randomized_windows(self, tiny_spec, small_machine):
        rng = random.Random(42)
        session, observer = self._session(tiny_spec, small_machine)
        for _ in range(50):
            window = []
            for _ in range(rng.randint(1, 8)):
                roll = rng.random()
                if roll < 0.35:
                    window.append(rng.randint(1, 9))
                elif roll < 0.55:
                    window.append(-rng.randint(1, 9))
                else:
                    window.append(_FakeRecord(
                        on_goodpath=rng.random() < 0.8,
                        mispredicted=rng.random() < 0.3,
                        kind=(BranchKind.CONDITIONAL if rng.random() < 0.7
                              else BranchKind.UNCONDITIONAL),
                        path_token=(object() if rng.random() < 0.5
                                    else None)))
            total = sum((e if e > 0 else -e) if type(e) is int else 1
                        for e in window)
            excess = rng.randint(1, total)
            observer.events.clear()
            session.fetch_engine.resolved = []
            del session._events[:]
            self._check(session, observer, window, excess,
                        cycle=rng.randint(0, 10_000),
                        run_fetch=rng.randint(0, 12),
                        run_execute=rng.randint(0, 12),
                        run_goodpath=rng.random() < 0.7)

    def test_drain_wrapper_completes_excess_only(self, tiny_spec,
                                                 small_machine):
        session, observer = self._session(tiny_spec, small_machine)
        session._window.clear()
        session._window.append(session.resolve_window + 4)
        session._inflight = session.resolve_window + 4
        session._run_fetch = session.resolve_window + 4
        session._drain()
        assert session._inflight == session.resolve_window
        assert list(session._window) == [session.resolve_window]
        # Below the window depth the wrapper is a no-op.
        session._drain()
        assert session._inflight == session.resolve_window


class TestInlinedDrainsMatchWrapper:
    """The fused session's inlined drains (block step, episode) against
    the scalar paths that go through ``_complete_oldest``.

    The scalar :class:`TraceSession` is built directly — ungated, and
    gated by a policy that never fires, which takes every gate check and
    must still replay the same streams.  Equal stats and equal observer
    streams pin all drain consumers to one behaviour.
    """

    def _run(self, spec, machine, session_kind, seed=6, instructions=5_000):
        predictor = ThresholdAndCountPredictor(threshold=3)
        observer = _StreamObserver()
        instrument = Instrumentation(path_confidence=predictor)
        workload = Workload(spec=spec, seed=seed)
        if session_kind == "fused":
            session = TraceBackend().build(workload, machine, instrument)
            assert type(session) is FusedTraceSession
        else:
            gating = (CountGating(predictor, gate_count=10 ** 9)
                      if session_kind == "never-gated" else None)
            session = TraceSession(
                build_fetch_engine(workload, machine, instrument), machine,
                machine.width * machine.frontend_depth,
                2 * machine.min_mispredict_penalty, gating_policy=gating)
        session.add_observer(observer)
        stats = session.run(max_instructions=instructions)
        return observer.events, stats

    @pytest.mark.parametrize("scalar_kind", ["ungated", "never-gated"])
    def test_scalar_and_batched_paths_agree(self, tiny_spec, small_machine,
                                            scalar_kind):
        fused = self._run(tiny_spec, small_machine, "fused")
        scalar = self._run(tiny_spec, small_machine, scalar_kind)
        assert scalar[1].gated_cycles == 0
        # gated_cycles is the only field a gate could touch.
        assert scalar[1] == fused[1]
        assert scalar[0] == fused[0]
