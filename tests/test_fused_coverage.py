"""The fused trace session keeps every unphased branch in its generated step.

On an unphased benchmark the only way out of the fused loop would be the
scalar machinery: the per-record ``FetchEngine`` entry points, the scalar
episode tail ``TraceSession._finish_wrongpath`` and one-branch wrong-path
draws.  These tests run the fig10 gating stacks (ungated, count and PaCo
gating) and the ``full`` accuracy stack on gzip and twolf with a spy on
each of those entry points and assert that none is reached: good-path
conditionals and non-conditionals, wrong-path episodes and their tails
all run inside ``_fused_step_block``.  Deterministic: the counts are of
calls, not of time.
"""

from __future__ import annotations

import pytest

from repro.backends.fused import FusedTraceSession
from repro.backends.trace import TraceBackend, TraceSession
from repro.eval.harness import run_accuracy_experiment, run_gating_experiment
from repro.pipeline.fetch import FetchEngine
from repro.workloads.generator import WrongPathGenerator

#: The scalar entry points a fused session must never reach.
_SCALAR_EXITS = [
    (FetchEngine, "predict_from_block"),
    (FetchEngine, "resolve_record"),
    (FetchEngine, "squash_record"),
    (TraceSession, "_finish_wrongpath"),
]

#: fig10's three gating modes and the accuracy harness's full stack.
JOBS = {
    "ungated": lambda bench: run_gating_experiment(
        bench, mode="none", instructions=20_000, warmup_instructions=2_000,
        backend="trace"),
    "count": lambda bench: run_gating_experiment(
        bench, mode="count", gate_count=1, jrs_threshold=3,
        instructions=20_000, warmup_instructions=2_000, backend="trace"),
    "paco": lambda bench: run_gating_experiment(
        bench, mode="paco", gating_probability=0.1, instructions=20_000,
        warmup_instructions=2_000, backend="trace"),
    "full": lambda bench: run_accuracy_experiment(
        bench, instructions=20_000, warmup_instructions=2_000,
        backend="trace", instrument="full"),
}


@pytest.mark.parametrize("job", list(JOBS))
@pytest.mark.parametrize("bench", ["gzip", "twolf"])
def test_unphased_sessions_never_leave_the_fused_step(monkeypatch, bench,
                                                      job):
    calls = {}
    for owner, name in _SCALAR_EXITS:
        original = getattr(owner, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    wrongpath_sizes = []
    next_block = WrongPathGenerator.next_branch_block

    def block_spy(self, block, n):
        wrongpath_sizes.append(n)
        return next_block(self, block, n)

    monkeypatch.setattr(WrongPathGenerator, "next_branch_block", block_spy)
    sessions = []
    build = TraceBackend.build

    def build_spy(self, workload, config, instrument):
        sessions.append(build(self, workload, config, instrument))
        return sessions[-1]

    monkeypatch.setattr(TraceBackend, "build", build_spy)
    result = JOBS[job](bench)
    (session,) = sessions
    assert type(session) is FusedTraceSession
    # The run mispredicted and took wrong-path episodes, so the check
    # covers the episode and its tail.
    assert result.stats.flushes > 100
    assert wrongpath_sizes and 1 not in wrongpath_sizes
    assert calls == {}
