"""The generated loops keep every hot branch path out of the scalar chain.

On an unphased benchmark the only way out of the fused loop would be the
scalar machinery: the per-record ``FetchEngine`` entry points, the scalar
episode tail ``TraceSession._finish_wrongpath`` and one-branch wrong-path
draws.  These tests run the fig10 gating stacks (ungated, count and PaCo
gating) and the ``full`` accuracy stack on gzip and twolf with a spy on
each of those entry points and assert that none is reached: good-path
conditionals and non-conditionals, wrong-path episodes and their tails
all run inside ``_fused_step_block``.

Accuracy jobs with reliability diagrams (``full`` and ``paco``) reach
the generic multi-predictor delivery only at the end of each ``run()``
leg, and a long ``full`` session's generated step holds no memory that
grows with the run length.

The SMT core's generated loop keeps every good-path branch: fig12's
ICOUNT, count and PaCo policies on an unphased pair and on a phased one,
with spies asserting that no good-path branch is predicted, and no
correctly predicted good-path branch resolved, through the
``FetchEngine`` entry points, and that PaCo's ``on_cycle`` runs only
when a re-log pass is due.  Deterministic: the counts are of calls and
allocated blocks, not of time.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.backends.fused import FusedTraceSession
from repro.backends.smt_trace import TraceSMTCore
from repro.backends.trace import TraceBackend, TraceSession
from repro.common.stats import ReliabilityDiagram
from repro.eval.harness import (
    accuracy_predictors_for,
    build_session,
    run_accuracy_experiment,
    run_gating_experiment,
    run_smt_experiment,
)
from repro.eval.observers import (
    CounterGoodpathObserver,
    MultiPredictorObserver,
)
from repro.eval.profiling import MDCProfiler
from repro.pathconf.composite import CompositePathConfidence
from repro.pathconf.paco import PaCoPredictor
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


@pytest.mark.parametrize("instrument", ["full", "paco"])
@pytest.mark.parametrize("bench", ["gzip", "twolf"])
def test_diagram_plans_deliver_once_per_leg(monkeypatch, bench, instrument):
    """With a diagram plan resolved, every delivery inside the step — the
    episode tail's included — writes the step-local columns, so the
    generic multi-predictor delivery runs only at the end of a ``run()``
    leg: at most one ``record_runs`` per leg, and one diagram record per
    diagram."""
    calls = {"run": 0, "record_runs": 0, "diagram records": 0}
    for owner, name, key in (
            (TraceSession, "run", "run"),
            (MultiPredictorObserver, "record_runs", "record_runs"),
            (ReliabilityDiagram, "record", "diagram records"),
            (ReliabilityDiagram, "record_folded", "diagram records")):
        original = getattr(owner, name)

        def spy(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    result = run_accuracy_experiment(
        bench, instructions=20_000, warmup_instructions=2_000,
        backend="trace", instrument=instrument)
    assert result.stats.flushes > 100
    assert calls["run"] == 2
    assert 1 <= calls["record_runs"] <= calls["run"]
    assert calls["diagram records"] <= (calls["record_runs"]
                                        * len(result.diagrams))


def test_full_session_memory_stays_flat():
    """A second 400k-instruction leg of a twolf ``full`` session leaves
    (net) almost no new allocated blocks: no memo grows with the run
    length (one keyed by the per-branch MRT entries' (correct, total)
    pairs adds ~86k blocks over this leg).  ``sys.getallocatedblocks``
    stands in for ``tracemalloc``, which slows this loop down ~100x."""
    predictors = accuracy_predictors_for("full")
    composite = CompositePathConfidence(
        predictors=predictors + [MDCProfiler()], primary=predictors[0])
    session = build_session("twolf", composite, backend="trace")
    assert type(session) is FusedTraceSession
    session.add_observer(MultiPredictorObserver(predictors[:3]))
    session.add_observer(CounterGoodpathObserver(predictors[3]))
    session.run(max_instructions=400_000)
    gc.collect()
    before = sys.getallocatedblocks()
    session.run(max_instructions=800_000)
    gc.collect()
    assert sys.getallocatedblocks() - before < 8_192


@pytest.mark.parametrize("policy", ["icount", "count", "paco"])
@pytest.mark.parametrize("pair", [("gzip", "vortex"), ("crafty", "gcc")],
                         ids=["gzip+vortex", "crafty+gcc"])
def test_smt_good_path_never_leaves_the_generated_loop(monkeypatch, pair,
                                                       policy):
    calls = {"wrong-path predicts": 0, "mispredict resolves": 0,
             "relogs": 0}
    violations = []
    predict = FetchEngine.predict_from_block
    resolve = FetchEngine.resolve_record
    on_cycle = PaCoPredictor.on_cycle
    run_scalar = TraceSMTCore._run_scalar

    def predict_spy(self, block, i, seq, on_goodpath=True):
        if on_goodpath:
            violations.append(("good-path predict", seq))
        else:
            calls["wrong-path predicts"] += 1
        return predict(self, block, i, seq, on_goodpath)

    def resolve_spy(self, record):
        if record.on_goodpath and not record.mispredicted:
            violations.append(("correct good-path resolve", record.seq))
        elif record.on_goodpath:
            calls["mispredict resolves"] += 1
        return resolve(self, record)

    def on_cycle_spy(self, cycle):
        mrt = self.mrt
        if cycle - mrt._last_relog_cycle < mrt.relog_period_cycles:
            violations.append(("idle on_cycle", cycle))
        calls["relogs"] += 1
        return on_cycle(self, cycle)

    def scalar_spy(self, *args):
        violations.append(("scalar loop", None))
        return run_scalar(self, *args)

    monkeypatch.setattr(FetchEngine, "predict_from_block", predict_spy)
    monkeypatch.setattr(FetchEngine, "resolve_record", resolve_spy)
    monkeypatch.setattr(PaCoPredictor, "on_cycle", on_cycle_spy)
    monkeypatch.setattr(TraceSMTCore, "_run_scalar", scalar_spy)
    run_smt_experiment(*pair, policy=policy, instructions=20_000,
                       warmup_instructions=2_000, relog_period_cycles=5_000,
                       backend="trace", measure_single_ipcs=False)
    assert violations == []
    # The run mispredicted, fetched down wrong paths and (under PaCo)
    # re-logged, so the spies covered those paths.
    assert calls["wrong-path predicts"] > 100
    assert calls["mispredict resolves"] > 100
    assert (calls["relogs"] > 0) == (policy == "paco")
