"""Exact pin of the trace SMT core (``repro.backends.smt_trace``).

The fig12 golden snapshot runs on the cycle model and the trace-vs-cycle
SMT gate in ``tests/test_backends.py`` is statistical, so neither notices
a trace SMT change that moves results slightly.  This test does: it runs
:class:`~repro.backends.smt_trace.TraceSMTCore` over three benchmark
pairs (gzip+vortex unphased; mcf and gcc phased, gcc rolling a phase),
every fetch policy family and two seeds, in two ``run()`` legs
(warm-up, then measure), and compares each thread's statistics, fetch and
front-end counters, path confidence counters and predictor-table hashes
with the committed table ``tests/data/smt_trace_pin.json``.  The same
table must come out whatever the core's branch staging size is.

Any change to an entry changes fig12's trace results.  To regenerate
the table after a deliberate model change::

    PYTHONPATH=src python tests/test_smt_trace_pin.py --write
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.backends import smt_trace
from repro.backends.cycle import build_confidence, build_frontend
from repro.eval.harness import _make_policy_and_predictor
from repro.pathconf.paco import PaCoPredictor
from repro.pipeline.config import SMTConfig
from repro.pipeline.fetch import FetchEngine
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.suite import get_benchmark

EXPECTED_PATH = Path(__file__).parent / "data" / "smt_trace_pin.json"

PAIRS = (("gzip", "vortex"), ("gap", "mcf"), ("crafty", "gcc"))
#: (harness policy name, JRS threshold).
POLICIES = (("icount", 3), ("round-robin", 3), ("count", 3), ("count", 15),
            ("paco", 3))
SEEDS = (1, 2)
#: Total-retired budgets of the two legs: warm-up, then warm-up + measure.
#: The second leg carries gcc past its first phase roll.
LEGS = (6_000, 64_000)
#: Short enough that PaCo's re-logarithmizing pass runs inside the legs.
RELOG_PERIOD = 5_000

CONFIGS = [(pair, policy, threshold, seed)
           for pair in PAIRS for policy, threshold in POLICIES
           for seed in SEEDS]


def config_key(pair, policy, threshold, seed) -> str:
    return f"{pair[0]}+{pair[1]}/{policy}-t{threshold}/seed{seed}"


def build_core(pair, policy, threshold, seed) -> smt_trace.TraceSMTCore:
    """The trace SMT core exactly as ``run_smt_experiment`` wires it."""
    smt_config = SMTConfig()
    machine = smt_config.machine
    fetch_policy, predictor_factory = _make_policy_and_predictor(
        policy, threshold, RELOG_PERIOD)
    engines = []
    for thread_id, name in enumerate(pair):
        generator = WorkloadGenerator(get_benchmark(name), seed=seed + thread_id,
                                      thread_id=thread_id)
        engines.append(FetchEngine(
            generator=generator,
            frontend=build_frontend(machine),
            confidence=build_confidence(machine),
            path_confidence=predictor_factory(),
            wrongpath_seed=seed + 10 + thread_id,
        ))
    return smt_trace.build_trace_smt_core(engines, smt_config,
                                          fetch_policy=fetch_policy)


def _sha(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def thread_snapshot(thread) -> dict:
    engine = thread.fetch_engine
    frontend = engine.frontend
    tournament = frontend.direction
    predictor = engine.path_confidence
    snap = dataclasses.asdict(thread.stats)
    snap.update(
        engine_goodpath_fetched=engine.goodpath_fetched,
        engine_badpath_fetched=engine.badpath_fetched,
        branches_fetched=engine.branches_fetched,
        conditional_branches_fetched=engine.conditional_branches_fetched,
        on_wrong_path=engine.on_wrong_path,
        total_predictions=frontend.total_predictions,
        total_mispredictions=frontend.total_mispredictions,
        conditional_predictions=frontend.conditional_predictions,
        conditional_mispredictions=frontend.conditional_mispredictions,
        history=frontend.history.value,
        in_flight=thread.in_flight_instructions,
        gshare=_sha(tournament.gshare.table),
        bimodal=_sha(tournament.bimodal.table),
        chooser=_sha(tournament.chooser),
        jrs=_sha(engine.confidence.table),
    )
    if isinstance(predictor, PaCoPredictor):
        snap.update(
            pc_register=predictor.path_confidence_register,
            pc_fetched=predictor.fetched_branches,
            pc_resolved=predictor.resolved_branches,
            pc_squashed=predictor.squashed_branches,
            pc_relog_passes=predictor.mrt.relog_passes,
        )
    else:
        snap.update(
            pc_low_confidence=predictor.low_confidence_count,
            pc_outstanding=predictor.outstanding_branches(),
            pc_fetched=predictor.fetched_branches,
            pc_low_confidence_fetched=predictor.low_confidence_branches,
        )
    return snap


def snapshot(pair, policy, threshold, seed) -> list:
    """Per leg: the cycle count and every thread's snapshot."""
    return run_legs(build_core(pair, policy, threshold, seed))


def run_legs(core) -> list:
    legs = []
    for budget in LEGS:
        stats = core.run(budget)
        legs.append({"cycles": stats.cycles,
                     "threads": [thread_snapshot(t) for t in core.threads]})
    return legs


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@pytest.mark.parametrize("pair,policy,threshold,seed", CONFIGS,
                         ids=[config_key(*c) for c in CONFIGS])
def test_trace_smt_core_matches_pinned_table(expected, pair, policy,
                                             threshold, seed):
    key = config_key(pair, policy, threshold, seed)
    assert snapshot(pair, policy, threshold, seed) == expected[key]


#: Every pair and policy at one seed: the staging-size sweep's share.
STAGING_CONFIGS = [c for c in CONFIGS if c[3] == SEEDS[0]]


@pytest.mark.parametrize("stage", [1, 17, smt_trace.BRANCH_STAGE])
@pytest.mark.parametrize("pair,policy,threshold,seed", STAGING_CONFIGS,
                         ids=[config_key(*c) for c in STAGING_CONFIGS])
def test_branch_staging_size_does_not_change_results(
        expected, monkeypatch, stage, pair, policy, threshold, seed):
    monkeypatch.setattr(smt_trace, "BRANCH_STAGE", stage)
    key = config_key(pair, policy, threshold, seed)
    assert snapshot(pair, policy, threshold, seed) == expected[key]


@pytest.mark.parametrize("policy,threshold", [("icount", 3), ("count", 3),
                                              ("paco", 3)])
def test_inline_arbitration_matches_policy_select(expected, policy,
                                                  threshold):
    """A trivial policy subclass goes through ``select()``; the exact
    types are arbitrated inline.  Both must pick the same threads."""
    config = (PAIRS[0], policy, threshold, SEEDS[0])
    core = build_core(*config)
    assert core._arbitration() != smt_trace._SELECT
    exact = core.fetch_policy
    core.fetch_policy = copy.copy(exact)
    core.fetch_policy.__class__ = type("Subclassed", (type(exact),), {})
    assert core._arbitration() == smt_trace._SELECT
    assert run_legs(core) == expected[config_key(*config)]


def test_inline_arbitration_is_cross_checked_against_select():
    core = build_core(PAIRS[0], "count", 3, SEEDS[0])
    policy = core.fetch_policy
    exact = type(policy).select
    policy.select = lambda cycle, threads: 1 - exact(policy, cycle, threads)
    with pytest.raises(RuntimeError, match="disagrees"):
        core.run(LEGS[0])


def write_expected() -> None:
    table = {config_key(*c): snapshot(*c) for c in CONFIGS}
    EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                             + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_smt_trace_pin.py --write")
    write_expected()
