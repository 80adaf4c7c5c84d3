"""The generated two-thread SMT loop is bit-identical to the scalar loop.

:meth:`~repro.backends.smt_trace.TraceSMTCore.run` runs the loop that
:mod:`repro.backends.fused` generates for the harness's icount, count and
paco cores; ``TraceSMTCore._run_scalar`` is the reference.  Each case
builds two identical cores, runs one through ``run`` and the other
through ``_run_scalar`` in the same two legs, and compares after each
leg everything either loop reads or writes: every thread statistic, the
fetch and front-end counters, the predictor tables (gshare, bimodal,
chooser, JRS), the BTB sets in LRU order, the RAS, the indirect table,
the history register, the path confidence predictor's register,
counters and MRT, the in-flight window entry by entry, the banked gap,
the gap and block buffers and positions, the RNG states, and the
wrong-path and stall state.  Three pairs (unphased gzip+vortex; phased
mcf and gcc, gcc rolling a phase), four policies, two seeds and three
branch staging sizes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends import fused, smt_trace
from repro.backends.cycle import build_confidence, build_frontend
from repro.branch_predictor.engine import BranchRecord
from repro.eval.harness import _make_policy_and_predictor
from repro.pathconf.paco import PaCoPredictor
from repro.pipeline.config import SMTConfig
from repro.pipeline.fetch import FetchEngine
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.suite import get_benchmark

PAIRS = (("gzip", "vortex"), ("gap", "mcf"), ("crafty", "gcc"))
#: (harness policy name, JRS threshold): the cores the loop is generated for.
POLICIES = (("icount", 3), ("count", 3), ("count", 15), ("paco", 3))
#: (seed, branch staging size).
RUNS = ((1, 64), (2, 64), (1, 1), (1, 17))
#: Total-retired budgets of the two legs; the second carries gcc past its
#: first phase roll.
LEGS = (6_000, 64_000)
#: Short enough that PaCo's re-log pass runs inside the legs.
RELOG_PERIOD = 5_000

CASES = [(pair, policy, threshold, seed, stage)
         for pair in PAIRS for policy, threshold in POLICIES
         for seed, stage in RUNS]


def build_core(pair, policy, threshold, seed) -> smt_trace.TraceSMTCore:
    """The trace SMT core exactly as ``run_smt_experiment`` wires it."""
    smt_config = SMTConfig()
    machine = smt_config.machine
    fetch_policy, predictor_factory = _make_policy_and_predictor(
        policy, threshold, RELOG_PERIOD)
    engines = []
    for thread_id, name in enumerate(pair):
        generator = WorkloadGenerator(get_benchmark(name),
                                      seed=seed + thread_id,
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


#: The slots of a non-conditional record anything reads: it trains no
#: direction table and carries no path confidence state, so the
#: generated predict writes only these.
NON_CONDITIONAL_SLOTS = (
    "pc", "mdc_value", "predicted_taken", "taken", "history",
    "static_branch_id", "thread_id", "target", "btb_hit", "mispredicted",
    "path_token", "resolved", "is_conditional", "kind", "out_taken",
    "out_target", "on_goodpath", "seq")


def _entry(entry):
    """A window entry by value: a slot run as is, a record as its slots
    (its path token named, not followed: it is the record itself)."""
    if entry is None or type(entry) is int:
        return entry
    slots = (BranchRecord.__slots__ if entry.is_conditional
             else NON_CONDITIONAL_SLOTS)
    values = []
    for slot in slots:
        value = getattr(entry, slot)
        values.append("<self>" if value is entry else value)
    return tuple(values)


def _predictor_state(predictor) -> dict:
    if isinstance(predictor, PaCoPredictor):
        mrt = predictor.mrt
        return {
            "register": predictor.path_confidence_register,
            "outstanding": predictor._outstanding,
            "counts": (predictor.fetched_branches,
                       predictor.resolved_branches,
                       predictor.squashed_branches),
            "mrt": [(c.correct, c.mispredicted) for c in mrt.counters],
            "encoded": list(mrt.encoded_probabilities),
            "relog": (mrt.relog_passes, mrt.samples_recorded,
                      mrt._last_relog_cycle),
        }
    return {
        "low": predictor._low_confidence_outstanding,
        "outstanding": predictor._outstanding,
        "counts": (predictor.fetched_branches,
                   predictor.low_confidence_branches),
    }


def thread_state(thread) -> dict:
    engine = thread.fetch_engine
    frontend = engine.frontend
    tournament = frontend.direction
    btb = frontend.btb
    ras = frontend.ras
    indirect = frontend.indirect
    confidence = engine.confidence
    generator = engine.generator
    return {
        "stats": dataclasses.asdict(thread.stats),
        "fetch": (engine.goodpath_fetched, engine.badpath_fetched,
                  engine.branches_fetched,
                  engine.conditional_branches_fetched,
                  engine.on_wrong_path, engine._pending_mispredict_seq),
        "frontend": (frontend.total_predictions,
                     frontend.conditional_predictions,
                     frontend.total_mispredictions,
                     frontend.conditional_mispredictions),
        "history": frontend.history.value,
        "gshare": list(tournament.gshare.table),
        "bimodal": list(tournament.bimodal.table),
        "chooser": list(tournament.chooser),
        "jrs": (list(confidence.table), confidence.lookups,
                confidence.updates, confidence.resets),
        "btb": ([None if s is None else [list(way) for way in s.entries]
                 for s in btb._sets], btb.lookups, btb.hits, btb.evictions),
        "ras": (list(ras._stack), ras.pushes, ras.pops, ras.underflows),
        "indirect": (dict(indirect._table), indirect.lookups, indirect.hits),
        "path_confidence": _predictor_state(engine.path_confidence),
        "window": [_entry(entry) for entry in thread.window],
        "inflight": thread.inflight,
        "pending": (_entry(thread.wp_record), thread.wp_resolve_at,
                    thread.fetch_stall_until, thread.pending_gap),
        "buffers": (thread.next_seq, thread.gap_pos, list(thread.gap_buf),
                    thread.gap_rng._state, thread.wp_gap_pos,
                    list(thread.wp_gap_buf), thread.wp_gap_rng._state,
                    thread.block_pos, thread.block.count,
                    thread.wp_block_pos, thread.wp_block.count,
                    engine.wrongpath_generator._rng._state),
        "generator": (generator.instructions_generated,
                      generator._phase_index, generator._phase_remaining),
    }


def core_state(core) -> dict:
    return {"cycle": core.cycle, "stats_cycles": core.stats.cycles,
            "threads": [thread_state(thread) for thread in core.threads]}


@pytest.mark.parametrize(
    "pair,policy,threshold,seed,stage", CASES,
    ids=[f"{c[0][0]}+{c[0][1]}/{c[1]}-t{c[2]}/seed{c[3]}/stage{c[4]}"
         for c in CASES])
def test_generated_loop_matches_scalar_loop(monkeypatch, pair, policy,
                                            threshold, seed, stage):
    monkeypatch.setattr(smt_trace, "BRANCH_STAGE", stage)
    generated = build_core(pair, policy, threshold, seed)
    scalar = build_core(pair, policy, threshold, seed)
    assert generated._arbitration() != smt_trace._SELECT
    assert fused._smt_plan(generated.threads) is not None
    for budget in LEGS:
        stats = generated.run(budget)
        retired = scalar._run_scalar(budget, budget * 40)
        assert retired == stats.total_retired >= budget
        assert core_state(generated) == core_state(scalar)
