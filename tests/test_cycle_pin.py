"""Exact pin of the cycle model (``repro.pipeline``).

``tests/test_golden_results.py`` compares rounded snapshots within
tolerances, so a rewiring of the out-of-order core, the SMT core or the
fetch engine that moves results slightly can pass it.  This test does
not allow that: it runs the cycle model on twelve cases and compares
every statistic and counter, and a sha256 of every large table, with the
committed table ``tests/data/cycle_pin.json``:

* ``state/<bench>``: the predictor tables, BTB, RAS, indirect table, JRS
  table, fetch and path confidence counters and ``CoreStats`` after
  30k instructions on gzip, twolf and gcc;
* ``accuracy/<profile>/<bench>``: the whole
  :class:`~repro.eval.harness.AccuracyResult` for the ``full`` and
  ``counter`` profiles on gzip and gcc (diagram bins hashed over their
  ``(instances, goodpath_instances, predicted_sum)``);
* ``gating/<mode>/twolf``: the :class:`~repro.eval.harness.GatingResult`
  of no gating, count gating and PaCo gating;
* ``smt/<policy>/gzip+twolf``: the SMT core under ICOUNT and PaCo
  fetch prioritization, two ``run()`` legs, per-thread statistics and
  table hashes.

Statistics are stored as JSON values so a failure names the field that
moved.  To regenerate the table after a deliberate model change::

    PYTHONPATH=src python tests/test_cycle_pin.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.backends.cycle import build_confidence, build_frontend
from repro.eval.harness import (
    _make_policy_and_predictor,
    build_session,
    run_accuracy_experiment,
    run_gating_experiment,
)
from repro.pathconf.paco import PaCoPredictor
from repro.pathconf.threshold_count import ThresholdAndCountPredictor
from repro.pipeline.config import SMTConfig
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.smt import SMTCore, SMTThread
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.suite import get_benchmark

EXPECTED_PATH = Path(__file__).parent / "data" / "cycle_pin.json"

#: Short enough that PaCo's re-logarithmizing pass runs inside every case.
RELOG_PERIOD = 5_000
STATE_INSTRUCTIONS = 30_000
#: (warm-up, measured) instruction budgets of the harness-driven cases.
ACCURACY_BUDGET = (10_000, 15_000)
GATING_BUDGET = (8_000, 12_000)
#: Total-retired budgets of the two SMT legs: warm-up, then warm-up + measure.
SMT_LEGS = (6_000, 24_000)

STATE_BENCHMARKS = ("gzip", "twolf", "gcc")
ACCURACY_CASES = [(profile, bench) for profile in ("full", "counter")
                  for bench in ("gzip", "gcc")]
GATING_CASES = [("none", {}), ("count", {"gate_count": 2}),
                ("paco", {"gating_probability": 0.3})]
SMT_PAIR = ("gzip", "twolf")
SMT_POLICIES = ("icount", "paco")


def _sha(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()


def _json(value):
    """Normalise to what the JSON table stores (str keys, lists)."""
    return json.loads(json.dumps(value))


def _btb_entries(btb) -> list:
    return [None if s is None else s.entries for s in btb._sets]


def engine_snapshot(engine: FetchEngine) -> dict:
    """Fetch, front-end, JRS and path confidence state of one engine."""
    frontend = engine.frontend
    tournament = frontend.direction
    btb = frontend.btb
    ras = frontend.ras
    indirect = frontend.indirect
    confidence = engine.confidence
    predictor = engine.path_confidence
    snap = dict(
        goodpath_fetched=engine.goodpath_fetched,
        badpath_fetched=engine.badpath_fetched,
        branches_fetched=engine.branches_fetched,
        conditional_branches_fetched=engine.conditional_branches_fetched,
        on_wrong_path=engine.on_wrong_path,
        total_predictions=frontend.total_predictions,
        total_mispredictions=frontend.total_mispredictions,
        conditional_predictions=frontend.conditional_predictions,
        conditional_mispredictions=frontend.conditional_mispredictions,
        history=frontend.history.value,
        gshare=_sha(tournament.gshare.table),
        bimodal=_sha(tournament.bimodal.table),
        chooser=_sha(tournament.chooser),
        btb=_sha(_btb_entries(btb)),
        btb_counters=[btb.lookups, btb.hits, btb.evictions],
        ras=_sha(ras._stack),
        ras_counters=[ras.pushes, ras.pops, ras.underflows],
        indirect=_sha(sorted(indirect._table.items())),
        indirect_counters=[indirect.lookups, indirect.hits],
        jrs=_sha(confidence.table),
        jrs_counters=[confidence.lookups, confidence.updates,
                      confidence.resets],
    )
    if isinstance(predictor, PaCoPredictor):
        mrt = predictor.mrt
        snap.update(
            pc_register=predictor.path_confidence_register,
            pc_outstanding=predictor.outstanding_branches(),
            pc_fetched=predictor.fetched_branches,
            pc_resolved=predictor.resolved_branches,
            pc_squashed=predictor.squashed_branches,
            mrt_relog_passes=mrt.relog_passes,
            mrt_samples=mrt.samples_recorded,
            mrt_encoded=list(mrt.encoded_probabilities),
        )
    else:
        snap.update(
            pc_low_confidence=predictor.low_confidence_count,
            pc_outstanding=predictor.outstanding_branches(),
            pc_fetched=predictor.fetched_branches,
            pc_low_confidence_fetched=predictor.low_confidence_branches,
        )
    return snap


def state_snapshot(bench: str) -> dict:
    predictor = (ThresholdAndCountPredictor(threshold=3) if bench == "twolf"
                 else PaCoPredictor(relog_period_cycles=RELOG_PERIOD))
    session = build_session(bench, predictor, seed=1, backend="cycle")
    stats = session.run(STATE_INSTRUCTIONS)
    snap = engine_snapshot(session.fetch_engine)
    snap["stats"] = dataclasses.asdict(stats)
    return snap


def _diagram(diagram) -> dict:
    return dict(
        num_bins=diagram.num_bins,
        total_instances=diagram.total_instances,
        total_goodpath=diagram.total_goodpath,
        bins=_sha((b.instances, b.goodpath_instances, b.predicted_sum)
                  for b in diagram.bins),
    )


def accuracy_snapshot(profile: str, bench: str) -> dict:
    warmup, measured = ACCURACY_BUDGET
    result = run_accuracy_experiment(
        bench, instructions=measured, warmup_instructions=warmup, seed=1,
        relog_period_cycles=RELOG_PERIOD, instrument=profile,
        backend="cycle")
    snap = {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)}
    snap["stats"] = dataclasses.asdict(result.stats)
    snap["diagrams"] = {name: _diagram(d)
                        for name, d in result.diagrams.items()}
    return snap


def gating_snapshot(mode: str, kwargs: dict) -> dict:
    warmup, measured = GATING_BUDGET
    result = run_gating_experiment(
        "twolf", mode=mode, instructions=measured,
        warmup_instructions=warmup, seed=1,
        relog_period_cycles=RELOG_PERIOD, backend="cycle", **kwargs)
    return dataclasses.asdict(result)


def smt_snapshot(policy: str) -> list:
    """The SMT core exactly as ``run_smt_experiment`` wires it, per leg."""
    smt_config = SMTConfig()
    machine = smt_config.machine
    fetch_policy, predictor_factory = _make_policy_and_predictor(
        policy, 3, RELOG_PERIOD)
    seed = 1
    threads = []
    for thread_id, name in enumerate(SMT_PAIR):
        generator = WorkloadGenerator(get_benchmark(name),
                                      seed=seed + thread_id,
                                      thread_id=thread_id)
        engine = FetchEngine(
            generator=generator,
            frontend=build_frontend(machine),
            confidence=build_confidence(machine),
            path_confidence=predictor_factory(),
            wrongpath_seed=seed + 10 + thread_id,
        )
        threads.append(SMTThread(thread_id=thread_id, fetch_engine=engine))
    core = SMTCore(config=smt_config, threads=threads,
                   fetch_policy=fetch_policy)
    legs = []
    for budget in SMT_LEGS:
        stats = core.run(max_total_instructions=budget)
        legs.append({
            "cycles": stats.cycles,
            "threads": [dict(engine_snapshot(t.fetch_engine),
                             stats=dataclasses.asdict(t.stats))
                        for t in core.threads],
        })
    return legs


CASES = {}
for _bench in STATE_BENCHMARKS:
    CASES[f"state/{_bench}"] = (state_snapshot, (_bench,))
for _profile, _bench in ACCURACY_CASES:
    CASES[f"accuracy/{_profile}/{_bench}"] = (accuracy_snapshot,
                                              (_profile, _bench))
for _mode, _kwargs in GATING_CASES:
    CASES[f"gating/{_mode}/twolf"] = (gating_snapshot, (_mode, _kwargs))
for _policy in SMT_POLICIES:
    CASES[f"smt/{_policy}/{'+'.join(SMT_PAIR)}"] = (smt_snapshot, (_policy,))


def snapshot(key: str):
    func, args = CASES[key]
    return _json(func(*args))


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def test_table_covers_every_case(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_cycle_model_matches_pinned_table(expected, key):
    assert snapshot(key) == expected[key]


def write_expected() -> None:
    table = {key: snapshot(key) for key in CASES}
    EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                             + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cycle_pin.py --write")
    write_expected()
