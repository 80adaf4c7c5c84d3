"""The tracer's accounting on a synthetic nest, and its install/restore
contract on the repro layer table."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.layers import LAYERS, repro_tracer  # noqa: E402
from perfbench.tracer import Layer, Tracer, methods  # noqa: E402


class Leaf:
    def step(self):
        return 1


class Fan:
    """A composite: the same entry name, fanned out to its members."""

    def __init__(self, members):
        self.members = members

    def step(self):
        return sum(member.step() for member in self.members)


class Driver:
    def work(self, fan):
        return fan.step() + fan.step()

    def fail(self, fan):
        fan.step()
        raise ValueError("boom")


def _toy_layers():
    def count_steps(tracer, args, kwargs, result):
        tracer.counts["leaf.steps"] += 1

    return [
        Layer("driver", lambda: methods(Driver, ["work", "fail"])),
        Layer("leaf", lambda: (methods(Leaf, ["step"], {"step": count_steps})
                               + methods(Fan, ["step"], {"step": count_steps})),
              ("steps",)),
    ]


def _ticking_clock():
    """Each reading is one second after the last."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_is_parent_minus_children_on_a_synthetic_nest():
    tracer = Tracer(_toy_layers(), clock=_ticking_clock())   # origin = 0
    fan = Fan([Leaf(), Leaf(), Leaf()])
    with tracer:
        assert Driver().work(fan) == 6
    totals = tracer.layer_totals()
    # work: start 1, fan.step 2..3 and 4..5, end 6.
    assert totals["driver"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert totals["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert (totals["driver"]["total_s"] - totals["driver"]["self_s"]
            == totals["leaf"]["total_s"])
    assert tracer.root_child_s() == 5.0
    rows = {(row["layer"], row["parent"]): row for row in tracer.parent_cells()}
    assert rows[("leaf", "driver")]["calls"] == 2
    assert rows[("driver", "benchmark")]["calls"] == 1


def test_no_entry_point_is_counted_twice():
    tracer = Tracer(_toy_layers(), clock=_ticking_clock())
    with tracer:
        Driver().work(Fan([Leaf(), Leaf()]))
        Leaf().step()                          # a direct call is an entry
    assert tracer.counts["leaf.steps"] == 3
    assert tracer.entry_calls(["Fan.step"]) == 2
    assert tracer.entry_calls(["Leaf.step"]) == 1


def test_wrappers_are_removed_and_the_stack_survives_errors():
    entries = ((Leaf, "step"), (Fan, "step"), (Driver, "work"),
               (Driver, "fail"))
    originals = {entry: vars(entry[0])[entry[1]] for entry in entries}
    tracer = Tracer(_toy_layers())
    with tracer:
        assert all(vars(klass)[name] is not originals[(klass, name)]
                   for klass, name in entries)
        with pytest.raises(ValueError):
            Driver().fail(Fan([Leaf()]))
        with pytest.raises(RuntimeError):
            tracer.install()
        Driver().work(Fan([Leaf()]))
    assert all(vars(klass)[name] is originals[(klass, name)]
               for klass, name in entries)
    assert tracer.layer_totals()["driver"]["calls"] == 2
    assert len(tracer._stack) == 1


def _repro_targets():
    return [(target.owner, target.attr,
             target.owner[target.attr] if isinstance(target.owner, dict)
             else vars(target.owner)[target.attr])
            for layer in LAYERS for target in layer.targets()]


def test_repro_layer_table_is_restored_and_keeps_identity_checks():
    from repro.pathconf.base import PathConfidencePredictor
    from repro.pathconf.paco import PaCoPredictor
    from repro.pathconf.threshold_count import ThresholdAndCountPredictor

    def overrides(cls):
        return cls.on_cycle is not PathConfidencePredictor.on_cycle

    before = _repro_targets()
    flags = (overrides(PaCoPredictor), overrides(ThresholdAndCountPredictor))
    assert len({(id(owner), attr) for owner, attr, _ in before}) == len(before)
    with repro_tracer():
        after_install = _repro_targets()
        assert all(now is not then for (_, _, now), (_, _, then)
                   in zip(after_install, before))
        assert (overrides(PaCoPredictor),
                overrides(ThresholdAndCountPredictor)) == flags
    assert [entry for _, _, entry in _repro_targets()] == \
        [entry for _, _, entry in before]


def test_composite_members_are_not_counted_twice_on_a_real_job():
    from repro.eval.harness import run_accuracy_experiment

    tracer = repro_tracer()
    with tracer:
        run_accuracy_experiment("gzip", instructions=3_000,
                                warmup_instructions=1_000, backend="trace",
                                instrument="full")
    composite = tracer.entry_calls(["CompositePathConfidence.on_cycle"])
    assert composite > 0
    assert tracer.counts["pathconf.on_cycle_calls"] == composite
    assert tracer.entry_calls(["PaCoPredictor.on_cycle",
                               "PaCoPredictor.on_branch_fetch",
                               "MDCProfiler.on_branch_fetch"]) == 0
    assert tracer.counts["workloads.branches_goodpath"] > 0
    assert tracer.layer_totals()["eval.observers"]["calls"] > 0
