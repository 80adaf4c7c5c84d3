"""The layer table of the ``repro`` package: which entry points the
tracer times for each layer, and which work counts it derives there.

Each layer is named by its module.  The ``pipeline`` cycle model
(``OutOfOrderCore``, ``SMTCore``) is deliberately absent: no campaign
preset runs it.  See ``perfbench/README.md`` for what each layer should
move, on which workload.
"""

from __future__ import annotations

from typing import List

from perfbench.tracer import Layer, Target, Tracer, methods


def _goodpath_block(tracer: Tracer, args, kwargs, result) -> None:
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.counts["workloads.branches_goodpath"] += n


def _wrongpath_block(tracer: Tracer, args, kwargs, result) -> None:
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.counts["workloads.branches_wrongpath"] += n


def _wrongpath_one(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["workloads.branches_wrongpath"] += 1


def _resolve(tracer: Tracer, args, kwargs, result) -> None:
    record, train = args[1], args[2]
    if train and record.is_conditional and record.mispredicted:
        tracer.counts["branch_predictor.cond_mispredicts"] += 1


def _on_cycle(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["pathconf.on_cycle_calls"] += 1


def _record_runs(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["eval.observers.events"] += len(args[1]) // 4


def _session_run(tracer: Tracer, args, kwargs, result) -> None:
    session = args[0]
    tracer.job_objects[id(session)] = session


def _fold_sessions(tracer: Tracer) -> None:
    """Add each finished session's final statistics to the counts."""
    counts = tracer.counts
    for session in tracer.job_objects.values():
        stats = session.stats
        threads = getattr(stats, "threads", None)
        if threads is not None:        # TraceSMTCore: per-thread stats
            counts["backends.wp_slots"] += sum(t.badpath_fetched
                                               for t in threads)
            continue
        counts["backends.wp_episodes"] += stats.flushes
        counts["backends.wp_slots"] += stats.badpath_fetched
        counts["pipeline.gating.gated_cycles"] += stats.gated_cycles


def _cache_get(tracer: Tracer, args, kwargs, result) -> None:
    key = "runner.cache_hits" if result[0] else "runner.cache_misses"
    tracer.counts[key] += 1


def _run_shard(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["campaign.journal_lines"] += result.executed


def _workloads() -> List[Target]:
    from repro.common.rng import DeterministicRng
    from repro.workloads.generator import WorkloadGenerator, WrongPathGenerator
    return (methods(WorkloadGenerator, ["next_branch_block"],
                    {"next_branch_block": _goodpath_block})
            + methods(WrongPathGenerator, ["next_branch_block",
                                           "next_branch_into"],
                      {"next_branch_block": _wrongpath_block,
                       "next_branch_into": _wrongpath_one})
            + methods(DeterministicRng, ["geometric_block",
                                         "geometric_episode"]))


def _branch_predictor() -> List[Target]:
    from repro.branch_predictor.engine import PredictorStateEngine
    return methods(PredictorStateEngine, ["predict_columns", "resolve_record"],
                   {"resolve_record": _resolve})


def _pathconf() -> List[Target]:
    import repro.eval.profiling  # noqa: F401  (MDCProfiler subclass)
    import repro.pathconf  # noqa: F401  (every predictor subclass)
    from repro.pathconf.base import PathConfidencePredictor
    return methods(PathConfidencePredictor,
                   ["on_branch_fetch", "on_branch_resolve",
                    "on_branch_squash", "on_cycle"],
                   {"on_cycle": _on_cycle})


def _fetch() -> List[Target]:
    from repro.pipeline.fetch import FetchEngine
    return methods(FetchEngine, ["predict_from_block", "resolve_record",
                                 "squash_record"])


def _gating() -> List[Target]:
    import repro.pipeline.throttling  # noqa: F401  (adapter subclass)
    from repro.pipeline.gating import GatingPolicy
    return methods(GatingPolicy, ["should_gate"])


def _fetch_policy() -> List[Target]:
    from repro.pipeline.fetch_policy import FetchPolicy
    return methods(FetchPolicy, ["select"])


def _observers() -> List[Target]:
    import repro.eval.observers  # noqa: F401  (the concrete observers)
    from repro.pipeline.core import InstanceObserver
    return methods(InstanceObserver, ["record_runs"],
                   {"record_runs": _record_runs})


def _backends() -> List[Target]:
    import repro.backends  # noqa: F401  (registers every backend)
    from repro.backends.base import SimulationBackend, SimulationSession
    from repro.backends.smt_trace import TraceSMTCore
    return (methods(SimulationBackend, ["build"], span="build")
            + methods(SimulationSession, ["run"], {"run": _session_run},
                      span="run")
            + methods(TraceSMTCore, ["run"], {"run": _session_run},
                      span="run"))


def _harness() -> List[Target]:
    # runner/library.py binds the harness functions at import, so the
    # executors are wrapped where the runner looks them up: the registry.
    from repro.runner import jobs, library  # noqa: F401  (registers kinds)
    registry = jobs._REGISTRY
    return [Target(registry, name, f"executor[{name}]", span="job")
            for name in sorted(registry)]


def _runner() -> List[Target]:
    from repro.runner.cache import ResultCache
    from repro.runner.sweep import SweepRunner
    return (methods(SweepRunner, ["map"])
            + methods(ResultCache, ["get", "put"], {"get": _cache_get}))


def _campaign() -> List[Target]:
    from repro.campaign import merge, plan, shard
    return [Target(plan, "build_plan", "build_plan"),
            Target(shard, "run_shard", "run_shard", _run_shard, span="shard"),
            Target(merge, "merge_campaign", "merge_campaign", span="merge")]


#: The layers in report order, with the work counts each one derives.
LAYERS = (
    Layer("workloads", _workloads, ("branches_goodpath", "branches_wrongpath")),
    Layer("branch_predictor", _branch_predictor, ("cond_mispredicts",)),
    Layer("pathconf", _pathconf, ("on_cycle_calls",)),
    Layer("pipeline.fetch", _fetch),
    Layer("pipeline.gating", _gating, ("gated_cycles",)),
    Layer("pipeline.fetch_policy", _fetch_policy),
    Layer("eval.observers", _observers, ("events",)),
    Layer("backends", _backends, ("wp_episodes", "wp_slots")),
    Layer("eval.harness", _harness),
    Layer("runner", _runner, ("cache_hits", "cache_misses")),
    Layer("campaign", _campaign, ("journal_lines",)),
)


def repro_tracer() -> Tracer:
    """A tracer over :data:`LAYERS` that folds session statistics at the
    end of every job."""
    tracer = Tracer(LAYERS)
    tracer.job_end_hooks.append(_fold_sessions)
    return tracer


def layer_metrics(tracer: Tracer, traced_s: float) -> dict:
    """The per-layer metric values (name -> (value, unit)) of one traced run.

    ``share`` is self time over the traced run's wall time ``traced_s``.
    """
    values = {}
    for name, totals in tracer.layer_totals().items():
        values[f"{name}.calls"] = (totals["calls"], "count")
        values[f"{name}.self_s"] = (totals["self_s"], "s")
        values[f"{name}.share"] = (totals["self_s"] / traced_s, "fraction")
    for key, count in tracer.counts.items():
        values[key] = (count, "count")
    backends = tracer.names.index("backends")
    runs = [label for label, entry in tracer.entries.items()
            if entry[0] == backends and label.endswith(".run")]
    builds = [label for label, entry in tracer.entries.items()
              if entry[0] == backends and label.endswith(".build")]
    values["backends.run_self_s"] = (tracer.entry_time(runs, own=True), "s")
    values["backends.build_calls"] = (tracer.entry_calls(builds), "count")
    values["backends.build_s"] = (tracer.entry_time(builds), "s")
    values["runner.cache_get_s"] = (tracer.entry_time(["ResultCache.get"]), "s")
    values["runner.cache_put_s"] = (tracer.entry_time(["ResultCache.put"]), "s")
    values["campaign.plan_s"] = (tracer.entry_time(["build_plan"]), "s")
    values["campaign.shard_self_s"] = (
        tracer.entry_time(["run_shard"], own=True), "s")
    values["campaign.merge_s"] = (tracer.entry_time(["merge_campaign"]), "s")
    return values
