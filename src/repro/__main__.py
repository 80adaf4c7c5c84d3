"""``python -m repro`` — run the paper's experiment sweeps from the shell.

Subcommands
-----------
``run <experiment>``
    Run one experiment driver and print the paper-shaped table.  Workers
    and the on-disk result cache come from ``--workers`` /
    ``--cache-dir`` / ``--no-cache``; ``--backend {cycle,trace}``
    overrides the driver's default simulation backend (predictor-level
    experiments default to the fast trace engine; fig10/fig12 default to
    the cycle model and accept ``--backend trace`` for parity-gated
    estimates).
``sweep``
    Run several experiments (default: all of them) sharing one runner and
    one cache, and print a wall-clock summary.
``campaign``
    Plan, execute (shard by shard), inspect and merge a sharded,
    resumable experiment campaign (see :mod:`repro.campaign`).
``cache``
    Inspect (``info``), delete (``clear``) or bound (``prune``) the
    result cache.

``run`` and ``sweep`` accept ``--dry-run`` to print the planned jobs —
experiment kind, parameters digest, cached-or-not — without executing
anything.

Examples::

    python -m repro run table7 --workers 4
    python -m repro run table7 --backend cycle      # ground-truth numbers
    python -m repro run table7 --dry-run            # list jobs, run nothing
    python -m repro run fig12 --quick --workers 2
    python -m repro sweep --experiments table7,fig2 --workers 4
    python -m repro campaign plan --preset paper --campaign-dir paper-camp
    python -m repro campaign run --campaign-dir paper-camp --shard 1/8
    python -m repro campaign status --campaign-dir paper-camp
    python -m repro campaign merge --campaign-dir paper-camp
    python -m repro cache info
    python -m repro cache prune --max-age-days 30 --max-size-mb 512
    python -m repro cache clear
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.backends import UnknownBackendError, validate_backend_name
from repro.pipeline.core import SimulationTruncated
from repro.experiments import (
    ablations,
    fig2_mdc_rates,
    fig3_counter_goodpath,
    fig8_9_reliability,
    fig10_gating,
    fig12_smt,
    table7_rms,
    tableA1_mrt_variants,
)
from repro.runner import (
    ResultCache,
    SweepRunner,
    default_cache_dir,
    resolve_worker_count,
)

#: CLI name -> driver ``main(runner=..., quick=...) -> str``.
EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "fig2": fig2_mdc_rates.main,
    "fig3": fig3_counter_goodpath.main,
    "table7": table7_rms.main,
    "fig8": fig8_9_reliability.main,
    "fig9": fig8_9_reliability.main,
    "fig10": fig10_gating.main,
    "fig12": fig12_smt.main,
    "tableA1": tableA1_mrt_variants.main,
    "ablations": ablations.main,
}


def _worker_count(value: str) -> int:
    """argparse type for ``--workers``: an integer >= 1, rejected loudly."""
    try:
        return resolve_worker_count(value, source="--workers")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _max_jobs(value: str) -> int:
    """argparse type for ``--max-jobs``: an integer >= 1, rejected loudly.

    A zero or negative value would reach ``pending[:max_jobs]`` and
    silently drop jobs (a negative slice drops from the *end*), so the
    flag is validated before any shard state is touched.
    """
    try:
        jobs = int(str(value).strip())
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"invalid --max-jobs value {value!r}: expected an integer >= 1"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"invalid --max-jobs value {value!r}: must be >= 1")
    return jobs


def _backend_arg(value: str) -> str:
    """argparse type for ``--backend``: a registered backend name.

    Validated through the registry rather than ``choices`` so the
    rejection message lists the registered backends.
    """
    try:
        return validate_backend_name(value)
    except UnknownBackendError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="worker processes for the sweep (default: 1, "
                             "must be >= 1)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced benchmark sets and instruction budgets")
    parser.add_argument("--backend", type=_backend_arg, default=None,
                        metavar="BACKEND",
                        help="simulation backend override (default: the "
                             "driver's own default — trace for "
                             "predictor-level experiments, cycle for "
                             "fig10/fig12, which accept trace for "
                             "parity-gated timing estimates)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache directory "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable result memoization")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the planned jobs (experiment, params "
                             "digest, cached-or-not) without executing")


def _driver_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Keyword arguments forwarded to a driver ``main`` (only when set)."""
    kwargs: Dict[str, object] = {}
    if args.backend is not None:
        kwargs["backend"] = args.backend
    return kwargs


def _build_runner(args: argparse.Namespace) -> SweepRunner:
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    return SweepRunner(workers=args.workers, cache=cache)


def _report_truncation(name: str, error: SimulationTruncated) -> None:
    """Readable report for a run that hit its ``max_cycles`` safety net."""
    stats = error.stats
    print(f"error: [{name}] {error}", file=sys.stderr)
    print(f"  instruction budget : {error.max_instructions}", file=sys.stderr)
    print(f"  cycle safety net   : {error.max_cycles} (tripped)",
          file=sys.stderr)
    threads = getattr(stats, "threads", None)
    if threads is not None:     # SMTStats: one line per hardware thread
        print(f"  partial statistics : {error.retired} retired, "
              f"{stats.cycles} cycles, ipc {stats.total_ipc:.3f}",
              file=sys.stderr)
        for index, thread in enumerate(threads):
            print(f"    thread {index}         : "
                  f"{thread.retired_instructions} retired, "
                  f"{thread.fetch_cycles_granted} cycles granted, "
                  f"{thread.badpath_fetched} wrong-path fetched",
                  file=sys.stderr)
    else:
        print(f"  partial statistics : {stats.retired_instructions} retired, "
              f"{stats.cycles} cycles, ipc {stats.ipc:.3f}, "
              f"{stats.gated_cycles} gated, {stats.fetch_stall_cycles} "
              f"fetch-stalled, {stats.flushes} flushes", file=sys.stderr)
    print("  a run that cannot retire its budget usually means a gating or "
          "machine configuration that starves fetch; adjust the "
          "configuration or raise the cycle limit", file=sys.stderr)


def _dry_run_experiments(names: List[str], args: argparse.Namespace,
                         skip_mismatched: bool = False) -> int:
    """List every job the named experiments would execute, run nothing."""
    from repro.campaign.plan import driver_module

    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    total = cached = 0
    for name in names:
        module = driver_module(name)
        try:
            job_list = module.jobs(quick=args.quick, backend=args.backend)
        except ValueError as error:
            if skip_mismatched:
                # Mirrors the executing sweep: a sweep-wide backend
                # override does not fit every driver.
                print(f"skipping {name}: {error}", file=sys.stderr)
                continue
            print(f"error: [{name}] {error}", file=sys.stderr)
            return 2
        print(f"[{name}] {len(job_list)} planned job(s)"
              + ("" if getattr(module, "CAMPAIGN_PLANNABLE", False) else
                 " (static stage only — later stages depend on measured "
                 "results)"))
        for job in job_list:
            if cache is not None:
                state = "cached" if cache.contains(job) else "miss"
            else:
                state = "-"
            print(f"  {job.digest()[:12]}  {state:<6} "
                  f"{job.experiment}[seed={job.seed},backend={job.backend}] "
                  f"{job.params_json}")
            total += 1
            cached += state == "cached"
    suffix = f", {cached} cached" if cache is not None else ""
    print(f"\ndry run: {total} job(s) planned{suffix}; nothing executed",
          file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.dry_run:
        return _dry_run_experiments([args.experiment], args)
    runner = _build_runner(args)
    start = time.perf_counter()
    try:
        EXPERIMENTS[args.experiment](runner=runner, quick=args.quick,
                                     **_driver_kwargs(args))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SimulationTruncated as error:
        _report_truncation(args.experiment, error)
        return 3
    elapsed = time.perf_counter() - start
    print(f"\n[{args.experiment}] {elapsed:.1f}s with {args.workers} "
          f"worker(s){_cache_suffix(runner)}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.experiments:
        names: List[str] = []
        for chunk in args.experiments.split(","):
            name = chunk.strip()
            if name not in EXPERIMENTS:
                print(f"unknown experiment {name!r} "
                      f"(known: {', '.join(sorted(EXPERIMENTS))})",
                      file=sys.stderr)
                return 2
            names.append(name)
    else:
        names = [n for n in EXPERIMENTS if n != "fig9"]  # fig8 covers fig9
    if args.dry_run:
        return _dry_run_experiments(names, args,
                                    skip_mismatched=args.backend is not None)
    runner = _build_runner(args)
    timings: List[tuple] = []
    for name in names:
        start = time.perf_counter()
        try:
            EXPERIMENTS[name](runner=runner, quick=args.quick,
                              **_driver_kwargs(args))
        except ValueError as error:
            if args.backend is not None:
                # A sweep-wide backend override may not fit every driver
                # (downstream drivers can pin a backend): skip those
                # instead of discarding the completed experiments.
                print(f"skipping {name}: {error}", file=sys.stderr)
                continue
            print(f"error: [{name}] {error}", file=sys.stderr)
            return 2
        except SimulationTruncated as error:
            _report_truncation(name, error)
            return 3
        timings.append((name, time.perf_counter() - start))
        print()
    total = sum(elapsed for _, elapsed in timings)
    print("sweep summary", file=sys.stderr)
    for name, elapsed in timings:
        print(f"  {name:<10} {elapsed:8.1f}s", file=sys.stderr)
    print(f"  {'total':<10} {total:8.1f}s with {args.workers} "
          f"worker(s){_cache_suffix(runner)}", file=sys.stderr)
    return 0


def _cache_suffix(runner: SweepRunner) -> str:
    if runner.cache is None:
        return ", cache disabled"
    stats = runner.cache.stats
    return (f", cache {stats.hits} hit(s) / {stats.misses} miss(es) "
            f"at {runner.cache.directory}")


DEFAULT_CAMPAIGN_DIR = Path(".repro-campaign")


def _campaign_error(error: Exception) -> int:
    print(f"error: {error}", file=sys.stderr)
    return 2


def _cmd_campaign_plan(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignPlanError,
        CampaignSpec,
        CampaignSpecError,
        build_plan,
        preset,
        save_plan,
        shard_of,
    )
    from repro.campaign.plan import plan_path

    if args.preset and args.experiments:
        print("error: --preset and --experiments are mutually exclusive "
              "(a preset fixes the experiment suite; override budgets/"
              "seeds/benchmarks instead)", file=sys.stderr)
        return 2
    try:
        if args.preset:
            spec = preset(args.preset)
        elif args.experiments:
            spec = CampaignSpec(
                name=args.name or "custom",
                experiments=tuple(
                    chunk.strip() for chunk in args.experiments.split(",")
                    if chunk.strip()),
            )
        else:
            print("campaign plan needs --preset or --experiments",
                  file=sys.stderr)
            return 2
        overrides = {}
        if args.name:
            overrides["name"] = args.name
        if args.seeds:
            overrides["seeds"] = tuple(
                int(chunk) for chunk in args.seeds.split(","))
        if args.benchmarks:
            overrides["benchmarks"] = tuple(
                chunk.strip() for chunk in args.benchmarks.split(",")
                if chunk.strip())
        if args.instructions is not None:
            overrides["instructions"] = args.instructions
        if args.warmup_instructions is not None:
            overrides["warmup_instructions"] = args.warmup_instructions
        if args.backend is not None:
            overrides["backend"] = args.backend
        if args.quick:
            overrides["quick"] = True
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        plan = build_plan(spec)
    except (CampaignSpecError, CampaignPlanError, ValueError) as error:
        return _campaign_error(error)

    existing = plan_path(args.campaign_dir)
    if existing.is_file() and not args.force:
        from repro.campaign import load_plan
        try:
            previous = load_plan(args.campaign_dir)
        except CampaignPlanError:
            previous = None
        if previous is None or previous.digest() != plan.digest():
            print(f"error: {existing} already holds a different campaign "
                  f"plan; use --force to overwrite (shard journals from "
                  f"the old plan become invalid)", file=sys.stderr)
            return 2
    path = save_plan(plan, args.campaign_dir)

    print(f"campaign   : {plan.spec.name}")
    print(f"plan file  : {path}")
    print(f"plan digest: {plan.digest()[:16]}…")
    print(f"jobs       : {len(plan.planned)} unique")
    for source, count in plan.summary().items():
        print(f"  {source:<20} {count:>6} job(s)")
    if args.shards:
        print(f"shard preview ({args.shards} shards):")
        for index in range(1, args.shards + 1):
            assigned = sum(
                1 for planned in plan.planned
                if shard_of(planned.digest, args.shards) == index)
            print(f"  shard {index}/{args.shards}: {assigned} job(s)")
        print(f"run each with: python -m repro campaign run "
              f"--campaign-dir {args.campaign_dir} --shard i/{args.shards}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignPlanError,
        CampaignShardError,
        load_plan,
        parse_shard,
        run_shard,
    )

    try:
        plan = load_plan(args.campaign_dir)
        index, count = parse_shard(args.shard)
    except (CampaignPlanError, CampaignShardError) as error:
        return _campaign_error(error)
    runner = _build_runner(args)
    try:
        status = run_shard(plan, index, count, args.campaign_dir,
                           runner=runner, max_jobs=args.max_jobs,
                           echo=lambda message: print(message,
                                                      file=sys.stderr))
    except CampaignShardError as error:
        return _campaign_error(error)
    except SimulationTruncated as error:
        _report_truncation(f"campaign shard {index}/{count}", error)
        return 3
    state = "complete" if status.finished else (
        f"stopped with {status.remaining} job(s) pending")
    print(f"shard {index}/{count}: {status.assigned} assigned, "
          f"{status.resumed} resumed, {status.executed} executed in "
          f"{status.elapsed_seconds:.1f}s — {state}"
          f"{_cache_suffix(runner)}")
    if status.result_file is not None:
        print(f"shard result file: {status.result_file}")
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignMergeError,
        CampaignPlanError,
        merge_campaign,
        load_plan,
    )

    try:
        plan = load_plan(args.campaign_dir)
        merged = merge_campaign(plan, args.campaign_dir,
                                output_dir=args.output_dir)
    except CampaignPlanError as error:
        return _campaign_error(error)
    except CampaignMergeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for (experiment, seed), text in merged.texts.items():
        print(f"=== {experiment} (seed {seed}) ===")
        print(text)
        print()
    print(f"merged {len(merged.texts)} report(s) into {merged.output_dir}",
          file=sys.stderr)
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignPlanError, campaign_status, load_plan

    try:
        plan = load_plan(args.campaign_dir)
    except CampaignPlanError as error:
        return _campaign_error(error)
    status = campaign_status(plan, args.campaign_dir,
                             echo=lambda message: print(message,
                                                        file=sys.stderr))
    print(f"campaign   : {plan.spec.name}")
    print(f"plan digest: {plan.digest()[:16]}…")
    print(f"jobs       : {status.completed_jobs}/{status.total_jobs} "
          f"complete across {status.started_shards} started shard(s)")
    if status.mixed_shard_counts:
        print("warning: this directory holds journals from more than one "
              "--shard i/N partitioning; per-shard numbers below cannot "
              "be summed", file=sys.stderr)
    if not status.shards:
        print("shards     : none started yet")
    for shard in status.shards:
        if shard.finished and shard.has_result_file:
            marker = "✓"
        elif shard.finished:
            marker = "journal complete, no result file — re-run to finalize"
        elif shard.has_result_file:
            marker = ("stale — the code changed since this shard ran; "
                      "re-run it")
        else:
            marker = "…"
        print(f"  shard {shard.shard_index}/{shard.shard_count}: "
              f"{shard.completed}/{shard.assigned} job(s) {marker}")
        if shard.foreign:
            print(f"warning: shard {shard.shard_index}/{shard.shard_count} "
                  f"journal holds {shard.foreign} entr"
                  f"{'y' if shard.foreign == 1 else 'ies'} this plan does "
                  f"not assign — state from a different plan shares this "
                  f"directory; those entries are excluded from the counts",
                  file=sys.stderr)
    if status.merged_files:
        print(f"merged     : {len(status.merged_files)} report(s)")
        for path in status.merged_files:
            print(f"  {path}")
    else:
        print("merged     : not yet")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "plan": _cmd_campaign_plan,
        "run": _cmd_campaign_run,
        "merge": _cmd_campaign_merge,
        "status": _cmd_campaign_status,
    }
    return handlers[args.campaign_command](args)


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    if args.action == "prune":
        if args.max_age_days is None and args.max_size_mb is None:
            print("cache prune needs --max-age-days and/or --max-size-mb",
                  file=sys.stderr)
            return 2
        stats = cache.prune(
            max_age_seconds=(args.max_age_days * 86_400.0
                             if args.max_age_days is not None else None),
            max_total_bytes=(int(args.max_size_mb * 1024 * 1024)
                             if args.max_size_mb is not None else None),
        )
        print(f"pruned {stats.removed} entr{'y' if stats.removed == 1 else 'ies'} "
              f"({stats.bytes_freed / 1024:.1f} KiB) from {cache.directory}; "
              f"{stats.remaining} left "
              f"({stats.remaining_bytes / 1024:.1f} KiB)")
        return 0
    entries = len(cache)
    size = cache.size_bytes()
    print(f"cache directory : {cache.directory}")
    print(f"entries         : {entries}")
    print(f"size            : {size / 1024:.1f} KiB")
    print(f"code version    : {cache.version[:16]}…")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures as parallel, "
                    "cached sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_runner_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run several experiments with one shared runner")
    sweep_parser.add_argument("--experiments", default="",
                              help="comma-separated experiment names "
                                   "(default: all)")
    _add_runner_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="plan / run / merge a sharded, resumable experiment campaign")
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command",
                                                  required=True)

    plan_parser = campaign_sub.add_parser(
        "plan", help="expand a campaign spec into campaign.json")
    plan_parser.add_argument("--preset", choices=("paper", "ci"),
                             default=None,
                             help="start from a shipped campaign preset")
    plan_parser.add_argument("--experiments", default="",
                             help="comma-separated experiment names "
                                  "(alternative to --preset)")
    plan_parser.add_argument("--name", default="",
                             help="campaign name (default: preset name or "
                                  "'custom')")
    plan_parser.add_argument("--seeds", default="",
                             help="comma-separated seeds (default: 1)")
    plan_parser.add_argument("--benchmarks", default="",
                             help="comma-separated benchmark subset "
                                  "(default: each driver's own set)")
    plan_parser.add_argument("--instructions", type=int, default=None,
                             help="instruction budget override per job")
    plan_parser.add_argument("--warmup-instructions", type=int,
                             default=None,
                             help="warmup budget override per job")
    plan_parser.add_argument("--backend", type=_backend_arg,
                             default=None, metavar="BACKEND",
                             help="simulation backend override")
    plan_parser.add_argument("--quick", action="store_true",
                             help="plan the drivers' quick configurations")
    plan_parser.add_argument("--shards", type=int, default=0,
                             help="preview the job split across N shards")
    plan_parser.add_argument("--campaign-dir", type=Path,
                             default=DEFAULT_CAMPAIGN_DIR,
                             help=f"campaign directory "
                                  f"(default: {DEFAULT_CAMPAIGN_DIR})")
    plan_parser.add_argument("--force", action="store_true",
                             help="overwrite a differing existing plan")
    plan_parser.set_defaults(handler=_cmd_campaign)

    campaign_run_parser = campaign_sub.add_parser(
        "run", help="execute (or resume) one shard of a planned campaign")
    campaign_run_parser.add_argument("--campaign-dir", type=Path,
                                     default=DEFAULT_CAMPAIGN_DIR)
    campaign_run_parser.add_argument("--shard", required=True,
                                     help="shard coordinate i/N, "
                                          "e.g. --shard 2/4")
    campaign_run_parser.add_argument("--max-jobs", type=_max_jobs,
                                     default=None,
                                     help="execute at most this many "
                                          "pending jobs, then stop "
                                          "(journal keeps the progress)")
    campaign_run_parser.add_argument("--workers", type=_worker_count,
                                     default=1,
                                     help="worker processes (default: 1)")
    campaign_run_parser.add_argument("--cache-dir", type=Path, default=None,
                                     help="result cache directory")
    campaign_run_parser.add_argument("--no-cache", action="store_true",
                                     help="disable result memoization")
    campaign_run_parser.set_defaults(handler=_cmd_campaign)

    campaign_merge_parser = campaign_sub.add_parser(
        "merge", help="validate shard coverage and aggregate the reports")
    campaign_merge_parser.add_argument("--campaign-dir", type=Path,
                                       default=DEFAULT_CAMPAIGN_DIR)
    campaign_merge_parser.add_argument("--output-dir", type=Path,
                                       default=None,
                                       help="where to write the merged "
                                            "reports (default: "
                                            "<campaign-dir>/merged)")
    campaign_merge_parser.set_defaults(handler=_cmd_campaign)

    campaign_status_parser = campaign_sub.add_parser(
        "status", help="show per-shard progress and merge state")
    campaign_status_parser.add_argument("--campaign-dir", type=Path,
                                        default=DEFAULT_CAMPAIGN_DIR)
    campaign_status_parser.set_defaults(handler=_cmd_campaign)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, prune or clear the result cache")
    cache_parser.add_argument("action", choices=("info", "clear", "prune"),
                              nargs="?", default="info")
    cache_parser.add_argument("--cache-dir", type=Path, default=None,
                              help=f"cache directory "
                                   f"(default: {default_cache_dir()})")
    cache_parser.add_argument("--max-age-days", type=float, default=None,
                              help="prune: drop entries older than this")
    cache_parser.add_argument("--max-size-mb", type=float, default=None,
                              help="prune: shrink the cache to this total "
                                   "size, dropping oldest entries first")
    cache_parser.set_defaults(handler=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
