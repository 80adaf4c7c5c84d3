"""Regression tests for the sweep-infrastructure hardening fixes.

Covers the three operational bugs fixed alongside the predictor state
engine: ``ResultCache.prune`` racing with concurrent deleters, the CLI
dumping a raw traceback on :class:`SimulationTruncated`, and invalid
worker counts reaching the multiprocessing pool unvalidated — plus the
SMT cores, which used to return partial statistics silently when their
cycle safety net tripped.
"""

import os
import time

import pytest

import repro.__main__ as cli
from repro.pipeline.core import CoreStats, SimulationTruncated
from repro.runner import ResultCache, SweepRunner, resolve_worker_count
from repro.runner.jobs import Job


def _job(tag):
    return Job.make("accuracy", benchmark=f"bench-{tag}", instructions=1_000,
                    warmup_instructions=0)


def _fill(cache, count):
    paths = []
    for i in range(count):
        job = _job(i)
        cache.put(job, {"value": i, "blob": "x" * 512})
        paths.append(cache._path(cache.key(job)))
    return paths


class TestPruneConcurrentDeletion:
    def test_prune_survives_entries_vanishing_mid_scan(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        paths = _fill(cache, 6)
        victims = set(paths[::2])

        original_entries = ResultCache.entries

        def racing_entries(self):
            # A concurrent `cache clear` wins the race for half the
            # entries: they are listed, then deleted before stat/unlink.
            for path in original_entries(self):
                if path in victims:
                    path.unlink(missing_ok=True)
                yield path

        ResultCache.entries = racing_entries
        try:
            stats = cache.prune(max_age_seconds=0.0)
        finally:
            ResultCache.entries = original_entries
        # The survivors were older than the (zero) age budget: all pruned,
        # the vanished ones skipped without crashing.
        assert stats.removed == 3
        assert stats.remaining == 0

    def test_final_accounting_tolerates_vanishing_entries(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        _fill(cache, 4)

        original_entries = ResultCache.entries
        deleted = []

        def racing_entries(self):
            # One entry is listed but deleted before it can be stat'ed —
            # both size_bytes() and prune()'s final accounting must skip it.
            for path in original_entries(self):
                if not deleted:
                    deleted.append(path)
                    path.unlink(missing_ok=True)
                yield path

        ResultCache.entries = racing_entries
        try:
            assert cache.size_bytes() >= 0  # must not raise
            stats = cache.prune()
        finally:
            ResultCache.entries = original_entries
        assert deleted
        assert stats.remaining <= 3

    def test_size_eviction_is_oldest_first_with_deterministic_ties(
            self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        paths = _fill(cache, 5)
        now = time.time()
        # Two distinct age groups, identical mtimes inside each group.
        for path in paths[:3]:
            os.utime(path, (now - 1_000, now - 1_000))
        for path in paths[3:]:
            os.utime(path, (now, now))
        entry_size = paths[0].stat().st_size
        budget = entry_size * 2  # keep two entries
        stats = cache.prune(max_total_bytes=budget, now=now)
        assert stats.removed == 3
        survivors = {p for p in paths if p.exists()}
        assert survivors == set(paths[3:])
        # Tie-break inside the old group: lexicographically smallest names
        # go first, so two pruners racing would evict in the same order.
        evicted_old = sorted(p.name for p in paths[:3])
        assert all(not p.exists() for p in paths[:3])
        assert evicted_old == sorted(evicted_old)

    def test_reference_timestamp_taken_once(self, tmp_path):
        cache = ResultCache(tmp_path, version="v")
        paths = _fill(cache, 2)
        cutoff = time.time() - 100.0
        os.utime(paths[0], (cutoff - 50, cutoff - 50))
        os.utime(paths[1], (cutoff + 50, cutoff + 50))
        stats = cache.prune(max_age_seconds=100.0, now=time.time())
        assert stats.removed == 1
        assert not paths[0].exists() and paths[1].exists()


class TestCliTruncationReport:
    def _truncating_driver(self, **_kwargs):
        stats = CoreStats(cycles=500, retired_instructions=123)
        raise SimulationTruncated(stats, max_instructions=10_000,
                                  max_cycles=500)

    def test_run_reports_partial_stats_and_exits_nonzero(
            self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig2", self._truncating_driver)
        code = cli.main(["run", "fig2", "--no-cache",
                         "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.err
        assert "truncated" in captured.err
        assert "123" in captured.err           # partial retired count
        assert "500 (tripped)" in captured.err  # the limit that fired

    def test_sweep_reports_truncation(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(cli.EXPERIMENTS, "fig2", self._truncating_driver)
        code = cli.main(["sweep", "--experiments", "fig2", "--no-cache",
                         "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "truncated" in captured.err


class TestSMTTruncation:
    """Both SMT cores raise instead of returning partial statistics."""

    def _engines(self, spec):
        from repro.backends.cycle import build_confidence, build_frontend
        from repro.pathconf.threshold_count import ThresholdAndCountPredictor
        from repro.pipeline.config import SMTConfig
        from repro.pipeline.fetch import FetchEngine
        from repro.workloads.generator import WorkloadGenerator
        machine = SMTConfig().machine
        return [FetchEngine(
            generator=WorkloadGenerator(spec, seed=1 + tid, thread_id=tid),
            frontend=build_frontend(machine),
            confidence=build_confidence(machine),
            path_confidence=ThresholdAndCountPredictor(threshold=3),
            wrongpath_seed=11 + tid) for tid in range(2)]

    def _assert_truncated(self, core):
        with pytest.raises(SimulationTruncated) as excinfo:
            core.run(max_total_instructions=10_000_000, max_cycles=500)
        error = excinfo.value
        assert error.stats is core.stats
        assert error.stats.cycles >= 500
        assert error.max_cycles == 500
        assert error.retired == core.stats.total_retired
        assert f"only {error.retired} of 10000000" in str(error)

    def test_trace_smt_core_raises(self, tiny_spec):
        from repro.backends.smt_trace import build_trace_smt_core
        self._assert_truncated(build_trace_smt_core(self._engines(tiny_spec)))

    def test_cycle_smt_core_raises(self, tiny_spec):
        from repro.pipeline.config import SMTConfig
        from repro.pipeline.smt import SMTCore, SMTThread
        threads = [SMTThread(thread_id=tid, fetch_engine=engine)
                   for tid, engine in enumerate(self._engines(tiny_spec))]
        self._assert_truncated(SMTCore(config=SMTConfig(), threads=threads))

    def test_cli_reports_smt_partial_stats(self, monkeypatch, capsys,
                                           tmp_path):
        from repro.pipeline.smt import SMTStats, ThreadStats

        def truncating_driver(**_kwargs):
            stats = SMTStats(cycles=800, threads=[
                ThreadStats(retired_instructions=70, fetch_cycles_granted=300),
                ThreadStats(retired_instructions=53, fetch_cycles_granted=420),
            ])
            raise SimulationTruncated(stats, max_instructions=10_000,
                                      max_cycles=800)

        monkeypatch.setitem(cli.EXPERIMENTS, "fig12", truncating_driver)
        code = cli.main(["run", "fig12", "--no-cache",
                         "--cache-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "only 123 of 10000" in err       # both threads' retirements
        assert "123 retired, 800 cycles" in err
        assert "thread 0" in err and "70 retired" in err
        assert "thread 1" in err and "53 retired" in err
        assert "800 (tripped)" in err


class TestWorkerValidation:
    def test_resolve_worker_count_accepts_ints_and_strings(self):
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count("4") == 4
        assert resolve_worker_count(" 2 ") == 2

    @pytest.mark.parametrize("value", [0, -1, "0", "-3", "two", "", None, 1.5])
    def test_resolve_worker_count_rejects_invalid(self, value):
        with pytest.raises(ValueError, match="worker|integer"):
            resolve_worker_count(value)

    def test_error_names_the_source_knob(self):
        with pytest.raises(ValueError, match="REPRO_BENCH_WORKERS"):
            resolve_worker_count("0", source="REPRO_BENCH_WORKERS")

    def test_sweep_runner_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="worker"):
            SweepRunner(workers=0)
        with pytest.raises(ValueError, match="worker"):
            SweepRunner(workers=-2)

    def test_cli_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "fig2", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestBlockSizeFlagRemoved:
    """The trace block size is fixed at ``DEFAULT_TRACE_BLOCK``; a stale
    ``--block-size`` must fail loudly rather than be silently ignored."""

    @pytest.mark.parametrize("argv", [
        ["run", "fig2", "--block-size", "64"],
        ["campaign", "run", "--campaign-dir", "camp", "--shard", "1/1",
         "--block-size", "64"],
    ], ids=["run", "campaign-run"])
    def test_cli_rejects_block_size_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "--block-size" in capsys.readouterr().err


class TestMaxJobsValidation:
    """``campaign run --max-jobs`` must reject values that would slice
    pending jobs away silently (``pending[:0]`` runs nothing and
    ``pending[:-1]`` drops from the end)."""

    @pytest.mark.parametrize("value", ["0", "-1", "nope", ""])
    def test_cli_rejects_nonpositive_max_jobs(self, value, tmp_path,
                                              capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["campaign", "run",
                      "--campaign-dir", str(tmp_path / "camp"),
                      "--max-jobs", value])
        assert excinfo.value.code == 2
        assert "--max-jobs" in capsys.readouterr().err

    def test_run_shard_rejects_nonpositive_max_jobs(self, tmp_path):
        """Belt-and-braces: the library layer validates too, so embedders
        that bypass argparse get the same loud error."""
        from repro.campaign import (CampaignPlan, CampaignShardError,
                                    CampaignSpec, PlannedJob, run_shard)
        plan = CampaignPlan(
            spec=CampaignSpec(name="probe", experiments=("table7",)),
            planned=[PlannedJob(job=_job(0), sources=("probe@seed1",))],
            code_version="probe-version",
        )
        with pytest.raises(CampaignShardError, match="--max-jobs"):
            run_shard(plan, 1, 1, tmp_path / "camp", SweepRunner(),
                      max_jobs=0)
