"""Tests for the campaign subsystem: plan, shard, resume, merge, CLI.

The acceptance contract (mirrored from the campaign design notes):

* a 2-shard campaign run of a suite, merged, produces results
  byte-identical to the unsharded run;
* killing a shard mid-run and re-invoking it resumes from the journal
  without re-executing completed jobs;
* ``--preset paper`` plans 100M-instruction trace-backend jobs
  end-to-end.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.campaign import (
    CampaignCoverageError,
    CampaignMergeError,
    CampaignPlan,
    CampaignPlanError,
    CampaignShardError,
    CampaignSpec,
    CampaignSpecError,
    PlannedJob,
    ReplayRunner,
    build_plan,
    campaign_status,
    load_plan,
    merge_campaign,
    preset,
    run_shard,
    save_plan,
    shard_of,
)
from repro.campaign.shard import journal_path, result_path
from repro.experiments import table7_rms
from repro.runner import Job, SweepRunner, register_experiment

# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #

#: Tiny but real campaign: three trace-backend table7 jobs.
MINI_SPEC = CampaignSpec(
    name="mini",
    experiments=("table7",),
    benchmarks=("twolf", "vortex", "gzip"),
    instructions=4_000,
    warmup_instructions=1_000,
    backend="trace",
)


@pytest.fixture()
def mini_plan() -> CampaignPlan:
    return build_plan(MINI_SPEC)


@register_experiment("campaign-probe")
def _probe(value: int, log: str, seed: int = 1) -> int:
    """Test-only kind: logs every execution so resume tests can count."""
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return value * 10 + seed


def probe_plan(log: Path, count: int = 5) -> CampaignPlan:
    """A hand-built plan over the counting probe kind."""
    planned = [
        PlannedJob(
            job=Job.make("campaign-probe", value=i, log=str(log)),
            sources=("probe@seed1",),
        )
        for i in range(count)
    ]
    return CampaignPlan(
        spec=CampaignSpec(name="probe", experiments=("table7",)),
        planned=planned,
        code_version="probe-version",
    )


def executions(log: Path):
    if not log.is_file():
        return []
    return log.read_text(encoding="utf-8").splitlines()


# --------------------------------------------------------------------- #
# spec
# --------------------------------------------------------------------- #


class TestCampaignSpec:
    def test_round_trips_through_json(self):
        spec = MINI_SPEC.validated()
        clone = CampaignSpec.from_mapping(
            json.loads(json.dumps(spec.to_mapping())))
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_rejects_unknown_experiment(self):
        with pytest.raises(CampaignSpecError, match="unknown experiment"):
            CampaignSpec(name="x", experiments=("fig99",)).validated()

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(CampaignSpecError, match="unknown benchmark"):
            CampaignSpec(name="x", experiments=("table7",),
                         benchmarks=("nosuch",)).validated()

    def test_rejects_duplicate_seeds_and_bad_budgets(self):
        with pytest.raises(CampaignSpecError, match="duplicate seeds"):
            CampaignSpec(name="x", experiments=("table7",),
                         seeds=(1, 1)).validated()
        with pytest.raises(CampaignSpecError, match="positive integer"):
            CampaignSpec(name="x", experiments=("table7",),
                         instructions=0).validated()

    def test_presets_validate(self):
        for name in ("paper", "ci"):
            preset(name).validated()

    def test_unknown_preset(self):
        with pytest.raises(CampaignSpecError, match="unknown preset"):
            preset("nightly")


# --------------------------------------------------------------------- #
# planning
# --------------------------------------------------------------------- #


class TestPlanning:
    def test_plan_is_deterministic(self, mini_plan):
        again = build_plan(MINI_SPEC)
        assert again.job_digests() == mini_plan.job_digests()
        assert again.digest() == mini_plan.digest()

    def test_paper_preset_plans_100m_trace_jobs_end_to_end(self):
        plan = build_plan(preset("paper"))
        assert len(plan.planned) > 0
        for planned in plan.planned:
            assert planned.job.backend == "trace"
            assert planned.job.params["instructions"] == 100_000_000
        # Every figure/table driver joins the paper preset uniformly.
        sources = {source.split("@")[0]
                   for planned in plan.planned
                   for source in planned.sources}
        assert sources == {"fig2", "fig3", "table7", "fig8", "fig10",
                           "fig12", "tableA1", "ablations"}
        # table7 and fig8 consume identical paco jobs: planned once,
        # attributed to both.
        shared = [planned for planned in plan.planned
                  if len(planned.sources) > 1]
        assert shared, "expected table7/fig8 to share accuracy jobs"
        assert {"table7@seed1", "fig8@seed1"} <= set(shared[0].sources)

    def test_fig9_is_an_alias_of_fig8(self):
        spec = dataclasses.replace(MINI_SPEC, experiments=("fig8", "fig9"))
        plan = build_plan(spec)
        assert all(source.startswith("fig8@")
                   for planned in plan.planned
                   for source in planned.sources)

    def test_fig12_plans_both_stages_statically(self):
        """SMT-stage job identities no longer embed measured IPCs, so the
        whole two-stage study enumerates at plan time."""
        spec = dataclasses.replace(MINI_SPEC, experiments=("fig12",),
                                   benchmarks=None)
        plan = build_plan(spec)
        kinds = {planned.job.experiment for planned in plan.planned}
        assert kinds == {"single-ipc", "smt"}
        for planned in plan.planned:
            assert planned.job.backend == "trace"
            if planned.job.experiment == "smt":
                assert "single_ipcs" not in planned.job.params
                assert planned.job.params["measure_single_ipcs"] is False

    def test_fig10_plans_on_trace_backend(self):
        spec = dataclasses.replace(MINI_SPEC, experiments=("fig10",),
                                   benchmarks=None)
        plan = build_plan(spec)
        assert all(planned.job.backend == "trace"
                   for planned in plan.planned)

    def test_driver_rejection_fails_at_plan_time(self):
        # fig12 runs fixed pairs; a benchmark-subset spec cannot plan.
        spec = dataclasses.replace(MINI_SPEC, experiments=("fig12",))
        with pytest.raises(CampaignPlanError, match="fixed benchmark pairs"):
            build_plan(spec)

    def test_multiple_seeds_multiply_jobs(self):
        spec = dataclasses.replace(MINI_SPEC, seeds=(1, 2))
        plan = build_plan(spec)
        assert len(plan.planned) == 2 * len(build_plan(MINI_SPEC).planned)


class TestSharding:
    def test_shards_partition_the_plan_exactly(self, mini_plan):
        plan = build_plan(preset("ci"))
        for count in (1, 2, 3, 5):
            seen = []
            for index in range(1, count + 1):
                seen.extend(p.digest for p in plan.shard_jobs(index, count))
            assert sorted(seen) == sorted(plan.job_digests())

    def test_assignment_is_stable_under_job_list_growth(self):
        """Adding an experiment must not move existing jobs across shards."""
        small = build_plan(dataclasses.replace(
            preset("ci"), experiments=("table7",)))
        grown = build_plan(preset("ci"))
        assert set(small.job_digests()) <= set(grown.job_digests())
        for digest in small.job_digests():
            assert shard_of(digest, 4) == shard_of(digest, 4)
        small_shard1 = {p.digest for p in small.shard_jobs(1, 4)}
        grown_shard1 = {p.digest for p in grown.shard_jobs(1, 4)}
        assert small_shard1 <= grown_shard1

    def test_bad_shard_coordinates(self, mini_plan):
        with pytest.raises(CampaignPlanError):
            mini_plan.shard_jobs(0, 2)
        with pytest.raises(CampaignPlanError):
            mini_plan.shard_jobs(3, 2)


class TestPlanFile:
    def test_save_load_round_trip(self, mini_plan, tmp_path):
        save_plan(mini_plan, tmp_path)
        loaded = load_plan(tmp_path)
        assert loaded.digest() == mini_plan.digest()
        assert [p.job for p in loaded.planned] == \
            [p.job for p in mini_plan.planned]
        assert loaded.spec == mini_plan.spec.validated()

    def test_tampered_plan_is_rejected(self, mini_plan, tmp_path):
        path = save_plan(mini_plan, tmp_path)
        mapping = json.loads(path.read_text(encoding="utf-8"))
        mapping["jobs"][0]["seed"] = 99
        path.write_text(json.dumps(mapping), encoding="utf-8")
        with pytest.raises(CampaignPlanError, match="digest mismatch"):
            load_plan(tmp_path)

    def test_missing_plan_has_helpful_error(self, tmp_path):
        with pytest.raises(CampaignPlanError, match="campaign plan"):
            load_plan(tmp_path)


# --------------------------------------------------------------------- #
# shard execution + resume
# --------------------------------------------------------------------- #


class TestShardExecution:
    def test_journal_resume_skips_completed_jobs(self, tmp_path):
        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        first = run_shard(plan, 1, 1, tmp_path / "camp", SweepRunner(),
                          max_jobs=2)
        assert (first.executed, first.finished) == (2, False)
        assert len(executions(log)) == 2

        second = run_shard(plan, 1, 1, tmp_path / "camp", SweepRunner())
        assert second.resumed == 2
        assert second.executed == len(plan.planned) - 2
        assert second.finished
        # No job ran twice.
        assert len(executions(log)) == len(plan.planned)

    def test_journal_entry_without_value_file_is_reexecuted(self, tmp_path):
        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        camp = tmp_path / "camp"
        status = run_shard(plan, 1, 1, camp, SweepRunner())
        assert status.finished
        # Simulate a crash between value write and journal append on one
        # job by deleting its value file: only that job may re-run.
        victim = plan.planned[0].digest
        (camp / "shards" / "values" / f"{victim}.pkl").unlink()
        again = run_shard(plan, 1, 1, camp, SweepRunner())
        assert again.executed == 1
        assert again.finished
        assert len(executions(log)) == len(plan.planned) + 1

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        camp = tmp_path / "camp"
        run_shard(plan, 1, 1, camp, SweepRunner(), max_jobs=2)
        journal = journal_path(camp, 1, 1)
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "interrupted-mid-wr')
        status = run_shard(plan, 1, 1, camp, SweepRunner())
        assert status.resumed == 2
        assert status.finished

    @pytest.mark.parametrize("bad", [0, -1, -5])
    def test_nonpositive_max_jobs_is_rejected(self, tmp_path, bad):
        """A zero/negative slice would silently drop every pending job
        (``pending[:max_jobs]``); the flag must fail loudly instead."""
        log = tmp_path / "probe.log"
        with pytest.raises(CampaignShardError, match="--max-jobs"):
            run_shard(probe_plan(log), 1, 1, tmp_path / "camp",
                      SweepRunner(), max_jobs=bad)
        assert executions(log) == []

    def test_interior_journal_corruption_warns_with_line_number(
            self, tmp_path):
        """Corruption before the final line is not a torn append — the
        operator is told which lines were dropped; the tail stays silent."""
        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        camp = tmp_path / "camp"
        run_shard(plan, 1, 1, camp, SweepRunner(), max_jobs=3)
        journal = journal_path(camp, 1, 1)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"digest": corrupted-by-a-disk-error'
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        messages = []
        status = run_shard(plan, 1, 1, camp, SweepRunner(),
                           echo=messages.append)
        warnings = [m for m in messages if "malformed interior" in m]
        assert len(warnings) == 1
        assert "line 2" in warnings[0]
        assert status.finished
        # The corrupted entry's job re-executed; the torn-tail test above
        # pins that a truncated *final* line stays silent.
        assert len(executions(log)) == len(plan.planned) + 1

    def test_journal_from_a_different_plan_is_rejected(self, tmp_path):
        log = tmp_path / "probe.log"
        camp = tmp_path / "camp"
        run_shard(probe_plan(log), 1, 1, camp, SweepRunner())
        other = probe_plan(log, count=2)   # fewer jobs: journal has extras
        with pytest.raises(CampaignShardError, match="different plan"):
            run_shard(other, 1, 1, camp, SweepRunner())

    def test_results_flow_through_the_sweep_cache(self, tmp_path):
        from repro.runner import ResultCache

        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        cache = ResultCache(tmp_path / "cache", version="v1")
        run_shard(plan, 1, 1, tmp_path / "camp-a", SweepRunner(cache=cache))
        assert len(executions(log)) == len(plan.planned)
        # A second campaign directory, same cache: all hits, no new runs.
        run_shard(plan, 1, 1, tmp_path / "camp-b", SweepRunner(cache=cache))
        assert len(executions(log)) == len(plan.planned)


class TestCodeVersioning:
    """Journals and shard files carry the *executing* code version, so a
    source edit between invocations re-executes stale jobs (like a cache
    miss) and a merge refuses shards from mixed code states."""

    def test_resume_after_code_edit_reexecutes_stale_jobs(
            self, tmp_path, monkeypatch):
        import repro.campaign.shard as shard_mod

        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        camp = tmp_path / "camp"
        monkeypatch.setattr(shard_mod, "code_version", lambda: "v1")
        run_shard(plan, 1, 1, camp, SweepRunner(), max_jobs=2)
        assert len(executions(log)) == 2

        monkeypatch.setattr(shard_mod, "code_version", lambda: "v2")
        status = run_shard(plan, 1, 1, camp, SweepRunner())
        assert status.resumed == 0            # v1 entries are stale
        assert status.executed == len(plan.planned)
        assert status.finished
        assert len(executions(log)) == 2 + len(plan.planned)

    def test_shard_result_records_executing_code_version(
            self, tmp_path, monkeypatch):
        import pickle

        import repro.campaign.shard as shard_mod

        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        monkeypatch.setattr(shard_mod, "code_version", lambda: "v-exec")
        status = run_shard(plan, 1, 1, tmp_path / "camp", SweepRunner())
        with status.result_file.open("rb") as handle:
            payload = pickle.load(handle)
        # The plan-time version is recorded in campaign.json; the shard
        # file must carry what actually executed.
        assert plan.code_version == "probe-version"
        assert payload["code_version"] == "v-exec"

    def test_merge_rejects_mixed_code_version_shards(self, tmp_path,
                                                     monkeypatch):
        import repro.campaign.shard as shard_mod

        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        camp = tmp_path / "camp"
        monkeypatch.setattr(shard_mod, "code_version", lambda: "v1")
        run_shard(plan, 1, 2, camp, SweepRunner())
        monkeypatch.setattr(shard_mod, "code_version", lambda: "v2")
        run_shard(plan, 2, 2, camp, SweepRunner())
        with pytest.raises(CampaignMergeError, match="code version"):
            merge_campaign(plan, camp)


# --------------------------------------------------------------------- #
# merge
# --------------------------------------------------------------------- #


class TestMerge:
    def run_all_shards(self, plan, camp, count):
        for index in range(1, count + 1):
            run_shard(plan, index, count, camp, SweepRunner())

    def test_two_shard_merge_is_byte_identical_to_unsharded(
            self, mini_plan, tmp_path):
        camp = tmp_path / "camp"
        save_plan(mini_plan, camp)
        self.run_all_shards(mini_plan, camp, 2)
        merged = merge_campaign(mini_plan, camp)

        reference = table7_rms.report(
            runner=SweepRunner(), **MINI_SPEC.driver_kwargs(1))
        assert merged.texts[("table7", 1)] == reference
        written = (camp / "merged" / "table7-seed1.txt").read_text(
            encoding="utf-8")
        assert written == reference + "\n"

    def test_shard_counts_do_not_change_the_merge(self, mini_plan,
                                                  tmp_path):
        texts = []
        for count in (1, 3):
            camp = tmp_path / f"camp-{count}"
            self.run_all_shards(mini_plan, camp, count)
            texts.append(
                merge_campaign(mini_plan, camp).texts[("table7", 1)])
        assert texts[0] == texts[1]

    def test_interrupted_then_resumed_campaign_merges_identically(
            self, mini_plan, tmp_path):
        camp = tmp_path / "camp"
        run_shard(mini_plan, 1, 2, camp, SweepRunner(), max_jobs=1)
        run_shard(mini_plan, 1, 2, camp, SweepRunner())      # resume
        run_shard(mini_plan, 2, 2, camp, SweepRunner())
        merged = merge_campaign(mini_plan, camp)
        reference = table7_rms.report(
            runner=SweepRunner(), **MINI_SPEC.driver_kwargs(1))
        assert merged.texts[("table7", 1)] == reference

    def test_missing_shard_fails_coverage(self, mini_plan, tmp_path):
        camp = tmp_path / "camp"
        run_shard(mini_plan, 1, 2, camp, SweepRunner())
        with pytest.raises(CampaignCoverageError, match="incomplete"):
            merge_campaign(mini_plan, camp)

    def test_foreign_plan_shard_is_rejected(self, mini_plan, tmp_path):
        camp = tmp_path / "camp"
        self.run_all_shards(mini_plan, camp, 1)
        other = build_plan(dataclasses.replace(
            MINI_SPEC, benchmarks=("twolf", "vortex")))
        with pytest.raises(CampaignMergeError, match="different campaign"):
            merge_campaign(other, camp)

    def test_overlapping_shards_are_rejected(self, mini_plan, tmp_path):
        import pickle
        import shutil

        camp = tmp_path / "camp"
        self.run_all_shards(mini_plan, camp, 2)
        # Copy shard 1's results into shard 2's file: duplicate coverage.
        path_1, path_2 = (result_path(camp, i, 2) for i in (1, 2))
        with path_1.open("rb") as handle:
            payload_1 = pickle.load(handle)
        with path_2.open("rb") as handle:
            payload_2 = pickle.load(handle)
        payload_2["results"].update(payload_1["results"])
        with path_2.open("wb") as handle:
            pickle.dump(payload_2, handle)
        with pytest.raises(CampaignCoverageError, match="covered by both"):
            merge_campaign(mini_plan, camp)
        del shutil

    def test_replay_runner_refuses_unknown_jobs(self):
        runner = ReplayRunner({})
        with pytest.raises(CampaignCoverageError, match="no result"):
            runner.map([Job.make("accuracy", benchmark="twolf",
                                 instructions=1000)])


# --------------------------------------------------------------------- #
# status
# --------------------------------------------------------------------- #


class TestStatus:
    def test_progress_accounting(self, mini_plan, tmp_path):
        camp = tmp_path / "camp"
        status = campaign_status(mini_plan, camp)
        assert status.shard_count is None
        assert status.completed_jobs == 0

        run_shard(mini_plan, 1, 2, camp, SweepRunner())
        status = campaign_status(mini_plan, camp)
        assert status.shard_count == 2
        assert status.started_shards == 1
        assert status.finished_shards == 1
        assert status.completed_jobs == len(mini_plan.shard_jobs(1, 2))

        run_shard(mini_plan, 2, 2, camp, SweepRunner())
        merge_campaign(mini_plan, camp)
        status = campaign_status(mini_plan, camp)
        assert status.completed_jobs == status.total_jobs
        assert len(status.merged_files) == 1

    def test_mixed_partitionings_are_flagged_not_shadowed(self, mini_plan,
                                                          tmp_path):
        camp = tmp_path / "camp"
        run_shard(mini_plan, 1, 2, camp, SweepRunner())
        run_shard(mini_plan, 1, 4, camp, SweepRunner())   # oops, wrong N
        status = campaign_status(mini_plan, camp)
        assert status.mixed_shard_counts
        assert status.shard_count is None
        assert {(s.shard_index, s.shard_count) for s in status.shards} == \
            {(1, 2), (1, 4)}

    def test_status_counts_only_current_code_version(self, mini_plan,
                                                     tmp_path, monkeypatch):
        """Status must agree with resume: after a source edit, journaled
        results are stale and the shard is no longer complete."""
        import repro.campaign.status as status_mod

        camp = tmp_path / "camp"
        run_shard(mini_plan, 1, 1, camp, SweepRunner())
        assert campaign_status(mini_plan, camp).completed_jobs == \
            len(mini_plan.planned)

        monkeypatch.setattr(status_mod, "code_version", lambda: "edited")
        stale = campaign_status(mini_plan, camp)
        assert stale.completed_jobs == 0
        assert stale.shards[0].has_result_file
        assert not stale.shards[0].finished

    def test_status_never_loads_result_pickles(self, mini_plan, tmp_path):
        camp = tmp_path / "camp"
        run_shard(mini_plan, 1, 1, camp, SweepRunner())
        # Corrupt the shard result pickle: a read-only status query must
        # neither load nor trip over it.
        result_path(camp, 1, 1).write_bytes(b"garbage")
        status = campaign_status(mini_plan, camp)
        assert status.shards[0].has_result_file
        assert status.completed_jobs == status.total_jobs

    def test_foreign_journal_entries_are_flagged_not_counted(
            self, tmp_path):
        """A journal digest the plan does not assign (another plan shared
        the directory) must not inflate ``completed`` or flip a shard to
        finished — it is reported through ``foreign`` instead."""
        import pickle

        from repro.campaign.shard import values_dir
        from repro.runner.cache import code_version

        log = tmp_path / "probe.log"
        plan = probe_plan(log)
        camp = tmp_path / "camp"
        run_shard(plan, 1, 1, camp, SweepRunner(), max_jobs=4)

        digest = "f" * 64
        with journal_path(camp, 1, 1).open("a",
                                           encoding="utf-8") as handle:
            handle.write(json.dumps({"digest": digest, "label": "foreign",
                                     "code_version": code_version()})
                         + "\n")
        (values_dir(camp) / f"{digest}.pkl").write_bytes(pickle.dumps(42))

        status = campaign_status(plan, camp)
        shard = status.shards[0]
        assert shard.foreign == 1
        # 4 of 5 planned jobs ran; the foreign entry must not make it 5.
        assert shard.completed == 4
        assert not shard.finished
        assert status.completed_jobs == 4


# --------------------------------------------------------------------- #
# drivers' jobs() must match what report() executes
# --------------------------------------------------------------------- #


class RecordingRunner(SweepRunner):
    """Executes normally but records every job that passes through."""

    def __init__(self):
        super().__init__(workers=1)
        self.seen = []

    def map(self, jobs):
        self.seen.extend(jobs)
        return super().map(jobs)


@pytest.mark.parametrize("experiment,kwargs", [
    ("fig2", {"benchmarks": ["twolf", "gzip"]}),
    ("fig3", {"benchmarks": ["twolf"], "quick": True}),
    ("table7", {"benchmarks": ["twolf", "vortex"]}),
    ("fig8", {"benchmarks": ["twolf", "gzip"]}),
    ("tableA1", {"benchmarks": ["twolf"]}),
    ("ablations", {"benchmarks": ["gzip"], "quick": True}),
    ("fig10", {"benchmarks": ["twolf", "gzip"], "quick": True}),
    # trace backend keeps the two-stage SMT study fast enough for a test.
    ("fig12", {"quick": True, "backend": "trace"}),
])
def test_driver_jobs_match_report_execution(experiment, kwargs):
    """The campaign contract: ``jobs()`` enumerates exactly the jobs
    ``report()`` hands to its runner (same digests), so a plan covers a
    merge and nothing more."""
    from repro.campaign.plan import driver_module

    module = driver_module(experiment)
    budgets = dict(instructions=3_000, warmup_instructions=1_000, **kwargs)
    recorder = RecordingRunner()
    module.report(runner=recorder, **budgets)
    executed = {job.digest() for job in recorder.seen}
    planned = {job.digest() for job in module.jobs(**budgets)}
    assert executed == planned


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestCampaignCli:
    def plan_args(self, camp):
        return ["campaign", "plan", "--experiments", "table7",
                "--benchmarks", "twolf,vortex,gzip",
                "--instructions", "4000", "--warmup-instructions", "1000",
                "--backend", "trace", "--campaign-dir", str(camp)]

    def test_plan_run_merge_round_trip(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        assert cli.main(self.plan_args(camp)) == 0
        assert cli.main(["campaign", "run", "--campaign-dir", str(camp),
                         "--shard", "1/2", "--no-cache"]) == 0
        assert cli.main(["campaign", "run", "--campaign-dir", str(camp),
                         "--shard", "2/2", "--no-cache"]) == 0
        assert cli.main(["campaign", "status",
                         "--campaign-dir", str(camp)]) == 0
        assert cli.main(["campaign", "merge",
                         "--campaign-dir", str(camp)]) == 0
        output = capsys.readouterr().out
        assert "Table 7" in output
        reference = table7_rms.report(
            runner=SweepRunner(), **MINI_SPEC.driver_kwargs(1))
        written = (camp / "merged" / "table7-seed1.txt").read_text(
            encoding="utf-8")
        assert written == reference + "\n"

    def test_merge_without_all_shards_exits_1(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        cli.main(self.plan_args(camp))
        cli.main(["campaign", "run", "--campaign-dir", str(camp),
                  "--shard", "1/2", "--no-cache"])
        capsys.readouterr()
        assert cli.main(["campaign", "merge",
                         "--campaign-dir", str(camp)]) == 1

    def test_replan_differing_spec_requires_force(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        assert cli.main(self.plan_args(camp)) == 0
        different = self.plan_args(camp)
        different[different.index("twolf,vortex,gzip")] = "twolf,vortex"
        capsys.readouterr()
        assert cli.main(different) == 2
        assert "--force" in capsys.readouterr().err
        assert cli.main(different + ["--force"]) == 0

    def test_preset_and_experiments_are_mutually_exclusive(self, tmp_path,
                                                           capsys):
        code = cli.main(["campaign", "plan", "--preset", "ci",
                         "--experiments", "table7",
                         "--campaign-dir", str(tmp_path / "camp")])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fig12_campaign_plans(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        code = cli.main(["campaign", "plan", "--experiments", "fig12",
                         "--backend", "trace", "--campaign-dir", str(camp)])
        assert code == 0
        assert "fig12" in capsys.readouterr().out
        plan = load_plan(camp)
        assert {p.job.experiment for p in plan.planned} == \
            {"single-ipc", "smt"}

    def test_status_warns_about_foreign_journal_entries(self, tmp_path,
                                                        capsys):
        import pickle

        from repro.campaign.shard import values_dir
        from repro.runner.cache import code_version

        camp = tmp_path / "camp"
        assert cli.main(self.plan_args(camp)) == 0
        assert cli.main(["campaign", "run", "--campaign-dir", str(camp),
                         "--shard", "1/1", "--no-cache"]) == 0
        digest = "f" * 64
        with journal_path(camp, 1, 1).open("a",
                                           encoding="utf-8") as handle:
            handle.write(json.dumps({"digest": digest, "label": "foreign",
                                     "code_version": code_version()})
                         + "\n")
        (values_dir(camp) / f"{digest}.pkl").write_bytes(pickle.dumps(42))
        capsys.readouterr()
        assert cli.main(["campaign", "status",
                         "--campaign-dir", str(camp)]) == 0
        captured = capsys.readouterr()
        assert "does not assign" in captured.err
        # The foreign entry is excluded from the completed counts.
        plan = load_plan(camp)
        assert f"{len(plan.planned)}/{len(plan.planned)} " in captured.out

    def test_bad_shard_coordinate_exits_2(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        cli.main(self.plan_args(camp))
        capsys.readouterr()
        assert cli.main(["campaign", "run", "--campaign-dir", str(camp),
                         "--shard", "3/2"]) == 2


class TestDryRun:
    def test_run_dry_run_lists_jobs_without_executing(self, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "table7", "--dry-run",
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert "[table7] 12 planned job(s)" in captured.out
        assert "miss" in captured.out
        assert "nothing executed" in captured.err
        # Nothing was simulated and nothing was cached.
        assert not (tmp_path / "cache").exists()

    def test_dry_run_marks_cached_jobs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli.main(["run", "fig2", "--quick",
                         "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "fig2", "--quick", "--dry-run",
                         "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "cached" in out and "miss" not in out

    def test_sweep_dry_run_covers_fig12_fully(self, capsys):
        assert cli.main(["sweep", "--experiments", "fig12", "--dry-run",
                         "--no-cache", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "static stage only" not in out
        assert "single-ipc" in out
        assert "smt[" in out

    def test_dry_run_fig10_on_trace_lists_trace_jobs(self, capsys):
        assert cli.main(["run", "fig10", "--dry-run", "--no-cache",
                         "--quick", "--backend", "trace"]) == 0
        out = capsys.readouterr().out
        assert "backend=trace" in out
        assert "backend=cycle" not in out
