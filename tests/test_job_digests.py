"""Golden tests pinning ``Job.digest()`` for every experiment kind.

Job digests are the content keys of the result cache and the shard
assignment of campaign plans: a silent change to the canonical job JSON
(field order, parameter defaults entering the identity, float formatting,
hashing recipe) would orphan every cached result and reshuffle every
in-flight campaign without any test noticing.  These digests were
computed once and hardcoded; if one of them changes, the change is either
a deliberate cache-format break (update the constants and say so in the
commit) or a bug.
"""

from __future__ import annotations

import pytest

from repro.runner import (
    Job,
    accuracy_job,
    gating_job,
    registered_experiments,
    single_ipc_job,
    smt_job,
)

#: Representative jobs of every registered experiment kind -> pinned digest.
GOLDEN_DIGESTS = {
    "accuracy-trace-paco": "739218b51d6cc1c65fee0a038fabe64cd818ee2ff4d54252731d44c3802626d5",
    "accuracy-cycle-full": "c2b66d7a45380500c282ae2a6131b15831460c71768b4ad26d6665e63f06634c",
    "accuracy-paco-variant": "cd7253717ff5b5adaa88cca86b2020e7b418477760cd4fa74b3bbd84ad96f0d1",
    "accuracy-mdc": "3b3f36aee451f50343bdff5f98df87fde280ec3202caaa71d20535e5d59f2608",
    "gating-none": "ad0eaff18723da7e6cd2583a111924cb0730f6c671b3c8bdf6d7f6b87fed655f",
    "gating-paco": "993d984794ffd50c85c0b29ef0edbf3484f3ed9b81ba15ed279eb7c9a052a005",
    "gating-count": "d2b1e17fbf5423137b917a4c22dff931208c88d96f85229ee8661f3ae68c75b2",
    "single-ipc": "6e0a924b246d6e4e068a4c28a1ed87a3aadfdd2753dd08f4463ab7f1de763e86",
    "smt-paco": "f61c3d508ecec9d9af880c55dd5a113c44abf83c3e26a7aee96b9897da0650f6",
    "smt-icount": "493e9ee1cc0daa49c2ca86dd19d5d853c6b213a2798efbc5431504b4314c3a7d",
}


def representative_jobs():
    """The pinned jobs, built through the same helpers the drivers use."""
    return {
        "accuracy-trace-paco": accuracy_job(
            "twolf", instructions=40_000, warmup_instructions=20_000,
            backend="trace", instrument="paco"),
        "accuracy-cycle-full": accuracy_job(
            "parser", instructions=30_000, warmup_instructions=20_000),
        "accuracy-paco-variant": accuracy_job(
            "gzip", instructions=30_000, warmup_instructions=15_000,
            paco_variant={"relog_period_cycles": 20_000}),
        "accuracy-mdc": accuracy_job(
            "gcc", instructions=30_000, warmup_instructions=20_000,
            backend="trace", instrument="mdc"),
        "gating-none": gating_job(
            "twolf", mode="none", instructions=40_000,
            warmup_instructions=15_000),
        "gating-paco": gating_job(
            "twolf", mode="paco", instructions=40_000,
            warmup_instructions=15_000, gating_probability=0.2),
        "gating-count": gating_job(
            "bzip2", mode="count", instructions=40_000,
            warmup_instructions=15_000, gate_count=2, jrs_threshold=7),
        "single-ipc": single_ipc_job("gzip", instructions=40_000),
        "smt-paco": smt_job(
            "gap", "mcf", policy="paco", instructions=80_000,
            warmup_instructions=30_000, single_ipcs=[1.5, 1.25]),
        "smt-icount": smt_job(
            "gzip", "vortex", policy="icount", instructions=80_000,
            warmup_instructions=30_000, single_ipcs=[1.0, 2.0],
            jrs_threshold=3),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_digest_is_pinned(name):
    job = representative_jobs()[name]
    assert job.digest() == GOLDEN_DIGESTS[name], (
        f"Job.digest() drifted for {name!r}: cached results and campaign "
        f"shard assignments keyed on the old digest are now orphaned. If "
        f"this is a deliberate cache-format change, update GOLDEN_DIGESTS."
    )


def test_every_standard_kind_has_a_pinned_job():
    """Every kind of the standard library must be digest-pinned (other
    tests may register throwaway kinds; those are exempt)."""
    standard = {"accuracy", "gating", "single-ipc", "smt"}
    assert standard <= set(registered_experiments())
    pinned_kinds = {job.experiment
                    for job in representative_jobs().values()}
    assert standard <= pinned_kinds


def test_digest_ignores_label():
    """The display label must never leak into the content identity."""
    a = Job.make("accuracy", benchmark="twolf", instructions=1000)
    b = Job.make("accuracy", label="renamed", benchmark="twolf",
                 instructions=1000)
    assert a.digest() == b.digest()


def test_digest_depends_on_every_identity_field():
    base = Job.make("accuracy", seed=1, backend="cycle",
                    benchmark="twolf", instructions=1000)
    variants = [
        Job.make("gating", seed=1, backend="cycle",
                 benchmark="twolf", instructions=1000),
        Job.make("accuracy", seed=2, backend="cycle",
                 benchmark="twolf", instructions=1000),
        Job.make("accuracy", seed=1, backend="trace",
                 benchmark="twolf", instructions=1000),
        Job.make("accuracy", seed=1, backend="cycle",
                 benchmark="gzip", instructions=1000),
        Job.make("accuracy", seed=1, backend="cycle",
                 benchmark="twolf", instructions=2000),
    ]
    digests = {base.digest()} | {v.digest() for v in variants}
    assert len(digests) == len(variants) + 1
