"""Pin of the text every fused code generator emits.

``tests/data/fused_sources.json`` holds the sha256 of the generated
source of every single-thread step shape (the six member and cycle-work
flags under no gate, the count gate and the PaCo gate) and of every
two-thread SMT loop shape with its member's companions.  The sources are
only generated here, never compiled.  A refactor of the generators that
claims to leave some shape's code alone proves it by leaving its hash
alone; a deliberate change regenerates the table::

    PYTHONPATH=src python tests/test_fused_sources.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.backends.fused import (
    _build_smt_companions,
    _build_smt_source,
    _build_step_source,
    _plan_targets,
)

EXPECTED_PATH = Path(__file__).parent / "data" / "fused_sources.json"

#: (six flags, gate) per single-thread shape, keyed like the compiled
#: steps' filenames.
STEP_SHAPES = {
    "".join("1" if flag else "0" for flag in flags)
    + ("" if gate is None else "-" + gate): (flags, gate)
    for flags in itertools.product([False, True], repeat=6)
    for gate in (None, "count", "paco")
}

#: (member, arbitration) per SMT loop shape.
SMT_SHAPES = (("tc", "icount"), ("tc", "count"), ("paco", "icount"),
              ("paco", "paco"))


def _sha(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def step_hashes() -> dict:
    return {tag: _sha(_build_step_source(*flags, gate))
            for tag, (flags, gate) in STEP_SHAPES.items()}


def smt_hashes() -> dict:
    hashes = {f"{key}-{arbitration}": _sha(_build_smt_source(key,
                                                             arbitration))
              for key, arbitration in SMT_SHAPES}
    for key in {key for key, _ in SMT_SHAPES}:
        hashes[f"{key}-companions"] = _sha("".join(
            _build_smt_companions(key)))
    return hashes


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def test_single_thread_step_sources_are_pinned(expected):
    assert step_hashes() == expected["single"]


def test_smt_loop_sources_are_pinned(expected):
    assert smt_hashes() == expected["smt"]


def test_every_plan_delivery_site_has_both_arms():
    """A step that carries a delivery plan delivers through
    ``record_runs`` only in a site's ``dv_plan is None`` arm: a call
    outside one would write a diagram behind its step-local columns, and
    an arm without one would drop that site's generic delivery.  The
    hashes alone would let a deliberate regeneration lose a site."""
    planned = 0
    for tag, (flags, gate) in STEP_SHAPES.items():
        has_paco, has_static, has_pbm, has_tc = flags[:4]
        if _plan_targets(has_paco, has_static, has_pbm, has_tc,
                         gate) is None:
            continue
        planned += 1
        lines = [line.strip()
                 for line in _build_step_source(*flags, gate).splitlines()]
        calls = lines.count("observer.record_runs(events)")
        assert calls, tag
        assert calls == lines.count("if dv_plan is None:"), tag
    assert planned == 60


def write_expected() -> None:
    EXPECTED_PATH.write_text(json.dumps(
        {"single": step_hashes(), "smt": smt_hashes()}, indent=1,
        sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_fused_sources.py --write")
    write_expected()
