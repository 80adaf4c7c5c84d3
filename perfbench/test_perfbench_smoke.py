"""Tiny-budget smoke runs of every workload through the one command."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_smoke_run(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    names = [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_traced_smoke_run():
    completed = _run(ROOT, "--workload", "smt-pairs", "--seed", "3",
                     "--seconds", "1", "--trace", "1")
    result = _result(completed)
    assert result["correct"] and result["failed"] == 0, completed.stdout
    names = [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    metrics = result["metrics"]
    assert metrics["pipeline.fetch_policy.calls"]["value"] > 0
    assert metrics["eval.observers.calls"]["value"] == 0
    assert "trace.overhead" in completed.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "gating-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
