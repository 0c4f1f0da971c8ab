"""Tests of the benchmark itself: smoke runs, the output checks, the contract.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from clients import VIOLATOR_EVERY, WORKLOADS
from run import ROOT, Runner

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STEPS = VIOLATOR_EVERY + 2  # covers one violator and one audit wait


def short_run(workload, trace=0, flip_at=None):
    return Runner(
        workload, seed=7, seconds=60, trace=trace, max_steps=STEPS,
        warmup=False, flip_at=flip_at,
    ).run()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    result = short_run(workload)["result"]
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= STEPS
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    reported = {name: value["unit"] for name, value in result["metrics"].items()}
    assert reported == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", ["bank_execute", "section7_audited_rw"])
def test_traced_run_reports_every_layer_metric(workload):
    outcome = short_run(workload, trace=1)
    result = outcome["result"]
    assert result["correct"], outcome["info"]
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    reported = {name: value["unit"] for name, value in result["metrics"].items()}
    assert reported == expected
    assert outcome["info"]["attributed"] >= 0.9


@pytest.mark.parametrize(
    "workload, flip_at",
    [(name, at) for name in WORKLOADS for at in (0, VIOLATOR_EVERY - 1)],
)
def test_flipped_expected_verdict_is_a_failure(workload, flip_at):
    result = short_run(workload, flip_at=flip_at)["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_run_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "section7_execute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
