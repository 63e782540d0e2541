"""Smoke test of the benchmark: tiny graphs, the same code paths.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"trials_gate": (1_000, 5_000), "trials_large": (20_000, 10_000)}


def tiny(name: str) -> run.Workload:
    n, m = TINY[name]
    return dataclasses.replace(run.WORKLOADS[name], n=n, m=m, accuracy_ops=5, setup_reps=2)


def test_spec_matches_the_metric_tables():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.LAYER_METRICS)


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric_and_fails_nothing(name, traced):
    result, detail = run.run_workload(tiny(name), seed=3, seconds=0.2, traced=traced)
    json.dumps(result, allow_nan=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if traced else "end_to_end"]
    emitted = {metric: body["unit"] for metric, body in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in section}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["problems"] == {}
    if not traced:
        assert detail["failed_frac"] == 0.0
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [*SPEC["command"], "--workload", "trials_gate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
