"""The benchmark's own tests, on the smoke sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def smoke(workload, trace=False, seed=3, **kwargs):
    return run.run_benchmark(workload, seed, 0.5, trace, smoke=True, **kwargs)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert PER_LAYER == run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_and_schema(workload):
    out = smoke(workload)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert out["error_rate"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_exactly(workload):
    first, second = smoke(workload), smoke(workload)
    assert first["counters"] and first["counters"] == second["counters"]
    traced = [smoke(workload, trace=True)["result"]["metrics"] for _ in range(2)]
    counts = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    assert {k: traced[0][k] for k in counts} == {k: traced[1][k] for k in counts}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = smoke(workload, trace=True)["result"]
    assert result["correct"], result
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert (run.WORKDIR / f"trace-{workload}-3.json").is_file()


def test_search_counters_match_the_pinned_instance():
    counters = smoke("search")["counters"]
    assert counters["J(5,2) i=1 nodes"] == 239
    assert counters["J(5,2) i=1 subsets"] == 120


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_expectation_counts_as_failure(workload, tmp_path):
    expected = json.loads((run.HERE / "expected.json").read_text())
    for section in expected.values():
        for key in section:
            section[key] = "corrupted" + section[key]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    out = smoke(workload, expected=path)
    result = out["result"]
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert out["error_rate"] > 0


def test_command_prints_one_json_line_last():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "algebra", "--seed", "5",
         "--seconds", "0.5", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(END_TO_END)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
