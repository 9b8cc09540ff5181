"""Smoke tests of the benchmark harness: every workload at its smoke size.

    python3 -m pytest perfbench

Each run takes a few seconds; timings are not checked, only the shape of the
result, the output checks and the traced run's self-checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    *_, detail, last = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(last)


def test_spec_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run._units(False)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run(workload):
    detail, result = _result(workload, 0)
    assert (result["correct"], result["failed"]) == (True, 0), detail["errors"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run(workload):
    detail, result = _result(workload, 1)
    assert detail["missing_spans"] == [] and detail["trace_ok"]
    assert (result["correct"], result["failed"]) == (True, 0), detail["errors"]
    assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)


def test_fails_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "far-norms", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout == ""
