"""Self-test of the benchmark at its smallest inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that every metric named in
BENCHMARK.json is printed with its unit, that a corrupted output is counted
as failed, that traced counts repeat exactly for one seed, and that the
benchmark refuses to run without the package source.
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTED = (".calls", "monodromy.section_evals", "monodromy.steps_accepted")


def _invoke(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr[-3000:]
    *_, report, result = out.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


_run = functools.lru_cache(maxsize=None)(_invoke)


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_frac"] == 0.0
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    report, result = _run(workload, 1)
    assert result["correct"] and report["absent"] == []
    _assert_metrics(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_counts_as_failed(workload):
    report, result = _run(workload, 0, "--perturb")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert report["fail_frac"] == 1.0


def test_traced_counts_repeat_for_one_seed():
    first = _run("monodromy_loops", 1)[1]["metrics"]
    second = _invoke("monodromy_loops", 1)[1]["metrics"]
    counted = [k for k in first if k.endswith(COUNTED)]
    assert first["monodromy.steps_accepted"]["value"] > 0
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    smooth = first["curve.smoothness.calls"]["value"]
    assert smooth == 2 * first["monodromy.section_evals"]["value"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
