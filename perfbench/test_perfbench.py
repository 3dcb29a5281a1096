"""Smoke test of the benchmark harness: every workload at N=8.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return detail["detail"], result


def test_untraced_reports_every_end_to_end_metric():
    detail, result = _result(_run("--smoke", "--workload", "trajectory", "--trace", "0", "--seed", "3"))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["fail_ratio"] == 0.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_match_arithmetic_and_repeat(workload):
    detail, result = _result(_run("--smoke", "--workload", workload, "--trace", "1", "--seed", "3"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert detail["selfcheck_ok"], detail["selfcheck_mismatches"]
    assert detail["counts_repeat"]
    n = workloads.SMOKE_DIM
    brackets = {
        "trajectory": 0,
        "integrability": 1 + n * (n - 1) + 10 * n * (n + 1),
        "check-all": 4 * (3 * n * (n + 1) + 1),
    }
    assert result["metrics"]["hamiltonian.poisson_bracket.calls"]["value"] == brackets[workload]


def test_inputs_depend_only_on_the_seed(tmp_path):
    def lines(seed, where):
        return [c.line.replace(str(where), "") for c in workloads.build("trajectory", seed, str(where))]

    assert lines(5, tmp_path / "a") == lines(5, tmp_path / "b")
    assert lines(5, tmp_path / "a") != lines(6, tmp_path / "a")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
