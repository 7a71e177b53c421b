"""Smoke test of the benchmark itself: one tiny run per workload.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about two minutes: a sandwich run always completes two cycles.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench_out" / f"result-{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    return result, record


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def test_untraced_run_prints_every_end_to_end_metric(runs):
    _, (result, record), _ = runs
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["env"]
    assert Path(env["anisowidth_file"]).resolve().is_relative_to(ROOT / "src")
    assert env["nproc"] >= 1 and env["blas_threads"] == str(env["nproc"])


def test_traced_run_prints_every_layer_metric(runs):
    _, _, (result, _) = runs
    assert result["correct"] and result["failed"] == 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_self_times_add_up_to_no_more_than_wall_time(runs):
    _, _, (result, _) = runs
    metrics = result["metrics"]
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]["value"]


def test_output_digest_repeats_across_processes(runs):
    _, (_, timed), (_, traced) = runs
    digests = {timed["run"]["digest"], traced["untraced"]["digest"], traced["traced"]["digest"]}
    assert len(digests) == 1
