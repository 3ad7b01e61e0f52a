"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload once, traced, on a prefix of its task list, and checks
that results match the reference and that the trace counts are consistent.
Takes about a minute on 2 vCPU.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The shortest prefix that still reaches each workload's characteristic layer:
# the sweep list starts with the cheaper concave config, and task 51 of the
# oracle list is its first n = 4 game.
PREFIX = {"batch-small": 1, "sweep-configs": 1, "planner-n10": 1, "oracle-n4": 51}
SOLVE_WORKLOADS = ("batch-small", "sweep-configs", "planner-n10")


def run_bench(workload: str, trace: int, tasks: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tasks", str(tasks)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run(workload):
    result = run_bench(workload, trace=1, tasks=PREFIX[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * PREFIX[workload]  # one plain and one traced pass
    m = values(result)
    assert set(m) == {spec["name"] for spec in SPEC["per_layer"]}
    if workload in SOLVE_WORKLOADS:
        assert m["equilibrium.welfare_max_equilibrium.calls"] >= 1
        assert m["equilibrium.contribution_fixed_point.calls"] == 0
    else:
        assert m["equilibrium.brute_force_equilibria.calls"] == PREFIX[workload]
        assert m["equilibrium.contribution_fixed_point.calls"] > 0
    for template in ("construct_collaborative", "construct_partially_collaborative"):
        assert m[f"equilibrium.{template}.accepted"] <= m[f"equilibrium.{template}.calls"]
    assert m["equilibrium.verify_nash.rejected"] <= m["equilibrium.verify_nash.calls"]


def test_untraced_run_reports_end_to_end_metrics():
    result = run_bench("oracle-n4", trace=0, tasks=3)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    m = values(result)
    assert set(m) == {spec["name"] for spec in SPEC["end_to_end"]}
    assert all(v > 0 for v in m.values())


def test_reference_check_catches_a_wrong_answer():
    sys.path.insert(0, str(BENCH))
    from workloads import matches

    ref = {"records": [{"classification": "Independent", "contributors": [0, 7],
                        "welfare_sum": -34.3872992468}], "sha256": "a"}
    same = json.loads(json.dumps(ref))
    same["sha256"] = "b"  # the artifact hash does not gate
    assert matches(same, ref)
    close = json.loads(json.dumps(ref))
    close["records"][0]["welfare_sum"] *= 1 + 1e-11
    assert matches(close, ref)
    far = json.loads(json.dumps(ref))
    far["records"][0]["welfare_sum"] *= 1 + 1e-8
    assert not matches(far, ref)
    moved = json.loads(json.dumps(ref))
    moved["records"][0]["contributors"] = [0, 8]
    assert not matches(moved, ref)
    assert not matches({"records": []}, ref)
