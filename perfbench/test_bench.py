"""The benchmark's own test, kept out of the tier-1 suite because it runs
every workload. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

Every workload runs at a reduced sample count on two seeds other than 42.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import KNOWN_FAILURE, WORKLOADS  # noqa: E402

SEEDS = (7, 2024)
SCALE = 0.02
KNOWN_OP = "subgyrogroups --model table:z24"


def _last_json(cmd, cwd=ROOT):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(workload, seed, trace=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", str(SCALE)]
    return _last_json(cmd + (["--trace"] if trace else []))


def _bench(workload, seed, trace):
    return _last_json([sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_only_the_known_op_fails_on_other_seeds(workload):
    for seed in SEEDS:
        ops = _worker(workload, seed)["ops"]
        assert len(ops) == len(WORKLOADS[workload])
        failed = [(op["op"], op["failure"]) for op in ops if op["failure"]]
        if workload == "finite-tables":
            assert len(failed) == 1 and failed[0][0] == KNOWN_OP
            assert KNOWN_FAILURE in failed[0][1]
        else:
            assert failed == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_is_neutral_and_counts_repeat(workload):
    seed = SEEDS[0]
    plain = _worker(workload, seed)
    first, second = _worker(workload, seed, trace=True), _worker(workload, seed, trace=True)
    digests = [op["digest"] for op in plain["ops"]]
    assert [op["digest"] for op in first["ops"]] == digests
    assert [op["digest"] for op in second["ops"]] == digests
    for key in EXACT_COUNTS + ("cli.invocations",):
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["cli.invocations"] == len(WORKLOADS[workload])


def test_stress_lands_on_einstein_not_mobius():
    einstein = _worker("laws-einstein", SEEDS[1], trace=True)["metrics"]
    mobius = _worker("laws-mobius", SEEDS[1], trace=True)["metrics"]
    assert einstein["ddarith.stress_ratio"] > 0.05
    assert mobius["ddarith.stress_ratio"] < einstein["ddarith.stress_ratio"] / 2
    g4 = einstein["ddarith.stressed.axioms.G4_loop"] / (3 * int(100_000 * SCALE))
    assert 0.2 < g4 < 0.5  # about a third of the G4_loop samples


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench("finite-tables", SEEDS[0], trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == result["attempted"] // len(WORKLOADS["finite-tables"])
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws-mobius", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
