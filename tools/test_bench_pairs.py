"""Smoke test of tools/bench_pairs.py: one pair at --seconds 0, HEAD
against HEAD. Not part of tier-1 (it runs the benchmark twice); run it with

    python3 -m pytest -q tools/test_bench_pairs.py
"""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_one_pair_head_against_head(tmp_path):
    bench = _load_tool()
    # nested directories that do not exist yet are made before the first pair
    out, work = tmp_path / "new" / "out", tmp_path / "new" / "work"
    argv = ["HEAD", "HEAD", "--workload", "finite-tables", "--pairs", "1",
            "--seconds", "0", "--first-seed", "5", "--out", str(out), "--workdir", str(work)]
    assert bench.main(argv) == 0
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=TOOL.parent, check=True,
                         capture_output=True, text=True).stdout.strip()
    doc = json.loads((out / f"BENCH_{sha[:12]}.json").read_text(encoding="utf-8"))
    assert doc["parent"] == doc["change"] == sha
    (run,) = doc["runs"]
    assert (run["workload"], run["first_seed"], run["seconds"]) == ("finite-tables", 5, 0.0)
    assert [(r["pair"], r["side"], r["first"], r["seed"]) for r in run["records"]] == [
        (0, "parent", True, 5), (0, "change", False, 5)
    ]
    for r in run["records"]:
        assert r["correct"] and r["ok_ratio"] == 1.0
        assert r["wall_s"] > 0 and r["speed_factor"] > 0 and r["unscaled_pass_s"] > 0
        assert r["peak_rss_mb"] > 0
    summary = run["summary"]
    assert summary["pairs"] == 1 and summary["change_faster_pairs"] in (0, 1)
    for side in ("parent", "change"):
        wall = summary[side]["wall_s"]
        assert wall["q1"] == wall["median"] == wall["q3"]
    assert list(work.iterdir()) == []  # the extracted trees are removed
