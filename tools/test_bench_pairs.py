"""Tests of tools/bench_pairs.py: its summary on synthetic records, and a
smoke test of one pair at --seconds 0, HEAD against HEAD. Not part of
tier-1 (the smoke test runs the benchmark twice); run them with

    python3 -m pytest -q tools/test_bench_pairs.py
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

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
    assert summary["change_faster_pairs_unscaled"] in (0, 1)
    assert summary["change_lower_rss_pairs"] in (0, 1)
    assert summary["sign_test_p"] == summary["sign_test_p_unscaled"] == 1.0
    assert summary["sign_test_p_rss"] == 1.0
    for side in ("parent", "change"):
        wall = summary[side]["wall_s"]
        assert wall["q1"] == wall["median"] == wall["q3"]
    assert list(work.iterdir()) == []  # the extracted trees are removed


def _record(pair, side, wall_s, unscaled_pass_s, peak_rss_mb=60.0):
    return {"pair": pair, "side": side, "wall_s": wall_s, "setup_s": 0.1,
            "speed_factor": unscaled_pass_s / wall_s, "unscaled_pass_s": unscaled_pass_s,
            "unscaled_import_s": 0.2, "peak_rss_mb": peak_rss_mb, "ok_ratio": 1.0}


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (3, 0, 0.25),
    (5, 5, 1.0), (0, 0, 1.0),
])
def test_sign_test_p_exact_values(wins, losses, p):
    assert _load_tool().sign_test_p(wins, losses) == p


def test_summarize_counts_scaled_and_unscaled_pairs():
    bench = _load_tool()
    # (parent wall_s, change wall_s, parent unscaled, change unscaled) per pair:
    # faster scaled but slower unscaled, faster on both, a scaled tie, an
    # unscaled tie
    pairs = [(1.0, 0.9, 1.0, 1.1), (1.0, 0.8, 1.0, 0.8), (1.0, 1.0, 1.0, 0.9),
             (1.0, 0.7, 1.0, 1.0)]
    records = []
    for i, (pw, cw, pu, cu) in enumerate(pairs):
        records += [_record(i, "parent", pw, pu), _record(i, "change", cw, cu)]
    summary = bench.summarize(records, len(pairs))
    assert summary["change_faster_pairs"] == 3
    assert summary["sign_test_p"] == 0.25  # 3 of 3 decided pairs
    assert summary["change_faster_pairs_unscaled"] == 2
    assert summary["sign_test_p_unscaled"] == 1.0  # 2 of 3 decided pairs
    assert summary["parent"]["unscaled_pass_s"]["median"] == 1.0
    assert summary["change"]["unscaled_pass_s"]["median"] == pytest.approx(0.95)
    assert summary["wall_s_median_gap"] == pytest.approx(0.15)
    assert summary["parent_wall_s_iqr"] == 0.0


def test_summarize_counts_pairs_with_lower_peak_rss():
    bench = _load_tool()
    # (parent, change) peak_rss_mb per pair: lower, lower, a tie, higher,
    # lower, a tie
    pairs = [(100.3, 83.6), (100.2, 83.7), (61.0, 61.0), (54.4, 54.5), (82.1, 73.1),
             (70.0, 70.0)]
    records = []
    for i, (parent, change) in enumerate(pairs):
        records += [_record(i, "parent", 1.0, 1.0, parent), _record(i, "change", 1.0, 1.0, change)]
    summary = bench.summarize(records, len(pairs))
    assert summary["change_lower_rss_pairs"] == 3
    assert summary["sign_test_p_rss"] == 0.625  # 3 of 4 decided pairs: 2 * 5/16
    assert summary["change_faster_pairs"] == summary["change_faster_pairs_unscaled"] == 0
    assert summary["sign_test_p"] == 1.0  # every wall_s pair tied
    assert summary["parent"]["peak_rss_mb"]["median"] == pytest.approx(76.05)
    assert summary["change"]["peak_rss_mb"]["median"] == pytest.approx(71.55)
