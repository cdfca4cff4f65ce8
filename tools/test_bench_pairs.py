"""Tests of tools/bench_pairs.py: its summary on synthetic records, its
refusals and failed runs on stubbed runs, and a smoke test of one pair at
--seconds 0, HEAD against HEAD. Not part of tier-1 (the smoke test runs
the benchmark twice); run them with

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
    assert summary["sign_test_p_rss"] == summary["sign_test_p_factor"] == 1.0
    assert summary["change_lower_factor_pairs"] in (0, 1)
    for side in ("parent", "change"):
        wall = summary[side]["wall_s"]
        assert wall["q1"] == wall["median"] == wall["q3"]
    assert list(work.iterdir()) == []  # the extracted trees are removed


def test_a_failed_run_keeps_the_pairs_completed_before_it(tmp_path, monkeypatch):
    bench = _load_tool()
    monkeypatch.setattr(bench, "extract", lambda sha, dest: dest.mkdir(parents=True))
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((tree.name, seed))
        if len(runs) == 8:  # the second run of the fourth pair
            raise bench.RunFailed("bench_pairs: run.py exited 1")
        wall = 0.9 if tree.name == "change" else 1.0  # the change wins every pair
        return {"wall_s": wall, "setup_s": 0.1, "speed_factor": 1.0,
                "unscaled_pass_s": wall, "unscaled_import_s": 0.2, "peak_rss_mb": 60.0,
                "ok_ratio": 1.0, "correct": True}

    monkeypatch.setattr(bench, "run_once", run_once)
    argv = ["HEAD", "HEAD", "--workload", "finite-tables", "--pairs", "5", "--seconds", "0",
            "--first-seed", "7", "--out", str(tmp_path)]
    with pytest.raises(SystemExit, match="run.py exited 1\nbench_pairs: stopped after 3 of 5"):
        bench.main(argv)
    assert len(runs) == 8 and runs[-2:] == [("change", 10), ("parent", 10)]
    (path,) = tmp_path.glob("BENCH_*.json")
    (run,) = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert run["error"] == "bench_pairs: run.py exited 1" and run["pairs_requested"] == 5
    # the half of the cut pair is dropped; the three whole pairs are summarized
    assert [(r["pair"], r["side"]) for r in run["records"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change")
    ]
    summary = run["summary"]
    assert summary["pairs"] == 3
    # faster in 3 of 3 pairs, but a failed run shows no gain
    assert summary["change_faster_pairs"] == summary["change_faster_pairs_unscaled"] == 3
    assert not summary["wall_s_claim"]["holds"]


def test_a_failed_first_run_writes_no_file(tmp_path, monkeypatch):
    bench = _load_tool()
    monkeypatch.setattr(bench, "extract", lambda sha, dest: dest.mkdir(parents=True))

    def run_once(tree, workload, seed, seconds):
        raise bench.RunFailed("bench_pairs: run.py exited 2")

    monkeypatch.setattr(bench, "run_once", run_once)
    with pytest.raises(SystemExit, match="stopped after 0 of 2 pairs"):
        bench.main(["HEAD", "HEAD", "--workload", "finite-tables", "--pairs", "2",
                    "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_workload_is_refused_before_any_extraction(monkeypatch, capsys):
    bench = _load_tool()

    def extract(sha, dest):
        raise AssertionError("extracted a tree for an unknown workload")

    monkeypatch.setattr(bench, "extract", extract)
    with pytest.raises(SystemExit) as exc:
        bench.main(["HEAD", "HEAD", "--workload", "finite-table", "--pairs", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'finite-table'" in capsys.readouterr().err


def _record(pair, side, wall_s, unscaled_pass_s, peak_rss_mb=60.0, speed_factor=None):
    if speed_factor is None:
        speed_factor = unscaled_pass_s / wall_s
    return {"pair": pair, "side": side, "wall_s": wall_s, "setup_s": 0.1,
            "speed_factor": speed_factor, "unscaled_pass_s": unscaled_pass_s,
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


def test_summarize_counts_pairs_with_a_lower_speed_factor():
    bench = _load_tool()
    # (parent, change) speed factor per pair, with the same unscaled pass on
    # both sides: a factor that falls with the change makes scaled wall_s
    # read slower though the pass did not move. Lower, lower, lower, a tie,
    # higher
    pairs = [(1.00, 0.70), (0.98, 0.66), (1.02, 0.72), (0.90, 0.90), (0.95, 1.01)]
    records = []
    for i, (parent, change) in enumerate(pairs):
        records += [_record(i, "parent", 1.0 / parent, 1.0, speed_factor=parent),
                    _record(i, "change", 1.0 / change, 1.0, speed_factor=change)]
    summary = bench.summarize(records, len(pairs))
    assert summary["change_lower_factor_pairs"] == 3
    assert summary["sign_test_p_factor"] == 0.625  # 3 of 4 decided pairs: 2 * 5/16
    assert summary["change_faster_pairs_unscaled"] == 0
    assert summary["change_faster_pairs"] == 1  # only the pair whose factor rose
    assert summary["parent"]["speed_factor"]["median"] == 0.98
    assert summary["change"]["speed_factor"]["median"] == pytest.approx(0.72)


@pytest.mark.parametrize("parent, change, better, verdict", [
    # a median 2% worse, runs within 1%: inside the 5% bound
    ([1.00, 1.01, 0.99, 1.00], [1.02, 1.03, 1.01, 1.02], "lower", "within"),
    # 10% worse with a tight spread: past the bound
    ([1.00, 1.01, 0.99, 1.00], [1.10, 1.11, 1.09, 1.10], "lower", "worse"),
    # the same median, but the parent's runs spread 20%: no verdict
    ([0.80, 1.00, 1.20, 1.00], [1.00, 1.01, 0.99, 1.00], "lower", "unresolved"),
    # a wide spread where every change run reads better than every parent run
    ([1.60, 1.40, 1.50, 1.45], [1.00, 1.30, 0.80, 1.10], "lower", "within"),
    # a higher-is-better ratio that falls 2% past its 1% bound
    ([1.0, 1.0, 1.0, 1.0], [0.98, 0.98, 0.98, 0.98], "higher", "worse"),
    ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], "higher", "within"),
])
def test_judge_reads_the_median_against_the_bound_and_the_spread(parent, change, better, verdict):
    bound = 0.01 if better == "higher" else 0.05
    assert _load_tool().judge(parent, change, better, bound)["verdict"] == verdict


def test_judge_signs_the_change_as_worse():
    bench = _load_tool()
    slower = bench.judge([1.0] * 3, [1.1] * 3, "lower", 0.25)
    assert slower["change"] == pytest.approx(0.1) and slower["spread"] == 0.0
    assert slower["verdict"] == "within"
    lower_ratio = bench.judge([1.0] * 3, [0.9] * 3, "higher", 0.01)
    assert lower_ratio["change"] == pytest.approx(0.1) and lower_ratio["verdict"] == "worse"


def _claim_records(pairs):
    """Records of (parent wall_s, change wall_s, parent unscaled, change
    unscaled) pairs."""
    records = []
    for i, (pw, cw, pu, cu) in enumerate(pairs):
        records += [_record(i, "parent", pw, pu), _record(i, "change", cw, cu)]
    return records


def test_summarize_judges_every_end_to_end_metric_of_the_benchmark():
    bench = _load_tool()
    pairs = [(1.0 + 0.01 * i, 0.9 + 0.01 * i, 1.0, 0.9) for i in range(10)]
    summary = bench.summarize(_claim_records(pairs), 10)
    assert set(summary["judgement"]) == {"wall_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    for name in ("setup_s", "peak_rss_mb", "ok_ratio"):
        assert summary["judgement"][name]["verdict"] == "within", name
    wall = summary["judgement"]["wall_s"]
    assert wall["bound"] == 0.25 and wall["verdict"] == "within"
    assert wall["change"] == pytest.approx(-0.1 / 1.045)


@pytest.mark.parametrize("pairs, holds", [
    # faster in 10/10 pairs both ways, the gap 0.1 above the parent's IQR 0.045
    ([(1.0 + 0.01 * i, 0.9 + 0.01 * i, 1.0, 0.9) for i in range(10)], True),
    # faster in 9/10 pairs scaled and unscaled: the claim still holds
    ([(1.0 + 0.01 * i, 0.9 + 0.01 * i, 1.0, 0.9) for i in range(9)]
     + [(1.0, 1.05, 1.0, 1.05)], True),
    # faster in 8/10 pairs unscaled only
    ([(1.0 + 0.01 * i, 0.9 + 0.01 * i, 1.0, 0.9 if i < 8 else 1.1) for i in range(10)], False),
    # faster in every pair, but by less than the parent's IQR of 0.45
    ([(1.0 + 0.1 * i, 0.99 + 0.1 * i, 1.0, 0.9) for i in range(10)], False),
])
def test_summarize_says_whether_a_wall_s_gain_holds(pairs, holds):
    metrics = [("wall_s", "lower", 0.25)]
    summary = _load_tool().summarize(_claim_records(pairs), len(pairs), metrics)
    assert summary["wall_s_claim"] == {"pairs_needed": 9, "holds": holds}
    assert set(summary["judgement"]) == {"wall_s"}
