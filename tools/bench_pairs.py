"""Alternating parent/change benchmark pairs.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py PARENT CHANGE --workload finite-tables --pairs 10 \
        --first-seed 201

PARENT and CHANGE are git revisions of this repository. Both are extracted
with ``git archive`` under a scratch directory (``--workdir``, default a new
temporary directory), so each side runs from a clean tree of its committed
files. Pair i runs ``perfbench/run.py --workload W --seed FIRST+i --seconds S
--trace 0`` once in each tree, the parent first on even pairs and the change
first on odd ones, so a drift in machine speed does not favour one side.

``--workload`` must be one that BENCHMARK.json lists; any other name is
refused before a tree is extracted.

The result is appended to ``BENCH_<change-sha>.json`` in ``--out`` (default:
the current directory), so every set of pairs run for one change, on any
workload, stays in its file. When a run fails, the pairs completed before
it are still written, with their summary, the number of pairs asked for
(``pairs_requested``) and the failed run's message (``error``), and the
tool then exits non-zero; a claimed gain never holds on such a run. Each record holds one run: pair, side, whether
it ran first, seed, ``wall_s``, ``setup_s``, the machine speed factor, the
unscaled pass and import seconds, ``peak_rss_mb``, ``ok_ratio`` and the
benchmark's ``correct`` flag. The summary gives each side's median and
quartiles per metric, the number of pairs in which the change was faster
by ``wall_s`` (divided by the speed factor) and by the unscaled pass, the
number in which it had the lower ``peak_rss_mb``, the number in which its
speed factor was lower (the factor is timed after the ops, so a count far
from half shows that it moved with the code), and an exact two-sided
sign-test p-value for each count, with tied pairs dropped.

It also judges every end-to-end metric of ``BENCHMARK.json`` against its
bound (``judgement``): the change of the median, as a fraction of the
parent's median and signed so that positive is worse, is ``within`` or
``worse`` than the bound; where the run-to-run spread (the larger of the
two sides' interquartile ranges, as the same fraction) exceeds the bound,
it is ``unresolved``, unless every run of the change reads better than
every run of the parent. For ``wall_s`` it says whether a claimed gain
holds (``wall_s_claim``): the change faster in at least nine tenths of the
pairs by both the scaled and the unscaled measure, ties counting for
neither, and the median gap above the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
METRICS = ("wall_s", "setup_s", "speed_factor", "unscaled_pass_s", "unscaled_import_s",
           "peak_rss_mb", "ok_ratio")
# run.py's stdout line with the factor that divides wall_s and setup_s
SPEED_LINE = re.compile(
    r"machine speed factor ([\d.]+); unscaled: pass ([\d.]+) s, import ([\d.]+) s"
)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(sha, dest):
    """The committed files of ``sha`` in a fresh directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero."""


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run in ``tree``; its metrics as a flat dict.
    Raises RunFailed when the run exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                        f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    speed = next(m for m in map(SPEED_LINE.search, lines) if m)
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(speed_factor=float(speed[1]), unscaled_pass_s=float(speed[2]),
               unscaled_import_s=float(speed[3]), correct=result["correct"])
    return row


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    under even odds; 1.0 when no pair was decided."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def benchmark():
    """The parsed BENCHMARK.json of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end_metrics():
    """``(name, better, bound)`` of each end-to-end metric of BENCHMARK.json."""
    return [(m["name"], m["better"], m["bound"]) for m in benchmark()["end_to_end"]]


def judge(parent, change, better, bound):
    """The verdict on one end-to-end metric from each side's runs: the
    median change as a fraction of the parent's median, positive when worse,
    the spread as the same fraction, and ``within``, ``worse`` or
    ``unresolved``."""
    sign = 1.0 if better == "lower" else -1.0
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    scale = abs(pm) or 1.0
    worse = sign * (cm - pm) / scale
    spread = max(p3 - p1, c3 - c1) / scale
    if all(sign * (c - p) < 0 for c in change for p in parent):
        verdict = "within"  # every run of the change reads better
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "worse" if worse > bound else "within"
    return {"parent_median": pm, "change_median": cm, "change": worse, "spread": spread,
            "bound": bound, "verdict": verdict}


def summarize(records, pairs, metrics=None):
    """The summary of ``records``; ``metrics`` are the end-to-end metrics
    judged, ``(name, better, bound)``, by default BENCHMARK.json's."""
    out = {"pairs": pairs}
    for side in SIDES:
        rows = [r for r in records if r["side"] == side]
        out[side] = {}
        for name in METRICS:
            q1, med, q3 = quartiles([r[name] for r in rows])
            out[side][name] = {"median": med, "q1": q1, "q3": q3}
    for metric, count, p in (
        ("wall_s", "change_faster_pairs", "sign_test_p"),
        ("unscaled_pass_s", "change_faster_pairs_unscaled", "sign_test_p_unscaled"),
        ("peak_rss_mb", "change_lower_rss_pairs", "sign_test_p_rss"),
        ("speed_factor", "change_lower_factor_pairs", "sign_test_p_factor"),
    ):
        value = {(r["pair"], r["side"]): r[metric] for r in records}
        wins = sum(value[(i, "change")] < value[(i, "parent")] for i in range(pairs))
        losses = sum(value[(i, "change")] > value[(i, "parent")] for i in range(pairs))
        out[count] = wins
        out[p] = sign_test_p(wins, losses)
    parent, change = out["parent"]["wall_s"], out["change"]["wall_s"]
    out["wall_s_median_gap"] = parent["median"] - change["median"]
    out["parent_wall_s_iqr"] = parent["q3"] - parent["q1"]
    out["judgement"] = {
        name: judge([r[name] for r in records if r["side"] == "parent"],
                    [r[name] for r in records if r["side"] == "change"], better, bound)
        for name, better, bound in (end_to_end_metrics() if metrics is None else metrics)
    }
    need = math.ceil(0.9 * pairs)
    out["wall_s_claim"] = {
        "pairs_needed": need,
        "holds": (out["change_faster_pairs"] >= need
                  and out["change_faster_pairs_unscaled"] >= need
                  and out["wall_s_median_gap"] > out["parent_wall_s_iqr"]),
    }
    return out


def run_pairs(trees, workload, pairs, first_seed, seconds):
    """The records of every pair completed, and the message of the run that
    stopped the pairs, or None. A pair that a failed run cut short leaves
    no record."""
    records = []
    for i in range(pairs):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = []
        for position, side in enumerate(order):
            try:
                row = run_once(trees[side], workload, seed, seconds)
            except RunFailed as exc:
                return records, str(exc)
            pair.append({"pair": i, "side": side, "first": position == 0, "seed": seed, **row})
            print(f"pair {i} seed {seed} {side:6s} wall_s {row['wall_s']:.4f} "
                  f"factor {row['speed_factor']:.4f} unscaled {row['unscaled_pass_s']:.4f} "
                  f"rss {row['peak_rss_mb']:.2f}", file=sys.stderr)
        records += pair
    return records, None


def write_run(out_dir, shas, args, records, error):
    """Append the run of the completed pairs ``records`` to the change's
    BENCH file and print its summary; ``error`` is the message of the run
    that stopped the pairs early, or None."""
    pairs = len(records) // 2
    path = out_dir / f"BENCH_{shas['change'][:12]}.json"
    doc = {"parent": shas["parent"], "change": shas["change"], "runs": []}
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))
        if (old.get("parent"), old.get("change")) == (doc["parent"], doc["change"]):
            doc = old
    summary = summarize(records, pairs)
    run = {
        "workload": args.workload,
        "first_seed": args.first_seed,
        "seconds": args.seconds,
        "records": records,
        "summary": summary,
    }
    if error is not None:
        # a run of the change or the parent failed, so no gain is shown
        summary["wall_s_claim"]["holds"] = False
        run.update(pairs_requested=args.pairs, error=error)
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload}: wall_s median {summary['parent']['wall_s']['median']:.4f} -> "
          f"{summary['change']['wall_s']['median']:.4f}, change faster in "
          f"{summary['change_faster_pairs']}/{pairs} scaled "
          f"(p {summary['sign_test_p']:.3g}) and "
          f"{summary['change_faster_pairs_unscaled']}/{pairs} unscaled "
          f"(p {summary['sign_test_p_unscaled']:.3g}); peak_rss_mb median "
          f"{summary['parent']['peak_rss_mb']['median']:.2f} -> "
          f"{summary['change']['peak_rss_mb']['median']:.2f}, change lower in "
          f"{summary['change_lower_rss_pairs']}/{pairs} "
          f"(p {summary['sign_test_p_rss']:.3g}); speed factor median "
          f"{summary['parent']['speed_factor']['median']:.4f} -> "
          f"{summary['change']['speed_factor']['median']:.4f}, change lower in "
          f"{summary['change_lower_factor_pairs']}/{pairs} "
          f"(p {summary['sign_test_p_factor']:.3g}); wrote {path}")
    for name, j in summary["judgement"].items():
        print(f"{args.workload}: {name} median {j['parent_median']:.4g} -> "
              f"{j['change_median']:.4g}, {100 * j['change']:+.2f}% worse, spread "
              f"{100 * j['spread']:.2f}%, bound {100 * j['bound']:.0f}%: {j['verdict']}")
    claim = summary["wall_s_claim"]
    print(f"{args.workload}: a wall_s gain {'holds' if claim['holds'] else 'does not hold'} "
          f"(faster in {claim['pairs_needed']}/{pairs} pairs needed scaled and unscaled, "
          f"and a median gap above the parent's IQR)")


def main(argv=None):
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in benchmark()["workloads"]])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--first-seed", type=int, default=1000,
                   help="seed of the first pair; pair i uses FIRST + i (default 1000)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="run.py --seconds for every run (default 25)")
    p.add_argument("--workdir", default=None,
                   help="scratch directory for the extracted trees (default: a new temp dir)")
    p.add_argument("--out", default=".", help="directory of the BENCH_<sha>.json file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    # made before the first pair, so a missing directory cannot fail the
    # final write and lose every pair already run
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workdir is not None:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_", dir=args.workdir))
    try:
        trees = {side: work / side for side in SIDES}
        for side in SIDES:
            extract(shas[side], trees[side])
        records, error = run_pairs(trees, args.workload, args.pairs, args.first_seed,
                                   args.seconds)
    finally:
        shutil.rmtree(work)

    # the pairs completed before a failed run are kept, with their summary
    pairs = len(records) // 2
    if pairs:
        write_run(out_dir, shas, args, records, error)
    if error is not None:
        raise SystemExit(f"{error}\nbench_pairs: stopped after {pairs} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
