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

The result is appended to ``BENCH_<change-sha>.json`` in ``--out`` (default:
the current directory), so every set of pairs run for one change, on any
workload, stays in its file. Each record holds one run: pair, side, whether
it ran first, seed, ``wall_s``, ``setup_s``, the machine speed factor, the
unscaled pass and import seconds, ``peak_rss_mb``, ``ok_ratio`` and the
benchmark's ``correct`` flag. The summary gives each side's median and
quartiles per metric, the number of pairs in which the change was faster
by ``wall_s`` (divided by the speed factor) and by the unscaled pass, the
number in which it had the lower ``peak_rss_mb``, and an exact two-sided
sign-test p-value for each count, with tied pairs dropped.
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


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run in ``tree``; its metrics as a flat dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
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


def summarize(records, pairs):
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
    ):
        value = {(r["pair"], r["side"]): r[metric] for r in records}
        wins = sum(value[(i, "change")] < value[(i, "parent")] for i in range(pairs))
        losses = sum(value[(i, "change")] > value[(i, "parent")] for i in range(pairs))
        out[count] = wins
        out[p] = sign_test_p(wins, losses)
    parent, change = out["parent"]["wall_s"], out["change"]["wall_s"]
    out["wall_s_median_gap"] = parent["median"] - change["median"]
    out["parent_wall_s_iqr"] = parent["q3"] - parent["q1"]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--workload", required=True)
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
        records = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                row = run_once(trees[side], args.workload, seed, args.seconds)
                records.append({"pair": i, "side": side, "first": position == 0,
                                "seed": seed, **row})
                print(f"pair {i} seed {seed} {side:6s} wall_s {row['wall_s']:.4f} "
                      f"factor {row['speed_factor']:.4f} unscaled {row['unscaled_pass_s']:.4f} "
                      f"rss {row['peak_rss_mb']:.2f}", file=sys.stderr)
    finally:
        shutil.rmtree(work)

    path = out_dir / f"BENCH_{shas['change'][:12]}.json"
    doc = {"parent": shas["parent"], "change": shas["change"], "runs": []}
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))
        if (old.get("parent"), old.get("change")) == (doc["parent"], doc["change"]):
            doc = old
    summary = summarize(records, args.pairs)
    doc["runs"].append({
        "workload": args.workload,
        "first_seed": args.first_seed,
        "seconds": args.seconds,
        "records": records,
        "summary": summary,
    })
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload}: wall_s median {summary['parent']['wall_s']['median']:.4f} -> "
          f"{summary['change']['wall_s']['median']:.4f}, change faster in "
          f"{summary['change_faster_pairs']}/{args.pairs} scaled "
          f"(p {summary['sign_test_p']:.3g}) and "
          f"{summary['change_faster_pairs_unscaled']}/{args.pairs} unscaled "
          f"(p {summary['sign_test_p_unscaled']:.3g}); peak_rss_mb median "
          f"{summary['parent']['peak_rss_mb']['median']:.2f} -> "
          f"{summary['change']['peak_rss_mb']['median']:.2f}, change lower in "
          f"{summary['change_lower_rss_pairs']}/{args.pairs} "
          f"(p {summary['sign_test_p_rss']:.3g}); wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
