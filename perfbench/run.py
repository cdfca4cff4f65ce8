"""The gyrokit benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs one workload (a fixed list of `gyro` invocations, see
workloads.py) in a fresh worker process: one caller, a closed loop, no
extra threads. A run makes a fixed number of passes, ``--seconds`` over
the workload's budget per pass (see ``PASS_S``). ``wall_s`` is the sum
over invocations of each one's median time in the run, scaled to the
reference speed (see ``machine_speed``). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced passes,
at least two of each, and reports the per-layer metrics. The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 10
# seconds of --seconds each pass of a workload is given. A run makes
# --seconds / PASS_S passes, so the number of timings behind each median is
# the same for faster and slower code. At --seconds 25 a run takes 21-40 s
# on the baseline machine (2 vCPUs of a Xeon at 2.0 GHz), worker starts,
# reference kernel and imports included; laws-einstein, whose invocations
# are longest and fewest, gets the most time.
PASS_S = {"laws-einstein": 6.0, "laws-mobius": 4.0, "metrization": 5.0,
          "finite-tables": 4.0}
# seconds the worker's reference kernel takes at the reference speed: a fixed
# nominal time near its median on the baseline machine. It sets only the
# scale of wall_s and setup_s, never their ratio between two commits.
REFERENCE_S = 0.030

sys.path.insert(0, str(HERE))
from tracer import EXACT_COUNTS, LAYER_METRICS, SHARE_METRICS  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def time_import(deadline):
    """Seconds for a fresh interpreter to import gyrokit.cli."""
    start = time.perf_counter()
    _run([sys.executable, "-c", "import gyrokit.cli"], deadline)
    return time.perf_counter() - start


def pass_seconds(results):
    """Seconds per pass: each invocation's median time, summed."""
    return sum(statistics.median(times) for times in
               zip(*[[op["wall_s"] for op in r["ops"]] for r in results]))


def machine_speed(results):
    """How slow the machine ran, as a factor: the median time of the
    workers' reference kernel over REFERENCE_S.

    The machine is a few cores of a shared host. Its speed swings with the
    other tenants' load, by up to 1.5 times, in spells that can last a whole
    run, and the reference kernel slows with it. ``wall_s`` and ``setup_s``
    are divided by this factor, so they read as seconds at the reference
    speed and a whole slow run no longer reads as a slower program (see
    README.md for the spreads with and without it).
    """
    return statistics.median(t for r in results for t in r["ref_s"]) / REFERENCE_S


def run_pass(args, traced, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")]
    return json.loads(_run(cmd, deadline).strip().splitlines()[-1])


def run_passes(args, deadline):
    """The run's untraced passes, or untraced/traced pairs.

    An untraced run also times at least SETUP_REPEATS fresh imports of
    gyrokit.cli, spread over the run, a few before each pass.
    """
    n = max(1, int(args.seconds / PASS_S[args.workload]))
    if args.trace:
        rounds, kinds = max(2, n // 2), (False, True)
    else:
        rounds, kinds = n, (False,)
        time_import(deadline)  # untimed: compiles the bytecode once per checkout
    passes, imports = [], []
    start = time.monotonic()
    for i in range(rounds):
        if not args.trace:
            imports += [time_import(deadline) for _ in range(-(-SETUP_REPEATS // rounds))]
        for traced in kinds:
            passes.append((traced, run_pass(args, traced, deadline)))
        per_round = (time.monotonic() - start) / (i + 1)
        if i + 1 < rounds and time.monotonic() + 2 * per_round > deadline:
            print(f"run.py: only {i + 1} of {rounds} rounds fit before the deadline")
            break
    return passes, imports


def check(passes, problems):
    """Gate outcomes across passes; returns (attempted, failed)."""
    attempted = failed = 0
    shown = set()
    for _, result in passes:
        for op in result["ops"]:
            attempted += 1
            if op["failure"] is None:
                continue
            failed += 1
            if op["op"] not in shown:
                shown.add(op["op"])
                tag = "known failure" if op["known"] else "FAILED"
                print(f"{tag}: {op['op']}: {op['failure']}")
                if op["traceback"]:
                    print(op["traceback"], file=sys.stderr)
            if not op["known"]:
                problems.append(f"{op['op']}: {op['failure']}")
    first = passes[0][1]["ops"]
    for traced, result in passes[1:]:
        for a, b in zip(first, result["ops"]):
            if a["digest"] != b["digest"]:
                why = "tracing changed" if traced else "same seed changed"
                problems.append(f"{why} the report of {a['op']}")
    traced = [r["metrics"] for t, r in passes if t]
    for key in EXACT_COUNTS:
        if len({m[key] for m in traced}) > 1:
            problems.append(f"{key} differs between same-seed passes")
    return attempted, failed


def end_to_end(passes, imports, attempted, failed):
    results = [r for _, r in passes]
    speed = machine_speed(results)
    print(f"machine speed factor {speed:.4f}; unscaled: pass {pass_seconds(results):.4f} s, "
          f"import {statistics.median(imports):.4f} s")
    return {
        "wall_s": (pass_seconds(results) / speed, "s"),
        "setup_s": (statistics.median(imports) / speed, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for _, r in passes), "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(passes):
    traced = [r for t, r in passes if t]
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name.startswith("trace."):
            continue
        out[name] = (statistics.median_low(r["metrics"][name] for r in traced), unit)
    untraced = [r for t, r in passes if not t]
    plain = pass_seconds(untraced) / machine_speed(untraced)
    with_trace = pass_seconds(traced) / machine_speed(traced)
    out["trace.untraced_wall_s"] = (plain, "s")
    out["trace.traced_wall_s"] = (with_trace, "s")
    out["trace.overhead_s"] = (with_trace - plain, "s")
    out["trace.spans"] = (traced[0]["metrics"]["trace.spans"], "count")
    for name in SHARE_METRICS:
        print(f"share {name:28s} {out[name][0] / pass_seconds(traced):7.1%} of the traced pass")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="gyrokit benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "gyrokit" / "cli.py").is_file():
        print(f"run.py: no gyrokit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        passes, imports = run_passes(args, deadline)
        problems = []
        attempted, failed = check(passes, problems)
        if args.trace:
            metrics = per_layer(passes)
        else:
            metrics = end_to_end(passes, imports, attempted, failed)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    walls = [r["wall_s"] for _, r in passes]
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} passes, whole-pass "
          f"seconds median {statistics.median(walls):.4f}, max {max(walls):.4f}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted!r} "
          f"(ops_failed {failed} / ops_total {attempted})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
