"""Run one pass of a workload in this (fresh) process and print the result.

A pass runs every op of the workload in order, in this one process,
through ``gyrokit.cli.main``; the pass wall time covers exactly that loop.
Each op's outcome is gated after the timed loop. After each op, outside
its timing, a fixed reference kernel (``reference_seconds``) runs once per
started second the op took, so the run can tell how fast the machine was
while the ops ran. The last line of stdout is one JSON object:

    {"wall_s": ..., "ref_s": [...], "rss_mb": ..., "ops": [...], "metrics": {...} | null}

Usage: python3 perfbench/worker.py --workload NAME --seed N
                                  [--scale F] [--trace] [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from tracer import Tracer  # noqa: E402
from workloads import OUT, WORKLOADS, gate, normalized  # noqa: E402

_REF_A, _REF_B = np.random.default_rng(0).random((2, 100_000, 3))


def reference_seconds():
    """Seconds one run of a fixed kernel takes: numpy arithmetic on 1e5 x 3
    arrays, as in the float models, and a pure-Python dict loop, as in the
    table code, in about equal parts. It calls nothing in gyrokit, so no
    change to gyrokit moves it; only the speed of the machine does."""
    a, b = _REF_A, _REF_B
    start = time.perf_counter()
    for _ in range(2):
        d = 1.0 + 2.0 * np.einsum("ij,ij->i", a, b)[:, None]
        c = (a * d + b) / (1.0 + d)
        float(np.sqrt((c * c).sum(axis=1)).max())
    acc = {}
    for i in range(60_000):
        acc[i % 97] = acc.get(i % 97, 0) + i * 3 // 7
    return time.perf_counter() - start


def _invoke(call, argv):
    """Run one invocation; an escaped exception is recorded, not raised."""
    try:
        return call(argv), None, None
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code, None, None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}", traceback.format_exc()


def run_pass(workload, seed, scale=1.0, tracer=None):
    import gyrokit.cli

    ops = WORKLOADS[workload]
    main = gyrokit.cli.main
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="pass-", dir=OUT) as tmp:
        outs = [str(Path(tmp) / f"op{i}.json") for i in range(len(ops))]
        argvs = [op.command(seed, out, scale) for op, out in zip(ops, outs)]
        raw, walls, refs = [], [], []
        reference_seconds()  # untimed warm-up
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            for op, argv in zip(ops, argvs):
                call = main if tracer is None else (
                    lambda a, s=op.suite: tracer.call(f"cli:{s}", main, a))
                start = time.perf_counter()
                raw.append(_invoke(call, argv))
                walls.append(time.perf_counter() - start)
                refs += [reference_seconds() for _ in range(math.ceil(walls[-1]))]
        records = []
        for op, out, (code, error, tb) in zip(ops, outs, raw):
            text = Path(out).read_text(encoding="utf-8") if Path(out).exists() else None
            reason = gate(op, code, error, text)
            known = bool(reason and op.known_failure and op.known_failure in reason)
            records.append({
                "op": op.label(),
                "failure": reason,
                "known": known,
                "traceback": tb,
                "digest": None if text is None
                else hashlib.sha256(normalized(text).encode()).hexdigest(),
            })
    for record, wall in zip(records, walls):
        record["wall_s"] = wall
    return sum(walls), refs, records


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import gyrokit.cli

    if Path(gyrokit.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"worker: gyrokit imported from {gyrokit.cli.__file__}, not {SRC}")

    tracer = metrics = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wall, refs, records = run_pass(args.workload, args.seed, args.scale, tracer)
    if tracer is not None:
        suites = [op.suite for op in WORKLOADS[args.workload]]
        metrics = tracer.metrics(suites)
        if args.spans:
            tracer.write(args.spans)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"wall_s": wall, "ref_s": refs, "rss_mb": rss_mb, "ops": records,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
