"""Report differ: what moved between two sets of gyro reports.

Usage (from the root of a checkout):

    python3 tools/report_diff.py A B

A and B are two report corpus directories (``tests/corpus/`` of two
checkouts), or two ``tools/seed_sweep.py`` outputs. A corpus case is a
``<name>.json`` file holding a report; an empty file is a run that wrote
none, and a JSON file without checks (a Cayley table) is no case. A sweep
case is one (seed, model, suite, chain) row.

For every case and check, the differ prints each move from A to B, one line
each, grouped by kind in this order:

- ``added`` and ``removed`` checks (a case missing on one side counts as
  a case without checks);
- ``verdict`` flips;
- ``max_residual`` moves, old -> new;
- ``samples`` changes (``samples_or_exhaustive``, which a sweep does not
  record);
- ``witness`` key changes (a sweep records no witness).

Then one count line per kind of move. Cases and checks go in A's order,
then B's new ones in B's order, so the output is deterministic and can be
pasted as it is. Identical inputs print nothing. The exit code is 0 when
nothing moved, 1 when something did and 2 on unusable inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

KINDS = (
    ("added", "added checks"),
    ("removed", "removed checks"),
    ("verdict", "verdict flips"),
    ("max_residual", "max_residual moves"),
    ("samples", "sample-count changes"),
    ("witness", "witness-key changes"),
)


class InputError(Exception):
    pass


def _case_key(row):
    chain = f" {row['chain']}" if row.get("chain") else ""
    return f"seed={row['seed']} {row['suite']} {row['model']}{chain}"


def load(path):
    """``(kind, cases)`` of a corpus directory or a sweep output: ``cases``
    maps each case name, in order, to its list of check dicts."""
    path = Path(path)
    try:
        if path.is_dir():
            cases = {}
            for f in sorted(path.glob("*.json")):
                text = f.read_text(encoding="utf-8")
                report = json.loads(text) if text.strip() else {"checks": []}
                if isinstance(report, dict) and isinstance(report.get("checks"), list):
                    cases[f.stem] = report["checks"]
            return "corpus", cases
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("cases"), list):
        raise InputError(f"{path}: neither a corpus directory nor a seed sweep output")
    return "sweep", {_case_key(row): row.get("checks") or [] for row in doc["cases"]}


def _merged(a, b):
    """The keys of ``a`` in order, then those only in ``b``, in order."""
    return list(a) + [k for k in b if k not in a]


def _witness_keys(witness):
    return str(sorted(witness) if isinstance(witness, dict) else [])


# the moves of a check found on both sides: (kind, field, how a value prints)
FIELDS = (
    ("verdict", "pass", lambda v: "pass" if v else "fail"),
    ("max_residual", "max_residual", json.dumps),
    ("samples", "samples_or_exhaustive", json.dumps),
    ("witness", "witness", _witness_keys),
)


def moves(old, new):
    """Each move from the cases ``old`` to ``new`` as ``(kind, line)``, in
    case order, then check order."""
    out = []
    for case in _merged(old, new):
        a = {c["name"]: c for c in old.get(case, [])}
        b = {c["name"]: c for c in new.get(case, [])}
        for name in _merged(a, b):
            at = f"{case} :: {name}"
            if name not in b:
                out.append(("removed", f"removed  {at}"))
            elif name not in a:
                out.append(("added", f"added  {at}"))
            else:
                for kind, field, shown in FIELDS:
                    was, now = shown(a[name].get(field)), shown(b[name].get(field))
                    if was != now:
                        out.append((kind, f"{kind}  {at}: {was} -> {now}"))
    return out


def render(found):
    """The printed lines: the moves grouped by kind, then a count per kind;
    none when nothing moved."""
    if not found:
        return []
    lines = [line for kind, _ in KINDS for k, line in found if k == kind]
    lines += [f"{label}: {sum(k == kind for k, _ in found)}" for kind, label in KINDS]
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="corpus directory or seed sweep output, before")
    p.add_argument("b", help="the same kind of input, after")
    args = p.parse_args(argv)
    try:
        (kind_a, old), (kind_b, new) = load(args.a), load(args.b)
    except InputError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    if kind_a != kind_b:
        print(f"report_diff: cannot compare a {kind_a} with a {kind_b}", file=sys.stderr)
        return 2
    lines = render(moves(old, new))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
