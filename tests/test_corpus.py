"""Report corpus: fixed `gyro` invocations whose reports must not change.

Each case runs the CLI in-process from ``tests/corpus/`` (so table files
are named by a relative path that ends up verbatim in the report) and
compares its exit code and its stdout report, with ``wall_time_s``
blanked, byte for byte against ``tests/corpus/<name>.json``.

A change that is meant to alter a report rewrites the expected files:

    PYTHONPATH=src python3 tests/test_corpus.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gyrokit.cli import _resolve_model, _resolve_table, main
from gyrokit.core import AXIOM_CHECKS, IDENTITY_CHECKS
from gyrokit.errors import AxiomViolationError
from gyrokit.tables import TableModel, _TableOps

CORPUS = Path(__file__).resolve().parent / "corpus"

CHAIN_025 = '{"kind": "radial_rapidity", "ratio": 0.25, "depth": 8}'
CHAIN_050 = '{"kind": "radial_rapidity", "ratio": 0.5, "depth": 12}'
CHAIN_060 = '{"kind": "radial_rapidity", "ratio": 0.6, "depth": 6}'
CHAIN_Z6 = '{"kind": "finite_discrete", "table": "z6", "subgyrogroup": [0, 2, 4]}'
CHAIN_050_D8 = '{"kind":"radial_rapidity","ratio":0.5,"depth":8}'
CHAIN_NO_IDENTITY = '{"kind":"finite_discrete","table":"no_identity.json","subgyrogroup":[0]}'

# (name, exit code, argv)
CASES = [
    ("axioms-mobius", 0, ["axioms", "--model", "mobius", "--samples", "300"]),
    ("axioms-einstein", 0, ["axioms", "--model", "einstein", "--samples", "300"]),
    ("axioms-s3", 0, ["axioms", "--model", "table:s3"]),
    ("axioms-product-tables", 0, ["axioms", "--model", "product:z2+z3"]),
    ("axioms-product-balls", 0,
     ["axioms", "--model", "product:mobius+einstein", "--samples", "200"]),
    ("axioms-no-identity", 1, ["axioms", "--model", "table:no_identity.json"]),
    ("identities-einstein", 0,
     ["identities", "--model", "einstein", "--samples", "300", "--seed", "7"]),
    ("identities-klein", 0, ["identities", "--model", "table:klein"]),
    ("axioms-loop5", 1, ["axioms", "--model", "table:loop5.json"]),
    ("identities-loop5", 1, ["identities", "--model", "table:loop5.json"]),
    ("strong-base-mobius", 0, ["strong-base", "--samples", "300"]),
    ("strong-base-einstein", 0, ["strong-base", "--model", "einstein", "--samples", "200"]),
    ("prenorm-mobius", 0, ["prenorm", "--chain", CHAIN_025, "--samples", "300"]),
    ("prenorm-einstein", 0,
     ["prenorm", "--model", "einstein", "--chain", CHAIN_025, "--samples", "300"]),
    ("prenorm-product-balls", 0,
     ["prenorm", "--model", "product:mobius+einstein", "--chain", CHAIN_025,
      "--samples", "300"]),
    ("prenorm-z4", 0, ["prenorm", "--model", "table:z4", "--subgyrogroup", "0,2"]),
    ("prenorm-ratio-0.6", 1, ["prenorm", "--chain", CHAIN_060, "--samples", "200"]),
    ("prenorm-default-chain", 0, ["prenorm", "--depth", "6", "--samples", "200"]),
    ("metric-mobius-half", 0, ["metric", "--chain", CHAIN_050, "--samples", "300"]),
    ("metric-einstein", 0,
     ["metric", "--model", "einstein", "--chain", CHAIN_025, "--samples", "300"]),
    ("metric-ratio-0.6", 1, ["metric", "--chain", CHAIN_060, "--samples", "200"]),
    ("metric-klein", 0, ["metric", "--model", "table:klein", "--subgyrogroup", "0,1"]),
    ("metric-einstein-default-chain", 0,
     ["metric", "--model", "einstein", "--depth", "6", "--samples", "200"]),
    ("metric-finite-spec-on-mobius", 0, ["metric", "--model", "mobius", "--chain", CHAIN_Z6]),
    ("metric-z24", 0, ["metric", "--model", "table:z24", "--subgyrogroup", "0,6,12,18"]),
    ("admissible-mobius", 0, ["admissible", "--chain", CHAIN_025, "--samples", "300"]),
    ("admissible-z6", 0, ["admissible", "--model", "table:z6", "--subgyrogroup", "0,3"]),
    ("admissible-finite-spec", 0, ["admissible", "--model", "table:z6", "--chain", CHAIN_Z6]),
    ("table-validate-s3", 0, ["table-validate", "--model", "table:s3"]),
    ("table-validate-not-latin", 1, ["table-validate", "--model", "table:not_latin.json"]),
    ("table-validate-latin5", 1, ["table-validate", "--model", "table:latin5.json"]),
    ("table-validate-no-identity", 1,
     ["table-validate", "--model", "table:no_identity.json"]),
    ("table-validate-loop5", 1, ["table-validate", "--model", "table:loop5.json"]),
    ("subgyrogroups-s3", 0, ["subgyrogroups", "--model", "table:s3"]),
    ("cosets-z6", 0, ["cosets", "--model", "table:z6", "--subgyrogroup", "0,3"]),
    ("cosets-not-closed", 1, ["cosets", "--model", "table:z4", "--subgyrogroup", "0,1"]),
    ("admissible-not-closed", 1,
     ["admissible", "--model", "table:z4", "--subgyrogroup", "0,1"]),
    ("prenorm-not-closed", 1, ["prenorm", "--model", "table:z4", "--subgyrogroup", "0,1"]),
    ("metric-not-closed", 1, ["metric", "--model", "table:z4", "--subgyrogroup", "0,1"]),
    ("search-order-4", 0, ["search", "--order", "4"]),
    ("search-order-6", 0, ["search", "--order", "6"]),
    ("search-order-6-max-1", 0, ["search", "--order", "6", "--max-results", "1"]),
    # failing continuous law checks and finite chain checks, with witnesses;
    # g8.json is a proper (non-associative) gyrogroup of order 8 whose
    # subgyrogroup {0, 5} is not invariant under every gyration
    ("axioms-mobius-tol0", 1, ["axioms", "--model", "mobius", "--tol", "0", "--samples", "300"]),
    ("identities-einstein-tol0", 1,
     ["identities", "--model", "einstein", "--tol", "0", "--samples", "300"]),
    ("strong-base-mobius-tol0", 1,
     ["strong-base", "--model", "mobius", "--tol", "0", "--samples", "300"]),
    ("metric-tol0", 1, ["metric", "--tol", "0", "--depth", "8", "--samples", "300"]),
    ("admissible-ratio-0.5", 1, ["admissible", "--chain", CHAIN_050_D8, "--samples", "300"]),
    ("prenorm-g8", 1, ["prenorm", "--model", "table:g8.json", "--subgyrogroup", "0,5"]),
    ("metric-g8", 1, ["metric", "--model", "table:g8.json", "--subgyrogroup", "0,5"]),
    ("cosets-g8", 1, ["cosets", "--model", "table:g8.json", "--subgyrogroup", "0,5"]),
    # g8 itself passes every exhaustive law; its gyrations form two classes,
    # the identity and one nontrivial permutation
    ("axioms-g8", 0, ["axioms", "--model", "table:g8.json"]),
    ("identities-g8", 0, ["identities", "--model", "table:g8.json"]),
    ("table-validate-g8", 0, ["table-validate", "--model", "table:g8.json"]),
    ("subgyrogroups-g8", 0, ["subgyrogroups", "--model", "table:g8.json"]),
    # {0, 2, 5, 7} is an L-subgyrogroup of g8 that the nontrivial gyration
    # maps onto itself without fixing it pointwise: it swaps 5 and 7
    ("prenorm-g8-L", 0, ["prenorm", "--model", "table:g8.json", "--subgyrogroup", "0,2,5,7"]),
    ("metric-g8-L", 0, ["metric", "--model", "table:g8.json", "--subgyrogroup", "0,2,5,7"]),
    ("cosets-g8-L", 0, ["cosets", "--model", "table:g8.json", "--subgyrogroup", "0,2,5,7"]),
    ("admissible-g8-L", 0,
     ["admissible", "--model", "table:g8.json", "--subgyrogroup", "0,2,5,7"]),
    # exhaustive checks on the largest corpus carriers, orders 45 and 41;
    # the automorphism law runs over pivot classes, so every batch still
    # holds whole first operands (k = 0 in core._batches)
    ("axioms-product-loop5-z9", 1, ["axioms", "--model", "product:loop5.json+z9"]),
    ("axioms-product-z9-loop5", 1, ["axioms", "--model", "product:z9+loop5.json"]),
    ("table-validate-z41", 0, ["table-validate", "--model", "table:z41"]),
    # tables that are no gyrogroup carrier: not_bijective.json has a unique
    # identity and unique inverses, but its left translation by 1 is not a
    # bijection; and the tuple cap of the exhaustive laws on z67 (67^4 tuples)
    ("axioms-not-bijective", 1, ["axioms", "--model", "table:not_bijective.json"]),
    ("subgyrogroups-not-bijective", 1, ["subgyrogroups", "--model", "table:not_bijective.json"]),
    ("admissible-not-bijective", 1,
     ["admissible", "--model", "table:not_bijective.json", "--subgyrogroup", "0"]),
    ("subgyrogroups-no-identity", 1, ["subgyrogroups", "--model", "table:no_identity.json"]),
    ("admissible-finite-spec-no-identity", 1,
     ["admissible", "--model", "mobius", "--chain", CHAIN_NO_IDENTITY]),
    ("table-validate-z67", 2, ["table-validate", "--model", "table:z67"]),
    # a radial chain whose deepest radius t0 * ratio^depth underflows to 0
    ("prenorm-underflowing-chain", 2,
     ["prenorm", "--chain", '{"kind":"radial_rapidity","ratio":1e-20}', "--samples", "200"]),
    # the table suites on table products; {(0,0),(1,0)} is a subgroup of z2 x z4
    ("table-validate-product-tables", 0, ["table-validate", "--model", "product:z2+z3"]),
    ("cosets-product", 0, ["cosets", "--model", "product:z2+z4", "--subgyrogroup", "0,4"]),
]

_WALL = re.compile(r'"wall_time_s":[^,}]*')


def run_case(argv):
    """Exit code and blanked stdout report of one in-process invocation."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, _WALL.sub('"wall_time_s":null', out.getvalue())


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_corpus(name, code, argv):
    got_code, got = run_case(argv)
    assert got_code == code
    assert got == (CORPUS / f"{name}.json").read_text(encoding="utf-8")


def _corpus_table(spec):
    """The Cayley table a corpus case's --model names."""
    with contextlib.chdir(CORPUS):
        if spec.startswith("table:"):
            return _resolve_table(spec[len("table:"):])
        return _resolve_model(spec).source


def test_exhaustive_witnesses_replay():
    # every exhaustive law witness of the corpus, mapped back to indices and
    # evaluated again, gives the recorded sides of its first differing
    # comparison: on the exact model where the table has inverses, on the
    # bare table ops (as table-validate runs them) where it has none
    laws = {name: law for name, law, _, _ in AXIOM_CHECKS + IDENTITY_CHECKS}
    replayed = set()
    for name, _, argv in CASES:
        text = (CORPUS / f"{name}.json").read_text(encoding="utf-8")
        if argv[0] not in ("axioms", "identities", "table-validate") or not text:
            continue  # a refused run writes no report
        report = json.loads(text)
        for check in report["checks"]:
            witness = check.get("witness", {})
            if set(witness) != {"inputs", "lhs", "rhs"}:
                continue
            t = _corpus_table(argv[argv.index("--model") + 1])
            try:
                ops = TableModel(t)
            except AxiomViolationError:
                ops = _TableOps(t.table, t.gyrations())
            inputs = [np.asarray(t.labels.index(x)) for x in witness["inputs"]]
            lhs, rhs = next((l, r) for l, r in laws[check["name"]](ops, *inputs) if l != r)
            assert [t.labels[lhs], t.labels[rhs]] == [witness["lhs"], witness["rhs"]], name
            replayed.add(name)
    assert replayed >= {
        "axioms-loop5", "identities-loop5", "table-validate-latin5", "table-validate-loop5",
        "axioms-product-loop5-z9", "axioms-product-z9-loop5",
    }


if __name__ == "__main__":
    for name, code, argv in CASES:
        got_code, got = run_case(argv)
        if got_code != code:
            sys.exit(f"{name}: exit code {got_code}, expected {code}")
        (CORPUS / f"{name}.json").write_text(got, encoding="utf-8")
        print(f"wrote {name}.json")
