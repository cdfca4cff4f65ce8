import json

import pytest

from gyrokit import check_subgyrogroups
from gyrokit.cli import EXIT_CODES, SUITES, main
from gyrokit.errors import GyroError
from gyrokit.sampling import MAX_SAMPLE_VALUES
from gyrokit.tables import cyclic_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def scrub(payload):
    payload = dict(payload)
    payload.pop("wall_time_s", None)
    return payload


# -- exit codes ----------------------------------------------------------------


def test_axioms_pass_exit_zero(capsys):
    code, payload, err = run_json(
        capsys, "axioms", "--model", "mobius", "--samples", "500"
    )
    assert code == 0
    assert payload["suite"] == "axioms"
    assert payload["pass"] is True
    assert "[pass]" in err and "FAIL" not in err


def test_mutated_table_fails_exit_one(capsys, tmp_path):
    t = cyclic_table(4)
    broken = t.table.copy()
    broken[1, 1] = 1  # no longer Latin
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps({"order": 4, "elements": t.labels, "oplus": broken.tolist()})
    )
    code, payload, err = run_json(capsys, "table-validate", "--model", f"table:{path}")
    assert code == 1
    assert payload["pass"] is False
    assert "FAIL" in err


def test_bad_ratio_chain_fails_exit_one(capsys):
    code, payload, _ = run_json(
        capsys,
        "prenorm",
        "--chain",
        '{"kind": "radial_rapidity", "ratio": 0.6, "depth": 6}',
        "--samples",
        "200",
    )
    assert code == 1
    names = [c["name"] for c in payload["checks"]]
    assert names == ["halving_condition"]
    assert payload["checks"][0]["witness"]["level"] == 1
    # a finite chain whose level is not closed stops with exit 1 and no report
    code, out, err = run(capsys, "admissible", "--model", "table:z4", "--subgyrogroup", "0,1")
    assert (code, out) == (1, "")
    assert "not closed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--model", "klingon"],
        ["search"],  # needs --order
        ["prenorm", "--chain", '{"kind": "nope"}'],
        ["cosets", "--model", "table:z4"],  # needs --subgyrogroup
        [],  # no suite
        ["axioms", "--samples", "0"],
        ["axioms", "--tol", "-1"],
        ["search", "--order", "0"],
        ["prenorm", "--depth", "0"],
        ["search", "--order", "4", "--max-results", "0"],
        ["prenorm", "--chain", '{"kind": "radial_rapidity", "depth": "x"}'],
        ["cosets", "--model", "table:z4", "--subgyrogroup", "0,9"],
        ["cosets", "--model", "table:z4", "--subgyrogroup=-1,0"],
        ["table-validate", "--model", "table:z272"],  # n^3 just over the size cap
        ["metric", "--depth", "70"],  # deeper than the int64 dyadic grid
        ["metric", "--chain", '{"kind": "radial_rapidity", "t0": 1e400}'],  # inf
        ["metric", "--chain", '{"kind": "radial_rapidity", "t0": 1e308}'],
        # compositions of near-boundary points overflow the ball past t0 = 9
        ["metric", "--chain", '{"kind":"radial_rapidity","t0":19,"ratio":0.5}', "--samples", "300"],
        ["admissible", "--chain", '{"kind":"radial_rapidity","t0":50}', "--samples", "300"],
        ["axioms", "--tol", "inf"],
        ["axioms", "--tol", "1e400"],
        ["axioms", "--model", "product:+"],  # empty factors
        ["axioms", "--model", "product:mobius+"],
        ["axioms", "--model", "product:mobius+z3"],  # a disk times a table
        ["axioms", "--model", "product:mobius"],  # no second factor
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


def test_exit_codes_cover_every_error():
    errors = set(GyroError.__subclasses__())
    assert errors <= set(EXIT_CODES)
    assert {EXIT_CODES[e] for e in errors} == {1, 2, 3}


def test_io_errors_exit_three(capsys, tmp_path):
    assert run(capsys, "table-validate", "--model", "table:/no/such/file.json")[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(capsys, "table-validate", "--model", f"table:{bad}")[0] == 3


def test_oversized_table_file_exits_two(capsys, tmp_path):
    # n^3 just over the size cap, from a file rather than a built-in name
    path = tmp_path / "z272.json"
    cyclic_table(272).save(path)
    code, out, err = run(capsys, "axioms", "--model", f"table:{path}")
    assert (code, out) == (2, "")
    assert "too large" in err


@pytest.mark.parametrize(
    "suite,code",
    [
        ("axioms", 2),  # G3_automorphism's 67^4 tuples exceed the tuple cap
        ("identities", 0),  # at most 67^3 tuples
        ("table-validate", 0),  # batched per first pivot, so not capped
    ],
)
def test_tuple_cap_on_z67(capsys, suite, code):
    got, out, err = run(capsys, suite, "--model", "table:z67")
    assert got == code
    if code == 2:
        assert out == "" and "infeasible" in err


@pytest.mark.parametrize(
    "suite,model,samples",
    [
        # 3 witnesses x dim 3 per base sample in the witness checks
        ("axioms", "einstein", MAX_SAMPLE_VALUES // 9 + 1),
        ("prenorm", "mobius", MAX_SAMPLE_VALUES // 2 + 1),
    ],
)
def test_oversized_sample_count_exits_two(capsys, suite, model, samples):
    code, out, err = run(capsys, suite, "--model", model, "--samples", str(samples))
    assert (code, out) == (2, "")
    assert "too large" in err


def test_out_unwritable_exit_three(capsys):
    code, out, err = run(
        capsys, "axioms", "--samples", "100", "--out", "/no/such/dir/report.json"
    )
    assert code == 3


# -- determinism ---------------------------------------------------------------


def test_reports_deterministic_modulo_wall_time(capsys, tmp_path):
    argv = ["identities", "--model", "einstein", "--samples", "800", "--seed", "7"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    assert scrub(pa) == scrub(pb)
    # and the serialization itself is canonical: same bytes after scrub
    from gyrokit.report import canonical_json

    assert canonical_json(scrub(pa)) == canonical_json(scrub(pb))


def test_seed_changes_report(capsys):
    _, p1, _ = run_json(capsys, "axioms", "--samples", "300", "--seed", "1")
    _, p2, _ = run_json(capsys, "axioms", "--samples", "300", "--seed", "2")
    assert p1["seed"] == 1 and p2["seed"] == 2
    r1 = [c["max_residual"] for c in p1["checks"]]
    r2 = [c["max_residual"] for c in p2["checks"]]
    assert r1 != r2


# -- suites through the CLI ----------------------------------------------------


def test_list_suites(capsys):
    code, out, _ = run(capsys, "--list-suites")
    assert code == 0
    for name in SUITES:
        assert name in out


def test_search_order_four(capsys):
    code, payload, _ = run_json(capsys, "search", "--order", "4")
    assert code == 0
    assert payload["notes"]["count"] == 2
    assert len(payload["notes"]["tables"]) == 2


def test_metric_example_quarter_ratio(capsys):
    code, payload, _ = run_json(
        capsys,
        "metric",
        "--model",
        "mobius",
        "--chain",
        '{"kind": "radial_rapidity", "t0": 1.0, "ratio": 0.25, "depth": 24}',
        "--samples",
        "2000",
    )
    assert code == 0
    oracle = next(c for c in payload["checks"] if c["name"] == "rho_oracle")
    assert oracle["max_residual"] <= 2.0 ** -22


def test_product_model_axioms(capsys):
    # a table product is again a table, so a nested one is exhaustive too
    for spec in ("product:z2+z3", "product:z2+product:z2+z3"):
        code, payload, _ = run_json(capsys, "axioms", "--model", spec, "--samples", "10")
        assert code == 0
        assert payload["pass"] is True
        assert all(c["samples_or_exhaustive"] == "exhaustive" for c in payload["checks"])


def test_finite_prenorm_and_metric(capsys):
    code, payload, _ = run_json(
        capsys, "prenorm", "--model", "table:z4", "--subgyrogroup", "0,2"
    )
    assert code == 0
    code, payload, _ = run_json(
        capsys, "metric", "--model", "table:klein", "--subgyrogroup", "0,1"
    )
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert "rho_discrete_on_quotient" in names


def test_admissible_and_cosets(capsys):
    code, payload, _ = run_json(
        capsys,
        "admissible",
        "--chain",
        '{"kind": "radial_rapidity", "ratio": 0.25, "depth": 6}',
        "--samples",
        "600",
    )
    assert code == 0
    code, payload, _ = run_json(
        capsys, "cosets", "--model", "table:z6", "--subgyrogroup", "0,3"
    )
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == [
        "is_subgyrogroup",
        "invariant_under_all_gyrations",
        "equal_block_sizes",
        "disjoint_cover",
    ]


def test_subgyrogroups_listing(capsys):
    code, payload, _ = run_json(capsys, "subgyrogroups", "--model", "table:klein")
    assert code == 0
    assert len(payload["notes"]["subgyrogroups"]) == 5


def test_subgyrogroups_closure_growth_z24(capsys):
    # order > 12 takes the closure-growth path rather than the powerset scan
    code, payload, _ = run_json(capsys, "subgyrogroups", "--model", "table:z24")
    assert code == 0
    assert len(payload["notes"]["subgyrogroups"]) == 8
    # the report's indices are Python ints, which canonical JSON accepts
    subs = check_subgyrogroups(cyclic_table(24)).notes["subgyrogroups"]
    assert all(type(i) is int for s in subs for i in s["indices"])


def test_strong_base_suite(capsys):
    code, payload, _ = run_json(
        capsys, "strong-base", "--model", "einstein", "--samples", "400"
    )
    assert code == 0


def test_out_file_matches_stdout_payload(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, stdout, _ = run(
        capsys, "axioms", "--samples", "200", "--out", str(out)
    )
    assert code == 0
    assert stdout == ""  # payload went to the file instead
    payload = json.loads(out.read_text())
    assert payload["suite"] == "axioms"
    code2, stdout2, _ = run(capsys, "axioms", "--samples", "200")
    assert scrub(json.loads(stdout2)) == scrub(payload)


def test_identities_finite_exhaustive(capsys):
    code, payload, _ = run_json(capsys, "identities", "--model", "table:s3")
    assert code == 0
    assert {c["name"] for c in payload["checks"]} >= {
        "left_cancellation",
        "right_cancellation",
        "twisted_right_cancellation",
        "triangle_decomposition",
    }
