import json
from pathlib import Path

import pytest

from gyrokit import check_subgyrogroups
from gyrokit.cli import EXIT_CODES, SUITE_TABLE, SUITES, main
from gyrokit.errors import GyroError
from gyrokit.sampling import MAX_SAMPLE_VALUES
from gyrokit.tables import cyclic_table

CORPUS = Path(__file__).resolve().parent / "corpus"


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
    # a finite chain whose level is not closed gives the one failing check
    # chain_condition, in every chain suite
    for suite in ("admissible", "prenorm", "metric"):
        code, payload, _ = run_json(capsys, suite, "--model", "table:z4", "--subgyrogroup", "0,1")
        assert (code, payload["suite"], payload["model"]) == (1, suite, "z4")
        (check,) = payload["checks"]
        assert (check["name"], check["samples_or_exhaustive"]) == ("chain_condition", "exhaustive")
        assert check["witness"] == {
            "error": "chain level is not closed under the operation", "level": 0
        }
    # the report names the table of a finite chain spec, not --model
    spec = '{"kind": "finite_discrete", "table": "z6", "subgyrogroup": [1, 2]}'
    code, payload, _ = run_json(capsys, "metric", "--model", "mobius", "--chain", spec)
    assert (code, payload["model"]) == (1, "z6")
    assert payload["checks"][0]["witness"]["error"] == "chain levels must contain the identity"


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
        ["axioms", "--model", "table:"],  # empty table names
        ["table-validate", "--model", "table:"],
        ["prenorm", "--chain", '{"kind":"finite_discrete","table":"","subgyrogroup":[0]}'],
        # a table name that is not a string is refused, not looked up as a file
        ["prenorm", "--model", "table:z4", "--chain",
         '{"kind":"finite_discrete","table":true,"subgyrogroup":[0]}'],
        ["prenorm", "--model", "table:z4", "--chain",
         '{"kind":"finite_discrete","table":["z4"],"subgyrogroup":[0]}'],
        # a value given twice, once beside the chain spec and once in it
        ["prenorm", "--chain", '{"kind":"radial_rapidity","depth":6}', "--depth", "8"],
        ["metric", "--model", "table:z6", "--subgyrogroup", "0,2,4", "--chain",
         '{"kind":"finite_discrete","table":"z6","subgyrogroup":[0,3]}'],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("argv,given", [
    (["prenorm", "--chain", '{"kind":"radial_rapidity","depth":6}', "--depth", "8"],
     ("--depth", "--chain")),
    (["admissible", "--chain", '{"kind":"finite_discrete","table":"z6","subgyrogroup":[0,3]}',
      "--subgyrogroup", "0,3"], ("--subgyrogroup", "--chain")),
], ids=["depth", "subgyrogroup"])
def test_a_value_given_twice_names_both_sources(capsys, argv, given):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "given twice" in err and all(source in err for source in given)


def test_cosets_and_finite_chains_refuse_base_indices_alike(capsys):
    lines = set()
    for suite in ("cosets", "metric"):
        code, out, err = run(capsys, suite, "--model", "table:z4", "--subgyrogroup", "0,9")
        assert (code, out) == (2, "")
        lines.add(err)
    assert lines == {"gyro: subgyrogroup indices must lie in [0,4), got [0, 9]\n"}


def test_exit_codes_cover_every_error():
    errors = set(GyroError.__subclasses__())
    assert errors <= set(EXIT_CODES)
    assert {EXIT_CODES[e] for e in errors} == {1, 2, 3}


def test_io_errors_exit_three(capsys, tmp_path):
    assert run(capsys, "table-validate", "--model", "table:/no/such/file.json")[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(capsys, "table-validate", "--model", f"table:{bad}")[0] == 3


def test_boolean_order_exits_three(capsys, tmp_path):
    # JSON true is a Python int, yet no order; cells already refuse booleans
    path = tmp_path / "true.json"
    path.write_text('{"order": true, "elements": ["e"], "oplus": [[0]]}')
    code, out, err = run(capsys, "table-validate", "--model", f"table:{path}")
    assert (code, out) == (3, "")
    assert "field 'order' must be a positive integer, got True" in err


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
        ("table-validate", 2),  # the same rule, over the same G3_automorphism
    ],
)
def test_tuple_cap_on_z67(capsys, suite, code):
    got, out, err = run(capsys, suite, "--model", "table:z67")
    assert got == code
    if code == 2:
        assert out == "" and "infeasible" in err


@pytest.mark.parametrize("suite,ratio", [
    ("prenorm", "1e-20"), ("metric", "1e-20"), ("admissible", "1e-300"),
])
def test_radial_chain_underflowing_to_zero_exits_two(capsys, suite, ratio):
    chain = f'{{"kind":"radial_rapidity","ratio":{ratio}}}'
    code, out, err = run(capsys, suite, "--chain", chain, "--samples", "200")
    assert (code, out) == (2, "")
    assert "level 24 radius" in err and "underflows to 0" in err


@pytest.mark.parametrize("suite,spec,field", [
    ("prenorm", '{"kind":"radial_rapidity","ratoi":0.5}', "ratoi"),
    ("metric", '{"kind":"radial_rapidity","ratio":0.5,"Depth":8}', "Depth"),
    ("admissible", '{"kind":"finite_discrete","table":"z6","subgyrogroup":[0,3],"depth":2}',
     "depth"),
])
def test_a_chain_spec_field_that_no_chain_reads_exits_two(capsys, suite, spec, field):
    # a misspelt field is refused, not run with its default
    code, out, err = run(capsys, suite, "--chain", spec, "--samples", "200")
    assert (code, out) == (2, "")
    assert f"has no field {field!r}" in err


def test_a_name_that_is_no_builtin_is_a_path(capsys):
    # 'z' and a digit that int() cannot read: looked up as a file, no traceback
    code, out, err = run(capsys, "axioms", "--model", "table:z\u00b2")
    assert (code, out) == (3, "")
    assert "No such file" in err


# a unique identity and unique inverses, but row 1 is not a bijection
NOT_BIJECTIVE = ["--model", f"table:{CORPUS / 'not_bijective.json'}"]
NO_IDENTITY_CHAIN = ["--model", "mobius", "--chain", json.dumps(
    {"kind": "finite_discrete", "table": str(CORPUS / "no_identity.json"), "subgyrogroup": [0]}
)]
NO_CARRIER = (
    [(s, NOT_BIJECTIVE) for s in ("axioms", "identities", "subgyrogroups")]
    + [(s, NOT_BIJECTIVE + ["--subgyrogroup", "0"])
       for s in ("prenorm", "metric", "admissible", "cosets")]
    + [(s, NO_IDENTITY_CHAIN) for s in ("admissible", "prenorm", "metric")]
)


@pytest.mark.parametrize(
    "suite,args", NO_CARRIER,
    ids=[f"{s}-{'chain' if a is NO_IDENTITY_CHAIN else 'model'}" for s, a in NO_CARRIER],
)
def test_table_that_is_no_gyrogroup_is_one_structure_check(capsys, suite, args):
    code, payload, _ = run_json(capsys, suite, *args)
    assert code == 1
    assert [(c["name"], c["pass"]) for c in payload["checks"]] == [("table_structure", False)]
    # the report names the table that was refused, not a --model that was not
    refused = NOT_BIJECTIVE[1] if args is not NO_IDENTITY_CHAIN else (
        f"table:{CORPUS / 'no_identity.json'}"
    )
    assert payload["model"] == refused


RADIAL = '{"kind":"radial_rapidity","ratio":0.25}'
UNREAD = [
    (["axioms", "--chain", RADIAL], "suite 'axioms' does not read --chain"),
    (["search", "--order", "3", "--chain", RADIAL], "suite 'search' does not read --chain"),
    (["identities", "--order", "3"], "suite 'identities' does not read --order"),
    (["table-validate", "--model", "table:z6", "--max-results", "2"],
     "suite 'table-validate' does not read --max-results"),
    (["metric", "--model", "mobius", "--subgyrogroup", "0,3"],
     "a radial chain does not read --subgyrogroup"),
    (["search", "--order", "3", "--subgyrogroup", "0"],
     "suite 'search' does not read --subgyrogroup"),
    (["table-validate", "--model", "table:z6", "--subgyrogroup", "0,3"],
     "suite 'table-validate' does not read --subgyrogroup"),
    (["subgyrogroups", "--model", "table:z6", "--subgyrogroup", "0,3"],
     "suite 'subgyrogroups' does not read --subgyrogroup"),
    (["axioms", "--model", "table:z6", "--subgyrogroup", "0,3"],
     "suite 'axioms' does not read --subgyrogroup"),
    (["metric", "--model", "table:z6", "--subgyrogroup", "0,3", "--depth", "8"],
     "a finite chain does not read --depth"),
    (["axioms", "--depth", "8"], "suite 'axioms' does not read --depth"),
    (["search", "--order", "3", "--tol", "5"], "suite 'search' does not read --tol"),
    (["table-validate", "--model", "table:z6", "--tol", "5"],
     "suite 'table-validate' does not read --tol"),
    (["subgyrogroups", "--model", "table:z6", "--tol", "5"],
     "suite 'subgyrogroups' does not read --tol"),
    (["cosets", "--model", "table:z6", "--subgyrogroup", "0,3", "--tol", "5"],
     "suite 'cosets' does not read --tol"),
    # refused before the table is admitted, so no table_structure report
    (["prenorm", "--model", f"table:{CORPUS / 'no_identity.json'}", "--subgyrogroup", "0",
      "--depth", "8"], "a finite chain does not read --depth"),
]


@pytest.mark.parametrize(
    "argv,error", UNREAD, ids=[f"{a[0]}-{e.rsplit('--', 1)[1]}" for a, e in UNREAD]
)
def test_an_option_the_suite_does_not_read_exits_two(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert error in err


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


def test_memory_error_exits_two(capsys, monkeypatch):
    # numpy's failed allocations subclass MemoryError: a request the machine
    # cannot hold is refused as usage, not reported as a failed check
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 152. MiB for an array")

    monkeypatch.setitem(SUITE_TABLE, "metric", (SUITE_TABLE["metric"][0], exhausted))
    code, out, err = run(capsys, "metric", "--model", "table:z4", "--subgyrogroup", "0")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["gyro: Unable to allocate 152. MiB for an array"]


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


# -- one carrier resolver ---------------------------------------------------------

Z6_SPEC = '{"kind":"finite_discrete","table":"z6","subgyrogroup":[0,3]}'


@pytest.mark.parametrize("argv", [
    ["table-validate", "--model", "product:z2+z4"],
    ["subgyrogroups", "--model", "product:z2+z4"],
    ["cosets", "--model", "product:z2+z4", "--subgyrogroup", "0,4"],
    ["cosets", "--model", "product:table:z2+z4", "--subgyrogroup", "0,4"],
], ids=["table-validate", "subgyrogroups", "cosets", "cosets-prefixed"])
def test_table_suites_run_on_a_table_product(capsys, argv):
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and payload["pass"]
    assert payload["model"] == "product(z2,z4)"


def _tensor_orders(monkeypatch):
    import gyrokit.tables as tables

    orders = []
    real = tables.gyr_tensor
    monkeypatch.setattr(tables, "gyr_tensor", lambda T: orders.append(T.shape[-1]) or real(T))
    return orders


def test_a_table_product_builds_one_gyration_tensor(capsys, monkeypatch):
    orders = _tensor_orders(monkeypatch)
    assert run(capsys, "axioms", "--model", "product:z5+z9")[0] == 0
    assert orders == [45]


def test_a_finite_spec_builds_only_its_own_tensor(capsys, monkeypatch):
    # the spec is short for --model table:z6 --subgyrogroup 0,3, so z200's
    # tensor is never built
    orders = _tensor_orders(monkeypatch)
    code, payload, _ = run_json(capsys, "metric", "--model", "table:z200", "--chain", Z6_SPEC)
    assert code == 0 and payload["model"] == "z6"
    assert orders == [6]


def test_a_table_without_identity_is_refused_before_its_tensor(capsys, monkeypatch, tmp_path):
    # bijective rows, but x + y = (2x + y) mod 271 has no two-sided identity
    n = 271
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({
        "order": n, "elements": list(range(n)),
        "oplus": [[(2 * x + y) % n for y in range(n)] for x in range(n)],
    }))
    orders = _tensor_orders(monkeypatch)
    code, payload, _ = run_json(capsys, "axioms", "--model", f"table:{path}")
    assert code == 1
    [check] = payload["checks"]
    assert (check["name"], check["pass"]) == ("table_structure", False)
    assert "0 two-sided identities" in check["witness"]["error"]
    assert orders == []


def test_a_finite_spec_does_not_read_model(capsys):
    # --model is not resolved beside a finite spec, so an unknown one is no error
    code, payload, _ = run_json(capsys, "metric", "--model", "klingon", "--chain", Z6_SPEC)
    _, want, _ = run_json(capsys, "metric", "--model", "table:z6", "--subgyrogroup", "0,3")
    assert code == 0
    assert scrub(payload) == scrub(want)


def test_a_refused_factor_is_reported_through_the_product(capsys):
    # row 1 of not_bijective is no bijection; in the product it is row (1,0)
    path = CORPUS / "not_bijective.json"
    code, payload, _ = run_json(capsys, "axioms", "--model", f"product:{path}+z2")
    assert code == 1
    [check] = payload["checks"]
    assert (check["name"], check["pass"]) == ("table_structure", False)
    assert "'(1,0)'" in check["witness"]["error"]
