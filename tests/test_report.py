import math

import numpy as np
import pytest

from gyrokit.report import CheckResult, VerificationReport, array_check, canonical_json


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_json_nested():
    obj = {"z": [1, {"y": True, "x": None}], "a": "s"}
    assert canonical_json(obj) == '{"a":"s","z":[1,{"x":null,"y":true}]}'


def test_float_formatting_roundtrips_exactly():
    import json

    for v in (0.1, 1e-9, 2.0 ** -24, 0.3, 1.0 / 3.0):
        s = canonical_json({"v": v})
        assert json.loads(s)["v"] == v


def test_integral_floats_keep_a_point():
    # 2.0 must not serialize as the integer 2
    assert canonical_json({"v": 2.0}) == '{"v":2.0}'
    assert canonical_json({"v": 2}) == '{"v":2}'


def test_nan_and_inf_rejected():
    with pytest.raises(ValueError):
        canonical_json({"v": math.nan})
    with pytest.raises(ValueError):
        canonical_json({"v": math.inf})


def test_string_escaping():
    s = canonical_json({"k": 'a"b\\c\n'})
    assert s == '{"k":"a\\"b\\\\c\\n"}'


def test_report_pass_iff_all_checks_pass():
    r = VerificationReport(suite="axioms", tolerances={})
    r.checks.append(CheckResult("a", True, 0.0, 10))
    assert r.passed
    r.checks.append(CheckResult("b", False, 1.0, 10))
    assert not r.passed
    assert r.check("b").max_residual == 1.0
    with pytest.raises(KeyError):
        r.check("missing")


def test_report_dict_shape():
    r = VerificationReport(suite="axioms", model="mobius", seed=7, tolerances={"abs_tol": 1e-9})
    r.checks.append(CheckResult("G1", True, 0.5, "exhaustive"))
    d = r.to_dict()
    assert d["suite"] == "axioms"
    assert d["checks"][0]["samples_or_exhaustive"] == "exhaustive"
    assert d["checks"][0]["pass"] is True
    assert "witness" not in d["checks"][0]
    r.checks[0].witness = {"x": [0.1]}
    assert "witness" in r.to_dict()["checks"][0]


def test_canonical_json_deterministic_for_report():
    r = VerificationReport(suite="s", seed=1, tolerances={"abs_tol": 1e-9, "rel_tol": 1e-9})
    r.checks.append(CheckResult("c", True, 1.2345678901234567e-12, 100))
    a = canonical_json(r.to_dict())
    b = canonical_json(r.to_dict())
    assert a == b


def test_array_check_witness_is_the_worst_failing_entry():
    # entry 1 has the largest residual but passes; entry 3 is the worst failure
    residual = np.array([0.1, 9.0, 0.2, 0.5, 0.3])
    ok = np.array([True, True, False, False, False])
    res = array_check("c", residual, ok, 5, lambda i: {"index": i})
    assert not res.passed
    assert res.max_residual == 9.0
    assert res.witness == {"index": 3}
    assert res.samples == 5


def test_array_check_floors_a_negative_excess_at_zero():
    excess = np.array([-0.5, -0.25])
    res = array_check("c", excess, excess <= 0, 2)
    assert res.passed
    assert res.max_residual == 0.0
    zero = array_check("c", np.array([-0.0]), np.array([True]), 1).max_residual
    assert math.copysign(1.0, zero) == 1.0  # serializes as 0.0, not -0.0


def test_array_check_flat_index_maps_back_to_nd():
    residual = np.zeros((3, 4, 5))
    residual[2, 1, 3] = 1.0
    res = array_check(
        "c", residual, residual == 0, "exhaustive",
        lambda i: list(map(int, np.unravel_index(i, residual.shape))),
    )
    assert res.witness == [2, 1, 3]


def test_array_check_passing_never_calls_witness():
    def witness(i):
        raise AssertionError("witness called on a passing check")

    res = array_check("c", np.array([0.0, 1.0]), np.array([True, True]), 2, witness)
    assert res.passed and res.witness is None and res.max_residual == 1.0


def test_array_check_scalar_verdicts():
    assert array_check("c", 1.0, False, "exhaustive").to_dict() == {
        "name": "c", "pass": False, "max_residual": 1.0, "samples_or_exhaustive": "exhaustive"
    }
    assert array_check("c", 0.0, True, 3).passed


def test_array_check_nan_rule():
    # a NaN residual fails whatever ok says, and max_residual skips it
    res = array_check("c", np.array([0.5, np.nan]), np.array([True, True]), 2, lambda i: i)
    assert not res.passed and res.max_residual == 0.5 and res.witness == 1
    # a failing number outranks a failing NaN as the witness
    res = array_check(
        "c", np.array([np.nan, 0.2, 0.7]), np.array([False, False, True]), 3, lambda i: i
    )
    assert res.witness == 1 and res.max_residual == 0.7
    # when every failing entry is NaN, the first of them is the witness
    res = array_check("c", np.array([0.1, np.nan, np.nan]), np.array([True, False, False]), 3,
                      lambda i: i)
    assert res.witness == 1 and res.max_residual == 0.1
    canonical_json(res.to_dict())  # the report stays serializable
