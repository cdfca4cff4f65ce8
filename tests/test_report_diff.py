"""tools/report_diff.py on small synthetic report sets: one per kind of
move, on corpus directories and on seed sweep outputs, and no output for
identical inputs."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


diff = _load_tool()


def _check(name, passed=True, residual=0.0, samples=300, witness=None):
    c = {"max_residual": residual, "name": name, "pass": passed,
         "samples_or_exhaustive": samples}
    if witness is not None:
        c["witness"] = witness
    return c


BASE = {
    "axioms-mobius": [_check("G1_identity"), _check("G2_inverses", residual=1e-16)],
    "metric-g8": [_check("rho_symmetry", False, 1.0, "exhaustive",
                         {"inputs": ["1", "4"], "residual": 1.0})],
}


def _corpus(path, cases, extra=()):
    path.mkdir()
    for name, checks in cases.items():
        (path / f"{name}.json").write_text(json.dumps({"checks": checks, "suite": "s"}))
    for name in extra:  # a table file and a refused run's empty report
        (path / name).write_text("" if name.startswith("refused") else '{"order": 1}')
    return path


def _run(capsys, a, b):
    code = diff.main([str(a), str(b)])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def _counts(**moved):
    return [f"{label}: {moved.get(kind, 0)}" for kind, label in diff.KINDS]


def test_identical_inputs_print_nothing(tmp_path, capsys):
    extra = ("g8.json", "refused-run.json")
    a = _corpus(tmp_path / "a", BASE, extra)
    b = _corpus(tmp_path / "b", BASE, extra)
    assert _run(capsys, a, b) == (0, [], "")


def _moved(tmp_path, capsys, edit):
    new = copy.deepcopy(BASE)
    edit(new)
    return _run(capsys, _corpus(tmp_path / "a", BASE), _corpus(tmp_path / "b", new))


def test_added_and_removed_checks(tmp_path, capsys):
    def edit(cases):
        cases["axioms-mobius"].pop(0)
        cases["axioms-mobius"].append(_check("G3_gyroassociativity"))

    code, lines, _ = _moved(tmp_path, capsys, edit)
    assert code == 1
    assert lines == ["added  axioms-mobius :: G3_gyroassociativity",
                     "removed  axioms-mobius :: G1_identity"] + _counts(added=1, removed=1)


def test_a_case_missing_on_one_side_adds_or_removes_its_checks(tmp_path, capsys):
    code, lines, _ = _moved(tmp_path, capsys, lambda cases: cases.pop("metric-g8"))
    assert code == 1
    assert lines == ["removed  metric-g8 :: rho_symmetry"] + _counts(removed=1)


def test_verdict_flips(tmp_path, capsys):
    def edit(cases):
        cases["axioms-mobius"][1]["pass"] = False

    code, lines, _ = _moved(tmp_path, capsys, edit)
    assert code == 1
    assert lines == ["verdict  axioms-mobius :: G2_inverses: pass -> fail"] + _counts(verdict=1)


def test_max_residual_moves(tmp_path, capsys):
    def edit(cases):
        cases["axioms-mobius"][1]["max_residual"] = 2.5e-16

    code, lines, _ = _moved(tmp_path, capsys, edit)
    assert code == 1
    assert lines == ["max_residual  axioms-mobius :: G2_inverses: 1e-16 -> 2.5e-16"] + _counts(
        max_residual=1)


def test_sample_count_changes(tmp_path, capsys):
    def edit(cases):
        cases["metric-g8"][0]["samples_or_exhaustive"] = 64

    code, lines, _ = _moved(tmp_path, capsys, edit)
    assert code == 1
    assert lines == ['samples  metric-g8 :: rho_symmetry: "exhaustive" -> 64'] + _counts(samples=1)


def test_witness_key_changes(tmp_path, capsys):
    def edit(cases):
        cases["metric-g8"][0]["witness"] = {"inputs": ["1", "4"], "lhs": "2", "rhs": "3"}
        cases["axioms-mobius"][0]["witness"] = {"inputs": [[0.1, 0.2]], "residual": 1e-9}

    code, lines, _ = _moved(tmp_path, capsys, edit)
    assert code == 1
    assert lines == [
        "witness  axioms-mobius :: G1_identity: [] -> ['inputs', 'residual']",
        "witness  metric-g8 :: rho_symmetry: ['inputs', 'residual'] -> ['inputs', 'lhs', 'rhs']",
    ] + _counts(witness=2)


def test_moves_print_by_kind_in_a_fixed_order(tmp_path, capsys):
    def edit(cases):
        cases["metric-g8"][0].update({"pass": True, "max_residual": 0.0})
        cases["axioms-mobius"][1]["max_residual"] = 0.0
        cases["axioms-mobius"].append(_check("G4_loop"))

    code, lines, _ = _moved(tmp_path, capsys, edit)
    assert code == 1
    assert lines == [
        "added  axioms-mobius :: G4_loop",
        "verdict  metric-g8 :: rho_symmetry: fail -> pass",
        "max_residual  axioms-mobius :: G2_inverses: 1e-16 -> 0.0",
        "max_residual  metric-g8 :: rho_symmetry: 1.0 -> 0.0",
    ] + _counts(added=1, verdict=1, max_residual=2)


def _sweep(path, rows):
    path.write_text(json.dumps({"samples": 200, "seeds": [3], "cases": rows}))
    return path


def _row(checks, chain=None, suite="prenorm"):
    return {"seed": 3, "model": "mobius", "suite": suite, "chain": chain,
            "exit": 0, "checks": checks, "sha256": "0" * 64}


def test_seed_sweeps(tmp_path, capsys):
    chain = '{"kind":"radial_rapidity","t0":1.0,"ratio":0.5,"depth":24}'
    old = [_row([{"name": "sandwich_level_0", "pass": True, "max_residual": 0.0}], chain),
           _row([{"name": "G1_identity", "pass": True, "max_residual": 0.0}], suite="axioms")]
    a = _sweep(tmp_path / "a.json", old)
    assert _run(capsys, a, _sweep(tmp_path / "same.json", old)) == (0, [], "")
    new = copy.deepcopy(old)
    new[0]["checks"][0].update({"pass": False, "max_residual": 0.25})
    new[1]["checks"] = None  # the run wrote no report
    code, lines, _ = _run(capsys, a, _sweep(tmp_path / "b.json", new))
    assert code == 1
    assert lines == [
        "removed  seed=3 axioms mobius :: G1_identity",
        f"verdict  seed=3 prenorm mobius {chain} :: sandwich_level_0: pass -> fail",
        f"max_residual  seed=3 prenorm mobius {chain} :: sandwich_level_0: 0.0 -> 0.25",
    ] + _counts(removed=1, verdict=1, max_residual=1)


@pytest.mark.parametrize("b", ["sweep", "missing", "not-json"])
def test_unusable_inputs_exit_2(tmp_path, capsys, b):
    a = _corpus(tmp_path / "a", BASE)
    other = {"sweep": _sweep(tmp_path / "s.json", []), "missing": tmp_path / "nothing.json"}
    if b == "not-json":
        other[b] = tmp_path / "bad.json"
        other[b].write_text("{")
    code, lines, err = _run(capsys, a, other[b])
    assert code == 2 and lines == [] and err.startswith("report_diff: ")
