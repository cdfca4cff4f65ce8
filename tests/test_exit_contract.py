"""The CLI's exit-code contract as a property over generated argv.

The argv cover every suite, every --model form (balls, built-in tables,
table files that are refused, that do not parse or that are missing, and
products), every option whether or not the suite reads it, and chain specs,
malformed ones included. For each:

- no exception escapes ``cli.main``;
- exit 0 or 1 comes with one report, on stdout or in the --out file, whose
  ``"pass"`` matches the code;
- exit 3 comes only when a named file cannot be read or parsed (a table
  file, or --out);
- every other input exits 2, with nothing on stdout.

The size refusals run apart, each in a child process under a 256 MiB
address-space limit: they exit 2 before anything of their size is
allocated.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gyrokit.cli import SUITES, main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"
# stands for the directory of the files that the test writes itself
TMP = "{tmp}"

BALLS = ["mobius", "einstein"]
# table tokens: built-in names, and files that load (some of them refused
# by TableModel or failing checks)
TABLES = ["z1", "z2", "z4", "z6", "Z3", "klein", "s3", "z272", "z0"] + [
    str(CORPUS / f) for f in
    ("g8.json", "loop5.json", "no_identity.json", "not_bijective.json", "not_latin.json",
     "latin5.json")
]
# files that cannot be read or parsed as a table: missing, not JSON, JSON
# that is no table, a directory, bytes that are not UTF-8, and an integer
# literal past Python's 4,300-digit conversion limit
BAD_FILES = [str(CORPUS / "no_such_table.json"), str(ROOT / "README.md"),
             str(CORPUS / "axioms-mobius.json"), str(CORPUS),
             f"{TMP}/not_utf8.json", f"{TMP}/long_int.json"]

suites = st.sampled_from(sorted(SUITES) + ["nope"])


@st.composite
def table_token(draw):
    """(token, whether it names an unreadable file)."""
    token = draw(st.sampled_from(TABLES + BAD_FILES))
    return token, token in BAD_FILES


@st.composite
def model_spec(draw):
    kind = draw(st.sampled_from(["ball", "table", "product", "odd"]))
    if kind == "ball":
        return draw(st.sampled_from(BALLS)), False
    if kind == "table":
        token, bad = draw(table_token())
        return f"table:{token}", bad
    if kind == "product":
        bad, factors = False, []
        for _ in range(2):
            form = draw(st.sampled_from(["ball", "bare", "prefixed"]))
            if form == "ball":
                factors.append(draw(st.sampled_from(BALLS)))
                continue
            token, unreadable = draw(table_token())
            bad |= unreadable
            factors.append(token if form == "bare" else f"table:{token}")
        return "product:" + "+".join(factors), bad
    return draw(st.sampled_from(
        ["klingon", "", "table:", "product:", "product:+", "product:mobius", "product:mobius+"]
    )), False


numbers = st.sampled_from([0, 1, 0.25, 0.5, 0.6, 1.0, 9.0, 9.5, 40, 41, -1, 1e-300, 1e308,
                           2.5, "x", True, None, [1]])


@st.composite
def chain_spec(draw):
    """(JSON text, whether it names an unreadable table file)."""
    kind = draw(st.sampled_from(["radial", "finite", "raw"]))
    if kind == "raw":
        return draw(st.sampled_from([
            "{", "[]", "null", "1", "{}", '{"kind":"nope"}', '{"kind":1}',
            '{"kind":"radial_rapidity","t0":1e400}', '{"kind":"radial_rapidity","ratio":NaN}',
            '{"kind":"radial_rapidity","depth":1e400}',
        ])), False
    spec = {"kind": draw(st.sampled_from(["radial_rapidity", "finite_discrete"]))}
    bad = False
    if kind == "radial":
        for field in draw(st.lists(st.sampled_from(["t0", "ratio", "depth"]), unique=True)):
            spec[field] = draw(numbers)
    else:
        if draw(st.booleans()):
            token, bad = draw(table_token())
            spec["table"] = draw(st.sampled_from([token, "", True, [token]]))
        if draw(st.booleans()):
            spec["subgyrogroup"] = draw(st.sampled_from(
                [[0], [0, 2], [0, 3], [0, 1], [], [0, 9], [-1], [10 ** 30], "0", [True], [0.5]]
            ))
    if draw(st.booleans()):
        spec[draw(st.sampled_from(["ratoi", "table", "t0"]))] = 1
    return json.dumps(spec), bad


OPTIONS = {
    "--samples": st.sampled_from(["1", "2", "17", "40", "0", "-3", "x", "1e3"]),
    "--seed": st.sampled_from(["0", "7", "-5", str(2 ** 70), "x"]),
    "--tol": st.sampled_from(["0", "1e-9", "0.5", "1e300", "inf", "nan", "-1", "x"]),
    "--subgyrogroup": st.sampled_from(
        ["0", "0,2", "0,3", "0,1", "0,9", "1", "0,1,2,3", "-1,0", "", ",", "a", str(10 ** 30)]
    ),
    "--depth": st.sampled_from(["1", "2", "6", "40", "41", "0", "x"]),
    "--order": st.sampled_from(["1", "2", "4", "6", "7", "0", "x"]),
    "--max-results": st.sampled_from(["1", "3", "0", "x"]),
}


@st.composite
def argvs(draw):
    """(argv, whether a named table file cannot be read, --out or None)."""
    argv, bad = [], False
    if draw(st.integers(0, 20)):
        argv.append(draw(suites))
    if draw(st.booleans()):
        model, bad = draw(model_spec())
        argv.append(f"--model={model}")
    for flag in draw(st.lists(st.sampled_from(sorted(OPTIONS) + ["--chain"]), unique=True,
                              max_size=3)):
        if flag == "--chain":
            spec, unreadable = draw(chain_spec())
            bad |= unreadable
            argv.append(f"--chain={spec}")
        else:
            argv.append(f"{flag}={draw(OPTIONS[flag])}")
    out = draw(st.sampled_from([None] * 6 + ["file", "directory"]))
    if not draw(st.integers(0, 30)):
        argv.append("--list-suites")
    return argv, bad, out


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """The directory of --out, which also holds the unreadable table files
    that BAD_FILES names under TMP."""
    path = tmp_path_factory.mktemp("exit-contract")
    (path / "not_utf8.json").write_bytes(b"\xff\xfe{}")
    (path / "long_int.json").write_text(
        '{"order": 1' + "0" * 5000 + ', "elements": [0], "oplus": [[0]]}', encoding="utf-8")
    return path


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=argvs())
# an index past int64 in a finite spec once escaped as OverflowError
@example(case=(["metric", "--chain=" + json.dumps(
    {"kind": "finite_discrete", "table": "z4", "subgyrogroup": [10 ** 30]})], False, None))
# the two failing reports that stand for a refusal: chain_condition, table_structure
@example(case=(["admissible", "--model=table:z4", "--subgyrogroup=0,1"], False, None))
@example(case=(["metric", f"--model=table:{CORPUS / 'not_bijective.json'}",
                "--subgyrogroup=0"], False, "file"))
# a radial field of 401 digits once escaped as OverflowError, a literal past
# 4,300 digits as ValueError, and a table file that is not UTF-8 as
# UnicodeDecodeError
@example(case=(["prenorm", '--chain={"kind":"radial_rapidity","t0":1' + "0" * 400 + "}"],
               False, None))
@example(case=(["metric", '--chain={"kind":"radial_rapidity","ratio":1' + "0" * 400 + "}"],
               False, None))
@example(case=(["metric", '--chain={"kind":"radial_rapidity","depth":1' + "0" * 5000 + "}"],
               False, None))
@example(case=(["axioms", f"--model=table:{TMP}/not_utf8.json"], True, None))
@example(case=(["table-validate", f"--model=product:z2+{TMP}/long_int.json"], True, None))
def test_exit_code_contract(case, out_dir):
    argv, bad_file, out = case
    argv = [a.replace(TMP, str(out_dir)) for a in argv]
    out_path = out_dir / "report.json"
    out_path.unlink(missing_ok=True)
    if out is not None:
        argv = argv + ["--out", str(out_path if out == "file" else out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    stdout = stdout.getvalue()
    if "--list-suites" in argv and code == 0:
        assert stdout.splitlines() == [f"{name:16s} {SUITES[name]}" for name in sorted(SUITES)]
        return
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (0, 1):
        if out == "file":
            assert stdout == ""
            stdout = out_path.read_text(encoding="utf-8")
        assert stdout.endswith("\n") and stdout.count("\n") == 1
        assert json.loads(stdout)["pass"] is (code == 0)
        return
    assert stdout == "", (argv, code)
    if code == 3:
        assert bad_file or out == "directory", argv


@pytest.mark.parametrize("argv,message", [
    (["table-validate", "--model", "table:z272"], "table z272 is too large"),
    (["axioms", "--model", "table:z67"], "infeasible for order 67"),
    (["axioms", "--model", "einstein", "--samples", "1111112"], "3333336 samples of dimension 3"),
    (["search", "--order", "7"], "supported for order <= 6"),
])
def test_size_refusals_exit_two_under_256_mib(argv, message):
    # each refusal comes before the allocation it refuses
    resource = pytest.importorskip("resource")
    limit = 256 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "gyrokit.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert message in proc.stderr
