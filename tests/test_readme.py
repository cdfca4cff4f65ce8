"""README's library examples run as written, the package exports
every name it lists, and the exit-code table names live errors."""

import builtins
import contextlib
import io
import re
from pathlib import Path

import gyrokit
from gyrokit import errors
from gyrokit.cli import EXIT_CODES

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    # the comments in the examples state what they print
    assert lines[:3] == ["True", "True", "[0.29999995]"]
    assert lines[3:] == ["True", "2", "[0. 1. 0. 1.]", "[0.]", "[2.]"]


def test_every_exported_name_resolves():
    missing = [name for name in gyrokit.__all__ if not hasattr(gyrokit, name)]
    assert missing == []


def test_exit_code_table_matches_cli():
    rows = re.findall(r"^\| ([0-9]) \| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
    assert [code for code, _ in rows] == ["0", "1", "2", "3"]
    named = set()
    for code, text in rows:
        for name in re.findall(r"`(\w+Error)`", text):
            # the package's own errors, and the one builtin the CLI maps
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            assert cls is not None, f"README names {name}, which does not exist"
            assert EXIT_CODES.get(cls) == int(code), f"README puts {name} under exit {code}"
            named.add(cls)
    assert named == set(EXIT_CODES)
