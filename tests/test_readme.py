"""README's library examples run as written, and the package exports
every name it lists."""

import contextlib
import io
import re
from pathlib import Path

import gyrokit

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
    assert lines[3:] == ["True", "2", "[0. 1. 0. 1.]", "[0.]"]


def test_every_exported_name_resolves():
    missing = [name for name in gyrokit.__all__ if not hasattr(gyrokit, name)]
    assert missing == []
