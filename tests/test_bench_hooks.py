"""The benchmark's tracer hooks gyrokit functions and classes by name.

A rename in the package would otherwise show up only as a failing traced
benchmark run, so this installs the tracer in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from tracer import Tracer
Tracer().install()
print("installed")
"""


def test_tracer_installs_every_hook():
    code = INSTALL.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
