"""The benchmark's tracer hooks gyrokit functions and classes by name.

A rename in the package would otherwise show up only as a failing traced
benchmark run, so this installs the tracer in a fresh interpreter. A
refactor that calls past a hooked name would leave its layer's metrics at
zero without an error, so the tracer also runs two chain suites there and
each hook must record spans.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from tracer import Tracer
tracer = Tracer()
tracer.install()
print("installed")
"""

# the ratio-1/4 radial metric, the finite prenorm on z24 and the ratio-1/4
# radial prenorm, in process
RUN = """
import contextlib, io, json
from gyrokit.cli import main
runs = [
    ["metric", "--model", "mobius", "--samples", "200",
     "--chain", '{"kind":"radial_rapidity","ratio":0.25}'],
    ["prenorm", "--model", "table:z24", "--subgyrogroup", "0,6,12,18"],
    ["prenorm", "--model", "mobius", "--samples", "200",
     "--chain", '{"kind":"radial_rapidity","ratio":0.25}'],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [tracer.call(f"cli:{argv[0]}", main, argv) for argv in runs]
spans = {}
for name, _, _, _, invocation, _ in tracer.spans:
    spans.setdefault(name, set()).add(invocation)
print(json.dumps({"codes": codes, "spans": {k: sorted(v) for k, v in spans.items()}}))
"""


def run(code):
    code = INSTALL.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src")) + code
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_tracer_installs_every_hook():
    assert run("") == ["installed"]


def test_traced_chain_suites_record_every_prenorm_hook():
    installed, result = run(RUN)
    assert installed == "installed"
    result = json.loads(result)
    assert result["codes"] == [0, 0, 0]
    spans = result["spans"]
    # invocation 0 is the radial metric, 1 the finite prenorm, 2 the radial
    # prenorm, whose sandwich levels alone draw through _rapidity_ball
    assert spans["prenorm:eval"] == [0, 1, 2]
    assert 0 in spans["prenorm:oracle"]
    assert 0 in spans["sampling:ball_points"]
    assert spans["sampling:_rapidity_ball"] == [2]
    assert 0 in spans["core:run_law_check"]
