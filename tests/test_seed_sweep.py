"""Smoke test of tools/seed_sweep.py at a tiny size."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_seed_sweep_writes_one_row_per_seed_and_case(tmp_path):
    sweep = _load_tool()
    out = tmp_path / "sweep.json"
    assert sweep.main(["--seeds", "3-4", "--samples", "200", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"samples", "seeds", "cases"}
    assert data["samples"] == 200 and data["seeds"] == [3, 4]
    rows = data["cases"]
    assert len(rows) == 2 * len(sweep.cases())
    for row in rows:
        assert set(row) == {"seed", "model", "suite", "chain", "exit", "checks", "sha256"}
        assert len(row["sha256"]) == 64
        for check in row["checks"]:
            assert set(check) == {"name", "pass", "max_residual"}
        # a nonzero exit is a failed check, never a usage or I/O error
        assert row["exit"] == (0 if all(c["pass"] for c in row["checks"]) else 1)
