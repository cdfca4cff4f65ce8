"""Verification reports and their canonical serialization.

Reports are plain data. The serialized form is canonical: keys sorted,
floats printed with 17 significant digits, no NaN/Inf. Two runs with the
same configuration produce byte-identical output except for the
``wall_time_s`` field.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CheckResult:
    """Outcome of a single named check inside a suite."""

    name: str
    passed: bool
    max_residual: float = 0.0
    samples: object = 0  # int count, or the string "exhaustive"
    witness: object = None  # JSON-able payload on failure

    def to_dict(self):
        d = {
            "name": self.name,
            "pass": bool(self.passed),
            "max_residual": float(self.max_residual),
            "samples_or_exhaustive": self.samples,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    depth: int | None = None
    model: str | None = None
    wall_time_s: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)

    def to_dict(self):
        d = {
            "suite": self.suite,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "tolerances": dict(self.tolerances),
            "wall_time_s": float(self.wall_time_s),
        }
        if self.seed is not None:
            d["seed"] = int(self.seed)
        if self.depth is not None:
            d["depth"] = int(self.depth)
        if self.model is not None:
            d["model"] = self.model
        if self.notes:
            d["notes"] = dict(self.notes)
        return d


@contextmanager
def suite_report(suite, model, sampler=None, tol=None, **fields):
    """Yield the empty report of one suite run on the model named ``model``,
    with the sampler's seed, the tolerances and any other ``fields``; its
    ``wall_time_s`` is set on every way out of the block."""
    report = VerificationReport(
        suite=suite,
        model=model,
        seed=None if sampler is None else sampler.seed,
        tolerances={} if tol is None else tol.to_dict(),
        **fields,
    )
    start = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_time_s = time.perf_counter() - start


def witness_check(name, witness=None, samples="exhaustive"):
    """A check that fails, with residual 1, exactly when it has a witness."""
    return CheckResult(name, witness is None, float(witness is not None), samples, witness)


def array_check(name, residual, ok, samples, witness=None):
    """A check over per-sample ``residual`` values and verdicts ``ok`` of
    one shape (scalars for a single verdict).

    The check passes iff every entry of ``ok`` is true. ``max_residual`` is
    the largest residual, floored at 0. On failure ``witness(i)``, when
    given, builds the witness payload from the flat index ``i`` of the
    failing entry with the largest residual (``np.unravel_index`` maps it
    back to an n-D input); a passing check never calls it.

    NaN rule: an entry whose residual is NaN fails, whatever ``ok`` says.
    Otherwise NaN is skipped: ``max_residual`` is taken over the other
    entries, and a NaN entry is the witness only when every failing entry
    is NaN (then the first of them).
    """
    residual = np.asarray(residual, dtype=float)
    bad = ~np.asarray(ok, dtype=bool) | np.isnan(residual)
    result = CheckResult(
        name,
        not bad.any(),
        max(0.0, float(np.fmax.reduce(residual, axis=None, initial=0.0))),
        samples,
    )
    if witness is not None and not result.passed:
        failing = np.flatnonzero(bad)
        worst = residual.ravel()[failing]
        worst[np.isnan(worst)] = -np.inf
        result.witness = witness(int(failing[np.argmax(worst)]))
    return result


def _canon(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("canonical reports must not contain NaN or Inf")
        if obj == int(obj) and abs(obj) < 1e16:
            # stable short form for exact integers stored as floats
            out.append(repr(float(obj)))
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError("report keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(_json_string(k))
            out.append(":")
            _canon(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _canon(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically serialize {type(obj).__name__}")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_string(s):
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def canonical_json(obj) -> str:
    """Serialize to deterministic JSON (sorted keys, 17-digit floats)."""
    out = []
    _canon(obj, out)
    return "".join(out)
