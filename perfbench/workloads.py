"""The benchmark's workloads: fixed lists of `gyro` invocations, and the
correctness gate every invocation has to pass.

Each op is one `gyro` command line. The benchmark appends `--seed` and
`--out` itself. `samples` is kept apart from the argument list so that the
benchmark's own test can run every workload at a reduced size.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

# spans and scratch reports; ignored by git
OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"

LAW_RESIDUAL_LIMIT = 1e-8
LAW_SUITES = ("axioms", "identities", "strong-base")

CHAIN_025 = '{"kind":"radial_rapidity","t0":1.0,"ratio":0.25,"depth":24}'
CHAIN_050 = '{"kind":"radial_rapidity","t0":1.0,"ratio":0.5,"depth":24}'

# the one op known to fail at the seed: on the closure-growth path
# (order > 12) enumerate_subgyrogroups returns numpy int64 indices that
# canonical_json refuses to serialize
KNOWN_FAILURE = "cannot canonically serialize int64"

AXIOM_NAMES = ("G1_identity", "G2_inverses", "G3_gyroassociativity",
               "G3_automorphism", "G4_loop")
IDENTITY_NAMES = ("left_cancellation", "right_cancellation",
                  "twisted_right_cancellation", "gyration_agreement",
                  "triangle_decomposition")
STRONG_BASE_NAMES = tuple(
    f"ball_{kind}_r={r}" for r in ("0.9", "0.5", "0.25")
    for kind in ("forward", "preimage", "roundtrip")
) + ("norm_preservation", "commutation_norm")
SUITE_CHECKS = {"axioms": AXIOM_NAMES, "identities": IDENTITY_NAMES,
                "strong-base": STRONG_BASE_NAMES}
METRIC_NAMES = ("d_identity", "d_symmetry", "d_triangle", "rho_identity",
                "rho_symmetry", "rho_triangle")
PRENORM_NAMES = ("gyration_invariance", "subadditivity", "inversion_symmetry")


@dataclass(frozen=True)
class Op:
    """One `gyro` invocation and what its report must show."""

    argv: tuple
    checks: tuple  # check names the report must contain
    samples: int | None = None  # --samples, scaled down by the benchmark test
    counts: dict = field(default_factory=dict)  # notes key -> exact value
    known_failure: str | None = None

    @property
    def suite(self):
        return self.argv[0]

    def command(self, seed, out, scale=1.0):
        argv = list(self.argv)
        if self.samples is not None:
            argv += ["--samples", str(max(200, int(self.samples * scale)))]
        return argv + ["--seed", str(seed), "--out", out]

    def label(self):
        return " ".join(a for a in self.argv if not a.startswith("{"))


def _law_ops(model):
    return [Op((suite, "--model", model), names, samples=100_000)
            for suite, names in SUITE_CHECKS.items()]


def _levels(prefix, n, suffix=""):
    return tuple(f"{prefix}{i}{suffix}" for i in range(n))


_Z24_SUB = ("--model", "table:z24", "--subgyrogroup", "0,6,12,18")

WORKLOADS = {
    "laws-einstein": _law_ops("einstein"),
    "laws-mobius": _law_ops("mobius"),
    "metrization": [
        Op(("prenorm", "--model", "mobius", "--chain", CHAIN_025),
           _levels("sandwich_level_", 25) + PRENORM_NAMES, samples=100_000),
        Op(("metric", "--model", "mobius", "--chain", CHAIN_025),
           METRIC_NAMES + ("decomposition_identity", "rho_oracle"), samples=100_000),
        Op(("metric", "--model", "mobius", "--chain", CHAIN_050),
           METRIC_NAMES + ("decomposition_identity", "rho_oracle", "rho_closed_form"),
           samples=20_000),
        Op(("admissible", "--model", "mobius", "--chain", CHAIN_025),
           ("analytic_condition",) + _levels("level_", 24, "_double_sum")
           + ("intersection_contains_identity",), samples=10_000),
    ],
    "finite-tables": [
        Op(("search", "--order", "6"), ("all_candidates_valid",), counts={"count": 2}),
        Op(("table-validate", "--model", "table:z64"),
           ("G1_unique_identity", "G2_unique_inverses", "left_translations_bijective",
            "G3_gyroassociativity", "G3_automorphism", "G4_loop")),
        Op(("axioms", "--model", "table:z40"), AXIOM_NAMES),
        Op(("identities", "--model", "table:z40"), IDENTITY_NAMES),
        Op(("subgyrogroups", "--model", "table:z12"), ("enumeration",), counts={"count": 6}),
        Op(("subgyrogroups", "--model", "table:z24"), ("enumeration",), counts={"count": 8},
           known_failure=KNOWN_FAILURE),
        Op(("cosets",) + _Z24_SUB,
           ("is_subgyrogroup", "invariant_under_all_gyrations", "equal_block_sizes",
            "disjoint_cover"), counts={"blocks": 6}),
        Op(("prenorm",) + _Z24_SUB, ("sandwich_level_0", "sandwich_level_1") + PRENORM_NAMES),
        Op(("metric",) + _Z24_SUB,
           METRIC_NAMES + ("d_coset_invariance", "rho_coset_invariance",
                           "rho_discrete_on_quotient")),
    ],
}


def gate(op: Op, code, error, report_text):
    """Return None when the op's outcome is correct, else a one-line reason.

    ``error`` is the escaped exception as text, or None; ``report_text``
    is the report the op wrote, or None.
    """
    if error is not None:
        return f"exception: {error}"
    if code != 0:
        return f"exit code {code}"
    if report_text is None:
        return "no report written"
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report.get("pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        return f"report pass is false: {failed}"
    names = {c["name"] for c in report["checks"]}
    missing = [n for n in op.checks if n not in names]
    if missing:
        return f"missing checks: {missing}"
    if op.suite in LAW_SUITES:
        worst = max(report["checks"], key=lambda c: c["max_residual"])
        if worst["max_residual"] > LAW_RESIDUAL_LIMIT:
            return f"{worst['name']} max_residual {worst['max_residual']:.3e} > 1e-8"
    notes = report.get("notes", {})
    for key, want in op.counts.items():
        got = notes.get(key)
        got = len(got) if isinstance(got, list) else got
        if got != want:
            return f"notes.{key} is {got!r}, expected {want!r}"
    return None


_WALL = re.compile(r'"wall_time_s":[^,}]*')


def normalized(report_text):
    """The report with its one wall-clock field blanked out."""
    return _WALL.sub('"wall_time_s":null', report_text)
