"""The law engine's float64 pass runs in row blocks; blocks never show.

``core.run_law_check`` evaluates each law on blocks of ``_LAW_BLOCK_ROWS``
stream rows. These tests pin that the block size cannot change a report,
the chain suites' included, that no model kernel is handed more than one
block, that the chain checks redo their stressed rows in double-double as
the law suites do, and that the in-place sampling arithmetic draws the
same bits as the broadcast expressions it replaced.
"""

import contextlib
import io
import re

import numpy as np
import pytest

from gyrokit import core, models, prenorm
from gyrokit.cli import main
from gyrokit.core import law_g3, law_g4_loop, run_law_check
from gyrokit.models import EinsteinModel, MobiusModel, check_strong_base
from gyrokit.prenorm import (
    RadialChain,
    check_metric_properties,
    check_prenorm_properties,
    validate_admissible_chain,
)
from gyrokit.report import canonical_json
from gyrokit.sampling import (
    FORCED_STRIDE,
    Sampler,
    ToleranceConfig,
    ball_points,
    directions,
    rownorm,
)

_WALL = re.compile(r'"wall_time_s":[^,}]*')
SMALL_BLOCK = 7  # divides none of the stream lengths below


def run_cli(argv):
    """Exit code and report, with ``wall_time_s`` blanked, of one invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, _WALL.sub('"wall_time_s":null', out.getvalue())


# -- blocks never change a report --------------------------------------------


@pytest.mark.parametrize("tol", [None, "0"], ids=["default-tol", "tol0"])
@pytest.mark.parametrize("model", ["mobius", "einstein", "product:mobius+einstein"])
@pytest.mark.parametrize("suite", ["axioms", "identities", "strong-base"])
def test_small_blocks_keep_every_report(monkeypatch, suite, model, tol):
    argv = [suite, "--model", model, "--samples", "100", "--seed", "3"]
    if tol is not None:
        argv += ["--tol", tol]
    want = run_cli(argv)
    assert 100 % SMALL_BLOCK and 300 % SMALL_BLOCK
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    assert run_cli(argv) == want
    if tol is not None:
        assert want[0] == 1  # at tol 0 some check fails and reports a witness


@pytest.mark.parametrize("ratio", [0.25, 0.5])
@pytest.mark.parametrize("model", ["mobius", "einstein"])
@pytest.mark.parametrize("suite", ["prenorm", "metric", "admissible"])
def test_small_blocks_keep_every_chain_report(monkeypatch, suite, model, ratio):
    chain = f'{{"kind":"radial_rapidity","ratio":{ratio},"depth":8}}'
    argv = [suite, "--model", model, "--chain", chain, "--samples", "100", "--seed", "3"]
    want = run_cli(argv)
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    assert run_cli(argv) == want
    if suite == "admissible" and ratio == 0.5:
        assert want[0] == 1  # the double sums fail and report witnesses


# -- the chain checks reach double-double -------------------------------------

# the chain checks that run on the law engine, by suite; the admissible
# levels are level_<n>_double_sum
ENGINE_CHECKS = {
    "prenorm": {"gyration_invariance", "subadditivity", "inversion_symmetry",
                "closed_form_agreement"},
    "metric": {"rho_identity", "rho_symmetry", "rho_triangle", "decomposition_identity",
               "rho_oracle", "rho_closed_form"},
}


@pytest.mark.parametrize("ratio", [0.25, 0.5])
@pytest.mark.parametrize("cls", [MobiusModel, EinsteinModel], ids=["mobius", "einstein"])
def test_chain_checks_redo_every_stressed_row_in_double_double(monkeypatch, cls, ratio):
    # with a stress threshold below every norm fraction, each row is
    # stressed: each engine check lifts every row of each operand stream
    # once, and on the ratio 1/4 chain each check still passes
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    real_check, real_lift = prenorm.run_law_check, models._BallExtended.lift
    current, lifted = [None], {}

    def check(model, name, law, streams, tol, rule=None):
        current[0] = name
        lifted[name] = (len(streams), len(streams[0]), [])
        try:
            return real_check(model, name, law, streams, tol, rule)
        finally:
            current[0] = None

    def lift(self, x):
        lifted[current[0]][2].append(len(x))
        return real_lift(self, x)

    monkeypatch.setattr(prenorm, "run_law_check", check)
    monkeypatch.setattr(models._BallExtended, "lift", lift)
    chain = RadialChain(cls(), ratio=ratio, depth=8)
    reports = [
        check_prenorm_properties(chain, n_samples=300),
        check_metric_properties(chain, n_samples=300),
        validate_admissible_chain(chain, n_samples=300),
    ]
    engine = ENGINE_CHECKS["prenorm"] | ENGINE_CHECKS["metric"]
    engine |= {f"level_{n}_double_sum" for n in range(8)}
    if ratio != 0.5:
        engine -= {"closed_form_agreement", "rho_closed_form"}
    assert set(lifted) == engine
    for name, (k, n, rows) in lifted.items():
        assert rows == [n] * k, name
    if ratio == 0.25:
        for rep in reports:
            assert all(c.passed for c in rep.checks if c.name in engine), rep.suite


def test_a_rule_reads_float64_points_on_double_double_rows(monkeypatch):
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    seen = []

    def rule(tuples):
        seen.append([(type(p), p.dtype, p.shape) for points in tuples for p in points])
        r = np.zeros(len(tuples[0][0]))
        return r, r <= 0.0

    m = MobiusModel()
    tol = ToleranceConfig()
    streams = m.sample_operands(np.random.default_rng(3), 100, 2, tol)
    law = lambda ops, x, y: [(ops.oplus(x, y), ops.oplus(y, x))]  # noqa: E731
    assert run_law_check(m, "commutation", law, streams, tol, rule).passed
    # the float64 block, then the double-double pass over every row
    assert seen == [[(np.ndarray, np.dtype(np.float64), (100, 2))] * 2] * 2


def test_small_blocks_keep_a_witness_beyond_the_first_block(monkeypatch):
    m = MobiusModel()
    tol0 = ToleranceConfig(abs_tol=0.0, rel_tol=0.0)
    gen = Sampler(5).stream("axioms", "G3_gyroassociativity")
    streams = m.sample_operands(gen, 100, 3, ToleranceConfig())
    want = run_law_check(m, "G3_gyroassociativity", law_g3, streams, tol0)
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    got = run_law_check(m, "G3_gyroassociativity", law_g3, streams, tol0)
    assert not want.passed
    assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
    rows = [i for i, row in enumerate(streams[0].tolist()) if row == want.witness["inputs"][0]]
    assert rows and rows[0] >= SMALL_BLOCK


# -- no kernel call exceeds one block ------------------------------------------


def _recording(cls):
    class Recording(cls):
        def __init__(self):
            super().__init__()
            self.rows = {"oplus": [], "gyr": [], "norm_fraction": []}

        def oplus(self, a, b):
            self.rows["oplus"].append(len(a))
            return super().oplus(a, b)

        def gyr(self, a, b, z):
            self.rows["gyr"].append(len(a))
            return super().gyr(a, b, z)

        def norm_fraction(self, a):
            self.rows["norm_fraction"].append(len(a))
            return super().norm_fraction(a)

    return Recording()


@pytest.mark.parametrize("cls", [MobiusModel, EinsteinModel], ids=["mobius", "einstein"])
def test_no_kernel_call_exceeds_one_block(cls):
    m = _recording(cls)
    n = 300_000
    gen = np.random.default_rng(11)
    streams = [ball_points(gen, n, m.dim, forced_offset=j) for j in range(3)]
    result = run_law_check(m, "G4_loop", law_g4_loop, streams, ToleranceConfig())
    assert result.passed and result.samples == n
    for kernel, rows in m.rows.items():
        assert rows, kernel
        assert max(rows) <= core._LAW_BLOCK_ROWS, kernel
    # the three inputs and every traced result cover each row once per call site
    assert sum(m.rows["norm_fraction"]) % n == 0
    assert sum(m.rows["norm_fraction"]) >= 3 * n


# -- in-place sampling draws the old bits -------------------------------------


def _old_directions(gen, n, dim):
    if dim == 2:
        theta = gen.uniform(0.0, 2.0 * np.pi, n)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    v = gen.normal(size=(n, dim))
    norm = rownorm(v)
    bad = norm < 1e-12
    while bad.any():
        v[bad] = gen.normal(size=(int(bad.sum()), dim))
        norm = rownorm(v)
        bad = norm < 1e-12
    return v / norm[:, None]


def _old_ball_points(gen, n, dim, bound, margin=1e-6, forced_offset=None):
    r = np.tanh(gen.uniform(0.0, 3.0, n))
    if forced_offset is not None:
        r[forced_offset::FORCED_STRIDE] = 1.0 - margin
    return (bound * r)[:, None] * _old_directions(gen, n, dim)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_directions_match_the_broadcast_expression(dim):
    for seed in range(3):
        got = directions(np.random.default_rng(seed), 5003, dim)
        want = _old_directions(np.random.default_rng(seed), 5003, dim)
        assert _same_bits(got, want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bound", [1.0, 2.5])
@pytest.mark.parametrize("offset", [None, 17])
def test_ball_points_match_the_broadcast_expression(dim, bound, offset):
    got = ball_points(np.random.default_rng(4), 5003, dim, bound, forced_offset=offset)
    want = _old_ball_points(np.random.default_rng(4), 5003, dim, bound, forced_offset=offset)
    assert _same_bits(got, want)


@pytest.mark.parametrize("model,center", [
    (MobiusModel(), None),
    (EinsteinModel(), None),
    (EinsteinModel(2.5), [0.3, -0.1, 0.2]),
], ids=["mobius", "einstein", "einstein-c2.5-off-center"])
def test_strong_base_balls_match_the_broadcast_expression(monkeypatch, model, center):
    seen = {}

    def record(model_, name, law, streams, tol, rule=None):
        seen[name] = [s.copy() for s in streams]
        return run_law_check(model_, name, law, streams, tol, rule)

    monkeypatch.setattr(models, "run_law_check", record)
    tol = ToleranceConfig()
    n = 1003
    check_strong_base(model, sampler=Sampler(9), n_samples=n, tol=tol, center=center)
    c = np.zeros(model.dim) if center is None else np.asarray(center, dtype=float)
    for r in (0.9 * model.bound, 0.5 * model.bound, 0.25 * model.bound):
        tag = f"r={r:g}"
        gen = Sampler(9).stream("strong-base", f"ball_invariance_{tag}")
        x, y = [_old_ball_points(gen, n, model.dim, model.bound, forced_offset=j)
                for j in range(2)]
        p, q = [
            c + (r * gen.uniform(0.0, 1.0, n) ** (1.0 / model.dim))[:, None]
            * _old_directions(gen, n, model.dim)
            for _ in range(2)
        ]
        fx, fy, fp = seen[f"ball_forward_{tag}"]
        _, _, fq = seen[f"ball_preimage_{tag}"]
        for got, want in ((fx, x), (fy, y), (fp, p), (fq, q)):
            assert _same_bits(got, want)
