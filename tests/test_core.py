import math

import numpy as np
import pytest

from gyrokit.core import (
    GyrogroupModel,
    check_axioms,
    check_identities,
    derived_gyration,
    law_gyration_agreement,
)
from gyrokit.errors import ResourceLimitError, SamplingError
from gyrokit.models import EinsteinModel, MobiusModel, ProductModel
from gyrokit.sampling import (
    FORCED_STRIDE,
    MAX_SAMPLE_VALUES,
    Sampler,
    ToleranceConfig,
    ball_points,
    check_sample_size,
    derive_seed,
    directions,
    rowdot,
    rownorm,
    sample_operands,
)


def test_package_api_names_resolve_once():
    import gyrokit

    assert len(gyrokit.__all__) == len(set(gyrokit.__all__))
    missing = [name for name in gyrokit.__all__ if not hasattr(gyrokit, name)]
    assert missing == []


# -- sampling ---------------------------------------------------------------


def test_derive_seed_distinct_per_check():
    s1 = derive_seed(42, "axioms", "G1")
    s2 = derive_seed(42, "axioms", "G2")
    s3 = derive_seed(43, "axioms", "G1")
    assert len({s1, s2, s3}) == 3


def test_sampler_streams_reproducible():
    a = Sampler(7).stream("s", "c").uniform(size=5)
    b = Sampler(7).stream("s", "c").uniform(size=5)
    assert np.array_equal(a, b)


def test_directions_unit_norm():
    gen = np.random.default_rng(0)
    for dim in (2, 3, 5):
        d = directions(gen, 200, dim)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_ball_points_forced_boundary_slice():
    gen = np.random.default_rng(0)
    pts = ball_points(gen, 500, 2, bound=1.0, margin=1e-6, forced_offset=3)
    r = np.linalg.norm(pts, axis=1)
    assert np.allclose(r[3::FORCED_STRIDE], 1.0 - 1e-6, atol=1e-15)
    assert (r < 1.0).all()


def test_rowdot_and_rownorm_match_numpy_bit_for_bit():
    gen = np.random.default_rng(5)
    n = 4000
    wide = gen.normal(size=(n, 5)) * 10.0 ** gen.uniform(-150, 150, size=(n, 5))
    wide[:40] = -0.0  # np.sum turns an all -0.0 row into +0.0
    wide[40:80, ::2] = -0.0
    wide[80:120, 1] = np.inf
    wide[120:160, 3] = -np.inf
    wide[160:200] = 5e-324 * gen.integers(-3, 4, size=(40, 5))  # subnormals
    wide[200:240] = gen.normal(size=(40, 5)) * 1e-310
    other = gen.normal(size=(n, 5))
    other[:20] = 0.0
    other[240:280] = -0.0
    cases = [(wide[:, :d], other[:, :d]) for d in (2, 3, 5)]
    cases += [(wide[:, :2], wide[:, 1:3]), (wide[:, 1:], other[:, 1:]), (wide[:, 1:], wide[:, 1:])]
    cases += [(wide[7, :3], other[7, :3]), (wide[0, :2], other[0, :2])]
    for a, b in cases:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e300**2
            pairs = [(rowdot(a, b), np.sum(a * b, axis=-1)),
                     (rownorm(a), np.linalg.norm(a, axis=-1))]
        for got, want in pairs:
            got, want = np.asarray(got), np.asarray(want)
            keep = ~np.isnan(want)
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), ~keep)
            assert got[keep].tobytes() == want[keep].tobytes()


def test_sample_cap_refuses_before_drawing():
    from gyrokit.prenorm import _rapidity_ball

    # no generator: a refused request must fail before it draws anything
    with pytest.raises(ResourceLimitError):
        ball_points(None, MAX_SAMPLE_VALUES // 3 + 1, 3)
    with pytest.raises(ResourceLimitError):
        _rapidity_ball(None, MAX_SAMPLE_VALUES // 2 + 1, 2, 1.0, 1.0)
    with pytest.raises(SamplingError):
        ball_points(None, 0, 3)
    check_sample_size(MAX_SAMPLE_VALUES // 3, 3)  # the cap itself is allowed

    # plain checks fit, but the witness-expanded ones would not: the suite
    # is refused before its first check draws a sample
    class NoDraws(Sampler):
        def stream(self, suite, check):
            raise AssertionError(f"{check} drew samples")

    n = MAX_SAMPLE_VALUES // 9 + 1
    check_sample_size(n, 3)
    with pytest.raises(ResourceLimitError):
        check_axioms(EinsteinModel(), NoDraws(), n)


def test_sample_operands_disjoint_forcing():
    gen = np.random.default_rng(0)
    ops = sample_operands(gen, 400, 2, 3)
    radii = [np.linalg.norm(o, axis=1) for o in ops]
    near = [r > 1.0 - 1e-5 for r in radii]
    # no index has two operands at the boundary at once
    assert not (near[0] & near[1]).any()
    assert not (near[0] & near[2]).any()
    assert not (near[1] & near[2]).any()


@pytest.mark.parametrize(
    "model",
    [MobiusModel(), EinsteinModel(), EinsteinModel(2.5),
     ProductModel(MobiusModel(), EinsteinModel())],
    ids=lambda m: m.name,
)
@pytest.mark.parametrize("offset", [0, 1, 2, 99])
def test_sample_operands_offset_draws_the_witness_streams(model, offset):
    # the witness operands of a check with `offset` base operands were drawn
    # stream by stream with the boundary forced at (offset + j) % 100;
    # sample_operands(..., offset=offset) must draw the same bits
    tol = ToleranceConfig()

    def witness_streams(m, gen, n, count):
        if isinstance(m, ProductModel):
            lefts = witness_streams(m.left, gen, n, count)
            rights = witness_streams(m.right, gen, n, count)
            return [np.concatenate([a, b], axis=-1) for a, b in zip(lefts, rights)]
        return [
            ball_points(gen, n, m.dim, m.bound, margin=tol.boundary_margin,
                        forced_offset=(offset + j) % 100)
            for j in range(count)
        ]

    want = witness_streams(model, np.random.default_rng(5), 600, 2)
    got = model.sample_operands(np.random.default_rng(5), 600, 2, tol, offset=offset)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(abs_tol=-1)
    with pytest.raises(ValueError):
        ToleranceConfig(boundary_margin=1.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ToleranceConfig(abs_tol=bad)
        with pytest.raises(ValueError):
            ToleranceConfig(rel_tol=bad)
    assert ToleranceConfig().to_dict()["abs_tol"] == 1e-9


# -- gyration plumbing ------------------------------------------------------


def test_derived_gyration_mobius_oracle():
    # gyr[0.5, 0.5i](0.1) = 3/34 - (4/85)i, hand-reduced from the
    # closed quotient (1+ab~)/(1+a~b) * z
    m = MobiusModel()
    x = np.array([[0.5, 0.0]])
    y = np.array([[0.0, 0.5]])
    z = np.array([[0.1, 0.0]])
    got = derived_gyration(m, x, y, z)[0]
    want = np.array([3.0 / 34.0, -4.0 / 85.0])
    assert np.allclose(got, want, atol=1e-15)
    # and the closed form agrees
    assert np.allclose(m.gyr(x, y, z)[0], want, atol=1e-15)


# -- suites on the continuous models ---------------------------------------


@pytest.mark.parametrize("model", [MobiusModel(), EinsteinModel()])
def test_axioms_pass(model):
    rep = check_axioms(model, Sampler(42), 4000)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    names = [c.name for c in rep.checks]
    assert names == [
        "G1_identity",
        "G2_inverses",
        "G3_gyroassociativity",
        "G3_automorphism",
        "G4_loop",
    ]


@pytest.mark.parametrize("model", [MobiusModel(), EinsteinModel()])
def test_identities_pass(model):
    rep = check_identities(model, Sampler(42), 4000)
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "left_cancellation",
        "right_cancellation",
        "twisted_right_cancellation",
        "gyration_agreement",
        "triangle_decomposition",
    ]


def test_report_metadata_recorded():
    rep = check_axioms(MobiusModel(), Sampler(9), 500)
    assert rep.seed == 9
    assert rep.tolerances["abs_tol"] == 1e-9
    assert rep.wall_time_s > 0


class _BrokenModel(MobiusModel):
    """Deliberately wrong addition to exercise failure reporting."""

    def oplus(self, x, y):
        return super().oplus(x, y) * (1.0 + 1e-6)

    def extended(self):
        return None


def test_failure_produces_witness():
    rep = check_axioms(_BrokenModel(), Sampler(42), 300)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert failing
    w = failing[0].witness
    assert w is not None and "residual" in w


def test_boundary_stress_needs_extended_precision():
    # The derived gyration at forced-boundary operands is ill-conditioned
    # in plain doubles: comparing it with the closed form in doubles alone
    # blows up, while the suite, which reruns stressed samples through the
    # paired-double ops, stays tight on the very same samples.
    m = EinsteinModel()
    tol = ToleranceConfig()
    gen = Sampler(42).stream("identities", "gyration_agreement")
    x, y, z = m.sample_operands(gen, 20000, 3, tol)
    lhs, rhs = law_gyration_agreement(m, x, y, z)[0]
    double_only = float(np.max(m.distance(lhs, rhs) / np.maximum(1.0, m.magnitude(lhs))))
    assert double_only > 1e-8  # the conditioning is real
    rep = check_identities(m, Sampler(42), 20000)
    assert rep.passed
    assert rep.check("gyration_agreement").max_residual <= 1e-9


def test_exhaustive_cap():
    from gyrokit.core import _run_suite
    from gyrokit.tables import TableModel, cyclic_table

    calls = []

    def law(ops, *xs):
        calls.append(len(xs))
        return []

    # 30^5 operand tuples exceed the cap; the table itself is small. The
    # suite is refused before its first, small check runs.
    checks = [("one", law, 1, 0), ("five", law, 3, 2)]
    with pytest.raises(ResourceLimitError):
        _run_suite(TableModel(cyclic_table(30)), "cap", checks, None, 0, None)
    assert calls == []


def test_relative_tolerance_scales_with_magnitude():
    class Skewed(GyrogroupModel):
        name = "skewed"
        dim = 1
        bound = 1e9

        def oplus(self, x, y):
            return x + y

        def neg(self, x):
            return -x

        def extended(self):
            return None

        def sample_operands(self, gen, n, k, tol, offset=0):
            return [gen.uniform(1e8, 9e8, size=(n, 1)) for _ in range(k)]

    rep = check_axioms(Skewed(), Sampler(1), 500)
    # plain addition is a group: everything must pass even though
    # absolute rounding near 1e9 dwarfs abs_tol
    assert rep.passed
