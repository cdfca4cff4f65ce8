import numpy as np
import pytest

from gyrokit.errors import UsageError
from gyrokit.core import check_identities
from gyrokit.models import (
    EinsteinModel,
    MobiusModel,
    ProductModel,
    _BallExtended,
    check_strong_base,
)
from gyrokit import ddarith as dd
from gyrokit.sampling import Sampler, ToleranceConfig, ball_points, directions


# -- frozen values, hand-computed from the defining formulas -----------------


def test_mobius_oplus_real_axis():
    # (0.5 + 0.5) / (1 + 0.25) = 0.8
    got = MobiusModel().oplus([[0.5, 0.0]], [[0.5, 0.0]])[0]
    assert got == pytest.approx([0.8, 0.0], abs=1e-15)


def test_mobius_oplus_imag_axis():
    got = MobiusModel().oplus([[0.0, 0.5]], [[0.0, 0.5]])[0]
    assert got == pytest.approx([0.0, 0.8], abs=1e-15)


def test_mobius_oplus_pair_interface():
    # a single unbatched (re, im) pair in, the same shape out
    got = MobiusModel().oplus([0.5, 0.0], [0.5, 0.0])
    assert isinstance(got, np.ndarray)
    assert np.allclose(got, [0.8, 0.0], atol=1e-15)


def test_mobius_gyr_oracle():
    # gyr[0.5, 0.5i] 0.1 = 3/34 - (4/85)i
    got = MobiusModel().gyr([[0.5, 0.0]], [[0.0, 0.5]], [[0.1, 0.0]])[0]
    assert got == pytest.approx([3.0 / 34.0, -4.0 / 85.0], abs=1e-15)


def test_mobius_gyr_unimodular_factor():
    gen = np.random.default_rng(3)
    a = 0.9 * (gen.uniform(-1, 1, (500, 2)))
    b = 0.9 * (gen.uniform(-1, 1, (500, 2)))
    a /= np.maximum(1.0, np.linalg.norm(a, axis=1, keepdims=True) / 0.95)
    b /= np.maximum(1.0, np.linalg.norm(b, axis=1, keepdims=True) / 0.95)
    x = np.full((500, 2), [0.1, 0.0])
    out = MobiusModel().gyr(a, b, x)
    assert np.allclose(np.linalg.norm(out, axis=1), 0.1, atol=1e-12)


def test_einstein_oplus_collinear():
    u = np.array([[0.5, 0.0, 0.0]])
    # (0.5 + 0.5) / (1 + 0.103) -> relativistic velocity sum
    got = EinsteinModel().oplus(u, u)[0]
    assert got == pytest.approx([0.8, 0.0, 0.0], abs=1e-15)


def test_einstein_oplus_with_c():
    c = 2.99792458e8
    u = np.array([[0.5 * c, 0.0, 0.0]])
    got = EinsteinModel(c).oplus(u, u)[0]
    assert got[0] == pytest.approx(0.8 * c, rel=1e-14)


def test_einstein_gyr_collinear_is_identity():
    u = np.array([[0.3, 0.0, 0.0]])
    v = np.array([[0.4, 0.0, 0.0]])
    w = np.array([[0.1, 0.2, -0.3]])
    got = EinsteinModel().gyr(u, v, w)
    assert np.allclose(got, w, atol=1e-14)


def test_rapidity_additivity_einstein():
    """Collinear addition is exactly additive in artanh scale; general
    pairs never exceed the sum. This certifies reducing composite radial
    sets to summed radii for the velocity model."""
    gen = np.random.default_rng(11)
    m = EinsteinModel()
    rho_u = gen.uniform(0, 2.5, 4000)
    rho_v = gen.uniform(0, 2.5, 4000)
    u = np.tanh(rho_u)[:, None] * directions(gen, 4000, 3)
    v = np.tanh(rho_v)[:, None] * directions(gen, 4000, 3)
    rho_sum = np.arctanh(np.linalg.norm(m.oplus(u, v), axis=1))
    assert float((rho_sum - (rho_u + rho_v)).max()) <= 1e-12
    # collinear equality
    e = np.zeros((1, 3))
    e[0, 0] = 1.0
    a, b = 0.9, 1.3
    s = np.arctanh(np.linalg.norm(m.oplus(np.tanh(a) * e, np.tanh(b) * e), axis=1))
    assert s[0] == pytest.approx(a + b, abs=1e-13)


def test_rapidity_additivity_mobius():
    gen = np.random.default_rng(12)
    m = MobiusModel()
    rho_u = gen.uniform(0, 2.5, 4000)
    rho_v = gen.uniform(0, 2.5, 4000)
    u = np.tanh(rho_u)[:, None] * directions(gen, 4000, 2)
    v = np.tanh(rho_v)[:, None] * directions(gen, 4000, 2)
    rho_sum = np.arctanh(np.linalg.norm(m.oplus(u, v), axis=1))
    assert float((rho_sum - (rho_u + rho_v)).max()) <= 1e-12


# -- extended-precision ops agree with doubles away from the boundary --------


def test_extended_matches_double_mobius():
    m = MobiusModel()
    ext = m.extended()
    gen = np.random.default_rng(5)
    x = 0.5 * gen.uniform(-1, 1, (100, 2))
    y = 0.5 * gen.uniform(-1, 1, (100, 2))
    lo = ext.lower(ext.oplus(ext.lift(x), ext.lift(y)))
    assert np.allclose(lo, m.oplus(x, y), atol=1e-14)


def test_extended_matches_double_einstein():
    m = EinsteinModel()
    ext = m.extended()
    gen = np.random.default_rng(5)
    x = 0.4 * gen.uniform(-1, 1, (100, 3))
    y = 0.4 * gen.uniform(-1, 1, (100, 3))
    lo = ext.lower(ext.oplus(ext.lift(x), ext.lift(y)))
    assert np.allclose(lo, m.oplus(x, y), atol=1e-14)


def test_extended_fixes_boundary_left_cancellation():
    # near the rim, -x + (x + y) loses half the digits in doubles; the
    # paired-double route restores y to full precision
    m = MobiusModel()
    ext = m.extended()
    x = np.array([[1.0 - 1e-6, 0.0]])
    y = np.array([[0.0, 1.0 - 1e-6]])
    xe, ye = ext.lift(x), ext.lift(y)
    back = ext.lower(ext.oplus(ext.neg(xe), ext.oplus(xe, ye)))
    assert np.abs(back - y).max() <= 1e-14


# -- closed-form Einstein gyration ---------------------------------------------


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_einstein_closed_gyr_matches_derived(c):
    m = EinsteinModel(c)
    assert m.has_closed_gyr
    gen = np.random.default_rng(7)
    # moderate rapidity, where the derived composition is well conditioned
    u, v, w = (ball_points(gen, 4000, 3, c, t_max=1.5, margin=None) for _ in range(3))
    assert np.abs(m.gyr(u, v, w) - m.gyr_derived(u, v, w)).max() <= 1e-13 * c


def test_einstein_extended_closed_gyr_matches_derived_at_boundary():
    m = EinsteinModel()
    ext = m.extended()
    gen = np.random.default_rng(8)
    # both pivots at the forced-boundary radius
    u = (1.0 - 1e-6) * directions(gen, 2000, 3)
    v = (1.0 - 1e-6) * directions(gen, 2000, 3)
    w = ball_points(gen, 2000, 3)
    U, V, W = ext.lift(u), ext.lift(v), ext.lift(w)
    closed = ext.lower(ext.gyr(U, V, W))
    derived = ext.lower(ext.gyr_derived(U, V, W))
    assert np.abs(closed - derived).max() <= 1e-15


def test_gyration_agreement_catches_swapped_pivots():
    # gyr[v, u] is the inverse rotation of gyr[u, v]; a model that
    # swaps the pivots in both precisions must fail the agreement check
    class SwappedExtended(_BallExtended):
        def gyr(self, u, v, w):
            return super().gyr(v, u, w)

    class Swapped(EinsteinModel):
        def gyr(self, u, v, w):
            return super().gyr(v, u, w)

        def extended(self):
            return SwappedExtended(self._oplus_cols, self._gyr_cols, self.c)

    bad = check_identities(Swapped(), Sampler(42), 2000).check("gyration_agreement")
    assert not bad.passed
    assert bad.max_residual > 0.1
    assert bad.witness is not None and len(bad.witness["inputs"]) == 3
    good = check_identities(EinsteinModel(), Sampler(42), 2000).check("gyration_agreement")
    assert good.passed
    assert 0.0 < good.max_residual <= 1e-9  # two different functions now


# -- the Einstein column kernels, pinned bit for bit ------------------------------
# References: the float64 functions on (n, 3) rows and the double-double
# method bodies that the shared column kernels replaced. Any change to the
# order of an operation in the kernels changes some last bit and fails here.


def _ref_gyr_coeffs(gu, gv, uv, uw, vw):
    d = 1.0 + uv + gu * gv
    a = (vw - (1.0 - gv) / (1.0 + gu) * uw + 2.0 * uv * vw / ((1.0 + gu) * (1.0 + gv))) / d
    b = -(uw + (1.0 - gu) / (1.0 + gv) * vw) / d
    return a, b


def _ref_rowdot(p, q):
    return np.sum(p * q, axis=-1)[..., None]


def _ref_oplus_rows(u, v):
    uv = _ref_rowdot(u, v)
    g = np.sqrt(1.0 - _ref_rowdot(u, u))
    return (u + g * v + (uv / (1.0 + g)) * u) / (1.0 + uv)


def _ref_gyr_rows(u, v, w):
    gu = np.sqrt(1.0 - _ref_rowdot(u, u))
    gv = np.sqrt(1.0 - _ref_rowdot(v, v))
    a, b = _ref_gyr_coeffs(
        gu, gv, _ref_rowdot(u, v), _ref_rowdot(u, w), _ref_rowdot(v, w)
    )
    return w + a * u + b * v


def _ref_oplus_dd(u, v):
    uv = dd.dot(u, v)
    g = (1.0 - dd.dot(u, u)).sqrt()
    coef = uv / (1.0 + g)
    d = 1.0 + uv
    return [(u[i] + v[i] * g + u[i] * coef) / d for i in range(len(u))]


def _ref_gyr_dd(u, v, w):
    def g(p):
        return (1.0 - dd.dot(p, p)).sqrt()

    a, b = _ref_gyr_coeffs(g(u), g(v), dd.dot(u, v), dd.dot(u, w), dd.dot(v, w))
    return [w[i] + a * u[i] + b * v[i] for i in range(len(w))]


def _dd_bytes(cols):
    return b"".join(c.hi.tobytes() + c.lo.tobytes() for c in cols)


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_einstein_kernels_bit_identical_to_references(c):
    m = EinsteinModel(c)
    gen = np.random.default_rng(17)
    # every 100th row of each operand sits at the forced boundary radius
    u, v, w = m.sample_operands(gen, 20000, 3, ToleranceConfig())
    assert np.isclose(m.magnitude(u[::100]), c * (1.0 - 1e-6), rtol=1e-12).all()

    want_oplus = c * _ref_oplus_rows(u / c, v / c) if c != 1.0 else _ref_oplus_rows(u, v)
    want_gyr = c * _ref_gyr_rows(u / c, v / c, w / c) if c != 1.0 else _ref_gyr_rows(u, v, w)
    assert m.oplus(u, v).tobytes() == want_oplus.tobytes()
    assert m.gyr(u, v, w).tobytes() == want_gyr.tobytes()

    ext = m.extended()
    U, V, W = (ext.lift(a) for a in (u, v, w))
    ref_lift = [col / c for col in dd.lift_vector(u)] if c != 1.0 else dd.lift_vector(u)
    assert _dd_bytes(U) == _dd_bytes(ref_lift)
    assert _dd_bytes(ext.oplus(U, V)) == _dd_bytes(_ref_oplus_dd(U, V))
    assert _dd_bytes(ext.gyr(U, V, W)) == _dd_bytes(_ref_gyr_dd(U, V, W))
    lowered = ext.lower(ext.gyr(U, V, W))
    assert lowered.tobytes() == (dd.lower_vector(_ref_gyr_dd(U, V, W)) * c).tobytes()


# -- product construction ----------------------------------------------------


def test_product_model_axioms():
    from gyrokit.core import check_axioms

    pm = ProductModel(MobiusModel(), EinsteinModel())
    assert pm.dim == 5
    assert pm.has_closed_gyr
    rep = check_axioms(pm, Sampler(42), 2000)
    assert rep.passed


def test_product_rejects_mixed_kinds():
    from gyrokit.tables import TableModel, cyclic_table

    with pytest.raises(UsageError):
        ProductModel(MobiusModel(), TableModel(cyclic_table(3)))


# -- strong base suite -------------------------------------------------------


@pytest.mark.parametrize("model", [MobiusModel(), EinsteinModel()])
def test_strong_base_passes(model):
    rep = check_strong_base(model, sampler=Sampler(42), n_samples=4000)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_strong_base_mobius_has_factor_check():
    rep = check_strong_base(MobiusModel(), sampler=Sampler(42), n_samples=2000)
    assert rep.check("rotation_factor_modulus").passed
    rep = check_strong_base(EinsteinModel(), sampler=Sampler(42), n_samples=2000)
    with pytest.raises(KeyError):
        rep.check("rotation_factor_modulus")


def test_strong_base_detects_noninvariant_set():
    # balls centered away from the identity are not gyration-stable
    rep = check_strong_base(
        MobiusModel(),
        sampler=Sampler(42),
        n_samples=4000,
        center=np.array([0.3, 0.0]),
        ball_radii=[0.1],
    )
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert any(c.name.startswith("ball_") for c in failing)
    assert all(c.witness is not None for c in failing if c.name.startswith("ball_"))


def test_strong_base_rejects_finite_model():
    from gyrokit.tables import TableModel, cyclic_table

    with pytest.raises(UsageError):
        check_strong_base(TableModel(cyclic_table(4)))
