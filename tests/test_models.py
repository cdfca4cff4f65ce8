import numpy as np
import pytest

from gyrokit.errors import UsageError
from gyrokit.core import _Point, check_identities, derived_gyration
from gyrokit.models import (
    EinsteinModel,
    MobiusModel,
    ProductModel,
    _e_gyr_cols,
    check_strong_base,
)
from gyrokit import ddarith as dd
from gyrokit.sampling import Sampler, ToleranceConfig, ball_points, directions


def _stacked(point):
    """A lowered point's float64 columns as one (n, d) array of rows."""
    return np.stack(point, axis=-1)


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
    assert isinstance(got, np.ndarray) and got.shape == (2,)
    assert np.allclose(got, [0.8, 0.0], atol=1e-15)
    for model in (MobiusModel(), EinsteinModel()):
        x = [0.5] + [0.0] * (model.dim - 1)
        y = [0.0, 0.5] + [0.0] * (model.dim - 2)
        for got in (model.oplus(x, y), model.gyr(x, y, x), model.neg(x)):
            assert isinstance(got, np.ndarray) and got.shape == (model.dim,)


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
    u = directions(gen, 4000, 3, np.tanh(rho_u))
    v = directions(gen, 4000, 3, np.tanh(rho_v))
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
    u = directions(gen, 4000, 2, np.tanh(rho_u))
    v = directions(gen, 4000, 2, np.tanh(rho_v))
    rho_sum = np.arctanh(np.linalg.norm(m.oplus(u, v), axis=1))
    assert float((rho_sum - (rho_u + rho_v)).max()) <= 1e-12


# -- extended-precision ops agree with doubles away from the boundary --------


def test_extended_matches_double_mobius():
    m = MobiusModel()
    ext = m.extended()
    gen = np.random.default_rng(5)
    x = 0.5 * gen.uniform(-1, 1, (100, 2))
    y = 0.5 * gen.uniform(-1, 1, (100, 2))
    lo = _stacked(ext.lower(ext.oplus(ext.lift(x), ext.lift(y))))
    assert np.allclose(lo, m.oplus(x, y), atol=1e-14)


def test_extended_matches_double_einstein():
    m = EinsteinModel()
    ext = m.extended()
    gen = np.random.default_rng(5)
    x = 0.4 * gen.uniform(-1, 1, (100, 3))
    y = 0.4 * gen.uniform(-1, 1, (100, 3))
    lo = _stacked(ext.lower(ext.oplus(ext.lift(x), ext.lift(y))))
    assert np.allclose(lo, m.oplus(x, y), atol=1e-14)


def test_extended_fixes_boundary_left_cancellation():
    # near the rim, -x + (x + y) loses half the digits in doubles; the
    # paired-double route restores y to full precision
    m = MobiusModel()
    ext = m.extended()
    x = np.array([[1.0 - 1e-6, 0.0]])
    y = np.array([[0.0, 1.0 - 1e-6]])
    xe, ye = ext.lift(x), ext.lift(y)
    back = _stacked(ext.lower(ext.oplus(ext.neg(xe), ext.oplus(xe, ye))))
    assert np.abs(back - y).max() <= 1e-14


# -- closed-form Einstein gyration ---------------------------------------------


def test_einstein_closed_gyr_matches_derived():
    m = EinsteinModel()
    assert m.has_closed_gyr
    gen = np.random.default_rng(7)
    # moderate rapidity, where the derived composition is well conditioned
    u, v, w = (ball_points(gen, 4000, m, t_max=1.5, margin=None) for _ in range(3))
    assert np.abs(m.gyr(u, v, w) - derived_gyration(m, u, v, w)).max() <= 1e-13


def test_einstein_extended_closed_gyr_matches_derived_at_boundary():
    m = EinsteinModel()
    ext = m.extended()
    gen = np.random.default_rng(8)
    # both pivots at the forced-boundary radius
    u = directions(gen, 2000, 3, np.full(2000, 1.0 - 1e-6))
    v = directions(gen, 2000, 3, np.full(2000, 1.0 - 1e-6))
    w = ball_points(gen, 2000, m)
    U, V, W = ext.lift(u), ext.lift(v), ext.lift(w)
    closed = _stacked(ext.lower(ext.gyr(U, V, W)))
    derived = _stacked(ext.lower(derived_gyration(ext, U, V, W)))
    assert np.abs(closed - derived).max() <= 1e-15


def test_gyration_agreement_catches_swapped_pivots():
    # gyr[v, u] is the inverse rotation of gyr[u, v]; a model whose
    # gyration kernel swaps the pivots, in both precisions, must fail the
    # agreement check
    class Swapped(EinsteinModel):
        _gyr_cols = staticmethod(lambda u, v, w: _e_gyr_cols(v, u, w))

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
    # a lifted column's low word is the scalar 0.0
    return b"".join(c.hi.tobytes() + np.asarray(c.lo).tobytes() for c in cols)


def test_einstein_kernels_bit_identical_to_references():
    m = EinsteinModel()
    gen = np.random.default_rng(17)
    # every 100th row of each operand sits at the forced boundary radius
    u, v, w = m.sample_operands(gen, 20000, 3, ToleranceConfig())
    assert np.isclose(m.magnitude(u[::100]), 1.0 - 1e-6, rtol=1e-12).all()

    assert m.oplus(u, v).tobytes() == _ref_oplus_rows(u, v).tobytes()
    assert m.gyr(u, v, w).tobytes() == _ref_gyr_rows(u, v, w).tobytes()

    ext = m.extended()
    U, V, W = (ext.lift(a) for a in (u, v, w))
    assert _dd_bytes(U) == _dd_bytes(dd.lift_vector(u))
    assert all(np.ndim(c.lo) == 0 and c.lo == 0.0 for c in U)
    assert b"".join(c.hi.tobytes() for c in U) == u.T.tobytes()
    assert _dd_bytes(ext.oplus(U, V)) == _dd_bytes(_ref_oplus_dd(U, V))
    assert _dd_bytes(ext.gyr(U, V, W)) == _dd_bytes(_ref_gyr_dd(U, V, W))
    lowered = _stacked(ext.lower(ext.gyr(U, V, W)))
    want = np.stack([c.value() for c in _ref_gyr_dd(U, V, W)], axis=-1)
    assert lowered.tobytes() == want.tobytes()


# -- product construction ----------------------------------------------------


def test_product_model_axioms():
    from gyrokit.core import check_axioms

    pm = ProductModel(MobiusModel(), EinsteinModel())
    assert pm.dim == 5
    assert pm.has_closed_gyr
    rep = check_axioms(pm, Sampler(42), 2000)
    assert rep.passed


@pytest.mark.parametrize("factor", ["table", "table_model"])
def test_product_model_refuses_a_factor_that_is_not_continuous(factor):
    from gyrokit.tables import TableModel, cyclic_table

    table = cyclic_table(3)
    other = table if factor == "table" else TableModel(table)
    for left, right in ((MobiusModel(), other), (other, EinsteinModel())):
        with pytest.raises(UsageError, match="two continuous models"):
            ProductModel(left, right)


def _product_operands(pm, n, k, seed):
    return pm.sample_operands(np.random.default_rng(seed), n, k, ToleranceConfig())


def test_product_float_ops_are_the_factor_ops_bit_for_bit():
    pm = ProductModel(MobiusModel(), EinsteinModel())
    x, y, z = _product_operands(pm, 3000, 3, 21)
    parts = [(p[:, :2], p[:, 2:]) for p in (x, y, z)]
    (x1, x2), (y1, y2), (z1, z2) = parts

    def joined(a, b):
        return np.concatenate([a, b], axis=-1).tobytes()

    assert pm.oplus(x, y).tobytes() == joined(pm.left.oplus(x1, y1), pm.right.oplus(x2, y2))
    assert pm.neg(x).tobytes() == joined(pm.left.neg(x1), pm.right.neg(x2))
    assert pm.gyr(x, y, z).tobytes() == joined(
        pm.left.gyr(x1, y1, z1), pm.right.gyr(x2, y2, z2)
    )
    assert pm.distance(x, y).tobytes() == np.maximum(
        pm.left.distance(x1, y1), pm.right.distance(x2, y2)
    ).tobytes()
    assert pm.magnitude(x).tobytes() == np.maximum(
        pm.left.magnitude(x1), pm.right.magnitude(x2)
    ).tobytes()
    assert pm.norm_fraction(x).tobytes() == np.maximum(
        pm.left.norm_fraction(x1), pm.right.norm_fraction(x2)
    ).tobytes()


def test_product_extended_ops_are_the_factor_ops_bit_for_bit():
    # a product's double-double point is a _Point of its columns, the left
    # factor's first, and each op is the factors' double-double ops on
    # their slices of the columns
    pm = ProductModel(MobiusModel(), EinsteinModel())
    ext = pm.extended()
    el, er = pm.left.extended(), pm.right.extended()
    x, y, z = _product_operands(pm, 3000, 3, 22)
    X, Y, Z = (ext.lift(p) for p in (x, y, z))
    (X1, X2), (Y1, Y2), (Z1, Z2) = ((_Point(p[:2]), _Point(p[2:])) for p in (X, Y, Z))

    def same(got, left, right):
        assert isinstance(got, _Point)
        assert [_dd_bytes([c]) for c in got] == [_dd_bytes([c]) for c in [*left, *right]]

    same(X, el.lift(x[:, :2]), er.lift(x[:, 2:]))
    same(ext.oplus(X, Y), el.oplus(X1, Y1), er.oplus(X2, Y2))
    same(ext.neg(X), el.neg(X1), er.neg(X2))
    same(ext.gyr(X, Y, Z), el.gyr(X1, Y1, Z1), er.gyr(X2, Y2, Z2))
    same(ext.zero_like(X), el.zero_like(X1), er.zero_like(X2))
    # the derived gyration of the product is the derived gyration of each factor
    same(
        derived_gyration(ext, X, Y, Z),
        derived_gyration(el, X1, Y1, Z1),
        derived_gyration(er, X2, Y2, Z2),
    )
    lowered = ext.lower(X)
    assert isinstance(lowered, _Point)
    assert _stacked(lowered).tobytes() == np.concatenate(
        [_stacked(el.lower(X1)), _stacked(er.lower(X2))], axis=-1
    ).tobytes()


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


def test_strong_base_draws_an_off_center_ball_on_the_carrier(monkeypatch):
    # p and q are c ⊕ (a point of B(r)): each is a point of the Einstein
    # ball, and ⊖c ⊕ p lies in B(r). Drawn as c + (a point of B(r)), about
    # 18% of them had norm >= 1 at this center and radius
    from gyrokit import core

    seen = {}
    real = core.run_law_check

    def record(model_, name, law, streams, tol, rule=None):
        seen[name] = [s.copy() for s in streams]
        return real(model_, name, law, streams, tol, rule)

    monkeypatch.setattr(core, "run_law_check", record)
    model, c = EinsteinModel(), np.array([0.3, -0.1, 0.2])
    check_strong_base(model, ball_radii=[0.9], sampler=Sampler(9), n_samples=20000, center=c)
    p, q = seen["ball_forward_r=0.9"][2], seen["ball_preimage_r=0.9"][2]
    for points in (p, q):
        assert np.linalg.norm(points, axis=1).max() < 1.0
        assert model.magnitude(model.oplus(model.neg(c), points)).max() <= 0.9 + 1e-12


def test_strong_base_rejects_finite_model():
    from gyrokit.tables import TableModel, cyclic_table

    with pytest.raises(UsageError):
        check_strong_base(TableModel(cyclic_table(4)))
