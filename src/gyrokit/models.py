"""Continuous gyrogroup models on the unit disk and the velocity ball.

Disk elements are real pairs (re, im) in arrays of shape (..., 2);
velocity elements are real 3-vectors in units of the model's speed
bound. Each model's addition and gyration are written once, as kernels
on lists of coordinate columns of the unit ball: the float64 model
methods pass numpy columns and the double-double kernel set passes DD
columns. Only the per-point dot product and the square root depend on
the precision (``_arith``); the rest is + - * /, and no complex dtype is
involved.

The models run these kernels unguarded, because the suites must be free
to compose arbitrarily close to the boundary; the suite engine
re-evaluates stressed compositions in double-double.
"""

from __future__ import annotations

import numpy as np

from . import ddarith as dd
from .core import GyrogroupModel, derived_gyration, run_law_check
from .errors import UsageError
from .report import VerificationReport, array_check, suite_report
from .sampling import Sampler, ToleranceConfig, coldot, directions

# ---------------------------------------------------------------------------
# column kernels on the unit ball: float64 columns and DD values alike;
# the disk kernels work on (re, im) parts


def _cols(a):
    a = np.asarray(a, float)
    return [a[..., i] for i in range(a.shape[-1])]


def _arith(cols):
    """The two precision-dependent operations of the ball kernels, a
    per-point dot product of coordinate columns and a square root."""
    if isinstance(cols[0], dd.DD):
        return dd.dot, dd.DD.sqrt
    return coldot, np.sqrt


def _cmul(a, b):
    return [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]


def _cdiv(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return [(a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den]


def _m_oplus_parts(a, b):
    den = _cmul([a[0], -a[1]], b)
    return _cdiv([a[0] + b[0], a[1] + b[1]], [1.0 + den[0], den[1]])


def _m_gyr_factor(a, b):
    """The rotation (1 + a conj(b)) / (1 + conj(a) b) as num, den parts."""
    num = _cmul(a, [b[0], -b[1]])
    den = _cmul([a[0], -a[1]], b)
    return [1.0 + num[0], num[1]], [1.0 + den[0], den[1]]


def _m_gyr_parts(a, b, z):
    num, den = _m_gyr_factor(a, b)
    return _cdiv(_cmul(z, num), den)


# ---------------------------------------------------------------------------
# velocity-ball kernels on coordinate columns (unit speed bound; callers rescale)


def _inv_gamma(u):
    """1/gamma_u = sqrt(1 - |u|^2), which stays finite up to the boundary."""
    dot, sqrt = _arith(u)
    return sqrt(1.0 - dot(u, u))


def _e_oplus_cols(u, v):
    dot, _ = _arith(u)
    uv = dot(u, v)
    g = _inv_gamma(u)
    # gamma/(1+gamma) = 1/(1+1/gamma); written in terms of g to avoid the pole
    coef = uv / (1.0 + g)
    d = 1.0 + uv
    return [(u[i] + v[i] * g + u[i] * coef) / d for i in range(len(u))]


def _e_gyr_coeffs(gu, gv, uv, uw, vw):
    """Coefficients (a, b) with gyr[u, v]w = w + a*u + b*v on the unit ball.

    Ungar's closed form (Analytic Hyperbolic Geometry and Albert
    Einstein's Special Theory of Relativity, 2008) is w + (A u + B v)/D
    with polynomial A, B, D in gamma_u, gamma_v and the dot products.
    Dividing A, B and D by gamma_u*gamma_v writes them in gu = 1/gamma_u
    and gv = 1/gamma_v, which stay finite up to the boundary. Only
    + - * / are used, so the arguments may be float arrays or DD values.
    """
    d = 1.0 + uv + gu * gv
    a = (vw - (1.0 - gv) / (1.0 + gu) * uw + 2.0 * uv * vw / ((1.0 + gu) * (1.0 + gv))) / d
    b = -(uw + (1.0 - gu) / (1.0 + gv) * vw) / d
    return a, b


def _e_gyr_cols(u, v, w):
    dot, _ = _arith(u)
    a, b = _e_gyr_coeffs(_inv_gamma(u), _inv_gamma(v), dot(u, v), dot(u, w), dot(v, w))
    return [w[i] + a * u[i] + b * v[i] for i in range(len(w))]


# ---------------------------------------------------------------------------
# models


class _BallExtended:
    """Double-double kernel set of a ball model, used by the suite engine
    on stressed samples. Points are lists of DD coordinate columns on the
    unit ball; ``lift`` and ``lower`` convert from and to radius ``c``."""

    def __init__(self, oplus_cols, gyr_cols, c):
        self._oplus = oplus_cols
        self._gyr = gyr_cols
        self._c = float(c)

    def lift(self, x):
        cols = dd.lift_vector(x)
        if self._c != 1.0:
            cols = [col / self._c for col in cols]
        return cols

    def lower(self, rep):
        out = dd.lower_vector(rep)
        return out * self._c if self._c != 1.0 else out

    def zero_like(self, rep):
        return [dd.DD(np.zeros_like(col.hi)) for col in rep]

    def neg(self, a):
        return [-col for col in a]

    def oplus(self, a, b):
        return self._oplus(a, b)

    def gyr(self, a, b, z):
        return self._gyr(a, b, z)

    def gyr_derived(self, a, b, z):
        return derived_gyration(self, a, b, z)


class _BallModel(GyrogroupModel):
    """A ball of radius ``bound`` whose addition and gyration are the
    unit-ball column kernels ``_oplus_cols`` and ``_gyr_cols``, shared by
    the float64 methods and the double-double ``extended()`` set."""

    has_closed_gyr = True

    def _on_columns(self, kernel, *points):
        c = self.bound
        if c != 1.0:
            points = [np.asarray(p, float) / c for p in points]
        out = np.stack(kernel(*[_cols(p) for p in points]), axis=-1)
        return out * c if c != 1.0 else out

    def oplus(self, a, b):
        return self._on_columns(self._oplus_cols, a, b)

    def neg(self, a):
        return -np.asarray(a, float)

    def gyr(self, a, b, z):
        return self._on_columns(self._gyr_cols, a, b, z)

    def extended(self):
        return _BallExtended(self._oplus_cols, self._gyr_cols, self.bound)


class MobiusModel(_BallModel):
    """The open unit disk with the rational addition a, b -> (a+b)/(1+conj(a)b)."""

    name = "mobius"
    dim = 2
    bound = 1.0
    _oplus_cols = staticmethod(_m_oplus_parts)
    _gyr_cols = staticmethod(_m_gyr_parts)


class EinsteinModel(_BallModel):
    """The radius-c velocity ball with relativistic composition.

    ``gyr`` is Ungar's closed form; ``gyr_derived``, the three-addition
    composition, is kept as the oracle it is checked against.
    """

    dim = 3
    _oplus_cols = staticmethod(_e_oplus_cols)
    _gyr_cols = staticmethod(_e_gyr_cols)

    def __init__(self, c: float = 1.0):
        if c <= 0:
            raise ValueError("speed bound must be positive")
        self.c = float(c)
        self.bound = self.c
        self.name = "einstein" if self.c == 1.0 else f"einstein(c={self.c:g})"


class ProductModel(GyrogroupModel):
    """Coordinatewise product of two continuous models."""

    def __init__(self, left: GyrogroupModel, right: GyrogroupModel):
        if left.dim is None or right.dim is None:
            raise UsageError("continuous product requires two continuous models")
        self.left = left
        self.right = right
        self.dim = left.dim + right.dim
        self.has_closed_gyr = left.has_closed_gyr and right.has_closed_gyr
        self.name = f"product({left.name},{right.name})"

    def _split(self, x):
        x = np.asarray(x, float)
        return x[..., : self.left.dim], x[..., self.left.dim :]

    def _join(self, a, b):
        return np.concatenate([a, b], axis=-1)

    def oplus(self, x, y):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        return self._join(self.left.oplus(x1, y1), self.right.oplus(x2, y2))

    def neg(self, x):
        x1, x2 = self._split(x)
        return self._join(self.left.neg(x1), self.right.neg(x2))

    def gyr(self, x, y, z):
        x1, x2 = self._split(x)
        y1, y2 = self._split(y)
        z1, z2 = self._split(z)
        return self._join(self.left.gyr(x1, y1, z1), self.right.gyr(x2, y2, z2))

    def distance(self, a, b):
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return np.maximum(self.left.distance(a1, b1), self.right.distance(a2, b2))

    def magnitude(self, a):
        a1, a2 = self._split(a)
        return np.maximum(self.left.magnitude(a1), self.right.magnitude(a2))

    def norm_fraction(self, a):
        a1, a2 = self._split(a)
        return np.maximum(self.left.norm_fraction(a1), self.right.norm_fraction(a2))

    def extended(self):
        el, er = self.left.extended(), self.right.extended()
        if el is None or er is None:
            return None
        return _ProductExtended(self, el, er)

    def sample_operands(self, gen, n, k, tol):
        lefts = self.left.sample_operands(gen, n, k, tol)
        rights = self.right.sample_operands(gen, n, k, tol)
        return [self._join(a, b) for a, b in zip(lefts, rights)]

    def sample_witnesses(self, gen, n, count, offset, tol):
        lefts = self.left.sample_witnesses(gen, n, count, offset, tol)
        rights = self.right.sample_witnesses(gen, n, count, offset, tol)
        return [self._join(a, b) for a, b in zip(lefts, rights)]


class _ProductExtended:
    def __init__(self, model, el, er):
        self._m = model
        self._el = el
        self._er = er

    def lift(self, x):
        a, b = self._m._split(x)
        return (self._el.lift(a), self._er.lift(b))

    def lower(self, rep):
        return self._m._join(self._el.lower(rep[0]), self._er.lower(rep[1]))

    def zero_like(self, rep):
        return (self._el.zero_like(rep[0]), self._er.zero_like(rep[1]))

    def neg(self, rep):
        return (self._el.neg(rep[0]), self._er.neg(rep[1]))

    def oplus(self, x, y):
        return (self._el.oplus(x[0], y[0]), self._er.oplus(x[1], y[1]))

    def gyr(self, x, y, z):
        return (self._el.gyr(x[0], y[0], z[0]), self._er.gyr(x[1], y[1], z[1]))

    def gyr_derived(self, x, y, z):
        return (
            self._el.gyr_derived(x[0], y[0], z[0]),
            self._er.gyr_derived(x[1], y[1], z[1]),
        )


# ---------------------------------------------------------------------------
# strongly-invariant base suite


def _norm_compare(model):
    def compare(l, r):
        return np.abs(model.magnitude(l) - model.magnitude(r))

    return compare


def _membership_excess(model, center, radius):
    def compare(l, _r):
        d = model.distance(l, np.broadcast_to(center, np.asarray(l).shape))
        return np.maximum(0.0, d - radius)

    return compare


def check_strong_base(
    model,
    ball_radii=None,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
    center=None,
) -> VerificationReport:
    """Verify that gyrations fix the given centered balls setwise.

    For each radius r the check samples pivot pairs (x, y) and points of
    the ball U, and asserts that gyr[x, y] maps U into U and that every
    sampled target of U is hit from inside U via the opposite gyration
    (whose inverse relationship is itself checked by a roundtrip).
    Norm preservation and the norm-level commutation law are included;
    the disk model also gets the unimodularity of its rotation factor.

    ``center`` (default the identity) lets callers probe an off-center
    ball, which is expected to fail for generic pivots.
    """
    if model.dim is None:
        raise UsageError("the base-invariance check applies to continuous models")
    sampler = sampler if sampler is not None else Sampler()
    tol = tol if tol is not None else ToleranceConfig()
    suite = "strong-base"
    if ball_radii is None:
        ball_radii = [0.9 * model.bound, 0.5 * model.bound, 0.25 * model.bound]
    center = (
        np.zeros(model.dim) if center is None else np.asarray(center, dtype=float)
    )

    def ball_stream(gen, n, radius):
        # Euclidean-uniform points of the ball around `center`
        u = gen.uniform(0.0, 1.0, n) ** (1.0 / model.dim)
        return center + (radius * u)[:, None] * directions(gen, n, model.dim)

    with suite_report(suite, model.name, sampler, tol) as report:
        for radius in ball_radii:
            r = float(radius)
            tag = f"r={r:g}"
            gen = sampler.stream(suite, f"ball_invariance_{tag}")
            x, y = model.sample_operands(gen, n_samples, 2, tol)
            p = ball_stream(gen, n_samples, r)
            q = ball_stream(gen, n_samples, r)

            def law_forward(ops, x, y, p):
                return [(ops.gyr(x, y, p), p)]

            def law_preimage(ops, x, y, q):
                return [(ops.gyr(y, x, q), q)]

            def law_roundtrip(ops, x, y, q):
                return [(ops.gyr(x, y, ops.gyr(y, x, q)), q)]

            fwd = run_law_check(
                model, f"ball_forward_{tag}", law_forward, [x, y, p], tol,
                comparator=_membership_excess(model, center, r),
            )
            pre = run_law_check(
                model, f"ball_preimage_{tag}", law_preimage, [x, y, q], tol,
                comparator=_membership_excess(model, center, r),
            )
            rt = run_law_check(
                model, f"ball_roundtrip_{tag}", law_roundtrip, [x, y, q], tol
            )
            report.checks.extend([fwd, pre, rt])

        gen = sampler.stream(suite, "norm_preservation")
        x, y, z = model.sample_operands(gen, n_samples, 3, tol)

        def law_norm(ops, x, y, z):
            return [(ops.gyr(x, y, z), z)]

        report.checks.append(
            run_law_check(
                model, "norm_preservation", law_norm, [x, y, z], tol,
                comparator=_norm_compare(model),
            )
        )

        gen = sampler.stream(suite, "commutation_norm")
        x, y = model.sample_operands(gen, n_samples, 2, tol)

        def law_comm(ops, x, y):
            return [(ops.oplus(x, y), ops.oplus(y, x))]

        report.checks.append(
            run_law_check(
                model, "commutation_norm", law_comm, [x, y], tol,
                comparator=_norm_compare(model),
            )
        )

        if isinstance(model, MobiusModel):
            gen = sampler.stream(suite, "rotation_factor_modulus")
            a, b = model.sample_operands(gen, n_samples, 2, tol)
            num, den = _m_gyr_factor(_cols(a), _cols(b))
            dev = np.abs(
                np.sqrt(num[0] ** 2 + num[1] ** 2) / np.sqrt(den[0] ** 2 + den[1] ** 2) - 1.0
            )
            # unimodularity is a sharp property of the formula; 1e-12 regardless
            # of the suite tolerance
            report.checks.append(
                array_check("rotation_factor_modulus", dev, dev <= 1e-12, int(a.shape[0]))
            )
    return report
