"""Continuous gyrogroup models on the unit disk and the velocity ball.

Disk elements are real pairs (re, im) in arrays of shape (..., 2);
velocity elements are real 3-vectors in units of the model's speed
bound. The disk kernels run on (re, im) parts with + - * / only, so the
float64 columns and the double-double values share one implementation;
no complex dtype is involved.

Public single-call operations validate their inputs against the carrier
(rejecting points within ``margin`` of the boundary, where a lone
float64 evaluation is no longer trustworthy). The model classes used by
the verification suites run the same kernels unguarded, because suites
must be free to compose arbitrarily close to the boundary; stressed
compositions are re-evaluated in double-double by the suite engine.
"""

from __future__ import annotations

import numpy as np

from . import ddarith as dd
from .core import GyrogroupModel, derived_gyration, run_law_check
from .errors import CarrierDomainError, UsageError
from .report import CheckResult, VerificationReport, suite_report
from .sampling import Sampler, ToleranceConfig, directions, rowdot, rownorm

# ---------------------------------------------------------------------------
# disk kernels on (re, im) parts: float64 columns and DD values alike


def _parts(a):
    a = np.asarray(a, float)
    return [a[..., 0], a[..., 1]]


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


def as_pair(z):
    """Complex scalar/array -> real-pair array of shape (..., 2)."""
    z = np.asarray(z)
    if z.dtype.kind == "c":
        return np.stack([z.real, z.imag], axis=-1).astype(np.float64)
    z = z.astype(np.float64)
    if z.shape == ():
        return np.stack([z, np.zeros_like(z)], axis=-1)
    if z.shape[-1] != 2:
        raise ValueError("disk points are complex values or (..., 2) real pairs")
    return z


def as_complex(p):
    p = np.asarray(p, dtype=np.float64)
    out = p[..., 0] + 1j * p[..., 1]
    return complex(out) if out.shape == () else out


# ---------------------------------------------------------------------------
# velocity-ball kernel (unit speed bound; callers rescale)


def _e_oplus_unit(u, v):
    uv = rowdot(u, v)[..., None]
    g = np.sqrt(1.0 - rowdot(u, u)[..., None])  # 1/gamma_u
    # gamma/(1+gamma) = 1/(1+1/gamma); written in terms of g to avoid the pole
    return (u + g * v + (uv / (1.0 + g)) * u) / (1.0 + uv)


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


def _e_gyr_unit(u, v, w):
    def dot(p, q):
        return rowdot(p, q)[..., None]

    gu = np.sqrt(1.0 - dot(u, u))
    gv = np.sqrt(1.0 - dot(v, v))
    a, b = _e_gyr_coeffs(gu, gv, dot(u, v), dot(u, w), dot(v, w))
    return w + a * u + b * v


def _gamma_unit(u):
    return 1.0 / np.sqrt(1.0 - rowdot(u, u))


# ---------------------------------------------------------------------------
# double-double kernel sets used by the suite engine on stressed samples


class _MobiusExtended:
    def lift(self, x):
        return dd.lift_vector(x)

    def lower(self, rep):
        return dd.lower_vector(rep)

    def zero_like(self, rep):
        z = np.zeros_like(rep[0].hi)
        return [dd.DD(z.copy()), dd.DD(z.copy())]

    def neg(self, a):
        return [-a[0], -a[1]]

    def oplus(self, a, b):
        return _m_oplus_parts(a, b)

    def gyr(self, a, b, z):
        return _m_gyr_parts(a, b, z)

    def gyr_derived(self, a, b, z):
        return derived_gyration(self, a, b, z)


class _EinsteinExtended:
    def __init__(self, c):
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
        return [dd.DD(np.zeros_like(c.hi)) for c in rep]

    def neg(self, u):
        return [-c for c in u]

    def oplus(self, u, v):
        uv = dd.dot(u, v)
        g = (1.0 - dd.dot(u, u)).sqrt()  # 1/gamma_u
        coef = uv / (1.0 + g)
        d = 1.0 + uv
        return [(u[i] + v[i] * g + u[i] * coef) / d for i in range(len(u))]

    def gyr(self, u, v, w):
        def g(p):
            return (1.0 - dd.dot(p, p)).sqrt()

        a, b = _e_gyr_coeffs(g(u), g(v), dd.dot(u, v), dd.dot(u, w), dd.dot(v, w))
        return [w[i] + a * u[i] + b * v[i] for i in range(len(w))]

    def gyr_derived(self, u, v, w):
        return derived_gyration(self, u, v, w)


# ---------------------------------------------------------------------------
# models


class MobiusModel(GyrogroupModel):
    """The open unit disk with the rational addition a, b -> (a+b)/(1+conj(a)b)."""

    name = "mobius"
    dim = 2
    bound = 1.0
    has_closed_gyr = True

    def oplus(self, a, b):
        return np.stack(_m_oplus_parts(_parts(a), _parts(b)), axis=-1)

    def neg(self, a):
        return -np.asarray(a, float)

    def gyr(self, a, b, z):
        return np.stack(_m_gyr_parts(_parts(a), _parts(b), _parts(z)), axis=-1)

    def extended(self):
        return _MobiusExtended()


class EinsteinModel(GyrogroupModel):
    """The radius-c velocity ball with relativistic composition.

    ``gyr`` is Ungar's closed form; ``gyr_derived``, the three-addition
    composition, is kept as the oracle it is checked against.
    """

    dim = 3
    has_closed_gyr = True

    def __init__(self, c: float = 1.0):
        if c <= 0:
            raise ValueError("speed bound must be positive")
        self.c = float(c)
        self.bound = self.c
        self.name = "einstein" if self.c == 1.0 else f"einstein(c={self.c:g})"

    def oplus(self, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        if self.c == 1.0:
            return _e_oplus_unit(u, v)
        return self.c * _e_oplus_unit(u / self.c, v / self.c)

    def neg(self, u):
        return -np.asarray(u, float)

    def gyr(self, u, v, w):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        w = np.asarray(w, float)
        if self.c == 1.0:
            return _e_gyr_unit(u, v, w)
        return self.c * _e_gyr_unit(u / self.c, v / self.c, w / self.c)

    def extended(self):
        return _EinsteinExtended(self.c)


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
# public single-call operations


def _check_carrier(p, bound, margin, what):
    norm = rownorm(np.asarray(p, float))
    limit = bound * (1.0 - margin)
    if np.any(norm > limit):
        worst = float(np.max(norm))
        raise CarrierDomainError(
            f"{what} has norm {worst:.17g}, beyond the allowed {limit:.17g}"
        )


def mobius_oplus(a, b, margin: float = 1e-6):
    """Disk addition. Accepts complex values or real pairs; returns the
    same form it was given."""
    want_complex = np.asarray(a).dtype.kind == "c" or np.asarray(a).shape == ()
    pa, pb = as_pair(a), as_pair(b)
    _check_carrier(pa, 1.0, margin, "left operand")
    _check_carrier(pb, 1.0, margin, "right operand")
    out = MobiusModel().oplus(pa, pb)
    return as_complex(out) if want_complex else out


def mobius_gyr(a, b, x, margin: float = 1e-6):
    """Apply the disk gyration of (a, b) to x: a unimodular rotation."""
    want_complex = np.asarray(a).dtype.kind == "c" or np.asarray(a).shape == ()
    pa, pb, px = as_pair(a), as_pair(b), as_pair(x)
    for p, what in ((pa, "first pivot"), (pb, "second pivot"), (px, "argument")):
        _check_carrier(p, 1.0, margin, what)
    out = MobiusModel().gyr(pa, pb, px)
    return as_complex(out) if want_complex else out


def gamma(u, c: float = 1.0, margin: float = 1e-6):
    """Velocity dilation factor 1/sqrt(1 - |u|^2/c^2)."""
    u = np.asarray(u, float)
    norm = rownorm(u)
    if np.any(norm >= c * (1.0 - margin)):
        raise CarrierDomainError(
            f"speed {float(np.max(norm)):.17g} is at or beyond c(1 - margin)"
        )
    out = _gamma_unit(u / c)
    return float(out) if out.shape == () else out


def einstein_oplus(u, v, c: float = 1.0, margin: float = 1e-6):
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    _check_carrier(u, c, margin, "left velocity")
    _check_carrier(v, c, margin, "right velocity")
    return EinsteinModel(c).oplus(u, v)


def einstein_gyr(u, v, w, c: float = 1.0, margin: float = 1e-6):
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    for p, what in ((u, "first pivot"), (v, "second pivot"), (w, "argument")):
        _check_carrier(p, c, margin, what)
    return EinsteinModel(c).gyr(u, v, w)


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
            num, den = _m_gyr_factor(_parts(a), _parts(b))
            dev = np.abs(
                np.sqrt(num[0] ** 2 + num[1] ** 2) / np.sqrt(den[0] ** 2 + den[1] ** 2) - 1.0
            )
            # unimodularity is a sharp property of the formula; 1e-12 regardless
            # of the suite tolerance
            report.checks.append(
                CheckResult(
                    "rotation_factor_modulus",
                    bool(np.all(dev <= 1e-12)),
                    float(dev.max()),
                    int(a.shape[0]),
                )
            )
    return report
