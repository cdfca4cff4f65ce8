"""Continuous gyrogroup models: the unit disk, the unit velocity ball and
coordinatewise products of continuous models.

Disk elements are real pairs (re, im) in arrays of shape (..., 2);
velocity elements are real 3-vectors in units of the speed of light, so
both carriers are the open unit ball; a product point is its left factor's
coordinates followed by its right factor's. Each model's addition and
gyration are written once, as kernels on lists of coordinate columns (a
product's apply each factor's operation to the factor's columns). Both law
passes evaluate laws on ``_Point`` columns, float64 arrays in the float64
pass and DD values in the double-double kernel set, and the model methods
take (n, d) arrays too, split into columns and stacked again. Only the
per-point dot product and the square root depend on the precision
(``_arith``); the rest is + - * /, and no complex dtype is involved.

The models run these kernels unguarded, because the suites must be free
to compose arbitrarily close to the boundary; the suite engine
re-evaluates stressed compositions in double-double.
"""

from __future__ import annotations

import numpy as np

from . import ddarith as dd
from .core import _LAW_BLOCK_ROWS, GyrogroupModel, _Point, _run_rows, element_rule
from .errors import UsageError
from .report import VerificationReport, array_check, suite_report
from .sampling import Sampler, ToleranceConfig, coldot, directions, suite_prologue

# ---------------------------------------------------------------------------
# column kernels on the unit ball: float64 columns and DD values alike;
# the disk kernels work on (re, im) parts


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
# velocity-ball kernels on coordinate columns (unit speed of light)


def _inv_gamma(u):
    """1/gamma_u = sqrt(1 - |u|^2), which stays finite up to the boundary;
    computed once per point and kept on it, from its ``sq`` when it has one."""
    if u.g is None:
        dot, sqrt = _arith(u)
        u.g = sqrt(1.0 - (dot(u, u) if u.sq is None else u.sq))
    return u.g


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
    pu, pv = 1.0 + gu, 1.0 + gv
    d = 1.0 + uv + gu * gv
    a = (vw - (1.0 - gv) / pu * uw + 2.0 * uv * vw / (pu * pv)) / d
    b = -(uw + (1.0 - gu) / pv * vw) / d
    return a, b


def _e_gyr_cols(u, v, w):
    dot, _ = _arith(u)
    a, b = _e_gyr_coeffs(_inv_gamma(u), _inv_gamma(v), dot(u, v), dot(u, w), dot(v, w))
    return [w[i] + a * u[i] + b * v[i] for i in range(len(w))]


# ---------------------------------------------------------------------------
# models


class _BallExtended:
    """Double-double kernel set of a column model (a ball or a product),
    used by the suite engine on stressed samples: the model's own column
    kernels on ``_Point`` lists of DD coordinate columns, so each ball
    point's 1/gamma is computed once."""

    def __init__(self, model):
        self._m = model

    def lift(self, x):
        return _Point(dd.lift_vector(x))

    def lower(self, rep):
        return _Point(dd.lower_vector(rep))

    def zero_like(self, rep):
        return _Point([dd.DD(np.zeros_like(col.hi), 0.0) for col in rep])

    def neg(self, a):
        return self._m.neg(a)

    def oplus(self, a, b):
        return _Point(self._m._oplus_cols(a, b))

    def gyr(self, a, b, z):
        return _Point(self._m._gyr_cols(a, b, z))


class _BallModel(GyrogroupModel):
    """A column model, the unit ball or a product of continuous models: the
    column kernels ``_oplus_cols`` and ``_gyr_cols`` are its addition and
    gyration, shared by the float64 methods and the double-double
    ``extended()`` set. The methods take ``_Point`` columns, as the law
    passes give them, and return the kernel's columns as a ``_Point``;
    (n, d) arrays in give an array out."""

    has_closed_gyr = True

    def _on_columns(self, kernel, *points):
        if isinstance(points[0], _Point):
            return _Point(kernel(*points))
        return np.stack(kernel(*map(_Point.of, points)), axis=-1)

    def oplus(self, a, b):
        return self._on_columns(self._oplus_cols, a, b)

    def neg(self, a):
        if isinstance(a, _Point):  # of either precision
            out = _Point([-c for c in a])
            out.sq, out.norm, out.g = a.sq, a.norm, a.g  # |-a| is |a| bit for bit
            return out
        return -np.asarray(a, float)

    def gyr(self, a, b, z):
        return self._on_columns(self._gyr_cols, a, b, z)

    def extended(self):
        return _BallExtended(self)


class MobiusModel(_BallModel):
    """The open unit disk with the rational addition a, b -> (a+b)/(1+conj(a)b)."""

    name = "mobius"
    dim = 2
    _oplus_cols = staticmethod(_m_oplus_parts)
    _gyr_cols = staticmethod(_m_gyr_parts)


class EinsteinModel(_BallModel):
    """The unit velocity ball (speed of light 1) with relativistic
    composition.

    ``gyr`` is Ungar's closed form; the three-addition composition
    :func:`~gyrokit.core.derived_gyration` is the oracle it is checked
    against.
    """

    name = "einstein"
    dim = 3
    _oplus_cols = staticmethod(_e_oplus_cols)
    _gyr_cols = staticmethod(_e_gyr_cols)


class ProductModel(_BallModel):
    """Coordinatewise product of two continuous models; a point is the
    left factor's columns followed by the right factor's. Its column
    kernels apply each factor's own ``oplus`` and ``gyr`` to the factor's
    columns, so the product runs the column models' float64 methods and
    double-double kernel set. Its inverse is the factors' inverses, and its
    magnitude and distance are the larger of the factors'."""

    def __init__(self, left: GyrogroupModel, right: GyrogroupModel):
        if not all(isinstance(m, GyrogroupModel) and m.dim is not None for m in (left, right)):
            raise UsageError("continuous product requires two continuous models")
        self.left = left
        self.right = right
        self.dim = left.dim + right.dim
        self.has_closed_gyr = left.has_closed_gyr and right.has_closed_gyr
        self.name = f"product({left.name},{right.name})"

    def _per_factor(self, op, *points):
        """Each factor's ``op`` on its columns of the ``points``, which are
        ``_Point`` columns of either precision or (..., d) arrays."""
        k = self.left.dim
        points = [p if isinstance(p, _Point) else _Point.of(p) for p in points]
        return (getattr(self.left, op)(*[_Point(p[:k]) for p in points]),
                getattr(self.right, op)(*[_Point(p[k:]) for p in points]))

    def _factor_cols(self, op, *points):
        left, right = self._per_factor(op, *points)
        return left + right

    def _oplus_cols(self, a, b):
        return self._factor_cols("oplus", a, b)

    def _gyr_cols(self, a, b, z):
        return self._factor_cols("gyr", a, b, z)

    def distance(self, a, b):
        return np.maximum(*self._per_factor("distance", a, b))

    def neg(self, x):
        # factor by factor: a factor's inverse need not be coordinate negation
        out = self._on_columns(lambda p: self._factor_cols("neg", p), x)
        if isinstance(x, _Point):  # |-x| is |x| bit for bit, factor by factor
            out.norm = x.norm
        return out

    def magnitude(self, a):
        if not isinstance(a, _Point):
            return np.maximum(*self._per_factor("magnitude", a))
        if a.norm is None:  # the larger factor norm, computed once
            a.norm = np.maximum(*self._per_factor("magnitude", a))
        return a.norm

    def extended(self):
        if self.left.extended() is None or self.right.extended() is None:
            return None
        return _BallExtended(self)

    def sample_operands(self, gen, n, k, tol, offset=0):
        lefts = self.left.sample_operands(gen, n, k, tol, offset=offset)
        rights = self.right.sample_operands(gen, n, k, tol, offset=offset)
        return [np.concatenate([a, b], axis=-1) for a, b in zip(lefts, rights)]


# ---------------------------------------------------------------------------
# strongly-invariant base suite


def _norm_compare(model):
    def compare(l, r):
        return np.abs(model.magnitude(l) - model.magnitude(r))

    return compare


def _membership_excess(model, center, radius):
    """The excess of |⊖center ⊕ l| over the radius: 0 in center ⊕ B(radius).
    At the identity center ⊖center ⊕ l is l bit for bit, so l is read as it is."""
    if not center.any():
        return lambda l, _r: np.maximum(0.0, model.magnitude(l) - radius)
    neg_c = model.neg(_Point.of(center))  # once per rule: a kernel keeps its 1/gamma

    def compare(l, _r):
        return np.maximum(0.0, model.magnitude(model.oplus(neg_c, l)) - radius)

    return compare


def check_strong_base(
    model,
    ball_radii=None,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
    center=None,
) -> VerificationReport:
    """Verify that gyrations fix the given balls setwise.

    For each radius r the check samples pivot pairs (x, y) and points p and
    q of U = c ⊕ B(r), the paper's neighbourhood of the center c (default
    the identity), as c ⊕ (Euclidean-uniform points of B(r)); l is in U when
    |⊖c ⊕ l| <= r. At the identity, where c ⊕ v is v bit for bit, neither
    the draw nor the membership test adds the center. It asserts that
    gyr[x, y] maps U into U and that every sampled target of U is hit from
    inside U via the opposite gyration (whose inverse relationship is
    itself checked by a roundtrip). The
    three rows of a radius read one draw of x, y, p and q. Norm
    preservation and the norm-level commutation law are included; the disk
    model also gets the unimodularity of its rotation factor.

    Before anything is drawn, ``suite_prologue`` refuses the sample count,
    and a radius outside (0, 1], two radii that share the tag ``r={r:g}`` of
    their checks and stream, or a center off the carrier (not numbers, of
    another shape, not finite, or on or beyond the boundary) is a
    ``UsageError``. An off-center ball is expected to fail for generic pivots.
    """
    if model.dim is None:
        raise UsageError("the base-invariance check applies to continuous models")
    sampler, tol = suite_prologue(sampler, tol, model.dim, n_samples)
    suite = "strong-base"
    if ball_radii is None:
        ball_radii = [0.9, 0.5, 0.25]
    try:  # a point of the carrier; NaN fails the norm test too
        center = np.zeros(model.dim) if center is None else np.asarray(center, dtype=float)
        refused = center.shape != (model.dim,) or not model.norm_fraction(center) < 1.0
    except (TypeError, ValueError):  # not numbers, or ragged
        refused = True
    if refused:
        raise UsageError(f"ball center must be a point of {model.name}, got {center!r}")
    rows, radii = [], {}  # radii: stream -> radius
    for radius in ball_radii:
        r = float(radius)
        tag = f"r={r:g}"
        stream = f"ball_invariance_{tag}"
        if not 0.0 < r <= 1.0:  # NaN fails too
            raise UsageError(f"ball radius must lie in (0,1], got {r!r}")
        if stream in radii:
            raise UsageError(f"ball radii {radii[stream]!r} and {r!r} share the tag {tag}")
        radii[stream] = r
        inside = element_rule(model, tol, _membership_excess(model, center, r))
        # x, y, p, q; the roundtrip compares points
        rows += [(f"ball_forward_{tag}", stream, (0, 1, 2),
                  lambda ops, x, y, p: [(ops.gyr(x, y, p), p)], inside),
                 (f"ball_preimage_{tag}", stream, (0, 1, 3),
                  lambda ops, x, y, q: [(ops.gyr(y, x, q), q)], inside),
                 (f"ball_roundtrip_{tag}", stream, (0, 1, 3),
                  lambda ops, x, y, q: [(ops.gyr(x, y, ops.gyr(y, x, q)), q)], None)]
    norm = element_rule(model, tol, _norm_compare(model))
    rows += [("norm_preservation", "norm_preservation", (0, 1, 2),
              lambda ops, x, y, z: [(ops.gyr(x, y, z), z)], norm),
             ("commutation_norm", "commutation_norm", (0, 1),
              lambda ops, x, y: [(ops.oplus(x, y), ops.oplus(y, x))], norm)]

    def draw(stream):
        gen = sampler.stream(suite, stream)
        if stream not in radii:  # a norm row's own stream, of the operands it reads
            (reads,) = [row[2] for row in rows if row[1] == stream]
            return model.sample_operands(gen, n_samples, len(reads), tol)
        out = model.sample_operands(gen, n_samples, 2, tol)
        for _ in range(2):  # p, then q: center ⊕ a Euclidean-uniform point of B(r)
            u = gen.uniform(0.0, 1.0, n_samples) ** (1.0 / model.dim)
            d = directions(gen, n_samples, model.dim, scale=radii[stream] * u)
            if center.any():  # the identity ⊕ v is v bit for bit
                for lo in range(0, n_samples, _LAW_BLOCK_ROWS):  # in place, a block at a time
                    d[lo:lo + _LAW_BLOCK_ROWS] = model.oplus(center, d[lo:lo + _LAW_BLOCK_ROWS])
            out.append(d)
        return out

    with suite_report(suite, model.name, sampler, tol) as report:
        report.checks = _run_rows(model, rows, draw, tol)
        if isinstance(model, MobiusModel):
            gen = sampler.stream(suite, "rotation_factor_modulus")
            a, b = model.sample_operands(gen, n_samples, 2, tol)
            num, den = _m_gyr_factor(a.T, b.T)  # column views of the whole stream
            dev = np.abs(
                np.sqrt(num[0] ** 2 + num[1] ** 2) / np.sqrt(den[0] ** 2 + den[1] ** 2) - 1.0
            )
            # unimodularity is a sharp property of the formula; 1e-12 regardless
            # of the suite tolerance
            report.checks.append(
                array_check("rotation_factor_modulus", dev, dev <= 1e-12, int(a.shape[0]))
            )
    return report
