"""Double-double arithmetic: the constant paths are the full-array formulas.

A float constant operand runs the DD formulas with scalar words, and a
division splits its divisor once. These tests compare every such path,
bit for bit and signed zeros included, with a copy of the formulas that
spelled constants out as full arrays and split the divisor per product.
"""

import numpy as np
import pytest

from gyrokit import ddarith as dd
from gyrokit.sampling import directions


class _RefDD:
    """The DD formulas with constants as ``np.full_like`` arrays."""

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.zeros_like(self.hi) if lo is None else lo

    def _coerce(self, other):
        if isinstance(other, _RefDD):
            return other
        return _RefDD(np.full_like(self.hi, float(other)))

    def __add__(self, other):
        other = self._coerce(other)
        s, e = dd._two_sum(self.hi, other.hi)
        t, f = dd._two_sum(self.lo, other.lo)
        e = e + t
        s, e = dd._quick_two_sum(s, e)
        e = e + f
        s, e = dd._quick_two_sum(s, e)
        return _RefDD(s, e)

    __radd__ = __add__

    def __neg__(self):
        return _RefDD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        p, e = _ref_two_prod(self.hi, other.hi)
        e = e + (self.hi * other.lo + self.lo * other.hi)
        p, e = dd._quick_two_sum(p, e)
        return _RefDD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        q1 = self.hi / other.hi
        r = self - other * _RefDD(q1)
        q2 = r.hi / other.hi
        r = r - other * _RefDD(q2)
        q3 = r.hi / other.hi
        s, e = dd._quick_two_sum(q1, q2)
        return _RefDD(s, e) + _RefDD(q3)

    def __rtruediv__(self, other):
        return _RefDD(np.full_like(self.hi, float(other))) / self

    def sqrt(self):
        r = 1.0 / np.sqrt(self.hi)
        a = _RefDD(self.hi * r)
        err = self - a * a
        half_r = 0.5 * r
        return a + _RefDD(err.hi * half_r, err.lo * half_r)


def _ref_two_prod(a, b):
    p = a * b
    ca = dd._SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = dd._SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _rows(kind, n=600, seed=0):
    """(n, 3) points: uniform in the ball, within 1e-6 of |x| = 1 on either
    side, or zero."""
    gen = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, 3))
    d = directions(gen, n, 3, np.ones(n))
    r = gen.uniform(0.0, 1.0, n) if kind == "random" else 1.0 + gen.uniform(-1e-6, 1e-6, n)
    return d * r[:, None]


def _operands(kind):
    """Pairs (new, reference) of the same DD values, with and without a low
    word: a coordinate, two dot products, 1 - |u|^2, and two values that are
    not finite on some rows, 1/|u|^2 (zero rows) and 1/gamma (outside the
    ball)."""
    u, v = _rows(kind, seed=1), _rows(kind, seed=2)
    out = []
    with np.errstate(all="ignore"):
        for cls in (dd.DD, _RefDD):
            U = [cls(np.ascontiguousarray(u[:, i])) for i in range(3)]
            V = [cls(np.ascontiguousarray(v[:, i])) for i in range(3)]
            uu = U[0] * U[0] + U[1] * U[1] + U[2] * U[2]
            uv = U[0] * V[0] + U[1] * V[1] + U[2] * V[2]
            g = 1.0 - uu
            out.append([U[0], uu, uv, g, 1.0 / uu, g.sqrt() if kind != "zero" else g])
    return list(zip(*out))


def _same(got, want):
    return got.hi.tobytes() == want.hi.tobytes() and got.lo.tobytes() == want.lo.tobytes()


KINDS = ["random", "boundary", "zero"]
CONSTANTS = [1.0, 2.0, 0.5, -3.0, 0.0]


@pytest.mark.parametrize("kind", KINDS)
def test_constant_operands_match_full_array_constants(kind):
    with np.errstate(all="ignore"):
        for x, rx in _operands(kind):
            for c in CONSTANTS:
                assert _same(x + c, rx + c), ("x + c", c)
                assert _same(c + x, c + rx), ("c + x", c)
                assert _same(x - c, rx - c), ("x - c", c)
                assert _same(c - x, c - rx), ("c - x", c)
                assert _same(x * c, rx * c), ("x * c", c)
                assert _same(c * x, c * rx), ("c * x", c)
                assert _same(c / x, c / rx), ("c / x", c)
                assert _same(x / c, rx / c), ("x / c", c)


@pytest.mark.parametrize("kind", KINDS)
def test_division_and_sqrt_match_the_full_array_formulas(kind):
    ops = _operands(kind)
    with np.errstate(all="ignore"):
        for x, rx in ops:
            for y, ry in ops:
                assert _same(x / y, rx / ry)
            got, want = x.sqrt(), rx.sqrt()
            # the reference's root of an exact zero is NaN; the rest agree
            zero = x.hi == 0.0
            assert _same(got[~zero], _RefDD(want.hi[~zero], want.lo[~zero]))
            assert (got.hi[zero] == 0.0).all() and (got.lo[zero] == 0.0).all()


def test_sqrt_of_an_exact_zero_is_zero():
    x = dd.DD(np.array([0.0, 4.0, 0.0, 2.25]))
    with np.errstate(all="raise"):
        root = x.sqrt()
    assert root.value().tolist() == [0.0, 2.0, 0.0, 1.5]
    assert root.lo.tolist() == [0.0, 0.0, 0.0, 0.0]
    # 1/gamma of a point on the unit sphere
    u = [dd.DD(np.array([1.0])), dd.DD(np.array([0.0])), dd.DD(np.array([0.0]))]
    assert (1.0 - dd.dot(u, u)).sqrt().value().tolist() == [0.0]
