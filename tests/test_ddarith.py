"""Double-double arithmetic: every shortcut gives the plain formulas' bits.

A float constant operand runs the DD formulas with scalar words, a value
splits its high word once however many products read it, and the
error-free transformations write their intermediates in place. These tests
compare every such path, bit for bit and signed zeros and NaN signs
included, with a copy of the formulas in expression form that spells
constants out as full arrays and splits each factor per product.
"""

import numpy as np
import pytest

from gyrokit import ddarith as dd
from gyrokit.sampling import directions


class _RefDD:
    """The DD formulas in expression form, with constants as
    ``np.full_like`` arrays and each factor split per product."""

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.zeros_like(self.hi) if lo is None else lo

    def _coerce(self, other):
        if isinstance(other, _RefDD):
            return other
        return _RefDD(np.full_like(self.hi, float(other)))

    def __add__(self, other):
        other = self._coerce(other)
        s, e = _ref_two_sum(self.hi, other.hi)
        t, f = _ref_two_sum(self.lo, other.lo)
        e = e + t
        s, e = _ref_quick_two_sum(s, e)
        e = e + f
        s, e = _ref_quick_two_sum(s, e)
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
        p, e = _ref_quick_two_sum(p, e)
        return _RefDD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        q1 = self.hi / other.hi
        r = self - other * _RefDD(q1)
        q2 = r.hi / other.hi
        r = r - other * _RefDD(q2)
        q3 = r.hi / other.hi
        s, e = _ref_quick_two_sum(q1, q2)
        return _RefDD(s, e) + _RefDD(q3)

    def __rtruediv__(self, other):
        return _RefDD(np.full_like(self.hi, float(other))) / self

    def sqrt(self):
        r = 1.0 / np.sqrt(self.hi)
        a = _RefDD(self.hi * r)
        err = self - a * a
        half_r = 0.5 * r
        return a + _RefDD(err.hi * half_r, err.lo * half_r)

    def __getitem__(self, idx):
        return _RefDD(self.hi[idx], self.lo[idx])


def _ref_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _ref_quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _ref_split(a):
    ca = dd._SPLIT * a
    ah = ca - (ca - a)
    return ah, a - ah


def _ref_two_prod(a, b):
    p = a * b
    ah, al = _ref_split(a)
    bh, bl = _ref_split(b)
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
    word: a coordinate, two dot products, 1 - |u|^2, and three values that
    are not finite on some rows, 1/|u|^2 (zero rows, NaN), 1/gamma (outside
    the ball, NaN) and the float64 1/u_0 lifted (zero rows, inf)."""
    u, v = _rows(kind, seed=1), _rows(kind, seed=2)
    out = []
    with np.errstate(all="ignore"):
        for cls in (dd.DD, _RefDD):
            U = [cls(np.ascontiguousarray(u[:, i])) for i in range(3)]
            V = [cls(np.ascontiguousarray(v[:, i])) for i in range(3)]
            uu = U[0] * U[0] + U[1] * U[1] + U[2] * U[2]
            uv = U[0] * V[0] + U[1] * V[1] + U[2] * V[2]
            g = 1.0 - uu
            out.append([U[0], uu, uv, g, 1.0 / uu, g.sqrt() if kind != "zero" else g,
                        cls(1.0 / u[:, 0])])
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


def _factor_uses(x, y, rx, ry):
    """Products and quotients that read x and y as factors several times,
    and sums that read them again, each against the reference; then the
    split that each factor kept is the reference split of its high word."""
    for got, want, what in ((x * y, rx * ry, "x * y"), (y * x, ry * rx, "y * x"),
                            (x * x, rx * rx, "x * x"), (x / y, rx / ry, "x / y"),
                            (y / x, ry / rx, "y / x"), (x + y, rx + ry, "x + y"),
                            (y - x, ry - rx, "y - x")):
        assert _same(got, want), what
    for value in (x, y):
        kept, want = value._halves(), _ref_split(value.hi)
        assert all(k.tobytes() == w.tobytes() for k, w in zip(kept, want))


@pytest.mark.parametrize("kind", KINDS)
def test_a_value_read_as_a_factor_many_times_matches_the_formulas(kind):
    # x and y keep their splits from their first product on; a negation or
    # a slice of them is a new value that splits its own high word. A
    # negation that took its operand's split, negated, would keep the wrong
    # split of -0.0, which is (-0.0, +0.0), not (-0.0, -0.0), and of every
    # value whose low half is zero (-1.0, say); on the rows where 1/u_0 is
    # inf, its products would also carry NaNs of the other sign
    idx = np.arange(3, 600, 7)
    ops = _operands(kind)
    with np.errstate(all="ignore"):
        for x, rx in ops:
            for y, ry in ops:
                _factor_uses(x, y, rx, ry)
                _factor_uses(-x, y, -rx, ry)
                _factor_uses(-x, -y, -rx, -ry)
                _factor_uses(x[idx], y[idx], rx[idx], ry[idx])
                _factor_uses(x, y, rx, ry)  # the originals keep their own splits
