"""Compensated double-double arithmetic on numpy arrays.

A value is carried as an unevaluated sum hi + lo of two float64 arrays
with |lo| <= ulp(hi)/2, giving roughly 32 significant decimal digits.
This is fixed-precision compensated arithmetic built from ordinary
doubles (error-free transformations), not an arbitrary-precision type.

Why it exists: the verification suites compare both sides of algebraic
laws. Near the carrier boundary the composed operations amplify the
last-bit rounding of intermediate points by factors up to ~1/(1-|x|^2),
which swamps any sensible tolerance even though the law itself holds
exactly. Evaluating each side in double-double from the sampled inputs
and rounding once at the end removes that artifact; the plain float64
kernels stay the public-facing implementation.

The formulas are Dekker's (A floating-point technique for extending the
available precision, Numer. Math. 18, 1971), and the work is shared under
one contract. A value's words are never written after construction, so a
value computes the Dekker split of its ``hi`` word once, when a product
first reads it, and keeps it for every later product. The error-free
transformations write their intermediates in place, but only into the
temporaries they have just allocated themselves, never into an operand;
they run the same IEEE operations in the same order as the expression
form, which they fall back to for scalar results (constant words).
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, splits a float64 into two 26-bit halves


def _two_sum(a, b):
    s = a + b
    if isinstance(s, float):  # a scalar result (np.float64 is a float)
        bb = s - a
        return s, (a - (s - bb)) + (b - bb)
    bb = np.subtract(s, a)
    e = np.subtract(s, bb)
    np.subtract(a, e, out=e)  # a - (s - bb)
    np.subtract(b, bb, out=bb)
    np.add(e, bb, out=e)
    return s, e


def _quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    if isinstance(s, float):
        return s, b - (s - a)
    e = np.subtract(s, a)
    np.subtract(b, e, out=e)
    return s, e


def _split(a):
    """a = ah + al exactly, each half with at most 26 significant bits."""
    ca = _SPLIT * a
    ah = ca - (ca - a)
    return ah, a - ah


def _two_prod(a, b, a_parts, b_parts):
    # a_parts, b_parts: _split(a) and _split(b), which each DD factor keeps
    p = a * b
    (ah, al), (bh, bl) = a_parts, b_parts
    if isinstance(p, float):
        return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e = np.multiply(ah, bh)
    np.subtract(e, p, out=e)
    t = np.multiply(ah, bl)
    np.add(e, t, out=e)
    np.multiply(al, bh, out=t)
    np.add(e, t, out=e)
    np.multiply(al, bl, out=t)
    np.add(e, t, out=e)
    return p, e


class DD:
    """A numpy array of double-double values.

    A float constant operand is a DD with scalar words, ``DD(c, 0.0)``: the
    formulas broadcast it, bit for bit as full arrays of c and 0.0 would
    give, without allocating them.

    The split of ``hi`` is kept once a product has read it. Negation and
    slicing make new values that carry no split and compute their own:
    the split of -0.0 is (-0.0, +0.0), not the negated split of +0.0.
    """

    __slots__ = ("hi", "lo", "_hi_halves")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=np.float64)
        self.lo = np.zeros_like(self.hi) if lo is None else lo
        self._hi_halves = None

    def _halves(self):
        """_split(hi), computed on first use and kept."""
        if self._hi_halves is None:
            self._hi_halves = _split(self.hi)
        return self._hi_halves

    def _coerce(self, other):
        if isinstance(other, DD):
            return other
        return DD(float(other), 0.0)

    def __add__(self, other):
        other = self._coerce(other)
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        e = e + t
        s, e = _quick_two_sum(s, e)
        e = e + f
        s, e = _quick_two_sum(s, e)
        return DD(s, e)

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        p, e = _two_prod(self.hi, other.hi, self._halves(), other._halves())
        e = e + (self.hi * other.lo + self.lo * other.hi)
        p, e = _quick_two_sum(p, e)
        return DD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        q1 = self.hi / other.hi
        r = self - other * DD(q1, 0.0)
        q2 = r.hi / other.hi
        r = r - other * DD(q2, 0.0)
        q3 = r.hi / other.hi
        s, e = _quick_two_sum(q1, q2)
        return DD(s, e) + DD(q3, 0.0)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqrt(self):
        # 1/sqrt(hi) is inf at an exact zero, and 0 * inf is NaN; there r
        # is 0 instead, so the root is 0
        with np.errstate(divide="ignore"):
            r = 1.0 / np.sqrt(self.hi)
        r = np.where(self.hi == 0.0, 0.0, r)
        a = DD(self.hi * r, 0.0)
        err = self - a * a
        half_r = 0.5 * r
        return a + DD(err.hi * half_r, err.lo * half_r)

    def value(self) -> np.ndarray:
        return self.hi + self.lo

    def __getitem__(self, idx):
        return DD(self.hi[idx], self.lo[idx])


def lift_vector(x: np.ndarray) -> list:
    """(n, d) float array -> list of d contiguous DD columns, each with the
    scalar low word 0.0."""
    x = np.asarray(x, dtype=np.float64)
    return [DD(np.ascontiguousarray(x[..., i]), 0.0) for i in range(x.shape[-1])]


def lower_vector(cols: list) -> list:
    """list of d DD columns -> list of d float64 columns, each rounded once."""
    return [c.value() for c in cols]


def dot(u: list, v: list) -> DD:
    acc = u[0] * v[0]
    for i in range(1, len(u)):
        acc = acc + u[i] * v[i]
    return acc
