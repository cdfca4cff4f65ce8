"""Abstract gyrogroup models and the universal law-verification engine.

A model supplies the operation, inverse, identity and (optionally) a
closed-form gyration. The suites here evaluate both sides of each
algebraic law on seeded samples (continuous carriers) or on every tuple
(finite carriers) and report per-check residuals.

Precision scheme for continuous carriers: every law is first evaluated
with the model's float64 kernels. Samples whose evaluation passed
through a point too close to the carrier boundary (where composed
operations amplify last-bit rounding beyond any meaningful tolerance)
are re-evaluated with the model's compensated double-double kernels,
each side rounded to float64 once at the end. The verdict therefore
reflects the algebra, not the conditioning of the sample.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError
from .report import array_check, suite_report, witness_check
from .sampling import (
    Sampler,
    ToleranceConfig,
    ball_points,
    check_sample_size,
    rownorm,
    sample_operands,
)

# rapidity beyond which a float64 intermediate is no longer trusted;
# cosh(5.5)^2 * eps stays two orders below the default tolerance
STRESS_RAPIDITY = 5.5

_EXHAUSTIVE_CAP = 20_000_000

WITNESSES = 3  # witness draws per base sample in the checks that take witness operands

_KERNEL_CELLS = 1 << 16  # first operands are batched while a batch stays this small


class GyrogroupModel:
    """Carrier description plus the gyrogroup operations.

    Subclasses implement ``oplus`` and ``neg`` (vectorized over leading
    axes) and may override ``gyr`` with a closed form. Continuous models
    set ``dim``/``bound`` and may supply ``extended()`` double-double
    kernels; exact models set ``is_exact`` and ``order`` and work on
    broadcast index arrays.
    """

    name = "abstract"
    dim: int | None = None
    bound = 1.0
    is_exact = False
    has_closed_gyr = False

    def oplus(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def zero_like(self, x):
        return np.zeros_like(x)

    def gyr(self, x, y, z):
        return derived_gyration(self, x, y, z)

    def gyr_derived(self, x, y, z):
        return derived_gyration(self, x, y, z)

    def distance(self, a, b):
        return rownorm(np.asarray(a, float) - np.asarray(b, float))

    def magnitude(self, a):
        return rownorm(np.asarray(a, float))

    def norm_fraction(self, a):
        """Carrier norm as a fraction of the boundary radius."""
        return self.magnitude(a) / self.bound

    def extended(self):
        """Double-double kernel set for stressed samples, or None."""
        return None

    @property
    def stress_norm_fraction(self):
        return float(np.tanh(STRESS_RAPIDITY))

    def sample_operands(self, gen, n, k, tol: ToleranceConfig):
        if self.dim is None:
            raise NotImplementedError("sampling requires a continuous carrier")
        return sample_operands(
            gen, n, self.dim, k, bound=self.bound, margin=tol.boundary_margin
        )

    def sample_witnesses(self, gen, n, count, offset, tol: ToleranceConfig):
        return [
            ball_points(
                gen, n, self.dim, self.bound,
                margin=tol.boundary_margin, forced_offset=(offset + j) % 100,
            )
            for j in range(count)
        ]


def derived_gyration(ops, x, y, z):
    """gyr[x, y](z) as the three-addition composition."""
    xy = ops.oplus(x, y)
    return ops.oplus(ops.neg(xy), ops.oplus(x, ops.oplus(y, z)))


class _TracedOps:
    """Duck-typed ops that record the largest norm fraction per sample."""

    def __init__(self, model):
        self._m = model
        self.peak = None

    def _note(self, r):
        f = self._m.norm_fraction(r)
        self.peak = f if self.peak is None else np.maximum(self.peak, f)
        return r

    def note_inputs(self, streams):
        for s in streams:
            self._note(s)

    def oplus(self, x, y):
        return self._note(self._m.oplus(x, y))

    def neg(self, x):
        return self._m.neg(x)

    def zero_like(self, x):
        return self._m.zero_like(x)

    def gyr(self, x, y, z):
        if self._m.has_closed_gyr:
            return self._note(self._m.gyr(x, y, z))
        return derived_gyration(self, x, y, z)

    def gyr_derived(self, x, y, z):
        return derived_gyration(self, x, y, z)


# ---------------------------------------------------------------------------
# laws: each returns a list of (lhs, rhs) comparisons


def law_g1(ops, x):
    e = ops.zero_like(x)
    return [(ops.oplus(x, e), x), (ops.oplus(e, x), x)]


def law_g2(ops, x):
    e = ops.zero_like(x)
    return [(ops.oplus(x, ops.neg(x)), e), (ops.oplus(ops.neg(x), x), e)]


def law_g3(ops, x, y, z):
    lhs = ops.oplus(x, ops.oplus(y, z))
    rhs = ops.oplus(ops.oplus(x, y), ops.gyr(x, y, z))
    return [(lhs, rhs)]


def law_g3_automorphism(ops, x, y, a, b):
    lhs = ops.gyr(x, y, ops.oplus(a, b))
    rhs = ops.oplus(ops.gyr(x, y, a), ops.gyr(x, y, b))
    return [(lhs, rhs)]


def law_g4_loop(ops, x, y, z):
    return [(ops.gyr(ops.oplus(x, y), y, z), ops.gyr(x, y, z))]


def law_left_cancellation(ops, x, y):
    return [(ops.oplus(ops.neg(x), ops.oplus(x, y)), y)]


def law_right_cancellation(ops, x, y):
    ny = ops.neg(y)
    return [(ops.oplus(ops.oplus(x, ny), ops.gyr(x, ny, y)), x)]


def law_twisted_right_cancellation(ops, x, y):
    return [(ops.oplus(ops.oplus(x, ops.gyr(x, y, ops.neg(y))), y), x)]


def law_gyration_agreement(ops, x, y, z):
    return [(ops.gyr(x, y, z), ops.gyr_derived(x, y, z))]


def law_triangle_decomposition(ops, x, y, z):
    nx = ops.neg(x)
    lhs = ops.oplus(nx, y)
    rhs = ops.oplus(
        ops.oplus(nx, z), ops.gyr(nx, z, ops.oplus(ops.neg(z), y))
    )
    return [(lhs, rhs)]


AXIOM_CHECKS = (
    # (name, law, base operand count, witness operand count)
    ("G1_identity", law_g1, 1, 0),
    ("G2_inverses", law_g2, 1, 0),
    ("G3_gyroassociativity", law_g3, 3, 0),
    ("G3_automorphism", law_g3_automorphism, 2, 2),
    ("G4_loop", law_g4_loop, 2, 1),
)

IDENTITY_CHECKS = (
    ("left_cancellation", law_left_cancellation, 2, 0),
    ("right_cancellation", law_right_cancellation, 2, 0),
    ("twisted_right_cancellation", law_twisted_right_cancellation, 2, 0),
    ("gyration_agreement", law_gyration_agreement, 3, 0),
    ("triangle_decomposition", law_triangle_decomposition, 3, 0),
)


def _pairs_metrics(model, lowered, comparator=None):
    compare = comparator if comparator is not None else model.distance
    diff = None
    mag = None
    for l, r in lowered:
        d = compare(l, r)
        m = np.maximum(model.magnitude(l), model.magnitude(r))
        diff = d if diff is None else np.maximum(diff, d)
        mag = m if mag is None else np.maximum(mag, m)
    return diff, mag


def run_law_check(model, name, law, streams, tol: ToleranceConfig, comparator=None):
    """Evaluate one law on sampled operand streams of a continuous
    carrier; returns a CheckResult over one sample per stream row.

    A sample passes when its diff is within ``max(abs_tol, rel_tol * mag)``,
    ``mag`` being the larger magnitude of the two sides; its residual is
    ``diff / max(1, mag)``. The verdict, ``max_residual`` and the witness
    (the operands and residual of the worst failing sample) come from
    :func:`~gyrokit.report.array_check`.

    ``comparator(lhs, rhs) -> per-sample diff`` replaces the model's
    element distance when a check compares derived scalars (norms,
    membership excess) instead of elements. Finite carriers are checked
    exactly, on every tuple, by :func:`first_violation` instead.
    """
    traced = _TracedOps(model)
    traced.note_inputs(streams)
    lowered = law(traced, *streams)
    diff, mag = _pairs_metrics(model, lowered, comparator)

    ext = model.extended()
    if ext is not None and traced.peak is not None:
        # row indices, not a mask: numpy selects rows of an (n, d) stream
        # several times faster by index, and one index serves every stream
        stressed = np.flatnonzero(traced.peak > model.stress_norm_fraction)
        if stressed.size:
            sub = [ext.lift(s[stressed]) for s in streams]
            redone = [(ext.lower(L), ext.lower(R)) for L, R in law(ext, *sub)]
            d2, m2 = _pairs_metrics(model, redone, comparator)
            diff = diff.copy()
            mag = mag.copy()
            diff[stressed] = d2
            mag[stressed] = m2

    residual = diff / np.maximum(1.0, mag)
    return array_check(
        name, residual, diff <= np.maximum(tol.abs_tol, tol.rel_tol * mag), int(diff.shape[0]),
        lambda i: {
            "inputs": [np.asarray(s)[i].tolist() for s in streams],
            "residual": float(residual[i]),
        },
    )


def first_violation(ops, n, law, arity):
    """First tuple, in lexicographic order, at which ``law`` fails on the
    carrier {0, ..., n-1}, as ``(tuple, lhs, rhs)`` with the two sides of
    its first differing comparison; None when the law holds everywhere.

    The law runs on broadcast index grids over a batch of first operands.
    A batch holds about _KERNEL_CELLS tuples, or one first operand with
    its n^(arity-1) tuples, so memory stays at n^(arity-1) for large
    carriers while small ones are checked in one batch.
    """
    grids = np.ix_(*[np.arange(n)] * arity)
    step = max(1, _KERNEL_CELLS // n ** (arity - 1))
    for lo in range(0, n, step):
        pairs = law(ops, grids[0][lo:lo + step], *grids[1:])
        bad = None
        for lhs, rhs in pairs:
            ne = lhs != rhs
            bad = ne if bad is None else bad | ne
        if bad.any():
            shape = (min(step, n - lo),) + (n,) * (arity - 1)
            at = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
            for lhs, rhs in pairs:
                l, r = np.broadcast_to(lhs, shape)[at], np.broadcast_to(rhs, shape)[at]
                if l != r:
                    return (lo + int(at[0]), *(int(i) for i in at[1:])), int(l), int(r)
    return None


def _continuous_streams(model, gen, n, base, wit, tol):
    streams = model.sample_operands(gen, n, base, tol)
    if wit:
        streams = [np.repeat(s, WITNESSES, axis=0) for s in streams]
        streams += model.sample_witnesses(gen, n * WITNESSES, wit, base, tol)
    return streams


def _run_suite(model, suite, checks, sampler, n_samples, tol):
    sampler = sampler if sampler is not None else Sampler()
    tol = tol if tol is not None else ToleranceConfig()
    if model.is_exact:
        # refuse the whole suite before its first check runs
        for _, _, base, wit in checks:
            if model.order ** (base + wit) > _EXHAUSTIVE_CAP:
                raise ResourceLimitError(
                    f"exhaustive check over {base + wit} operands infeasible "
                    f"for order {model.order}"
                )
    else:
        # refuse the whole suite before its first check allocates anything;
        # checks with witness operands repeat each base row WITNESSES times
        expanded = any(wit for _, _, _, wit in checks)
        check_sample_size(n_samples * WITNESSES if expanded else n_samples, model.dim)
    with suite_report(suite, model.name, sampler, tol) as report:
        for name, law, base, wit in checks:
            if model.is_exact:
                bad = first_violation(model, model.order, law, base + wit)
                L = model.labels
                result = witness_check(name, None if bad is None else {
                    "inputs": [L[i] for i in bad[0]], "lhs": L[bad[1]], "rhs": L[bad[2]]
                })
            else:
                gen = sampler.stream(suite, name)
                streams = _continuous_streams(model, gen, n_samples, base, wit, tol)
                result = run_law_check(model, name, law, streams, tol)
            report.checks.append(result)
    return report


def check_axioms(model, sampler=None, n_samples=10000, tol=None):
    """Verify the gyrogroup axioms on a model.

    Continuous carriers are sampled (``n_samples`` base tuples per check,
    times ``WITNESSES`` for the pointwise gyration comparisons); finite
    carriers are checked exhaustively and exactly.
    """
    return _run_suite(model, "axioms", AXIOM_CHECKS, sampler, n_samples, tol)


def check_identities(model, sampler=None, n_samples=10000, tol=None):
    """Verify the cancellation laws, gyration agreement and the
    three-point decomposition of a difference."""
    return _run_suite(model, "identities", IDENTITY_CHECKS, sampler, n_samples, tol)
