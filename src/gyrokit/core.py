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

The float64 pass runs in blocks of ``_LAW_BLOCK_ROWS`` stream rows, so
that each kernel's temporaries stay in cache instead of being fresh
megabyte arrays per call. Laws, kernels and rules must work row by row
(elementwise + - * /, sqrt, maximum), so that a row's values do not
depend on the block it falls in; the per-row results are gathered into
whole-stream arrays, and the double-double re-evaluation and the verdict
run once per check on those.

The checks that take witness operands pair each base sample with
``WITNESSES`` witness points. Their base streams are row-repeat views
(``_RowRepeat``) that read like ``np.repeat`` copies but hold only the
base rows, so the law engine reads streams by slice and by index only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ResourceLimitError
from .report import array_check, suite_report, witness_check
from .sampling import (
    Sampler,
    ToleranceConfig,
    check_sample_size,
    rownorm,
    sample_operands,
)

# rapidity beyond which a float64 intermediate is no longer trusted;
# cosh(5.5)^2 * eps stays two orders below the default tolerance
STRESS_RAPIDITY = 5.5
# the same threshold as a norm fraction: samples whose evaluation passed a
# point beyond it are re-evaluated in double-double
STRESS_NORM_FRACTION = float(np.tanh(STRESS_RAPIDITY))

_EXHAUSTIVE_CAP = 20_000_000

WITNESSES = 3  # witness draws per base sample in the checks that take witness operands

_KERNEL_CELLS = 1 << 16  # most tuples in one batch of an exhaustive law pass

_LAW_BLOCK_ROWS = 8192  # stream rows in one block of run_law_check's float64 pass


class GyrogroupModel:
    """Carrier description plus the gyrogroup operations.

    Subclasses implement ``oplus`` and ``neg`` (vectorized over leading
    axes) and may override ``gyr`` with a closed form (and set
    ``has_closed_gyr``); otherwise ``gyr`` is :func:`derived_gyration`,
    which is also the oracle that ``law_gyration_agreement`` checks a
    closed form against. Continuous models set ``dim``/``bound``, draw
    their operands through ``sample_operands`` and may supply
    ``extended()`` double-double kernels; exact models set ``is_exact``
    and ``order`` and work on broadcast index arrays.
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

    def sample_operands(self, gen, n, k, tol: ToleranceConfig, offset=0):
        if self.dim is None:
            raise NotImplementedError("sampling requires a continuous carrier")
        return sample_operands(
            gen, n, self.dim, k, bound=self.bound, margin=tol.boundary_margin, offset=offset
        )


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


def exact_violation(ops, n, law, arity):
    """:func:`first_violation` of ``law`` on the exact carrier ``ops``.

    law_g3_automorphism sees its first two operands only as the pivots of
    gyr[x, y], so it runs once per distinct gyration, over
    ``ops.pivot_classes``. No other law does: G4_loop also reads x + y.
    """
    pivots = ops.pivot_classes if law is law_g3_automorphism else None
    return first_violation(ops, n, law, arity, pivots)


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
    return [(ops.gyr(x, y, z), derived_gyration(ops, x, y, z))]


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


def element_rule(model, tol: ToleranceConfig, distance=None):
    """The rule of the laws over (lhs, rhs) pairs: a row's ``diff`` and
    ``mag`` are the largest ``distance(lhs, rhs)`` and side magnitude over
    its pairs, its residual is ``diff / max(1, mag)``, and it passes when
    ``diff`` is within ``max(abs_tol, rel_tol * mag)``. ``distance`` is the
    model's element distance unless a check compares derived scalars."""
    distance = distance if distance is not None else model.distance

    def rule(pairs):
        diff = None
        mag = None
        for l, r in pairs:
            d = distance(l, r)
            m = np.maximum(model.magnitude(l), model.magnitude(r))
            diff = d if diff is None else np.maximum(diff, d)
            mag = m if mag is None else np.maximum(mag, m)
        return diff / np.maximum(1.0, mag), diff <= np.maximum(tol.abs_tol, tol.rel_tol * mag)

    return rule


def run_law_check(model, name, law, streams, tol: ToleranceConfig, rule=None):
    """Evaluate one law on sampled operand streams of a continuous
    carrier; returns a CheckResult over one sample per stream row.

    ``law(ops, *operands)`` returns a list of tuples of points, and
    ``rule(tuples) -> (residual, ok)`` reduces them to one residual and
    one pass flag per row; the default is :func:`element_rule`, which
    reads the tuples as (lhs, rhs) pairs. The verdict, ``max_residual``
    and the witness (``{"inputs", "residual"}``: the operands and residual
    of the worst failing row) come from :func:`~gyrokit.report.array_check`.
    Finite carriers are checked exactly, on every tuple, by
    :func:`exhaustive_law_checks` instead, which takes the same rules.

    The float64 pass (the law on traced ops, the boundary tracing and the
    rule) runs on blocks of ``_LAW_BLOCK_ROWS`` rows, so no model kernel
    sees more rows than one block; the blocks write into whole-stream
    ``residual``, ``ok`` and ``peak`` arrays. The stressed rows are then
    re-evaluated in double-double in one pass, the rule reading their
    points lowered to float64, and the verdict is taken over the whole
    stream, exactly as if the float64 pass had run on it in one piece.

    Streams are read by ``len``, by unit-step slice (the blocks) and by
    integer index (the stressed rows and the witness) only, so a stream
    may be an (n, d) array or a ``_RowRepeat`` view of one.
    """
    rule = rule if rule is not None else element_rule(model, tol)
    n = len(streams[0])
    residual, ok, peak = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
    for lo in range(0, n, _LAW_BLOCK_ROWS):
        rows = slice(lo, lo + _LAW_BLOCK_ROWS)
        block = [s[rows] for s in streams]
        traced = _TracedOps(model)
        traced.note_inputs(block)
        residual[rows], ok[rows] = rule(law(traced, *block))
        peak[rows] = traced.peak

    ext = model.extended()
    if ext is not None:
        # row indices, not a mask: numpy selects rows of an (n, d) stream
        # several times faster by index, and one index serves every stream
        stressed = np.flatnonzero(peak > STRESS_NORM_FRACTION)
        if stressed.size:
            sub = [ext.lift(s[stressed]) for s in streams]
            redone = [tuple(map(ext.lower, points)) for points in law(ext, *sub)]
            residual[stressed], ok[stressed] = rule(redone)

    return array_check(
        name, residual, ok, n,
        lambda i: {
            "inputs": [s[i].tolist() for s in streams],
            "residual": float(residual[i]),
        },
    )


def _batches(sizes):
    """The batches of an exhaustive pass over every index tuple of shape
    ``sizes``, in lexicographic order, as ``(at, grids)``: the batch's block
    of the full array (one slice per leading operand) and its ``np.ix_``
    grids. A batch fixes the least k leading operands that keep one value
    of operand k within _KERNEL_CELLS tuples, and takes a run of operand
    k's values and every value of the rest, so its arrays stay in cache; at
    arity 3, k = 1 once n^2 > _KERNEL_CELLS (orders 257 to 271)."""
    k = 0
    while math.prod(sizes[k + 1:]) > _KERNEL_CELLS:
        k += 1
    step = _KERNEL_CELLS // math.prod(sizes[k + 1:])
    idx = np.arange(max(sizes))
    rest = [idx[:size] for size in sizes[k + 1:]]
    for head in itertools.product(*map(range, sizes[:k])):
        for lo in range(0, sizes[k], step):
            at = (*(slice(h, h + 1) for h in head), slice(lo, min(lo + step, sizes[k])))
            yield at, np.ix_(*(idx[s] for s in at), *rest)


def first_violation(ops, n, law, arity, pivots=None):
    """First tuple, in lexicographic order, at which ``law`` fails on the
    carrier {0, ..., n-1}, as ``(tuple, lhs, rhs)`` with the two sides of
    its first differing comparison; None when the law holds everywhere.

    The law runs on the batches of :func:`_batches`, which go in
    lexicographic order, so the first failing batch holds the first
    failing tuple, and the tuple is read off the batch's grids.

    ``pivots``, an (m, 2) array of (x, y) pairs in lexicographic order,
    makes the first two operands run together over those pairs only, as
    one operand of m values. For a law that sees x and y only through
    gyr[x, y], given the first pair of each distinct gyration (a table's
    ``pivot_classes``), the scan returns the same tuple, lhs and rhs as
    the full one: a pair fails exactly where the first pair of its class
    does, so the first failing tuple has a first pair as its pivots. On
    z64 the automorphism law then runs on 64^2 tuples instead of 64^4.
    """
    sizes = (n,) * arity if pivots is None else (len(pivots),) + (n,) * (arity - 2)
    for _, grids in _batches(sizes):
        if pivots is not None:
            grids = (pivots[grids[0], 0], pivots[grids[0], 1], *grids[1:])
        pairs = law(ops, *grids)
        bad = None
        for lhs, rhs in pairs:
            ne = lhs != rhs
            bad = ne if bad is None else bad | ne
        if bad.any():
            shape = np.broadcast_shapes(*(g.shape for g in grids))
            at = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
            for lhs, rhs in pairs:
                l, r = np.broadcast_to(lhs, shape)[at], np.broadcast_to(rhs, shape)[at]
                if l != r:
                    return tuple(int(np.broadcast_to(g, shape)[at]) for g in grids), int(l), int(r)
    return None


class _RowRepeat:
    """Read-only view of ``np.repeat(base, WITNESSES, axis=0)`` that holds
    only ``base``: row i of the view is row i // WITNESSES of the base.

    ``len`` and ``.shape`` are those of the repeated array. A unit-step
    slice repeats only the base rows it covers and trims them to the
    slice; an integer or an integer index array reads ``base[i //
    WITNESSES]`` (floor division keeps negative indices right, since the
    view's length is a multiple of WITNESSES). Either way the rows come
    back bit for bit as the repeated array would give them.
    """

    def __init__(self, base):
        self.base = base
        self.shape = (len(base) * WITNESSES, *base.shape[1:])

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                raise IndexError("a row-repeat view takes unit-step slices only")
            first = lo // WITNESSES
            rows = np.repeat(self.base[first:-(-hi // WITNESSES)], WITNESSES, axis=0)
            return rows[lo - first * WITNESSES:hi - first * WITNESSES]
        key = np.asarray(key)
        if key.dtype.kind not in "iu":
            raise IndexError("a row-repeat view takes integer indices only")
        return self.base[key // WITNESSES]


def _continuous_streams(model, gen, n, base, wit, tol):
    """The ``base`` operand streams of ``n`` points each, and, when the
    check takes ``wit`` witness operands, those ``n * WITNESSES`` points
    each. Each base row then pairs with WITNESSES witness rows: the base
    streams become ``_RowRepeat`` views of length ``n * WITNESSES``, which
    read as ``np.repeat`` copies would but hold only the n base rows."""
    streams = model.sample_operands(gen, n, base, tol)
    if wit:
        streams = [_RowRepeat(s) for s in streams]
        streams += model.sample_operands(gen, n * WITNESSES, wit, tol, offset=base)
    return streams


def exhaustive_law_checks(ops, labels, checks, rule=None):
    """Each law of ``checks``, (name, law, base, wit), on every tuple of the
    carrier ``labels``, as CheckResults; refused before the first runs when
    one law has more than _EXHAUSTIVE_CAP operand tuples, n^k for k operands.

    Without a ``rule``, through :func:`exact_violation` (so the automorphism
    law runs once per distinct gyration of ``ops``), with first_violation's
    witness in labels: ``{"inputs", "lhs", "rhs"}``. With one, as in
    :func:`run_law_check`, on the batches of :func:`_batches`, with the
    witness ``{"inputs", "residual"}``, the inputs in labels."""
    n = len(labels)
    for _, _, base, wit in checks:
        if n ** (base + wit) > _EXHAUSTIVE_CAP:
            raise ResourceLimitError(
                f"exhaustive check over {base + wit} operands infeasible for order {n}"
            )
    results = []
    for name, law, base, wit in checks:
        k = base + wit
        if rule is None:
            bad = exact_violation(ops, n, law, k)
            results.append(witness_check(name, None if bad is None else {
                "inputs": [labels[i] for i in bad[0]],
                "lhs": labels[bad[1]], "rhs": labels[bad[2]],
            }))
            continue
        residual, ok = np.empty((n,) * k), np.empty((n,) * k, dtype=bool)
        for at, grids in _batches(residual.shape):
            residual[at], ok[at] = rule(law(ops, *grids))
        results.append(array_check(name, residual, ok, "exhaustive", lambda i: {
            "inputs": [labels[j] for j in np.unravel_index(i, residual.shape)],
            "residual": float(residual.flat[i]),
        }))
    return results


def _run_suite(model, suite, checks, sampler, n_samples, tol):
    sampler = sampler if sampler is not None else Sampler()
    tol = tol if tol is not None else ToleranceConfig()
    if not model.is_exact:
        # refuse the whole suite before its first check allocates anything;
        # checks with witness operands draw WITNESSES witness rows per sample
        expanded = any(wit for _, _, _, wit in checks)
        check_sample_size(n_samples * WITNESSES if expanded else n_samples, model.dim)
    with suite_report(suite, model.name, sampler, tol) as report:
        if model.is_exact:
            report.checks = exhaustive_law_checks(model, model.labels, checks)
            return report
        for name, law, base, wit in checks:
            gen = sampler.stream(suite, name)
            streams = _continuous_streams(model, gen, n_samples, base, wit, tol)
            report.checks.append(run_law_check(model, name, law, streams, tol))
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
