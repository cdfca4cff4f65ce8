"""Nested neighborhood chains, the dyadic scale family they generate,
which is the induced prenorm, and the pseudometric / quotient-metric layer.

A chain is a decreasing sequence of sets around the identity. When
consecutive levels shrink fast enough the chain extends to a family
indexed by dyadic rationals in (0, 2], and the least dyadic index whose
set contains a point is a prenorm N on the carrier; calling the family
evaluates it. The suites take the chain, build its family and state each
check once; each chain kind supplies what differs. A ``RadialChain`` on a
ball evaluates N by a greedy per-level bit extraction over rapidity
(``_leading_bits``), needs radii that halve, and draws its operands with
``_rapidity_ball`` for ``run_law_check``. A ``FiniteChain`` on a table has
N the indicator of its base's complement, halves trivially, and takes
``np.ix_`` index grids over the carrier for ``exhaustive_law_checks``.

The recursion that defines the index sets' radii is read by no check; the
tests keep it, as the reference that ``DyadicFamily.index_of_rapidity``
(the metric suite's second route to N) is pinned against.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import GyrogroupModel, exhaustive_law_checks, law_triangle_decomposition, run_law_check
from .errors import AxiomViolationError, ChainConditionError, UsageError
from .report import CheckResult, VerificationReport, array_check, suite_report, witness_check
from .sampling import Sampler, ToleranceConfig, ball_points
from .tables import CayleyTable, TableModel, _closed_under, _subset_indices, coset_partition

DEFAULT_RATIO = 0.25
DEFAULT_DEPTH = 24
MAX_DEPTH = 40  # grid indices m / 2^depth stay exact in int64 and float64
# the metric suite composes separations of rapidity up to 1.9 t0, and
# float64 holds a norm fraction below 1 only up to artanh(1 - 2^-53) ~ 18.7;
# rounding in the sums loses the ball earlier (at t0 = 9.8 already), so the
# bound on t0 keeps a margin
MAX_T0 = 9.0


def rapidity(model: GyrogroupModel, x) -> np.ndarray:
    """artanh of the norm fraction; the additive radial scale of the ball."""
    frac = np.clip(model.norm_fraction(x), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.arctanh(frac)


class NeighborhoodChain:
    """Decreasing sets U_0 ⊇ U_1 ⊇ ... around the identity of a model.

    A kind supplies ``level_member(n, x)``, ``describe()``, N as
    ``prenorm(family, x)``, ``sandwich_bounds(family, x, n)`` (N < 2^-n and
    N <= 2^(1-n)), ``check_halving()``, ``slack(tol, steps)`` (what a check
    over values of N allows), ``reach`` (the rapidity from which N is 2,
    the scale of the rows' sampling caps), its operands
    (``sandwich_points``, ``triples``, and ``law_check``, which runs a row
    (name, stream, caps, law, rule) on operands of its own or the triple's,
    with the witness ``{"inputs", "residual"}``) and the checks only it
    runs (``prenorm_rows``, ``metric_checks``, ``admissible_checks``)."""

    def __init__(self, model: GyrogroupModel, depth: int):
        if not 1 <= depth <= MAX_DEPTH:
            raise UsageError(f"chain depth must lie in [1,{MAX_DEPTH}], got {depth}")
        self.model = model
        self.depth = depth


class RadialChain(NeighborhoodChain):
    """Balls of geometrically shrinking radius, measured in rapidity."""

    kind = "radial_rapidity"

    def __init__(self, model, t0=1.0, ratio=DEFAULT_RATIO, depth=DEFAULT_DEPTH):
        if model.is_exact:
            raise UsageError("radial chains need a continuous model")
        if not 0.0 < ratio < 1.0:
            raise UsageError(f"ratio must lie in (0,1), got {ratio}")
        if not 0.0 < t0 <= MAX_T0:
            raise UsageError(f"t0 must lie in (0,{MAX_T0:g}], got {t0}")
        super().__init__(model, depth)
        self.t0 = float(t0)
        self.ratio = float(ratio)
        self.t = t0 * ratio ** np.arange(depth + 1)
        if not self.t[depth] > 0:
            # a level of radius 0 is {e}, which is no neighbourhood
            raise UsageError(f"level {depth} radius t0*ratio^{depth} underflows to 0")
        self.reach = float(np.sum(self.t))

    def level_member(self, n, x):
        return rapidity(self.model, x) <= self.t[n]

    def describe(self):
        return {
            "kind": self.kind,
            "t0": self.t0,
            "ratio": self.ratio,
            "depth": self.depth,
        }

    def prenorm(self, family, x):
        """The greedy bit extraction over the points' rapidities, run
        through the family's deepest level."""
        return _leading_bits(family, rapidity(self.model, x), family.depth)[0]

    def sandwich_bounds(self, family, x, n):
        """Both bounds read from the extraction through level n only, by
        the leading-bits lemma of ``_leading_bits``."""
        head, rem = _leading_bits(family, rapidity(self.model, x), n)
        top = 2.0 ** (1 - n)
        return head < 2.0 ** -n, (head < top) | ((head == top) & (rem <= 0))

    def check_halving(self):
        t = self.t
        for n in range(self.depth):
            if 2.0 * t[n + 1] > t[n] * (1.0 + 1e-12):
                raise ChainConditionError(
                    f"level {n + 1} does not halve: 2*{t[n + 1]:.6g} > {t[n]:.6g}",
                    level=n + 1,
                    witness={"t_n": float(t[n]), "t_next": float(t[n + 1])},
                )

    def slack(self, tol, steps=0):
        """The float tolerance plus ``steps`` steps of the depth grid, to
        which the extraction quantizes N."""
        return tol.abs_tol + steps * 2.0 ** -self.depth

    def _draw(self, sampler, suite, stream, caps, n_samples):
        """One stream of points per rapidity cap, from one generator."""
        gen = sampler.stream(suite, stream)
        model = self.model
        return [_rapidity_ball(gen, n_samples, model.dim, model.bound, c) for c in caps]

    def sandwich_points(self, sampler, n, n_samples):
        """Level n's draws: rapidity up to 2.2 t[n], and for n >= 1 up to
        1.1 t[n-1] where that is more. The outer bound N <= 2^(1-n) covers
        rapidity t[n-1] = t[n] / ratio, so below ratio 1/2.2 a draw up to
        2.2 t[n] alone never meets a point where the outer inclusion can
        fail. Level 0's outer bound N <= 2 always holds. At ratio 1/2 both
        caps are the same double."""
        cap = 2.2 * float(self.t[n])
        if n:
            cap = max(cap, 1.1 * float(self.t[n - 1]))
        (pts,) = self._draw(sampler, "prenorm", f"sandwich_{n}", (cap,), n_samples)
        return pts, len(pts)

    def triples(self, sampler, n_samples):
        """The metric suite's x, y and z, drawn up to rapidity 0.95 t0."""
        return self._draw(sampler, "metric", "triples", (0.95 * self.t0,) * 3, n_samples), n_samples

    def law_check(self, sampler, suite, row, n_samples, tol, operands=None):
        """On the first len(caps) ``operands`` given, or on its stream's draw."""
        name, stream, caps, law, rule = row
        if operands is None:
            operands = self._draw(sampler, suite, stream, caps, n_samples)
        return run_law_check(self.model, name, law, operands[:len(caps)], tol, rule)

    def prenorm_rows(self, family, tol):
        """At ratio 1/2 the thresholds are linear in the index, so N is the
        grid ceiling of rapidity / t0: the row that checks that closed form."""
        if self.ratio != 0.5:
            return []
        scale = 2.0 ** family.depth

        def closed_form_gap(x):
            expected = np.minimum(np.ceil(rapidity(self.model, x) / self.t0 * scale) / scale, 2.0)
            return np.abs(family(x) - expected)

        return [("closed_form_agreement", "closed_form", (1.9 * self.reach,),
                 lambda ops, x: [(x,)], _within(self.slack(tol, 1), closed_form_gap))]

    def metric_checks(self, family, operands, tol):
        """On the triple, as the rho rows: the proof-step decomposition behind
        the triangle inequality, and independent routes to rho: invert the
        index sets' radii by bisection, and at ratio 1/2 the closed form."""
        model = self.model

        def bisection_gap(xy, yx):
            index = family.index_of_rapidity
            oracle = index(rapidity(model, xy)) + index(rapidity(model, yx))
            return np.abs(_rho(family, xy, yx) - oracle)

        def closed_form_gap(xy, yx):
            oracle = 2.0 * np.arctanh(model.norm_fraction(xy)) / self.t0
            return np.abs(_rho(family, xy, yx) - oracle)

        limit = self.slack(tol, 4)
        rows = [("decomposition_identity", law_triangle_decomposition, 3, None),
                ("rho_oracle", _separations, 2, _within(limit, bisection_gap))]
        if self.ratio == 0.5:
            rows.append(("rho_closed_form", _separations, 2, _within(limit, closed_form_gap)))
        return [run_law_check(model, name, law, operands[:k], tol, rule)
                for name, law, k, rule in rows]

    def admissible_checks(self, sampler, n_samples, tol):
        """The analytic condition 3 t[n+1] <= t[n]; per level, the double
        sums of draws from the level below, with the worst case appended,
        three copies of the extreme point on a fixed axis, where the radial
        scales add exactly; and the identity in every level."""
        model, t = self.model, self.t
        violated = np.flatnonzero(3.0 * t[1:] > t[:-1] * (1.0 + 1e-12))
        cond = CheckResult("analytic_condition", len(violated) == 0, 0.0, self.depth)
        if len(violated):
            lvl = int(violated[0])
            cond.max_residual = float(3.0 * t[lvl + 1] / t[lvl] - 1.0)
            cond.witness = {"level": lvl + 1, "t_n": float(t[lvl]), "t_next": float(t[lvl + 1])}
        checks = [cond]

        per_level = max(16, n_samples // max(1, self.depth))
        axis = np.zeros(model.dim)
        axis[0] = 1.0
        for n in range(self.depth):
            gen = sampler.stream("admissible", f"level_{n}")
            t_in = float(t[n + 1])
            extreme = (model.bound * np.tanh(t_in)) * axis
            uvw = [
                np.vstack([_rapidity_ball(gen, per_level, model.dim, model.bound, t_in), extreme])
                for _ in range(3)
            ]
            checks.append(run_law_check(
                model, f"level_{n}_double_sum",
                lambda ops, u, v, w: [(ops.oplus(u, ops.oplus(v, w)),)], uvw, tol,
                _within(tol.abs_tol, lambda c: rapidity(model, c) - float(t[n])),
            ))

        # candidate base of the chain: the identity sits in every level
        zero = model.zero_like(axis[None, :])
        in_all = all(bool(self.level_member(n, zero).all()) for n in range(self.depth + 1))
        checks.append(array_check(
            "intersection_contains_identity", float(not in_all), in_all, self.depth + 1
        ))
        return checks, {"deepest_level_rapidity": float(t[self.depth])}


class FiniteChain(NeighborhoodChain):
    """Constant chain on a finite model, or on a bare Cayley table: every
    level is the same subset, so the chain has depth 1. N is the indicator
    of the complement of that subset, exactly, and every check runs on the
    whole carrier."""

    kind = "finite_discrete"
    # N never reaches 2, and no operand is drawn, so no cap is read
    reach = math.inf

    def __init__(self, model: TableModel | CayleyTable, subgyrogroup):
        if isinstance(model, CayleyTable):
            model = TableModel(model)
        if not isinstance(model, TableModel):
            raise UsageError("finite chains need a table-backed model")
        super().__init__(model, 1)
        self.H = H = np.array(_subset_indices(model.order, subgyrogroup), dtype=np.int64)
        self._mask = np.zeros(model.order, dtype=bool)
        self._mask[H] = True
        e = model.source.identity_index
        if not self._mask[e]:
            raise ChainConditionError("chain levels must contain the identity", level=0)
        if not _closed_under(model.source, H):
            raise ChainConditionError(
                "chain level is not closed under the operation", level=0
            )

    def level_member(self, n, x):
        return self._mask[np.asarray(x)]

    def describe(self):
        return {
            "kind": self.kind,
            "table": self.model.name,
            "subgyrogroup": self.H.tolist(),
        }

    def prenorm(self, family, x):
        return np.where(self.level_member(0, x), 0.0, 1.0)

    def sandwich_bounds(self, family, x, n):
        N = family(x)
        return N < 2.0 ** -n, N <= 2.0 ** (1 - n)

    def check_halving(self):
        """A constant chain halves trivially."""

    def slack(self, tol, steps=0):
        return 0.0  # N is exact

    def sandwich_points(self, sampler, n, n_samples):
        return np.arange(self.model.order), "exhaustive"

    def triples(self, sampler, n_samples):
        """x, y and z as broadcast index grids (``np.ix_``): N and each
        separation are evaluated on the n or n² cells they read, and only
        the triangle residuals span n³."""
        r = np.arange(self.model.order)
        return np.ix_(r, r, r), "exhaustive"

    def law_check(self, sampler, suite, row, n_samples, tol, operands=None):
        name, _, caps, law, rule = row
        checks = [(name, law, len(caps), 0)]
        return exhaustive_law_checks(self.model, self.model.labels, checks, rule)[0]

    def prenorm_rows(self, family, tol):
        return []

    def metric_checks(self, family, operands, tol):
        """Invariance of d and rho under change of class representatives,
        and the quotient's two values.

        Each is checked one side at a time, as f(x + p, y + q) = f(x, y) for
        all p, q in H exactly when f(x + p, y) = f(x, y) = f(x, y + p) for
        all p in H (take q = e; conversely, move x first, then y): 2|H|
        gathers for |H|² pairs. A failure's witness is the shift p, the side
        it moves and the pair (x, y) whose value moves most."""
        model, H = self.model, self.H
        T, L = model.source.table, model.labels

        def coset_check(name, f):
            def moved(p, side):
                return np.abs((f[T[:, p]] if side == "x" else f[:, T[:, p]]) - f)

            def witness(i):
                p, side = H[i // 2], "xy"[i % 2]
                x, y = np.unravel_index(np.argmax(moved(p, side)), f.shape)
                return {"shift": L[p], "side": side, "x": L[x], "y": L[y]}

            shift = np.array([[moved(p, side).max() for side in "xy"] for p in H])
            return array_check(name, shift, shift == 0, "exhaustive", witness)

        r = np.arange(model.order)
        N = family(r)
        rho = quotient_metric_rho(model, family, *np.ix_(r, r))
        checks = [coset_check("d_coset_invariance", np.abs(N[:, None] - N[None, :])),
                  coset_check("rho_coset_invariance", rho)]

        # on the quotient the separation is two-valued: 0 on a shared
        # class, the constant 2 across distinct classes
        try:
            _, pi = coset_partition(model.source, H.tolist())
        except AxiomViolationError as exc:
            checks.append(witness_check("rho_discrete_on_quotient", {"error": str(exc)}))
            return checks
        diff = np.abs(rho - np.where(pi[:, None] == pi[None, :], 0.0, 2.0))
        checks.append(array_check("rho_discrete_on_quotient", diff, diff == 0, "exhaustive"))
        return checks

    def admissible_checks(self, sampler, n_samples, tol):
        """Closure, the identity and the base of the chain, which is
        constant, so its intersection is the base subset itself."""
        model = self.model
        ok = _closed_under(model.source, self.H)
        member = self._mask[model.source.identity_index]
        same = all(
            bool((self.level_member(n, np.arange(model.order)) == self._mask).all())
            for n in range(self.depth + 1)
        )
        checks = [
            array_check("closure_all_levels", float(not ok), ok, "exhaustive"),
            array_check("contains_identity", 0.0, member, "exhaustive"),
            array_check("intersection_equals_base", float(not same), same, "exhaustive"),
        ]
        return checks, {"intersection": [model.labels[i] for i in self.H]}


# ---------------------------------------------------------------------------
# dyadic extension


class DyadicFamily:
    """The chain extended to dyadic indices r = m / 2^n in (0, 2], and the
    prenorm N it induces: ``family(x)`` is ``prenorm_eval(family, x)``.

    Index 2^-n is level n of the chain; an odd index adds the current
    level to the extension of the remainder; index 2 is one extra
    application of level 0 on top of index 1. Indices above 2 mean the
    whole carrier. On a finite chain N is the indicator of the complement
    of the base subset: 0 on it, 1 off it.
    """

    def __init__(self, chain: NeighborhoodChain):
        self.chain = chain
        self.model = chain.model
        self.depth = chain.depth
        self.grid_step = 2.0 ** -self.depth

    def __call__(self, x) -> np.ndarray:
        return prenorm_eval(self, x)

    def index_of_rapidity(self, rho) -> np.ndarray:
        """On a radial chain, the least grid index whose set covers the
        given radial scale, found by bisection. Every bracket [lo, lo +
        2^(1-n)] halves in lockstep, so the midpoint at step n is the odd
        index lo + 2^-n, whose radius is t[n] + radius(lo); each sample
        carries radius(lo) along, starting from radius(0) = 0. This is a
        second, independent route to the prenorm value; anything beyond the
        top of the scale, NaN included, clamps to 2."""
        t = getattr(self.chain, "t", None)
        if t is None:
            raise UsageError("rapidity inversion needs the radii of a radial chain")
        rho = np.asarray(rho, dtype=float)
        scale = 1 << self.depth
        lo = np.zeros(rho.shape, dtype=np.int64)
        thr_lo = np.zeros(rho.shape)
        for n in range(self.depth + 1):
            thr_mid = float(t[n]) + thr_lo
            up = ~(rho <= thr_mid)
            lo += up * (scale >> n)
            thr_lo = np.where(up, thr_mid, thr_lo)
        return np.where(rho <= 0.0, 0.0, (lo + 1) / scale)


def build_dyadic(chain: NeighborhoodChain) -> DyadicFamily:
    """Extend a chain to the dyadic family, once it meets the halving
    condition: each level must fit twice into the one above."""
    chain.check_halving()
    return DyadicFamily(chain)


# ---------------------------------------------------------------------------
# prenorm


def prenorm_eval(family: DyadicFamily, x) -> np.ndarray:
    """Least dyadic index (on the depth grid, capped at 2) whose set
    contains each point, as the family's chain evaluates it."""
    return family.chain.prenorm(family, x)


def _leading_bits(family: DyadicFamily, rho, last: int):
    """The greedy bit extraction of a radial chain's prenorm over the
    rapidities ``rho``, run through level ``last``: returns ``(head, rem)``,
    the value extracted so far and each remainder after level ``last``. A
    bit is set exactly when the finer levels cannot cover the remainder.
    Through ``family.depth`` the head is the prenorm N.

    The loop starts at the first level whose tail (the sum of the finer
    radii) is at most the largest remainder. Tails never increase, and no
    remainder changes before a bit is set, so no earlier level can set
    one; the start may land on a level whose tail equals that maximum,
    which sets no bit either. So a point's value does not depend on the
    batch it is evaluated in. The updates are unmasked: where the bit is
    clear they add 0.0 to ``out``, which starts at 0 or 2 and so never
    holds a negative zero, and subtract 0.0 from ``rem``, which leaves
    every float unchanged, a negative zero included. Either leaves the
    value as it was, so the result is that of the masked loop bit for bit.

    Leading bits: N is the head plus the bits 2^-k set at the levels
    k > ``last``, and those sum to less than 2^-last; the head is a
    multiple of 2^-last (2 on a capped or NaN point, whose remainder is
    0). So N < 2^-last exactly when head < 2^-last, and N <= 2^(1-last)
    exactly when head < 2^(1-last), or head == 2^(1-last) with no later
    bit. A remainder changes only when a bit is set and the deepest tail
    is 0, so above the deepest level a later bit is set exactly when
    rem > 0. At the deepest level a positive rem means that level's bit
    is set, which makes the head an odd multiple of 2^-depth, never
    2^(1-depth). So a head of 2^(1-last) has no later bit exactly when
    rem <= 0.

    Live set: every tail is >= 0, so a remainder <= 0 sets no further bit,
    and its updates would add 0.0 to ``out`` and subtract 0.0 from ``rem``;
    a dead point's (head, rem) is final. So the loop runs on the live
    points only. After a level, when at least half of the points it ran on
    are dead and at least two levels remain, it writes their values back
    with an integer scatter and keeps the live ones by integer gathers
    (``np.flatnonzero``); it stops once none is live. With one level left
    a compaction would cost more than the level it thins."""
    t = family.chain.t[: family.depth + 1].astype(float)
    tails = np.concatenate([np.cumsum(t[::-1])[::-1][1:], [0.0]])
    full = float(t[0] + tails[0])
    capped = ~(rho <= full)  # NaN counts as beyond the top
    out = np.where(capped, 2.0, 0.0)
    # a capped sample has rem = 0, which exceeds no tail
    rem = np.where(capped, 0.0, rho)
    start = int(np.searchsorted(-tails, -rem.max(initial=0.0)))
    # flat views that write through to out and rem; the loop runs on head
    # and tail, which are these views while idx is None and otherwise the
    # values of the live points, whose flat indices idx holds
    flat_out, flat_rem = out.reshape(-1), rem.reshape(-1)
    head, tail, idx = flat_out, flat_rem, None
    for n in range(start, last + 1):
        bit = tail > tails[n]
        head += bit * 2.0 ** -n
        tail -= bit * t[n]
        if last - n < 2:
            continue
        live = tail > 0.0
        if 2 * np.count_nonzero(live) > len(tail):
            continue
        keep = np.flatnonzero(live)
        if idx is not None:
            flat_out[idx] = head
            flat_rem[idx] = tail
        idx = keep if idx is None else idx[keep]
        head, tail = head[keep], tail[keep]
        if not len(idx):
            break
    if idx is not None:
        flat_out[idx] = head
        flat_rem[idx] = tail
    return out, rem


# ---------------------------------------------------------------------------
# pseudometric and quotient metric


def pseudometric_d(N, x, y) -> np.ndarray:
    """d(x, y) = |N(x) - N(y)|; a pseudometric for any prenorm N, such as
    a dyadic family."""
    return np.abs(N(x) - N(y))


def _separations(ops, x, y):
    """The law of the rows that read rho(x, y): the separations -x + y and
    -y + x."""
    return [(ops.oplus(ops.neg(x), y), ops.oplus(ops.neg(y), x))]


def _rho(N, xy, yx) -> np.ndarray:
    """rho from the separations xy = -x + y and yx = -y + x: N(xy) + N(yx)."""
    return N(xy) + N(yx)


def quotient_metric_rho(model: GyrogroupModel, N, x, y) -> np.ndarray:
    """Symmetrized separation of the classes of x and y, the metric of the
    quotient by the chain's base; the metric suite's rows read the same
    ``_rho`` on the separations that the law engine evaluates."""
    return _rho(N, *_separations(model, x, y)[0])


# ---------------------------------------------------------------------------
# sampling helpers local to the metric suites


def _rapidity_ball(gen, n, dim, bound, t_cap):
    """Points with rapidity uniform on [0, t_cap], unforced; the benchmark traces this name."""
    return ball_points(gen, n, dim, bound, t_max=t_cap, margin=None)


def _within(limit, residual):
    """The rule of a chain check, on ``run_law_check`` or
    ``exhaustive_law_checks``: its law gives tuples of points, ``residual``
    of all their points in order is each row's residual, and a row passes
    when that is at most ``limit``."""
    def rule(tuples):
        r = residual(*(p for points in tuples for p in points))
        return r, r <= limit

    return rule


# ---------------------------------------------------------------------------
# property suites


def chain_condition_report(
    suite, check, exc, model, sampler, tol, chain=None
) -> VerificationReport:
    """The report of a suite stopped by the ``ChainConditionError`` ``exc``
    before its checks ran: the single failing check ``check``, whose
    witness is the error and the level it names.

    A chain that was built but has no dyadic family (``halving_condition``)
    is passed as ``chain``: the check counts its levels and the notes
    describe it. A finite chain whose subset lacks the identity or is not
    closed is never built (``chain_condition``), and its check is
    exhaustive."""
    notes = {} if chain is None else {"chain": chain.describe()}
    samples = "exhaustive" if chain is None else chain.depth
    with suite_report(suite, model.name, sampler, tol, notes=notes) as report:
        witness = {"error": str(exc), "level": exc.level}
        report.checks.append(witness_check(check, witness, samples))
    return report


def _prenorm_rows(family, tol):
    """The law rows that the prenorm suite runs on every chain: (name,
    stream, rapidity caps of the operands, law, rule)."""
    chain = family.chain

    def gap(a, b):
        d = family(a) - family(b)
        return np.abs(d, out=d)

    return [
        ("gyration_invariance", "gyration_invariance", (1.9 * chain.reach, 2.0, 2.0),
         lambda ops, x, u, v: [(ops.gyr(u, v, x), x)], _within(chain.slack(tol), gap)),
        ("subadditivity", "subadditivity", (1.2 * chain.reach, 1.2 * chain.reach),
         lambda ops, x, y: [(ops.oplus(x, y), x, y)],
         _within(chain.slack(tol, 1), lambda s, x, y: family(s) - (family(x) + family(y)))),
        ("inversion_symmetry", "inversion_symmetry", (1.9 * chain.reach,),
         lambda ops, x: [(ops.neg(x), x)], _within(0.0, gap)),
    ]


def _metric_rows(family, tol):
    """The rows of the quotient metric's axioms, as ``_prenorm_rows``. They
    read the first len(caps) operands of the suite's one triple draw, whose
    caps the chain sets (``triples``). ``rho_symmetry`` compares the halves
    of rho, which a rounding flip at a bin edge may set one grid step apart."""
    chain = family.chain
    limit = chain.slack(tol, 4)  # rho is quantized to the depth grid
    return [
        ("rho_identity", "triples", (None,), lambda ops, x: _separations(ops, x, x),
         _within(limit, lambda *s: _rho(family, *s))),
        ("rho_symmetry", "triples", (None,) * 2, _separations,
         _within(chain.slack(tol, 1), lambda xy, yx: np.abs(family(xy) - family(yx)))),
        ("rho_triangle", "triples", (None,) * 3,
         lambda ops, x, y, z: _separations(ops, x, z) + _separations(ops, x, y)
         + _separations(ops, y, z),
         _within(limit, lambda xz, zx, xy, yx, yz, zy:
                 _rho(family, xz, zx) - (_rho(family, xy, yx) + _rho(family, yz, zy)))),
    ]


def check_prenorm_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Sandwich inclusions level by level, gyration invariance,
    subadditivity, and inversion symmetry of the prenorm the chain induces.

    The sandwich {N < 2^-n} ⊆ U_n ⊆ {N <= 2^(1-n)} reads N only against
    2^-n and 2^(1-n), so on a radial chain level n is decided from the
    extraction through level n alone: the bits below it sum to less than
    2^-n, which leaves one case open, a head of exactly 2^(1-n), and that
    one is decided by whether a later bit is set (the leading-bits lemma of
    ``_leading_bits``). A failing level's witness still gives the full N,
    evaluated on its one point. The chain draws each level's points
    (``sandwich_points``)."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    try:
        family = build_dyadic(chain)
    except ChainConditionError as exc:
        return chain_condition_report(
            "prenorm", "halving_condition", exc, chain.model, sampler, tol, chain
        )
    with suite_report(
        "prenorm", chain.model.name, sampler, tol,
        depth=family.depth, notes={"chain": chain.describe()},
    ) as report:
        for n in range(family.depth + 1):
            pts, samples = chain.sandwich_points(sampler, n, n_samples)
            inner, outer = chain.sandwich_bounds(family, pts, n)
            member = chain.level_member(n, pts)
            failing = (inner & ~member) | (member & ~outer)
            bad = np.count_nonzero(failing)
            res = CheckResult(
                f"sandwich_level_{n}", bad == 0, float(bad) / max(1, len(pts)), samples
            )
            if bad:
                # the full N of the one point is its N in the batch
                i = int(np.argmax(failing))
                res.witness = {
                    "index": i,
                    "prenorm": float(family(pts[i:i + 1])[0]),
                    "member": bool(member[i]),
                }
            report.checks.append(res)
        for row in _prenorm_rows(family, tol) + chain.prenorm_rows(family, tol):
            report.checks.append(chain.law_check(sampler, "prenorm", row, n_samples, tol))
    return report


def check_metric_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Pseudometric axioms for d on the chain's triples, the quotient
    metric's axioms as law rows on them (``_metric_rows``), then the chain's
    own checks: agreement with independent routes on a radial chain,
    invariance under change of class representatives on a finite one."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    try:
        family = build_dyadic(chain)
    except ChainConditionError as exc:
        return chain_condition_report(
            "metric", "halving_condition", exc, chain.model, sampler, tol, chain
        )
    with suite_report("metric", chain.model.name, sampler, tol, depth=family.depth) as report:
        operands, samples = chain.triples(sampler, n_samples)

        # each prenorm value once; a group's arrays are released before the
        # next group allocates. d = |N(a) - N(b)| on N(x), N(y), N(z)
        nx, ny, nz = (family(p) for p in operands)
        dxy = np.abs(nx - ny)
        dxx = np.abs(nx - nx)
        report.checks.append(array_check("d_identity", dxx, dxx == 0, samples))
        del dxx
        sym = np.abs(dxy - np.abs(ny - nx))
        report.checks.append(array_check("d_symmetry", sym, sym == 0, samples))
        tri = np.abs(nx - nz) - (dxy + np.abs(ny - nz))
        del nx, ny, nz, dxy
        report.checks.append(array_check("d_triangle", tri, tri <= chain.slack(tol), samples))
        del tri
        for row in _metric_rows(family, tol):
            report.checks.append(chain.law_check(sampler, "metric", row, n_samples, tol, operands))
        report.checks += chain.metric_checks(family, operands, tol)
    return report


def validate_admissible_chain(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 2000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Level-by-level check that the chain is admissible: a double sum
    u + (v + w) of points of U_{n+1} must land in U_n, and the levels
    meet in the chain's base, which holds the identity. How each kind
    checks it is its ``admissible_checks``."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    with suite_report(
        "admissible", chain.model.name, sampler, tol,
        depth=chain.depth, notes={"chain": chain.describe()},
    ) as report:
        checks, notes = chain.admissible_checks(sampler, n_samples, tol)
        report.checks += checks
        report.notes.update(notes)
    return report


# ---------------------------------------------------------------------------
# chain specs (CLI surface)


# the fields each chain kind reads
_CHAIN_SPEC_FIELDS = {
    "radial_rapidity": ("kind", "t0", "ratio", "depth"),
    "finite_discrete": ("kind", "table", "subgyrogroup"),
}


def parse_chain_spec(spec) -> dict:
    """Normalize a chain description given as a dict or JSON text."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise UsageError(f"chain spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise UsageError("chain spec must be a JSON object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _CHAIN_SPEC_FIELDS:
        raise UsageError(f"unknown chain kind {kind!r}")
    unread = [key for key in spec if key not in _CHAIN_SPEC_FIELDS[kind]]
    if unread:
        # a misspelt field would otherwise leave its default in force
        raise UsageError(f"a {kind} chain spec has no field {unread[0]!r}; "
                         f"its fields are {', '.join(_CHAIN_SPEC_FIELDS[kind])}")
    if kind == "radial_rapidity":
        out = {"kind": kind}
        for key, default in (("t0", 1.0), ("ratio", DEFAULT_RATIO), ("depth", DEFAULT_DEPTH)):
            v = spec.get(key, default)
            # JSON booleans and strings are not numbers, and a depth is an integer
            if isinstance(v, bool) or not isinstance(v, (int, type(default))):
                what = "an integer" if key == "depth" else "a number"
                raise UsageError(f"chain spec field {key!r} must be {what}, got {v!r}")
            out[key] = type(default)(v)
        if not out["t0"] > 0:
            raise UsageError("t0 must be positive")
        if not 0.0 < out["ratio"] < 1.0:
            raise UsageError("ratio must lie in (0,1)")
        if not 1 <= out["depth"] <= MAX_DEPTH:
            raise UsageError(f"depth must lie in [1,{MAX_DEPTH}]")
        return out
    if "table" not in spec or "subgyrogroup" not in spec:
        raise UsageError("finite chain spec needs 'table' and 'subgyrogroup'")
    table = spec["table"]
    if not isinstance(table, str) or not table:
        raise UsageError(f"'table' must be a non-empty table name, got {table!r}")
    sub = spec["subgyrogroup"]
    if not isinstance(sub, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in sub
    ):
        raise UsageError("'subgyrogroup' must be a list of indices")
    return {"kind": kind, "table": table, "subgyrogroup": sub}
