"""Nested neighborhood chains, the prenorm each induces through its dyadic
scale family, and the pseudometric / quotient-metric layer.

A chain is a decreasing sequence of sets around the identity. When
consecutive levels shrink fast enough the chain extends to a family
indexed by dyadic rationals in (0, 2], and the least dyadic index whose
set contains a point is a prenorm N on the carrier; calling the chain
evaluates it. The suites take the chain, check that it halves and state
each check once; each chain kind supplies what differs. Both kinds run their
law rows through the one driver, ``core._run_rows``. A ``RadialChain`` on a
ball evaluates N by a greedy per-level bit extraction (``_leading_bits``)
over the model's rapidity (``model.rapidity``), needs radii that halve,
and draws its rows' operands with ``ball_points``; its rules read the law
pass's points, unstacked and with their kept norms. Its sandwich levels,
which read nothing of a point but its rapidity, draw rapidities alone, on
one axis (``_rapidity_ball``), and compute each point's rapidity once, for
both bounds and the membership (``sandwich``). A ``FiniteChain`` on a table
has N the indicator of its base's complement, halves trivially, and its
rows run on every tuple of the carrier, as ``np.ix_`` index grids.

The recursion that defines the index sets' radii is read by no check; the
tests keep it, as the reference that ``index_of_rapidity``
(the metric suite's second route to N) is pinned against.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import GyrogroupModel, _Point, _run_rows, law_triangle_decomposition
from .errors import AxiomViolationError, ChainConditionError, UsageError
from .report import CheckResult, VerificationReport, array_check, suite_report, witness_check
from .sampling import Sampler, ToleranceConfig, ball_points, check_sample_size, suite_prologue
from .tables import CayleyTable, TableModel, _closed_under, _subset_indices, coset_partition

DEFAULT_RATIO = 0.25
DEFAULT_DEPTH = 24
MAX_DEPTH = 40  # grid indices m / 2^depth stay exact in int64 and float64
# a bound of the ball's chart: the metric suite composes separations of
# rapidity up to 1.9 t0, and float64 holds a norm fraction below 1 only up
# to artanh(1 - 2^-53) ~ 18.7; rounding in the sums loses the ball earlier
# (at t0 = 9.8 already), so the bound on t0 keeps a margin
MAX_T0 = 9.0


class NeighborhoodChain:
    """Decreasing sets U_0 ⊇ U_1 ⊇ ... around the identity of a model, and
    the prenorm N they induce: ``chain(x)`` is ``prenorm_eval(chain, x)``,
    the least dyadic index r = m / 2^n in (0, 2] whose set holds x. Index
    2^-n is level n; an odd index adds the current level to the extension
    of the remainder; index 2 is one extra application of level 0 on top
    of index 1. Indices above 2 mean the whole carrier.

    A kind supplies ``level_member(n, x)``, ``describe()``, N as
    ``prenorm(x)`` and, for a rule block's points as the law pass gives
    them, as ``prenorms(points)``, ``sandwich(x, n)`` (N < 2^-n, N <=
    2^(1-n) and membership in U_n), ``slack(tol, steps)`` (what a check
    over values of N allows), the sandwich levels' operands
    (``sandwich_points``) and ``admissible_checks``. It may add a halving
    check (``check_halving()``, which raises on a chain that does not
    halve) and checks only it runs (``prenorm_rows``, ``metric_rows``,
    ``metric_checks()``); by default there are none. Both kinds run their
    driver rows (name, stream, reads, law, rule) through the one
    ``law_checks``."""

    def __init__(self, model: GyrogroupModel, depth: int):
        self.model = model
        self.depth = depth

    def __call__(self, x) -> np.ndarray:
        return prenorm_eval(self, x)

    def index_of_rapidity(self, rho) -> np.ndarray:
        """On a radial chain, the least grid index whose set covers the
        given radial scale, found by bisection. Every bracket [lo, lo +
        2^(1-n)] halves in lockstep, so the midpoint at step n is the odd
        index lo + 2^-n, whose radius is t[n] + radius(lo); each sample
        carries radius(lo) along, starting from radius(0) = 0, by adding
        t[n] where it moves up and 0.0 elsewhere. radius(lo) starts at +0.0
        and only grows, so adding 0.0 leaves it as it was, and radius(lo) +
        t[n] is the midpoint's t[n] + radius(lo) exactly. This is a second,
        independent route to the prenorm value; anything beyond the top of
        the scale, NaN included, clamps to 2."""
        t = getattr(self, "t", None)
        if t is None:
            raise UsageError("rapidity inversion needs the radii of a radial chain")
        rho = np.asarray(rho, dtype=float)
        scale = 1 << self.depth
        lo = np.zeros(rho.shape, dtype=np.int64)
        thr_lo = np.zeros(rho.shape)
        for n in range(self.depth + 1):
            t_n = float(t[n])
            up = ~(rho <= t_n + thr_lo)
            lo += up * (scale >> n)
            thr_lo += up * t_n
        return np.where(rho <= 0.0, 0.0, (lo + 1) / scale)

    def law_checks(self, sampler, suite, rows, n_samples, tol):
        """The rows on ``core._run_rows``, in row order: a radial chain's
        streams drawn up to its ``caps``, a finite chain's on every tuple."""
        return _run_rows(self.model, rows, lambda stream: self._draw(
            sampler, suite, stream, self.caps[stream], n_samples), tol)

    def check_halving(self):
        """A chain halves unless its kind says otherwise."""

    def prenorm_rows(self, tol):
        return []

    def metric_rows(self, tol):
        return []

    def metric_checks(self):
        return []


def _shown(v):
    """A refused chain parameter as its message gives it: an integer of
    more than 20 digits by its size alone, since Python will not print one
    of more than 4300 digits and a message needs none of them."""
    if isinstance(v, int) and abs(v) >= 10**20:
        return f"an integer of about {int(math.log10(abs(v))) + 1} digits"
    return v


def radial_radii(t0, ratio, depth):
    """The level radii t0 * ratio^n, n = 0..depth, of a radial chain, or a
    UsageError: the one check of (t0, ratio, depth), which parse_chain_spec
    runs too. Ranges are compared before any conversion, so an integer too
    large for a float is refused, not overflowed."""
    if not 0.0 < ratio < 1.0:
        raise UsageError(f"ratio must lie in (0,1), got {_shown(ratio)}")
    if not 0.0 < t0 <= MAX_T0:
        raise UsageError(f"t0 must lie in (0,{MAX_T0:g}], got {_shown(t0)}")
    if not 1 <= depth <= MAX_DEPTH:
        raise UsageError(f"chain depth must lie in [1,{MAX_DEPTH}], got {_shown(depth)}")
    t = t0 * ratio ** np.arange(depth + 1)
    if not t[depth] > 0:
        # a level of radius 0 is {e}, which is no neighbourhood
        raise UsageError(f"level {depth} radius t0*ratio^{depth} underflows to 0")
    return t


class RadialChain(NeighborhoodChain):
    """Balls of geometrically shrinking radius, measured in rapidity."""

    kind = "radial_rapidity"

    def __init__(self, model, t0=1.0, ratio=DEFAULT_RATIO, depth=DEFAULT_DEPTH):
        if model.is_exact:
            raise UsageError("radial chains need a continuous model")
        self.t = t = radial_radii(t0, ratio, depth)
        super().__init__(model, depth)
        self.t0 = float(t0)
        self.ratio = float(ratio)
        # what ``_leading_bits`` reads besides the radii: the sum of the
        # finer radii below each level, and the top of the scale, the
        # rapidity from which N is 2
        self.tails = np.concatenate([np.cumsum(t[::-1])[::-1][1:], [0.0]])
        self.full = float(t[0] + self.tails[0])
        # by stream, the rapidity cap of each operand that its law rows read
        self.caps = {
            "gyration_invariance": (1.9 * self.full, 2.0, 2.0),
            "subadditivity": (1.2 * self.full,) * 2,
            "inversion_symmetry": (1.9 * self.full,),
            "closed_form": (1.9 * self.full,),
            "triples": (0.95 * self.t0,) * 3,
        }

    def level_member(self, n, x):
        return self.model.rapidity(x) <= self.t[n]

    def describe(self):
        return {
            "kind": self.kind,
            "t0": self.t0,
            "ratio": self.ratio,
            "depth": self.depth,
        }

    def prenorm(self, x):
        """The greedy bit extraction over the points' rapidities, run
        through the deepest level."""
        return _leading_bits(self, self.model.rapidity(x), self.depth)[0]

    def prenorms(self, points):
        """N of each of the law pass's ``points``, from one ``prenorm_eval``
        over them joined with their norms: the extraction is pointwise
        (``_leading_bits``), so each value is the one its point alone gives.
        A point that kept no norm (a lowered one) takes its slice of the
        joined point's, its own bit for bit, so no rule squares it again."""
        joined, cuts = _Point.joined(points), np.cumsum([len(p[0]) for p in points[:-1]])
        ns = np.split(self(joined), cuts)
        for p, norm in zip(points, np.split(joined.norm, cuts)):
            if p.norm is None:
                p.norm = norm
        return ns

    def sandwich(self, x, n):
        """Both bounds read from the extraction through level n only, by
        the leading-bits lemma of ``_leading_bits``, and the membership,
        all from one rapidity per point."""
        rho = self.model.rapidity(x)
        head, rem = _leading_bits(self, rho, n)
        top = 2.0 ** (1 - n)
        return head < 2.0 ** -n, (head < top) | ((head == top) & (rem <= 0)), rho <= self.t[n]

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
        return [ball_points(gen, n_samples, self.model, t_max=c) for c in caps]

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
        gen = sampler.stream("prenorm", f"sandwich_{n}")
        return _rapidity_ball(gen, n_samples, self.model, cap), n_samples

    def prenorm_rows(self, tol):
        """At ratio 1/2 the thresholds are linear in the index, so N is the
        grid ceiling of rapidity / t0: the row that checks that closed form."""
        if self.ratio != 0.5:
            return []
        scale = 2.0 ** self.depth

        def closed_form_gap(ns, points):
            rho = self.model.rapidity(points[0])
            return np.abs(ns[0] - np.minimum(np.ceil(rho / self.t0 * scale) / scale, 2.0))

        return [("closed_form_agreement", "closed_form", (0,), lambda ops, x: [(x,)],
                 _PrenormRule(self, (self.slack(tol, 1), closed_form_gap)))]

    def metric_rows(self, tol):
        """Rows on the triple, as ``_metric_rows``: the proof-step
        decomposition behind the triangle inequality, and independent routes
        to rho: invert the index sets' radii by bisection, over the
        rapidities of both separations at once, and at ratio 1/2 the closed
        form. The last two read rho(x, y) as ``rho_symmetry`` does, so
        ``law_checks`` runs the three as one group."""
        model = self.model

        def bisection_gap(ns, seps):
            xy, yx = np.split(self.index_of_rapidity(
                np.concatenate([model.rapidity(s) for s in seps])), 2)
            return np.abs((ns[0] + ns[1]) - (xy + yx))

        def closed_form_gap(ns, seps):
            oracle = 2.0 * model.rapidity(seps[0]) / self.t0
            return np.abs((ns[0] + ns[1]) - oracle)

        limit = self.slack(tol, 4)
        rows = [("decomposition_identity", "triples", (0, 1, 2), law_triangle_decomposition, None),
                ("rho_oracle", "triples", (0, 1), _separations,
                 _PrenormRule(self, (limit, bisection_gap)))]
        if self.ratio == 0.5:
            rows.append(("rho_closed_form", "triples", (0, 1), _separations,
                         _PrenormRule(self, (limit, closed_form_gap))))
        return rows

    def admissible_checks(self, sampler, per_level, tol):
        """The analytic condition 3 t[n+1] <= t[n]; per level, the double
        sums of ``per_level`` draws from the level below, with the worst
        case appended, three copies of the extreme point on a fixed axis,
        where the radial scales add exactly; and the identity in every
        level."""
        model, t = self.model, self.t
        violated = np.flatnonzero(3.0 * t[1:] > t[:-1] * (1.0 + 1e-12))
        cond = CheckResult("analytic_condition", len(violated) == 0, 0.0, self.depth)
        if len(violated):
            lvl = int(violated[0])
            cond.max_residual = float(3.0 * t[lvl + 1] / t[lvl] - 1.0)
            cond.witness = {"level": lvl + 1, "t_n": float(t[lvl]), "t_next": float(t[lvl + 1])}
        checks = [cond]

        axis = np.zeros(model.dim)
        axis[0] = 1.0
        below = {f"level_{n}": float(t[n + 1]) for n in range(self.depth)}

        def draw(stream):
            t_in = below[stream]
            extreme = model.radii(np.array([t_in])) * axis
            return [np.vstack([p, extreme])
                    for p in self._draw(sampler, "admissible", stream, (t_in,) * 3, per_level)]

        def within(t_n):  # the double sum lands in the level of radius t_n
            def rule(tuples):
                ((c,),) = tuples
                r = model.rapidity(c) - t_n
                return r, r <= tol.abs_tol
            return rule

        checks += _run_rows(model, [(f"level_{n}_double_sum", f"level_{n}", range(3),
                                     lambda ops, u, v, w: [(ops.oplus(u, ops.oplus(v, w)),)],
                                     within(float(t[n]))) for n in range(self.depth)], draw, tol)

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

    def prenorm(self, x):
        return np.where(self.level_member(0, x), 0.0, 1.0)

    def prenorms(self, points):
        """N of each array of ``points`` on its own: the arrays are index
        grids of different shapes."""
        return [self(p) for p in points]

    def sandwich(self, x, n):
        N = self(x)
        return N < 2.0 ** -n, N <= 2.0 ** (1 - n), self.level_member(n, x)

    def slack(self, tol, steps=0):
        return 0.0  # N is exact

    def sandwich_points(self, sampler, n, n_samples):
        return np.arange(self.model.order), "exhaustive"

    def metric_checks(self):
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
        N = self(r)
        rho = quotient_metric_rho(self, *np.ix_(r, r))
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

    def admissible_checks(self, sampler, per_level, tol):
        """Every level is the base H, a subgyrogroup by construction, so the
        double sums stay in it and the levels meet in it. What can fail is
        that every gyration gyr[a, b] maps H onto itself (into suffices: it is
        injective), as on neighbourhoods of a strongly topological gyrogroup;
        the witness is the lexicographically first (a, b, h) leaving H."""
        H, L, B = self.H, self.model.labels, self.model.source.gyrations()
        witness = None
        for a, b, i in np.argwhere(~self._mask[B[:, :, H]])[:1]:
            witness = {"inputs": [L[a], L[b], L[H[i]]], "image": L[B[a, b, H[i]]]}
        checks = [witness_check("levels_invariant_under_gyrations", witness)]
        return checks, {"intersection": [L[i] for i in H]}


# ---------------------------------------------------------------------------
# the prenorm


DyadicFamily = NeighborhoodChain  # exported; the benchmark's tracer wraps its index_of_rapidity


def build_dyadic(chain: NeighborhoodChain) -> NeighborhoodChain:
    """The chain as its prenorm N, once it meets the halving condition:
    each level must fit twice into the one above."""
    chain.check_halving()
    return chain


def prenorm_eval(chain: NeighborhoodChain, x) -> np.ndarray:
    """Least dyadic index (on the depth grid, capped at 2) whose set
    contains each point, as the chain evaluates it."""
    return chain.prenorm(x)


def _leading_bits(chain: RadialChain, rho, last: int):
    """The greedy bit extraction of a radial chain's prenorm over the
    rapidities ``rho``, run through level ``last``: returns ``(head, rem)``,
    the value extracted so far and each remainder after level ``last``. A
    bit is set exactly when the finer levels cannot cover the remainder.
    Through ``chain.depth`` the head is the prenorm N.

    Start state: a capped point (rapidity beyond the chain's ``full``
    scale, or NaN) has head 2 and remainder 0, any other head 0 and its
    rapidity as remainder. ``rem`` starts as a copy of the rapidities,
    and only when a point is capped is 0.0 written over the capped ones
    and ``out`` set to 2.0 there; otherwise ``out`` is zeros. The radii
    ``t``, tails and ``full`` are the chain's, computed once.

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
    t, tails = chain.t, chain.tails
    # flat views that write through to out and rem; the loop runs on head
    # and tail, which are these views while idx is None and otherwise the
    # values of the live points, whose flat indices idx holds
    rem = np.array(rho, dtype=float)
    flat_rem = rem.reshape(-1)
    capped = ~(flat_rem <= chain.full)  # NaN counts as beyond the top
    if capped.any():
        flat_out = capped * 2.0
        # a capped sample has rem = 0, which exceeds no tail
        np.copyto(flat_rem, 0.0, where=capped)
    else:
        flat_out = np.zeros(len(flat_rem))
    out = flat_out.reshape(rem.shape)
    start = int(np.searchsorted(-tails, -flat_rem.max(initial=0.0)))
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
    a chain."""
    return np.abs(N(x) - N(y))


def _separations(ops, x, y):
    """The law of the rows that read rho(x, y): the separations -x + y and
    -y + x."""
    return [(ops.oplus(ops.neg(x), y), ops.oplus(ops.neg(y), x))]


def quotient_metric_rho(N, x, y) -> np.ndarray:
    """Symmetrized separation of the classes of x and y, the metric of the
    quotient by the base of the chain N: N(xy) + N(yx) on the separations
    xy = -x + y and yx = -y + x in N's model, as the metric suite's rows
    read it on the separations that the law engine evaluates."""
    xy, yx = _separations(N.model, x, y)[0]
    return N(xy) + N(yx)


# ---------------------------------------------------------------------------
# sampling helpers local to the metric suites


def _rapidity_ball(gen, n, model, t_cap):
    """n points on the first axis of the unit ball, at ``model.radii`` of a
    rapidity uniform on [0, t_cap]; the benchmark traces this name.

    For draws whose checks read nothing of a point but its rapidity: the
    rapidities are the doubles that ``ball_points(gen, n, model,
    t_max=t_cap)`` draws first, and no direction is drawn. The norm of
    (r, 0, ...) is r exactly, where a rotated point's may be an ulp off.
    On a product the points lie in the first factor, whose norm fraction
    is then the product's."""
    check_sample_size(n, model.dim)
    pts = np.zeros((n, model.dim))
    pts[:, 0] = model.radii(gen.uniform(0.0, t_cap, n))
    return pts


class _PrenormRule:
    """The rule of a chain check whose residuals read N of every point its
    law gives: ``checks`` are ``(limit, residual)`` pairs, where
    ``residual(ns, points)`` takes those points in order and their values
    of N, and a row passes a check when its residual is at most ``limit``.

    ``results(tuples)`` gives one ``(residual, ok)`` per check, all from
    one reading of N per block (the chain's ``prenorms``, on the law pass's
    points as they are), so the checks of rows merged into one rule
    (``merged``, which ``core._run_rows`` calls) share it. Called, a rule of
    one check is a rule of ``run_law_check`` and ``exhaustive_law_checks``."""

    def __init__(self, chain, *checks):
        self.chain = chain
        self.checks = checks

    @classmethod
    def merged(cls, rules):
        return cls(rules[0].chain, *(check for rule in rules for check in rule.checks))

    def results(self, tuples):
        points = [p for t in tuples for p in t]
        ns = self.chain.prenorms(points)
        out = []
        for limit, residual in self.checks:
            r = residual(ns, points)
            out.append((r, r <= limit))
        return out

    def __call__(self, tuples):
        (result,) = self.results(tuples)
        return result


# ---------------------------------------------------------------------------
# property suites


def chain_condition_report(
    suite, check, exc, model, sampler, tol, chain=None
) -> VerificationReport:
    """The report of a suite stopped by the ``ChainConditionError`` ``exc``
    before its checks ran: the single failing check ``check``, whose
    witness is the error and the level it names.

    A chain that was built but does not halve (``halving_condition``)
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


def _chain_suite(suite, chain, sampler, n_samples, tol):
    """``(sampler, tol, refused)`` of a chain suite: its prologue and None
    once the chain halves (``build_dyadic``), or else the report of the
    failed halving condition, which draws nothing and so refuses no count."""
    try:
        build_dyadic(chain)
    except ChainConditionError as exc:
        sampler, tol = suite_prologue(sampler, tol)
        return sampler, tol, chain_condition_report(
            suite, "halving_condition", exc, chain.model, sampler, tol, chain
        )
    return (*suite_prologue(sampler, tol, chain.model.dim, n_samples), None)


def _prenorm_rows(chain, tol):
    """The law rows that the prenorm suite runs on every chain, as driver
    rows (name, stream, reads, law, rule)."""

    def gap(ns, _):
        return np.abs(ns[0] - ns[1])

    return [
        ("gyration_invariance", "gyration_invariance", (0, 1, 2),
         lambda ops, x, u, v: [(ops.gyr(u, v, x), x)],
         _PrenormRule(chain, (chain.slack(tol), gap))),
        ("subadditivity", "subadditivity", (0, 1),
         lambda ops, x, y: [(ops.oplus(x, y), x, y)],
         _PrenormRule(chain, (chain.slack(tol, 1), lambda ns, _: ns[0] - (ns[1] + ns[2])))),
        ("inversion_symmetry", "inversion_symmetry", (0,),
         lambda ops, x: [(ops.neg(x), x)], _PrenormRule(chain, (0.0, gap))),
    ]


def _triple(ops, x, y, z):
    """The law of the d rows: the triple itself, whose prenorms they read."""
    return [(x, y, z)]


def _metric_rows(chain, tol):
    """The rows of the pseudometric's and the quotient metric's axioms, as
    ``_prenorm_rows``, on the suite's one triple stream. The d rows share
    one law, so they read N(x), N(y) and N(z) once; ``rho_symmetry``
    compares the halves of rho, which a rounding flip at a bin edge may set
    one grid step apart."""
    limit = chain.slack(tol, 4)  # rho is quantized to the depth grid

    def d(ns, i, j):  # d on the prenorms N(x), N(y), N(z)
        return np.abs(ns[i] - ns[j])

    return [
        ("d_identity", "triples", (0, 1, 2), _triple,
         _PrenormRule(chain, (0.0, lambda ns, _: d(ns, 0, 0)))),
        ("d_symmetry", "triples", (0, 1, 2), _triple,
         _PrenormRule(chain, (0.0, lambda ns, _: np.abs(d(ns, 0, 1) - d(ns, 1, 0))))),
        ("d_triangle", "triples", (0, 1, 2), _triple, _PrenormRule(chain, (
            chain.slack(tol), lambda ns, _: d(ns, 0, 2) - (d(ns, 0, 1) + d(ns, 1, 2))))),
        # both separations of (x, x) are -x + x, so rho(x, x) is 2 N(-x + x),
        # which equals N + N exactly
        ("rho_identity", "triples", (0,), lambda ops, x: [(ops.oplus(ops.neg(x), x),)],
         _PrenormRule(chain, (limit, lambda ns, _: 2.0 * ns[0]))),
        ("rho_symmetry", "triples", (0, 1), _separations,
         _PrenormRule(chain, (chain.slack(tol, 1), lambda ns, _: np.abs(ns[0] - ns[1])))),
        # rho(x, z) - (rho(x, y) + rho(y, z)) on the separations xz, zx, xy,
        # yx, yz, zy
        ("rho_triangle", "triples", (0, 1, 2),
         lambda ops, x, y, z: _separations(ops, x, z) + _separations(ops, x, y)
         + _separations(ops, y, z),
         _PrenormRule(chain, (limit, lambda ns, _:
                               (ns[0] + ns[1]) - ((ns[2] + ns[3]) + (ns[4] + ns[5]))))),
    ]


def check_prenorm_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Sandwich inclusions level by level, then gyration invariance,
    subadditivity and inversion symmetry of the prenorm the chain induces.

    The chain draws each level's points (``sandwich_points``) and gives
    their bounds and membership (``sandwich``). The sandwich {N < 2^-n} ⊆
    U_n ⊆ {N <= 2^(1-n)} reads N only against 2^-n and 2^(1-n), so on a
    radial chain level n is decided from the extraction through level n
    alone (the leading-bits lemma of ``_leading_bits``); a failing level's
    witness still gives the full N of its one point. The law rows run on
    the one driver ``core._run_rows`` (``chain.law_checks``): on a radial
    chain each on its own stream's draw, which the driver releases after
    its row; on a finite chain on every tuple."""
    sampler, tol, refused = _chain_suite("prenorm", chain, sampler, n_samples, tol)
    if refused is not None:
        return refused
    with suite_report(
        "prenorm", chain.model.name, sampler, tol,
        depth=chain.depth, notes={"chain": chain.describe()},
    ) as report:
        for n in range(chain.depth + 1):
            pts, samples = chain.sandwich_points(sampler, n, n_samples)
            inner, outer, member = chain.sandwich(pts, n)
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
                    "prenorm": float(chain(pts[i:i + 1])[0]),
                    "member": bool(member[i]),
                }
            report.checks.append(res)
        rows = _prenorm_rows(chain, tol) + chain.prenorm_rows(tol)
        report.checks += chain.law_checks(sampler, "prenorm", rows, n_samples, tol)
    return report


def check_metric_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """The axioms of the pseudometric d and of the quotient metric as law
    rows (``_metric_rows``), then the chain's own: agreement with
    independent routes on a radial chain, invariance under change of class
    representatives on a finite one. On a radial chain every row reads the
    one triple, drawn and released by ``core._run_rows``; the d rows share
    one pass, and so do the rows that read rho(x, y)."""
    sampler, tol, refused = _chain_suite("metric", chain, sampler, n_samples, tol)
    if refused is not None:
        return refused
    with suite_report("metric", chain.model.name, sampler, tol, depth=chain.depth) as report:
        rows = _metric_rows(chain, tol) + chain.metric_rows(tol)
        report.checks += chain.law_checks(sampler, "metric", rows, n_samples, tol)
        report.checks += chain.metric_checks()
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
    checks it is its ``admissible_checks``, on ``per_level`` points a level."""
    per_level = max(16, n_samples // chain.depth)
    sampler, tol = suite_prologue(sampler, tol, chain.model.dim, n_samples, per_level)
    with suite_report(
        "admissible", chain.model.name, sampler, tol,
        depth=chain.depth, notes={"chain": chain.describe()},
    ) as report:
        checks, notes = chain.admissible_checks(sampler, per_level, tol)
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
    """Normalize a chain description given as a dict or JSON text; a radial
    spec is refused before any model is built, as RadialChain refuses it."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
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
            out[key] = v
        radial_radii(out["t0"], out["ratio"], out["depth"])
        return {**out, "t0": float(out["t0"]), "ratio": float(out["ratio"])}
    if "table" not in spec or "subgyrogroup" not in spec:
        raise UsageError("finite chain spec needs 'table' and 'subgyrogroup'")
    table = spec["table"]
    if not isinstance(table, str):  # an empty name is refused where it is resolved
        raise UsageError(f"'table' must be a table name, got {table!r}")
    sub = spec["subgyrogroup"]
    if not isinstance(sub, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in sub
    ):
        raise UsageError("'subgyrogroup' must be a list of indices")
    return {"kind": kind, "table": table, "subgyrogroup": sub}
