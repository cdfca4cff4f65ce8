"""Nested neighborhood chains, the dyadic scale family they generate,
which is the induced prenorm, and the pseudometric / quotient-metric layer.

A chain is a decreasing sequence of sets around the identity. When
consecutive levels shrink fast enough the chain extends to a family
indexed by dyadic rationals in (0, 2], and the least dyadic index whose
set contains a point is a prenorm on the carrier; calling the family
evaluates it. The suites take the chain and build its family. Two
routes are kept deliberately separate: set membership goes through the
threshold recursion (for single indices; the bisection that inverts it
carries each sample's lower threshold by the recursion's step), while
prenorm values come from a greedy per-level bit extraction. They must
agree, and the test suite holds them to that.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .core import GyrogroupModel, law_triangle_decomposition, run_law_check
from .errors import AxiomViolationError, ChainConditionError, UsageError
from .report import CheckResult, VerificationReport, array_check, suite_report, witness_check
from .sampling import Sampler, ToleranceConfig, check_sample_size, directions
from .tables import CayleyTable, TableModel, _closed_under, coset_partition

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
    """Decreasing sets U_0 ⊇ U_1 ⊇ ... around the identity of a model."""

    kind = "abstract"

    def __init__(self, model: GyrogroupModel, depth: int):
        if not 1 <= depth <= MAX_DEPTH:
            raise UsageError(f"chain depth must lie in [1,{MAX_DEPTH}], got {depth}")
        self.model = model
        self.depth = depth

    def level_member(self, n: int, x) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


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

    def level_member(self, n, x):
        return rapidity(self.model, x) <= self.t[n]

    def describe(self):
        return {
            "kind": self.kind,
            "t0": self.t0,
            "ratio": self.ratio,
            "depth": self.depth,
        }


class FiniteChain(NeighborhoodChain):
    """Constant chain on a finite model, or on a bare Cayley table: every
    level is the same subset, so the chain has depth 1."""

    kind = "finite_discrete"

    def __init__(self, model: TableModel | CayleyTable, subgyrogroup):
        if isinstance(model, CayleyTable):
            model = TableModel(model)
        if not isinstance(model, TableModel):
            raise UsageError("finite chains need a table-backed model")
        super().__init__(model, 1)
        H = np.array(sorted(set(int(i) for i in subgyrogroup)), dtype=np.int64)
        if len(H) == 0 or H[0] < 0 or H[-1] >= model.order:
            raise UsageError("subgyrogroup indices out of range")
        self.H = H
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

    # -- thresholds (radial chains only) --

    def threshold(self, r) -> float:
        """Rapidity radius of the index-r set, by the defining recursion."""
        if not isinstance(self.chain, RadialChain):
            raise UsageError("thresholds are defined for radial chains only")
        m, n = _dyadic_terms(r, self.depth)
        return self._thr(m, n)

    def _thr(self, m, n):
        t = self.chain.t
        if n == 0:
            if m == 1:
                return float(t[0])
            if m == 2:
                return 2.0 * float(t[0])
            raise UsageError(f"index {m} exceeds the top of the scale")
        if m % 2 == 0:
            return self._thr(m // 2, n - 1)
        if m == 1:
            return float(t[n])
        return float(t[n]) + self._thr((m - 1) // 2, n - 1)

    def member(self, r, x) -> np.ndarray:
        """Vectorized membership of x in the index-r set.

        For radial chains this is the analytic ball test: the point's
        rapidity against the summed level radii prescribed by the binary
        expansion of r. The reduction of composite sets to radius sums
        is exact when collinear radial scales add under the operation;
        the test suite certifies that numerically for both ball models.
        """
        x = np.asarray(x)
        if isinstance(self.chain, FiniteChain):
            if r > 2.0:
                return np.ones(x.shape, dtype=bool)
            return self.chain.level_member(0, x)
        if r > 2.0:
            return np.ones(np.shape(self.model.norm_fraction(x)), dtype=bool)
        return rapidity(self.model, x) <= self.threshold(r)

    def index_of_rapidity(self, rho) -> np.ndarray:
        """Least grid index whose set covers the given radial scale, found
        by bisection. Every bracket [lo, lo + 2^(1-n)] halves in lockstep,
        so the midpoint at step n is the odd index lo + 2^-n, whose
        threshold by the recursion's step is t[n] + thr(lo); each sample
        carries thr(lo) along, starting from thr(0) = 0. This is a second,
        independent route to the prenorm value; anything beyond the top
        of the scale, NaN included, clamps to 2."""
        if not isinstance(self.chain, RadialChain):
            raise UsageError("rapidity inversion is defined for radial chains only")
        rho = np.asarray(rho, dtype=float)
        scale = 1 << self.depth
        lo = np.zeros(rho.shape, dtype=np.int64)
        thr_lo = np.zeros(rho.shape)
        for n in range(self.depth + 1):
            thr_mid = float(self.chain.t[n]) + thr_lo
            up = ~(rho <= thr_mid)
            lo += up * (scale >> n)
            thr_lo = np.where(up, thr_mid, thr_lo)
        return np.where(rho <= 0.0, 0.0, (lo + 1) / scale)


def _dyadic_terms(r, depth):
    fr = Fraction(r)
    if fr <= 0:
        raise UsageError(f"dyadic index must be positive, got {r}")
    if fr > 2:
        raise UsageError(f"dyadic index {r} exceeds 2")
    m, den = fr.numerator, fr.denominator
    n = den.bit_length() - 1
    if den != 1 << n:
        raise UsageError(f"index {r} is not dyadic")
    if m == 2 and n == 0:
        return 2, 0
    while m % 2 == 0 and n > 0:
        m //= 2
        n -= 1
    if n > depth:
        raise UsageError(f"index {r} is finer than depth {depth}")
    return m, n


def build_dyadic(chain: NeighborhoodChain) -> DyadicFamily:
    """Extend a chain to the dyadic family, enforcing the halving
    condition: each level must fit twice into the one above."""
    if isinstance(chain, RadialChain):
        t = chain.t
        for n in range(chain.depth):
            if 2.0 * t[n + 1] > t[n] * (1.0 + 1e-12):
                raise ChainConditionError(
                    f"level {n + 1} does not halve: 2*{t[n + 1]:.6g} > {t[n]:.6g}",
                    level=n + 1,
                    witness={"t_n": float(t[n]), "t_next": float(t[n + 1])},
                )
    # finite chains are constant; closure was checked at construction
    return DyadicFamily(chain)


# ---------------------------------------------------------------------------
# prenorm


def prenorm_eval(family: DyadicFamily, x) -> np.ndarray:
    """Least dyadic index (on the depth grid, capped at 2) whose set
    contains each point: the greedy bit extraction of ``_leading_bits``
    over the points' rapidities, run through the deepest level."""
    chain = family.chain
    if isinstance(chain, FiniteChain):
        return np.where(chain.level_member(0, x), 0.0, 1.0)
    head, _ = _leading_bits(family, rapidity(family.model, x), family.depth)
    return head


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


def _sandwich_bounds(family: DyadicFamily, x, n: int):
    """The bounds of level n's sandwich at the points ``x``: N(x) < 2^-n
    and N(x) <= 2^(1-n). On a radial chain both are read from the
    extraction through level n only, by the leading-bits lemma of
    ``_leading_bits``."""
    if isinstance(family.chain, FiniteChain):
        N = family(x)
        return N < 2.0 ** -n, N <= 2.0 ** (1 - n)
    head, rem = _leading_bits(family, rapidity(family.model, x), n)
    top = 2.0 ** (1 - n)
    return head < 2.0 ** -n, (head < top) | ((head == top) & (rem <= 0))


# ---------------------------------------------------------------------------
# pseudometric and quotient metric


def pseudometric_d(N, x, y) -> np.ndarray:
    """d(x, y) = |N(x) - N(y)|; a pseudometric for any prenorm N, such as
    a dyadic family."""
    return np.abs(N(x) - N(y))


def _separations(ops, x, y):
    """The law of the rho oracles: the separations -x + y and -y + x."""
    return [(ops.oplus(ops.neg(x), y), ops.oplus(ops.neg(y), x))]


def quotient_metric_rho(model: GyrogroupModel, N, x, y) -> np.ndarray:
    """Symmetrized separation of the classes of x and y:
    N(-x + y) + N(-y + x)."""
    ((left, right),) = _separations(model, x, y)
    return N(left) + N(right)


# ---------------------------------------------------------------------------
# sampling helpers local to the metric suites


def _rapidity_ball(gen, n, dim, bound, t_cap):
    """Points with rapidity uniform on [0, t_cap]; no boundary forcing."""
    check_sample_size(n, dim)
    rho = gen.uniform(0.0, t_cap, size=n)
    d = directions(gen, n, dim)
    d *= (np.tanh(rho) * bound)[:, None]
    return d


def _within(limit, residual):
    """The ``run_law_check`` rule of a chain check: its law gives one tuple
    of points, ``residual(*points)`` is each row's residual, and a row
    passes when that is at most ``limit``."""
    def rule(tuples):
        (points,) = tuples
        r = residual(*points)
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
    evaluated on its one point.

    Level n draws its points with rapidity up to 2.2 t[n], and for n >= 1
    up to 1.1 t[n-1] where that is more: the outer bound N <= 2^(1-n)
    covers rapidity t[n-1] = t[n] / ratio, so below ratio 1/2.2 a draw up to
    2.2 t[n] alone never meets a point where the outer inclusion can fail.
    Level 0's outer bound N <= 2 always holds. At ratio 1/2 both caps are
    the same double."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    try:
        family = build_dyadic(chain)
    except ChainConditionError as exc:
        return chain_condition_report(
            "prenorm", "halving_condition", exc, chain.model, sampler, tol, chain
        )
    model = chain.model
    with suite_report(
        "prenorm", model.name, sampler, tol,
        depth=family.depth, notes={"chain": chain.describe()},
    ) as report:
        finite = isinstance(chain, FiniteChain)
        for n in range(family.depth + 1):
            if finite:
                pts = np.arange(model.order)
                note = "exhaustive"
            else:
                gen = sampler.stream("prenorm", f"sandwich_{n}")
                cap = 2.2 * float(chain.t[n])
                if n:
                    cap = max(cap, 1.1 * float(chain.t[n - 1]))
                pts = _rapidity_ball(gen, n_samples, model.dim, model.bound, cap)
                note = len(pts)
            inner, outer = _sandwich_bounds(family, pts, n)
            member = chain.level_member(n, pts)
            failing = (inner & ~member) | (member & ~outer)
            bad = np.count_nonzero(failing)
            res = CheckResult(
                f"sandwich_level_{n}", bad == 0, float(bad) / max(1, len(pts)), note
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

        if finite:
            T = model.source.table
            B = model.source.gyrations()
            N_all = family(np.arange(model.order))
            diff = np.abs(N_all[B] - N_all[None, None, :])  # (u, v, x)
            L = model.labels

            def gyration_witness(i):
                u, v, x = np.unravel_index(i, diff.shape)
                return {"pivots": [L[u], L[v]], "point": L[x]}

            report.checks.append(array_check(
                "gyration_invariance", diff, diff == 0, "exhaustive", gyration_witness
            ))
            sums = N_all[T] - (N_all[:, None] + N_all[None, :])
            report.checks.append(array_check("subadditivity", sums, sums <= 0, "exhaustive"))
            diff = np.abs(N_all[model.source.inverses()] - N_all)
            report.checks.append(array_check("inversion_symmetry", diff, diff == 0, "exhaustive"))
        else:
            full = float(np.sum(chain.t))
            scale = 2.0 ** family.depth

            def gap(a, b):
                return np.abs(family(a) - family(b))

            def closed_form_gap(x):
                # closed form at ratio 1/2: thresholds are linear in the
                # index, so the prenorm is the grid ceiling of rapidity / t0
                expected = np.minimum(np.ceil(rapidity(model, x) / chain.t0 * scale) / scale, 2.0)
                return np.abs(family(x) - expected)

            checks = [
                # (name, stream, rapidity caps of the operands, law, limit, residual)
                ("gyration_invariance", "gyration_invariance", (1.9 * full, 2.0, 2.0),
                 lambda ops, x, u, v: [(ops.gyr(u, v, x), x)], tol.abs_tol, gap),
                ("subadditivity", "subadditivity", (1.2 * full, 1.2 * full),
                 lambda ops, x, y: [(ops.oplus(x, y), x, y)], family.grid_step + tol.abs_tol,
                 lambda s, x, y: family(s) - (family(x) + family(y))),
                ("inversion_symmetry", "inversion_symmetry", (1.9 * full,),
                 lambda ops, x: [(ops.neg(x), x)], 0.0, gap),
            ]
            if chain.ratio == 0.5:
                checks.append(("closed_form_agreement", "closed_form", (1.9 * full,),
                               lambda ops, x: [(x,)], family.grid_step + tol.abs_tol,
                               closed_form_gap))
            for name, stream, caps, law, limit, residual in checks:
                gen = sampler.stream("prenorm", stream)
                pts = [_rapidity_ball(gen, n_samples, model.dim, model.bound, c) for c in caps]
                report.checks.append(
                    run_law_check(model, name, law, pts, tol, _within(limit, residual))
                )
    return report


def check_metric_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Pseudometric axioms for d, metric axioms for the quotient
    separation, agreement with the closed form where one exists, and
    invariance under change of class representatives on finite models.

    A finite chain is checked exhaustively on broadcast index grids
    (``np.ix_``): N and each separation are evaluated on the n or n² cells
    they read, and only the triangle residuals span n³. Coset invariance
    is checked one side at a time, as rho(x + p, y + q) = rho(x, y) for
    all p, q in H exactly when rho(x + p, y) = rho(x, y) = rho(x, y + p)
    for all p in H (take q = e; conversely, move x first, then y)."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    try:
        family = build_dyadic(chain)
    except ChainConditionError as exc:
        return chain_condition_report(
            "metric", "halving_condition", exc, chain.model, sampler, tol, chain
        )
    model = chain.model
    with suite_report("metric", model.name, sampler, tol, depth=family.depth) as report:
        finite = isinstance(chain, FiniteChain)
        if finite:
            pts = np.arange(model.order)
            x, y, z = np.ix_(pts, pts, pts)
            note = "exhaustive"
            slack = 0.0
        else:
            gen = sampler.stream("metric", "triples")
            cap = 0.95 * chain.t0
            x = _rapidity_ball(gen, n_samples, model.dim, model.bound, cap)
            y = _rapidity_ball(gen, n_samples, model.dim, model.bound, cap)
            z = _rapidity_ball(gen, n_samples, model.dim, model.bound, cap)
            note = n_samples
            slack = tol.abs_tol + 4.0 * family.grid_step

        # each prenorm value once; a group's arrays are released before the
        # next group allocates. First d = |N(a) - N(b)| on N(x), N(y), N(z).
        nx, ny, nz = family(x), family(y), family(z)
        dxy = np.abs(nx - ny)
        dxx = np.abs(nx - nx)
        report.checks.append(array_check("d_identity", dxx, dxx == 0, note))
        del dxx
        sym = np.abs(dxy - np.abs(ny - nx))
        report.checks.append(array_check("d_symmetry", sym, sym == 0, note))
        tri = np.abs(nx - nz) - (dxy + np.abs(ny - nz))
        del nx, ny, nz, dxy
        report.checks.append(array_check("d_triangle", tri, tri <= tol.abs_tol, note))

        # then rho(a, b) = N(-a + b) + N(-b + a) on the seven separations
        def n_sep(a, b):
            return family(model.oplus(model.neg(a), b))

        n_xy, n_yx = n_sep(x, y), n_sep(y, x)
        rxy = n_xy + n_yx
        # the prenorm is quantized to the depth grid, so separation of a
        # point from itself can only be bounded by the grid resolution
        n_xx = n_sep(x, x)
        ident = n_xx + n_xx
        report.checks.append(array_check("rho_identity", ident, ident <= slack, note))
        sym = np.abs(rxy - (n_yx + n_xy))
        report.checks.append(array_check("rho_symmetry", sym, sym == 0, note))
        del n_xy, n_yx, n_xx, ident, sym, tri
        tri = (n_sep(x, z) + n_sep(z, x)) - (rxy + (n_sep(y, z) + n_sep(z, y)))

        def triple(i):
            return {"x": x[i].tolist(), "y": y[i].tolist(), "z": z[i].tolist()}

        report.checks.append(
            array_check("rho_triangle", tri, tri <= slack, note, None if finite else triple)
        )

        if not finite:
            # the proof-step decomposition behind the triangle inequality
            report.checks.append(run_law_check(
                model, "decomposition_identity", law_triangle_decomposition, [x, y, z], tol
            ))

            # independent routes to rho(x, y) = N(-x + y) + N(-y + x): invert
            # the threshold recursion by bisection, and at ratio 1/2 the
            # closed form
            def bisection_gap(xy, yx):
                index = family.index_of_rapidity
                oracle = index(rapidity(model, xy)) + index(rapidity(model, yx))
                return np.abs(family(xy) + family(yx) - oracle)

            def closed_form_gap(xy, yx):
                oracle = 2.0 * np.arctanh(model.norm_fraction(xy)) / chain.t0
                return np.abs(family(xy) + family(yx) - oracle)

            oracles = [("rho_oracle", bisection_gap)]
            if chain.ratio == 0.5:
                oracles.append(("rho_closed_form", closed_form_gap))
            limit = tol.abs_tol + 4.0 * family.grid_step
            for name, gap in oracles:
                report.checks.append(
                    run_law_check(model, name, _separations, [x, y], tol, _within(limit, gap))
                )

        if finite:
            H = chain.H
            T = model.source.table
            N_all = family(pts)
            shift = np.abs(N_all[T[:, H]] - N_all[:, None])
            report.checks.append(array_check("d_coset_invariance", shift, shift == 0, "exhaustive"))
            # by the one-sided lemma (docstring), 2|H| gathers for |H|² pairs
            rho = rxy[:, :, 0]
            shift = np.array([
                [np.abs(rho[T[:, p]] - rho).max(), np.abs(rho[:, T[:, p]] - rho).max()]
                for p in H
            ])
            report.checks.append(
                array_check("rho_coset_invariance", shift, shift == 0, "exhaustive")
            )

            # on the quotient the separation is two-valued: 0 on a shared
            # class, the constant 2 across distinct classes
            try:
                _, pi = coset_partition(model.source, H.tolist())
                expected = np.where(pi[:, None] == pi[None, :], 0.0, 2.0)
                diff = np.abs(rho - expected)
                report.checks.append(
                    array_check("rho_discrete_on_quotient", diff, diff == 0, "exhaustive")
                )
            except AxiomViolationError as exc:
                report.checks.append(
                    witness_check("rho_discrete_on_quotient", {"error": str(exc)})
                )
    return report


def validate_admissible_chain(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 2000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Level-by-level check that a double sum from one level stays in the
    level above: u + (v + w) with u, v, w drawn from U_{n+1} must land in
    U_n. Each level also gets the worst case appended deterministically,
    three copies of the extreme point on a fixed axis, where the radial
    scales add exactly."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    model = chain.model
    with suite_report(
        "admissible", model.name, sampler, tol,
        depth=chain.depth, notes={"chain": chain.describe()},
    ) as report:
        if isinstance(chain, FiniteChain):
            ok = _closed_under(model.source, chain.H)
            report.checks.append(array_check("closure_all_levels", float(not ok), ok, "exhaustive"))
            e = model.source.identity_index
            report.checks.append(
                array_check("contains_identity", 0.0, chain._mask[e], "exhaustive")
            )
            # the chain is constant, so its intersection is the base subset itself
            same = all(
                bool((chain.level_member(n, np.arange(model.order)) == chain._mask).all())
                for n in range(chain.depth + 1)
            )
            report.checks.append(
                array_check("intersection_equals_base", float(not same), same, "exhaustive")
            )
            report.notes["intersection"] = [model.labels[i] for i in chain.H]
            return report

        t = chain.t
        cond_ok = bool((3.0 * t[1:] <= t[:-1] * (1.0 + 1e-12)).all())
        cond = CheckResult("analytic_condition", cond_ok, 0.0, chain.depth)
        if not cond_ok:
            lvl = int(np.flatnonzero(3.0 * t[1:] > t[:-1] * (1.0 + 1e-12))[0])
            cond.max_residual = float(3.0 * t[lvl + 1] / t[lvl] - 1.0)
            cond.witness = {"level": lvl + 1, "t_n": float(t[lvl]), "t_next": float(t[lvl + 1])}
        report.checks.append(cond)

        per_level = max(16, n_samples // max(1, chain.depth))
        axis = np.zeros(model.dim)
        axis[0] = 1.0
        for n in range(chain.depth):
            gen = sampler.stream("admissible", f"level_{n}")
            t_in = float(t[n + 1])
            extreme = (model.bound * np.tanh(t_in)) * axis
            uvw = [
                np.vstack([_rapidity_ball(gen, per_level, model.dim, model.bound, t_in), extreme])
                for _ in range(3)
            ]
            report.checks.append(run_law_check(
                model, f"level_{n}_double_sum",
                lambda ops, u, v, w: [(ops.oplus(u, ops.oplus(v, w)),)], uvw, tol,
                _within(tol.abs_tol, lambda c: rapidity(model, c) - float(t[n])),
            ))

        # candidate base of the chain: the identity sits in every level
        zero = model.zero_like(axis[None, :])
        in_all = all(bool(chain.level_member(n, zero).all()) for n in range(chain.depth + 1))
        report.checks.append(array_check(
            "intersection_contains_identity", float(not in_all), in_all, chain.depth + 1
        ))
        report.notes["deepest_level_rapidity"] = float(t[chain.depth])
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
