"""Nested neighborhood chains, the dyadic scale family they generate,
which is the induced prenorm, and the pseudometric / quotient-metric layer.

A chain is a decreasing sequence of sets around the identity. When
consecutive levels shrink fast enough the chain extends to a family
indexed by dyadic rationals in (0, 2], and the least dyadic index whose
set contains a point is a prenorm on the carrier; calling the family
evaluates it. The suites take the chain and build its family. Two
routes are kept deliberately separate: set membership goes through the
threshold recursion (memoized for single indices; the bisection that
inverts it carries each sample's lower threshold by the recursion's
step), while prenorm values come from a greedy per-level bit extraction.
They must agree, and the test suite holds them to that.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .core import GyrogroupModel, law_triangle_decomposition, run_law_check
from .errors import AxiomViolationError, ChainConditionError, UsageError
from .report import CheckResult, VerificationReport, array_check, suite_report, witness_check
from .sampling import Sampler, ToleranceConfig, check_sample_size, directions
from .tables import CayleyTable, TableModel, coset_partition

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
        T = model.source.table
        if not self._mask[T[np.ix_(H, H)]].all():
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
        self._thr_cache = {}

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
        key = (m, n)
        got = self._thr_cache.get(key)
        if got is not None:
            return got
        t = self.chain.t
        if n == 0:
            if m == 1:
                v = float(t[0])
            elif m == 2:
                v = 2.0 * float(t[0])
            else:
                raise UsageError(f"index {m} exceeds the top of the scale")
        elif m % 2 == 0:
            v = self._thr(m // 2, n - 1)
        elif m == 1:
            v = float(t[n])
        else:
            v = float(t[n]) + self._thr((m - 1) // 2, n - 1)
        self._thr_cache[key] = v
        return v

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
            np.add(lo, scale >> n, out=lo, where=up)
            np.copyto(thr_lo, thr_mid, where=up)
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
    contains each point. Greedy bit extraction over the levels; a bit is
    set exactly when the finer levels cannot cover the remainder."""
    chain = family.chain
    if isinstance(chain, FiniteChain):
        return np.where(chain.level_member(0, x), 0.0, 1.0)
    rho = rapidity(family.model, x)
    t = chain.t[: family.depth + 1].astype(float)
    tails = np.concatenate([np.cumsum(t[::-1])[::-1][1:], [0.0]])
    full = float(t[0] + tails[0])
    capped = ~(rho <= full)  # NaN counts as beyond the top
    out = np.where(capped, 2.0, 0.0)
    rem = np.where(capped, 0.0, rho)
    for n in range(family.depth + 1):
        # a capped sample has rem = 0, which exceeds no tail
        bit = rem > tails[n]
        np.add(out, 2.0 ** -n, out=out, where=bit)
        np.subtract(rem, t[n], out=rem, where=bit)
    return out


# ---------------------------------------------------------------------------
# pseudometric and quotient metric


def pseudometric_d(N, x, y) -> np.ndarray:
    """d(x, y) = |N(x) - N(y)|; a pseudometric for any prenorm N, such as
    a dyadic family."""
    return np.abs(N(x) - N(y))


def quotient_metric_rho(model: GyrogroupModel, N, x, y) -> np.ndarray:
    """Symmetrized separation of the classes of x and y:
    N(-x + y) + N(-y + x)."""
    left = N(model.oplus(model.neg(x), y))
    right = N(model.oplus(model.neg(y), x))
    return left + right


# ---------------------------------------------------------------------------
# sampling helpers local to the metric suites


def _rapidity_ball(gen, n, dim, bound, t_cap):
    """Points with rapidity uniform on [0, t_cap]; no boundary forcing."""
    check_sample_size(n, dim)
    rho = gen.uniform(0.0, t_cap, size=n)
    return np.tanh(rho)[:, None] * bound * directions(gen, n, dim)


# ---------------------------------------------------------------------------
# property suites


def _halving_report(suite, chain, exc, sampler, tol) -> VerificationReport:
    """The report of a suite whose chain has no dyadic family: the single
    failing check ``halving_condition``."""
    notes = {"chain": chain.describe()}
    with suite_report(suite, chain.model.name, sampler, tol, notes=notes) as report:
        witness = {"error": str(exc), "level": exc.level}
        report.checks.append(witness_check("halving_condition", witness, chain.depth))
    return report


def check_prenorm_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Sandwich inclusions level by level, gyration invariance,
    subadditivity, and inversion symmetry of the prenorm the chain induces."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    try:
        family = build_dyadic(chain)
    except ChainConditionError as exc:
        return _halving_report("prenorm", chain, exc, sampler, tol)
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
                t_n = float(chain.t[n])
                pts = _rapidity_ball(gen, n_samples, model.dim, model.bound, 2.2 * t_n)
                note = None
            N = family(pts)
            inner = N < 2.0 ** -n
            outer = N <= 2.0 ** (1 - n)
            member = chain.level_member(n, pts)
            bad = np.count_nonzero((inner & ~member) | (member & ~outer))
            res = CheckResult(
                f"sandwich_level_{n}",
                bad == 0,
                float(bad) / max(1, len(N)),
                note or len(N),
            )
            if bad:
                i = int(np.argmax((inner & ~member) | (member & ~outer)))
                res.witness = {
                    "index": i,
                    "prenorm": float(N[i]),
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
            gen = sampler.stream("prenorm", "gyration_invariance")
            x = _rapidity_ball(gen, n_samples, model.dim, model.bound, 1.9 * full)
            u = _rapidity_ball(gen, n_samples, model.dim, model.bound, 2.0)
            v = _rapidity_ball(gen, n_samples, model.dim, model.bound, 2.0)
            diff = np.abs(family(model.gyr(u, v, x)) - family(x))
            report.checks.append(array_check(
                "gyration_invariance", diff, diff <= tol.abs_tol, n_samples,
                lambda i: {"x": x[i].tolist(), "u": u[i].tolist(), "v": v[i].tolist()},
            ))

            gen = sampler.stream("prenorm", "subadditivity")
            x = _rapidity_ball(gen, n_samples, model.dim, model.bound, 1.2 * full)
            y = _rapidity_ball(gen, n_samples, model.dim, model.bound, 1.2 * full)
            slack = family.grid_step + tol.abs_tol
            excess = family(model.oplus(x, y)) - (family(x) + family(y))
            report.checks.append(array_check(
                "subadditivity", excess, excess <= slack, n_samples,
                lambda i: {"x": x[i].tolist(), "y": y[i].tolist(), "excess": float(excess[i])},
            ))

            gen = sampler.stream("prenorm", "inversion_symmetry")
            x = _rapidity_ball(gen, n_samples, model.dim, model.bound, 1.9 * full)
            diff = np.abs(family(model.neg(x)) - family(x))
            report.checks.append(array_check("inversion_symmetry", diff, diff == 0, n_samples))

            if chain.ratio == 0.5:
                # closed form at this ratio: thresholds are linear in the index,
                # so the prenorm is the grid ceiling of rapidity / t0
                gen = sampler.stream("prenorm", "closed_form")
                x = _rapidity_ball(gen, n_samples, model.dim, model.bound, 1.9 * full)
                scale = 2.0 ** family.depth
                expected = np.minimum(
                    np.ceil(rapidity(model, x) / chain.t0 * scale) / scale, 2.0
                )
                diff = np.abs(family(x) - expected)
                report.checks.append(array_check(
                    "closed_form_agreement", diff, diff <= family.grid_step + tol.abs_tol,
                    n_samples, lambda i: {"x": x[i].tolist(), "difference": float(diff[i])},
                ))
    return report


def check_metric_properties(
    chain: NeighborhoodChain,
    sampler: Sampler | None = None,
    n_samples: int = 10000,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Pseudometric axioms for d, metric axioms for the quotient
    separation, agreement with the closed form where one exists, and
    invariance under change of class representatives on finite models."""
    sampler = sampler or Sampler()
    tol = tol or ToleranceConfig()
    try:
        family = build_dyadic(chain)
    except ChainConditionError as exc:
        return _halving_report("metric", chain, exc, sampler, tol)
    model = chain.model
    with suite_report("metric", model.name, sampler, tol, depth=family.depth) as report:
        finite = isinstance(chain, FiniteChain)
        if finite:
            pts = np.arange(model.order)
            x, y, z = np.meshgrid(pts, pts, pts, indexing="ij")
            x, y, z = x.ravel(), y.ravel(), z.ravel()
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
        del n_xy, n_yx, n_xx, ident, sym
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

            # independent route: invert the threshold recursion by bisection
            limit = tol.abs_tol + 4.0 * family.grid_step
            xy = model.oplus(model.neg(x), y)
            sep_xy = rapidity(model, xy)
            sep_yx = rapidity(model, model.oplus(model.neg(y), x))
            oracles = [
                ("rho_oracle", family.index_of_rapidity(sep_xy) + family.index_of_rapidity(sep_yx))
            ]
            if chain.ratio == 0.5:
                sep = model.norm_fraction(xy)
                oracles.append(("rho_closed_form", 2.0 * np.arctanh(sep) / chain.t0))
            for name, oracle in oracles:
                diff = np.abs(rxy - oracle)
                report.checks.append(array_check(
                    name, diff, diff <= limit, note, lambda i: {
                        "x": x[i].tolist(), "y": y[i].tolist(), "difference": float(diff[i])
                    },
                ))

        if finite:
            H = chain.H
            T = model.source.table
            pts = np.arange(model.order)
            N_all = family(pts)
            shift = np.abs(N_all[T[:, H]] - N_all[:, None])
            report.checks.append(array_check("d_coset_invariance", shift, shift == 0, "exhaustive"))
            xg, yg = np.meshgrid(pts, pts, indexing="ij")
            base = quotient_metric_rho(model, family, xg.ravel(), yg.ravel())
            base = base.reshape(model.order, model.order)
            # base[a, b] is rho(a, b), so moving x by p and y by q reads it
            shift = np.array([
                [np.abs(base[np.ix_(T[:, p], T[:, q])] - base).max() for q in H] for p in H
            ])
            report.checks.append(
                array_check("rho_coset_invariance", shift, shift == 0, "exhaustive")
            )

            # on the quotient the separation is two-valued: 0 on a shared
            # class, the constant 2 across distinct classes
            try:
                _, pi = coset_partition(model.source, H.tolist())
                same = pi[xg] == pi[yg]
                expected = np.where(same, 0.0, 2.0)
                diff = np.abs(base - expected)
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
            H = chain.H
            T = model.source.table
            inner = T[np.ix_(H, H)]
            comp = T[np.ix_(H, np.unique(inner))]
            ok = bool(chain._mask[inner].all() and chain._mask[comp].all())
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
            report.notes["intersection"] = [model.labels[i] for i in H]
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
            u = _rapidity_ball(gen, per_level, model.dim, model.bound, t_in)
            v = _rapidity_ball(gen, per_level, model.dim, model.bound, t_in)
            w = _rapidity_ball(gen, per_level, model.dim, model.bound, t_in)
            extreme = (model.bound * np.tanh(t_in)) * axis
            u = np.vstack([u, extreme])
            v = np.vstack([v, extreme])
            w = np.vstack([w, extreme])
            comp = model.oplus(u, model.oplus(v, w))
            rho = rapidity(model, comp)
            excess = rho - float(t[n])
            report.checks.append(array_check(
                f"level_{n}_double_sum", excess, excess <= tol.abs_tol, per_level + 1,
                lambda i: {
                    "level": n,
                    "u": u[i].tolist(),
                    "v": v[i].tolist(),
                    "w": w[i].tolist(),
                    "rapidity": float(rho[i]),
                    "allowed": float(t[n]),
                },
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
    if kind == "radial_rapidity":
        try:
            out = {
                "kind": kind,
                "t0": float(spec.get("t0", 1.0)),
                "ratio": float(spec.get("ratio", DEFAULT_RATIO)),
                "depth": int(spec.get("depth", DEFAULT_DEPTH)),
            }
        except (TypeError, ValueError) as exc:
            raise UsageError(f"chain spec field is not a number: {exc}") from exc
        if not out["t0"] > 0:
            raise UsageError("t0 must be positive")
        if not 0.0 < out["ratio"] < 1.0:
            raise UsageError("ratio must lie in (0,1)")
        if not 1 <= out["depth"] <= MAX_DEPTH:
            raise UsageError(f"depth must lie in [1,{MAX_DEPTH}]")
        return out
    if kind == "finite_discrete":
        if "table" not in spec or "subgyrogroup" not in spec:
            raise UsageError("finite chain spec needs 'table' and 'subgyrogroup'")
        sub = spec["subgyrogroup"]
        if not isinstance(sub, list) or not all(isinstance(i, int) for i in sub):
            raise UsageError("'subgyrogroup' must be a list of indices")
        return {"kind": kind, "table": str(spec["table"]), "subgyrogroup": sub}
    raise UsageError(f"unknown chain kind {kind!r}")
