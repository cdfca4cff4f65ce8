import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gyrokit.core import exhaustive_law_checks
from gyrokit.errors import ChainConditionError, UsageError
from gyrokit import prenorm, sampling
from gyrokit.models import EinsteinModel, MobiusModel, ProductModel
from gyrokit.prenorm import (
    MAX_T0,
    FiniteChain,
    RadialChain,
    _leading_bits,
    _prenorm_rows,
    _rapidity_ball,
    build_dyadic,
    check_prenorm_properties,
    parse_chain_spec,
    prenorm_eval,
    rapidity,
    validate_admissible_chain,
)
from gyrokit.sampling import Sampler, ToleranceConfig, ball_points, directions
from gyrokit.tables import cyclic_table, klein_table, load_table

GRID24 = 2.0 ** -24


def bit_sum_threshold(t, r):
    """Independent oracle: sum the level radii named by the binary
    expansion of the index, coarse bits first."""
    fr = Fraction(r)
    if fr == 2:
        return 2.0 * float(t[0])
    total = 0.0
    for k in range(len(t)):
        if fr >= 1:
            total += float(t[k])
            fr -= 1
        fr *= 2
    assert fr == 0, "index finer than the scale"
    return total


# -- the reference: the index sets' radii by their defining recursion ----------


def dyadic_terms(r, depth):
    """(m, n) with r = m / 2^n in lowest terms; index 2 is (2, 0)."""
    fr = Fraction(r)
    m, den = fr.numerator, fr.denominator
    n = den.bit_length() - 1
    assert 0 < fr <= 2 and den == 1 << n and n <= depth, f"{r} is no index at depth {depth}"
    return m, n


def _thr(t, m, n):
    """Radius of the index-m/2^n set: index 2^-n is level n, an odd index
    adds the current level to the radius of the remainder, and index 2 is
    level 0 applied twice."""
    if n == 0:
        assert m in (1, 2), f"index {m} exceeds the top of the scale"
        return float(t[0]) if m == 1 else 2.0 * float(t[0])
    if m % 2 == 0:
        return _thr(t, m // 2, n - 1)
    if m == 1:
        return float(t[n])
    return float(t[n]) + _thr(t, (m - 1) // 2, n - 1)


def threshold(family, r):
    """Rapidity radius of a radial family's index-r set, by the recursion."""
    return _thr(family.chain.t, *dyadic_terms(r, family.depth))


def member(family, r, x):
    """Membership of the points x in a radial family's index-r set: the
    ball of the reference radius, and above index 2 the whole carrier."""
    rho = rapidity(family.model, x)
    return np.ones(rho.shape, dtype=bool) if r > 2 else rho <= threshold(family, r)


# -- dyadic thresholds ---------------------------------------------------------


@pytest.mark.parametrize("ratio", [0.5, 0.25, 0.3])
def test_threshold_recursion_matches_bit_sum(ratio):
    depth = 8
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=ratio, depth=depth))
    exact = ratio in (0.5, 0.25)  # binary-fraction radii sum exactly
    for m in range(1, 2 ** (depth + 1) + 1):
        r = Fraction(m, 2 ** depth)
        want = bit_sum_threshold(fam.chain.t, r)
        got = threshold(fam, r)
        if exact:
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * max(1.0, want)


def test_threshold_known_values():
    fam = build_dyadic(RadialChain(MobiusModel(), t0=1.0, ratio=0.25, depth=4))
    assert threshold(fam, 1) == 1.0
    assert threshold(fam, 2) == 2.0
    assert threshold(fam, Fraction(1, 2)) == 0.25
    assert threshold(fam, Fraction(3, 4)) == 0.25 + 0.0625
    assert threshold(fam, Fraction(3, 2)) == 1.25


# -- membership ----------------------------------------------------------------


def test_member_matches_levels_and_extends():
    model = MobiusModel()
    chain = RadialChain(model, depth=8)
    fam = build_dyadic(chain)
    gen = np.random.default_rng(7)
    pts = gen.uniform(-0.6, 0.6, (200, 2))
    assert np.array_equal(member(fam, 1, pts), chain.level_member(0, pts))
    assert np.array_equal(member(fam, Fraction(1, 4), pts), chain.level_member(2, pts))
    assert member(fam, 2.5, pts).all()
    assert member(fam, 2.5, pts).shape == (200,)


def test_member_monotone_in_index():
    fam = build_dyadic(RadialChain(MobiusModel(), depth=6))
    gen = np.random.default_rng(11)
    pts = gen.uniform(-0.7, 0.7, (500, 2))
    grid = [Fraction(m, 64) for m in range(1, 129)]
    prev = member(fam, grid[0], pts)
    for r in grid[1:]:
        cur = member(fam, r, pts)
        assert (prev <= cur).all(), f"membership lost growing index to {r}"
        prev = cur


def test_sandwich_at_every_level_ratio_quarter():
    # {N < 2^-n} inside U_n inside {N <= 2 * 2^-n}
    model = MobiusModel()
    chain = RadialChain(model, ratio=0.25, depth=10)
    N = build_dyadic(chain)
    gen = np.random.default_rng(3)
    pts = gen.uniform(-0.7, 0.7, (4000, 2))
    vals = N(pts)
    for n in range(9):
        inner = vals < 2.0 ** -n
        outer = vals <= 2.0 ** (1 - n)
        mem = chain.level_member(n, pts)
        assert not (inner & ~mem).any()
        assert not (mem & ~outer).any()


# -- prenorm values ------------------------------------------------------------


def test_prenorm_frozen_values_ratio_half():
    model = MobiusModel()
    N = build_dyadic(RadialChain(model, t0=1.0, ratio=0.5, depth=24))
    pts = np.array([[0.0, 0.0], [np.tanh(0.75), 0.0], [np.tanh(3.0), 0.0]])
    vals = N(pts)
    assert vals[0] == 0.0
    # radii are powers of two, so N reads off rapidity on the grid
    assert abs(vals[1] - 0.75) <= 2.0 ** -23
    assert vals[2] == 2.0  # beyond the whole scale


def test_prenorm_zero_and_cap_any_ratio():
    N = build_dyadic(RadialChain(MobiusModel(), ratio=0.25, depth=12))
    assert N(np.array([[0.0, 0.0]]))[0] == 0.0
    # total scale is sum of 4^-n < 4/3; rapidity 2 exceeds it
    assert N(np.array([[np.tanh(2.0), 0.0]]))[0] == 2.0


def test_prenorm_depth_refinement():
    model = MobiusModel()
    gen = np.random.default_rng(19)
    pts = gen.uniform(-0.7, 0.7, (2000, 2))
    for D in (6, 10):
        coarse = build_dyadic(RadialChain(model, ratio=0.5, depth=D))(pts)
        fine = build_dyadic(RadialChain(model, ratio=0.5, depth=D + 1))(pts)
        assert (fine <= coarse + 1e-15).all()
        assert (coarse - fine <= 2.0 ** -D + 1e-15).all()


def test_prenorm_eval_vs_index_bisection_dual_route():
    # greedy bit extraction against bisection over the threshold
    # recursion; a non-binary ratio so the radii do not sum exactly
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=0.3, depth=16))
    gen = np.random.default_rng(23)
    pts = gen.uniform(-0.7, 0.7, (3000, 2))
    greedy = prenorm_eval(fam, pts)
    bisect = fam.index_of_rapidity(rapidity(fam.model, pts))
    assert np.abs(greedy - bisect).max() <= fam.grid_step + 1e-12


@pytest.mark.parametrize("ratio", [0.25, 0.3])
def test_index_of_rapidity_pins_the_recursion(ratio):
    # every threshold of the depth-8 grid inverts to its own index, and
    # the next double above it to the next index
    depth = 8
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=ratio, depth=depth))
    k = np.arange(1, 2 ** (depth + 1))
    thr = np.array([threshold(fam, Fraction(int(m), 2 ** depth)) for m in k])
    assert np.array_equal(fam.index_of_rapidity(thr), k / 2 ** depth)
    above = np.nextafter(thr, np.inf)
    assert np.array_equal(fam.index_of_rapidity(above), (k + 1) / 2 ** depth)
    top = float(np.sum(fam.chain.t))
    edges = np.array([0.0, -0.0, -1e-300, -1.0, -np.inf, np.inf, np.nan, 1.5 * top, 2.0 * top])
    want = np.array([0.0] * 5 + [2.0] * 4)
    assert np.array_equal(fam.index_of_rapidity(edges), want)


def test_index_of_rapidity_makes_no_per_index_lookups(monkeypatch):
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=0.25, depth=24))
    real = _thr
    calls = []

    def counted(t, m, n):
        calls.append((m, n))
        return real(t, m, n)

    monkeypatch.setattr(sys.modules[__name__], "_thr", counted)
    rho = np.random.default_rng(37).uniform(0.0, 1.5, 10_000)
    got = fam.index_of_rapidity(rho)
    assert calls == []
    assert got.shape == rho.shape and ((got > 0) & (got <= 2)).all()


def test_index_of_rapidity_refuses_a_finite_chain():
    # a finite chain has no radii to invert
    fam = build_dyadic(FiniteChain(cyclic_table(4), [0, 2]))
    with pytest.raises(UsageError, match="radial"):
        fam.index_of_rapidity(np.array([0.5]))


def tails_of(family):
    """Sum of the finer radii below each level, as prenorm_eval forms it."""
    t = family.chain.t[: family.depth + 1].astype(float)
    return t, np.concatenate([np.cumsum(t[::-1])[::-1][1:], [0.0]])


def masked_leading_bits(family, rho, last):
    """Reference for _leading_bits: the greedy extraction over every point
    and every level through ``last``, each update masked by its bit."""
    t, tails = tails_of(family)
    full = float(t[0] + tails[0])
    capped = ~(rho <= full)
    out = np.where(capped, 2.0, 0.0)
    rem = np.where(capped, 0.0, rho)
    for n in range(last + 1):
        bit = rem > tails[n]
        np.add(out, 2.0 ** -n, out=out, where=bit)
        np.subtract(rem, t[n], out=rem, where=bit)
    return out, rem


def masked_prenorm_eval(family, x):
    """Reference for prenorm_eval: the masked extraction through the
    deepest level."""
    return masked_leading_bits(family, rapidity(family.model, x), family.depth)[0]


def masked_index_of_rapidity(family, rho):
    """Reference for DyadicFamily.index_of_rapidity: the bisection with
    masked updates."""
    rho = np.asarray(rho, dtype=float)
    scale = 1 << family.depth
    lo = np.zeros(rho.shape, dtype=np.int64)
    thr_lo = np.zeros(rho.shape)
    for n in range(family.depth + 1):
        thr_mid = float(family.chain.t[n]) + thr_lo
        up = ~(rho <= thr_mid)
        np.add(lo, scale >> n, out=lo, where=up)
        np.copyto(thr_lo, thr_mid, where=up)
    return np.where(rho <= 0.0, 0.0, (lo + 1) / scale)


def assert_same_bits(fam, x):
    """Both greedy loops against their references on the points ``x``:
    prenorm_eval on the points, index_of_rapidity on their rapidities
    plus the edge values."""
    got, want = prenorm_eval(fam, x), masked_prenorm_eval(fam, x)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    _, tails = tails_of(fam)
    full = float(fam.chain.t[0] + tails[0])
    rho = np.append(rapidity(fam.model, x), [np.nan, -1.0, -0.0, 0.0, np.inf, full,
                                             np.nextafter(full, np.inf)])
    got, want = fam.index_of_rapidity(rho), masked_index_of_rapidity(fam, rho)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def point_at_rapidity(model, target):
    """Points on the first axis whose rapidity is exactly ``target``; the
    doubles next to tanh(target) are searched, so the result may be empty."""
    x0 = np.tanh(target) * model.bound
    pts = np.zeros((129, model.dim))
    pts[:, 0] = x0 + np.arange(-64, 65) * np.spacing(x0)
    return pts[rapidity(model, pts) == target][:1]


MODELS = pytest.mark.parametrize("model", [MobiusModel(), EinsteinModel()],
                                 ids=["mobius", "einstein"])
RATIOS = pytest.mark.parametrize("ratio", [0.1, 0.25, 1 / 3, 0.49, 0.5])


@MODELS
@RATIOS
def test_greedy_loops_match_masked_reference_bitwise(model, ratio):
    gen = np.random.default_rng(43)
    dim, bound = model.dim, model.bound
    for depth in (1, 24, 40):
        for t0 in (0.01, 1.0, MAX_T0):
            fam = build_dyadic(RadialChain(model, t0=t0, ratio=ratio, depth=depth))
            t, tails = tails_of(fam)
            top = float(t[0] + tails[0])
            beyond = np.tanh(gen.uniform(1.01 * top, 1.5 * top, 50))[:, None]
            beyond = beyond * bound * directions(gen, 50, dim)
            assert (prenorm_eval(fam, beyond) == 2.0).all()
            nan_mix = ball_points(gen, 20, dim, bound, t_max=top, margin=None)
            nan_mix[::3] = np.nan
            inputs = [
                ball_points(gen, 2000, dim, bound, t_max=1.2 * top, margin=None),
                nan_mix,
                np.full((4, dim), np.nan),
                np.zeros((0, dim)),
                np.zeros((5, dim)),
                beyond,
                ball_points(gen, 1, dim, bound, t_max=top, margin=None),
                # a single point, 0-d result
                ball_points(gen, 1, dim, bound, t_max=top, margin=None)[0],
            ]
            # draws up to the sandwich check's caps, which leave the coarse levels dead
            inputs += [ball_points(gen, 500, dim, bound, t_max=2.2 * t[n], margin=None)
                       for n in sorted({0, depth // 2, depth})]
            for x in inputs:
                assert_same_bits(fam, x)


@MODELS
@RATIOS
def test_greedy_loop_at_a_remainder_equal_to_a_tail(model, ratio):
    # the largest remainder equals a tail exactly, so the loop starts on
    # a level that sets no bit; the values must not move
    gen = np.random.default_rng(47)
    fam = build_dyadic(RadialChain(model, t0=1.0, ratio=ratio, depth=24))
    _, tails = tails_of(fam)
    hits = 0
    for k in range(fam.depth):
        at = point_at_rapidity(model, tails[k])
        if not len(at):
            continue
        hits += 1
        below = ball_points(gen, 200, model.dim, model.bound, t_max=0.9 * tails[k], margin=None)
        x = np.concatenate([below, at])
        assert rapidity(model, x).max() == tails[k]
        assert_same_bits(fam, x)
        assert_same_bits(fam, at)
    assert hits >= 5


@MODELS
@RATIOS
def test_leading_bits_on_the_live_set_match_the_masked_loop_bitwise(monkeypatch, model,
                                                                    ratio):
    # the extraction runs on the live remainders only; head and rem must
    # equal those of the masked loop over every point, sign bits included,
    # for every last level, whatever the live set does
    kept = []  # the length of each live set the loop compacts to
    real = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: kept.append(int(a.sum())) or real(a))
    gen = np.random.default_rng(61)
    emptied = compacted_often = 0
    for depth in (1, 24, 40):
        fam = build_dyadic(RadialChain(model, ratio=ratio, depth=depth))
        t, tails = tails_of(fam)
        full = float(t[0] + tails[0])
        dead = np.array([0.0, -0.0, np.nan, np.inf, 1.5 * full, np.nextafter(full, np.inf)])
        k = min(depth, 10)
        inputs = [
            dead,
            np.full(7, np.nan),
            # a remainder equal to its first level's radius dies at that level,
            # and the live set empties there
            np.full(9, t[min(3, depth)]),
            np.full(9, t[0]),
            # a remainder equal to t[k] dies at level k, and at each of the
            # first levels half of the live ones do
            gen.permutation(np.repeat(t[:k + 1], 2 ** np.arange(k, -1, -1))),
            # rapidities spread over every scale die level by level
            full * 2.0 ** -gen.uniform(0.0, depth + 2.0, 3000),
            np.concatenate([gen.uniform(0.0, full, 500), dead]),
            gen.uniform(0.0, t[depth], 50),
            np.zeros(0),
            np.array(0.3 * full),  # 0-d
            np.array(np.nan),
            np.array(-0.0),
        ]
        for last in range(depth + 1):
            for rho in inputs:
                kept.clear()
                got, want = _leading_bits(fam, rho, last), masked_leading_bits(fam, rho, last)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
                # a compaction leaves at least two levels to run, so a live
                # set that empties does so before the last level
                emptied += rho.size > 0 and kept[-1:] == [0]
                compacted_often += len(kept) >= 3
    assert emptied and compacted_often


def full_sandwich_bounds(fam, x, n):
    """Reference for RadialChain.sandwich_bounds: both bounds read off the
    full N."""
    N = masked_prenorm_eval(fam, x)
    return N < 2.0 ** -n, N <= 2.0 ** (1 - n)


@MODELS
@RATIOS
def test_leading_bits_verdict_matches_the_full_prenorm_bitwise(model, ratio):
    gen = np.random.default_rng(53)
    dim, bound = model.dim, model.bound
    # N exactly at the outer bound 2^(1-n), and just past it (a later bit)
    at_top = past_top = hits = 0
    for depth in (1, 24, 40):
        for t0 in (0.01, 1.0, MAX_T0):
            fam = build_dyadic(RadialChain(model, t0=t0, ratio=ratio, depth=depth))
            t, tails = tails_of(fam)
            top = float(t[0] + tails[0])
            beyond = np.tanh(gen.uniform(1.01 * top, 1.5 * top, 20))[:, None]
            beyond = beyond * bound * directions(gen, 20, dim)
            nan_mix = ball_points(gen, 20, dim, bound, t_max=top, margin=None)
            nan_mix[::3] = np.nan
            # points whose rapidity is a sandwich threshold t[n], t[n-1] or 2 t0
            # exactly, or the next double above it
            thresholds = [threshold(fam, Fraction(1, 2 ** n)) for n in range(depth + 1)]
            thresholds += [threshold(fam, 2)]
            exact = np.concatenate([point_at_rapidity(model, r) for r in thresholds] + [
                point_at_rapidity(model, np.nextafter(r, np.inf)) for r in thresholds
            ])
            hits += len(exact)
            inputs = [
                ball_points(gen, 500, dim, bound, t_max=1.2 * top, margin=None),
                nan_mix,
                np.full((3, dim), np.nan),
                beyond,
                np.zeros((0, dim)),
                np.zeros((4, dim)),
                # a single point, 0-d result
                ball_points(gen, 1, dim, bound, t_max=top, margin=None)[0],
                exact,
                *exact[:1],
            ]
            for n in range(depth + 1):
                draws = ball_points(gen, 200, dim, bound, t_max=2.2 * t[n], margin=None)
                for x in inputs + [draws]:
                    got = fam.chain.sandwich_bounds(fam, x, n)
                    want = full_sandwich_bounds(fam, x, n)
                    for g, w in zip(got, want):
                        assert g.shape == w.shape and np.array_equal(g, w)
                N = masked_prenorm_eval(fam, np.concatenate([exact, draws]))
                bound_n = 2.0 ** (1 - n)
                at_top += np.count_nonzero(N == bound_n)
                past_top += np.count_nonzero((N > bound_n) & (N < bound_n + 2.0 ** -n))
    assert hits >= 300 and at_top and past_top


@MODELS
@pytest.mark.parametrize("ratio", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("factor", [5.0, 3.0, 1.5, 0.05])
def test_a_failing_sandwich_reports_what_the_full_prenorm_gives(monkeypatch, model, ratio,
                                                                 factor):
    # level n of a faulty chain is the ball of radius factor * t[n]; the
    # sandwich's failing levels, residuals and witnesses must be those that
    # the full N of every sample gives
    def faulty(self, n, x):
        return rapidity(self.model, x) <= factor * self.t[n]

    monkeypatch.setattr(RadialChain, "level_member", faulty)
    chain = RadialChain(model, ratio=ratio)
    fam = build_dyadic(chain)
    n_samples = 2000
    rep = check_prenorm_properties(chain, Sampler(5), n_samples=n_samples)
    failing_levels = 0
    for n in range(chain.depth + 1):
        gen = Sampler(5).stream("prenorm", f"sandwich_{n}")
        # the suite's cap: 2.2 t[n], and below level 0 at least 1.1 t[n-1]
        cap = max(2.2 * chain.t[n], 1.1 * chain.t[n - 1]) if n else 2.2 * chain.t[0]
        pts = _rapidity_ball(gen, n_samples, model.dim, model.bound, cap)
        inner, outer = full_sandwich_bounds(fam, pts, n)
        member = chain.level_member(n, pts)
        failing = (inner & ~member) | (member & ~outer)
        res = rep.check(f"sandwich_level_{n}")
        assert res.passed == (not failing.any())
        assert res.max_residual == np.count_nonzero(failing) / n_samples
        assert res.samples == n_samples
        if failing.any():
            failing_levels += 1
            i = int(np.argmax(failing))
            assert res.witness == {
                "index": i,
                "prenorm": float(masked_prenorm_eval(fam, pts)[i]),
                "member": bool(member[i]),
            }
        else:
            assert res.witness is None
    # the 0.05 t[n] ball misses points with N < 2^-n, whose rapidity reaches
    # tails[n] > 0.1 t[n], on every level but the deepest (N < 2^-depth is
    # N = 0). The index 2^(1-n) covers rapidity t[n-1] = t[n] / ratio, so a
    # ball of radius factor * t[n] holds points with N > 2^(1-n) exactly
    # when factor > 1 / ratio, on every level but the top (N <= 2 always);
    # the 1.5 t[n] ball, and the 3 and 5 t[n] balls below that bound, lie
    # inside the sandwich
    assert failing_levels == (chain.depth if factor < 1 or factor > 1 / ratio else 0)


class FirstUniform:
    """A generator that keeps what its first ``uniform`` call draws."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.first = None

    def uniform(self, *args, **kwargs):
        out = self.gen.uniform(*args, **kwargs)
        if self.first is None:
            self.first = out.copy()
        return out

    def normal(self, *args, **kwargs):
        return self.gen.normal(*args, **kwargs)


def level_cap(chain, n):
    """The suite's cap on level n: 2.2 t[n], and below level 0 at least 1.1 t[n-1]."""
    return max(2.2 * chain.t[n], 1.1 * chain.t[n - 1]) if n else 2.2 * chain.t[0]


BALLS = pytest.mark.parametrize(
    "model", [MobiusModel(), EinsteinModel(), ProductModel(MobiusModel(), EinsteinModel())],
    ids=["mobius", "einstein", "product"])


@BALLS
@pytest.mark.parametrize("ratio", [0.1, 0.25, 0.5])
def test_rapidity_ball_is_ball_points_first_draw_on_the_first_axis(model, ratio):
    # a sandwich level's points carry the rapidities that a full ball draw
    # from the same seed would, and nothing else
    chain = RadialChain(model, ratio=ratio)
    for n in (0, 1, 12, chain.depth):
        cap = level_cap(chain, n)
        recorded = FirstUniform(n)
        ball_points(recorded, 300, model.dim, model.bound, t_max=cap, margin=None)
        rho = recorded.first
        pts = _rapidity_ball(np.random.default_rng(n), 300, model.dim, model.bound, cap)
        assert pts.shape == (300, model.dim)
        assert pts[:, 0].tobytes() == (model.bound * np.tanh(rho)).tobytes()
        assert pts[:, 1:].tobytes() == np.zeros((300, model.dim - 1)).tobytes()
        # the norm of (r, 0, ...) is r exactly
        assert np.array_equal(model.norm_fraction(pts), np.tanh(rho))


@MODELS
@pytest.mark.parametrize("ratio", [0.1, 0.25, 0.5])
def test_sandwich_levels_decide_each_point_as_the_direction_draw_did(model, ratio):
    # on a correct chain each point's bounds and membership read its
    # rapidity alone, so a draw in full directions from the level's stream
    # gives the same verdict point by point
    chain = RadialChain(model, ratio=ratio)
    fam = build_dyadic(chain)
    for n in range(chain.depth + 1):
        pts, _ = chain.sandwich_points(Sampler(9), n, 2000)
        old = ball_points(Sampler(9).stream("prenorm", f"sandwich_{n}"), 2000, model.dim,
                          model.bound, t_max=level_cap(chain, n), margin=None)
        got = chain.sandwich_bounds(fam, pts, n) + (chain.level_member(n, pts),)
        want = chain.sandwich_bounds(fam, old, n) + (chain.level_member(n, old),)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        inner, outer, member = got
        assert not ((inner & ~member) | (member & ~outer)).any()


@BALLS
@pytest.mark.parametrize("ratio", [0.25, 0.5])
def test_only_the_law_rows_draw_directions(monkeypatch, model, ratio):
    # each sandwich level draws its points through _rapidity_ball, which
    # draws no direction; each operand stream of a law row draws one
    calls = []
    real_directions, real_ball = sampling.directions, prenorm._rapidity_ball
    monkeypatch.setattr(sampling, "directions",
                        lambda *a: calls.append("directions") or real_directions(*a))
    monkeypatch.setattr(prenorm, "_rapidity_ball",
                        lambda *a: calls.append("level") or real_ball(*a))
    chain = RadialChain(model, ratio=ratio, depth=12)
    rep = check_prenorm_properties(chain, Sampler(3), n_samples=500)
    assert rep.passed
    fam, tol = build_dyadic(chain), ToleranceConfig()
    streams = sum(len(row[2]) for row in _prenorm_rows(fam, tol) + chain.prenorm_rows(fam, tol))
    assert calls == ["level"] * (chain.depth + 1) + ["directions"] * streams


def test_the_sandwich_sends_no_point_through_prenorm_eval(monkeypatch):
    # a passing radial run evaluates N only in its law checks: two points
    # per row in gyration invariance, three in subadditivity, two in
    # inversion symmetry
    import gyrokit.prenorm as prenorm

    sizes = []
    real = prenorm.prenorm_eval
    monkeypatch.setattr(prenorm, "prenorm_eval",
                        lambda fam, x: sizes.append(len(x)) or real(fam, x))
    n_samples = 1000
    rep = check_prenorm_properties(RadialChain(MobiusModel(), ratio=0.25), n_samples=n_samples)
    assert rep.passed
    assert sizes == [n_samples] * 7


def test_prenorm_inversion_symmetry_bitwise():
    N = build_dyadic(RadialChain(EinsteinModel(), depth=20))
    gen = np.random.default_rng(29)
    pts = gen.uniform(-0.6, 0.6, (500, 3))
    assert np.array_equal(N(pts), N(N.model.neg(pts)))


def test_prenorm_collinear_near_additivity_ratio_half():
    # on a common ray the radial scales add, so the grid readings add
    # up to quantization
    model = MobiusModel()
    N = build_dyadic(RadialChain(model, ratio=0.5, depth=24))
    gen = np.random.default_rng(31)
    a = gen.uniform(0.05, 0.9, 300)
    b = gen.uniform(0.05, 0.9, 300)
    u = np.stack([np.tanh(a), np.zeros_like(a)], axis=-1)
    v = np.stack([np.tanh(b), np.zeros_like(b)], axis=-1)
    lhs = N(model.oplus(u, v))
    rhs = N(u) + N(v)
    assert np.abs(lhs - rhs).max() <= 2.0 * N.grid_step + 1e-12


# -- chain construction guards -------------------------------------------------


def test_build_dyadic_requires_halving():
    chain = RadialChain(MobiusModel(), ratio=0.6, depth=6)
    with pytest.raises(ChainConditionError) as exc:
        build_dyadic(chain)
    assert exc.value.level == 1
    assert exc.value.witness["t_next"] == pytest.approx(0.6)


def test_build_dyadic_accepts_half_and_truncates():
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=0.5, depth=8))
    assert fam.depth == 8
    assert fam.grid_step == 2.0 ** -8


def test_radial_chain_refuses_a_level_that_underflows_to_zero():
    # 1e-20^24 and 1e-300^2 underflow to 0.0: such a level is {e}, no
    # neighbourhood of the identity; the deepest subnormal radius is kept
    with pytest.raises(UsageError, match="level 24 .*underflows"):
        RadialChain(MobiusModel(), ratio=1e-20)
    with pytest.raises(UsageError, match="level 2 .*underflows"):
        RadialChain(MobiusModel(), ratio=1e-300, depth=2)
    chain = RadialChain(MobiusModel(), ratio=1e-300, depth=1)
    assert chain.t[1] == 1e-300


def test_finite_chain_guards():
    t = cyclic_table(4)
    with pytest.raises(ChainConditionError, match="identity"):
        FiniteChain(t, [1, 3])
    with pytest.raises(ChainConditionError, match="closed"):
        FiniteChain(t, [0, 1])
    ok = FiniteChain(t, [0, 2])
    assert ok.H.tolist() == [0, 2]
    with pytest.raises(UsageError, match="table-backed"):
        FiniteChain(MobiusModel(), [0])


# -- admissibility -------------------------------------------------------------


def test_admissible_quarter_passes_half_fails():
    model = MobiusModel()
    good = validate_admissible_chain(RadialChain(model, ratio=0.25, depth=6))
    assert good.passed
    assert good.check("analytic_condition").passed

    bad = validate_admissible_chain(RadialChain(model, ratio=0.5, depth=4))
    assert not bad.passed
    cond = bad.check("analytic_condition")
    assert not cond.passed
    assert cond.witness["level"] == 1


def test_admissible_half_witness_is_the_axis_extreme():
    # the forced triple u=v=w at the level radius on the real axis
    # composes to rapidity 3*t = 1.5, past the allowed t = 1.0 of the
    # level above by 0.5
    model = MobiusModel()
    rep = validate_admissible_chain(RadialChain(model, t0=1.0, ratio=0.5, depth=3))
    lvl = rep.check("level_0_double_sum")
    assert not lvl.passed
    w = lvl.witness
    assert set(w) == {"inputs", "residual"}
    assert w["residual"] == pytest.approx(0.5, abs=1e-12)
    u, v, w_ = w["inputs"]
    assert u == pytest.approx([np.tanh(0.5), 0.0], abs=1e-15)
    assert u == v == w_


def test_admissible_sampled_triples_stay_below_extreme():
    # the deterministic extreme really is the worst case of the level
    model = MobiusModel()
    t_in = 0.25
    gen = np.random.default_rng(41)
    u = ball_points(gen, 3000, 2, 1.0, t_max=t_in, margin=None)
    v = ball_points(gen, 3000, 2, 1.0, t_max=t_in, margin=None)
    w = ball_points(gen, 3000, 2, 1.0, t_max=t_in, margin=None)
    comp = model.oplus(u, model.oplus(v, w))
    assert rapidity(model, comp).max() <= 3.0 * t_in + 1e-12


def test_admissible_finite_chain():
    rep = validate_admissible_chain(FiniteChain(cyclic_table(4), [0, 2]))
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names == [
        "closure_all_levels",
        "contains_identity",
        "intersection_equals_base",
    ]
    assert rep.notes["intersection"] == ["0", "2"]


# -- induced prenorm suites ----------------------------------------------------


@pytest.mark.parametrize("ratio", [0.25, 0.5])
def test_prenorm_suite_mobius(ratio):
    chain = RadialChain(MobiusModel(), ratio=ratio, depth=20)
    rep = check_prenorm_properties(chain, n_samples=2000)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    names = {c.name for c in rep.checks}
    assert {"gyration_invariance", "subadditivity", "inversion_symmetry"} <= names
    if ratio == 0.5:
        assert "closed_form_agreement" in names


def test_prenorm_suite_einstein():
    chain = RadialChain(EinsteinModel(), ratio=0.25, depth=16)
    rep = check_prenorm_properties(chain, n_samples=1500)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_discrete_prenorm_and_finite_suite():
    chain = FiniteChain(klein_table(), [0, 1])
    assert build_dyadic(chain)(np.arange(4)).tolist() == [0.0, 0.0, 1.0, 1.0]
    z2 = build_dyadic(FiniteChain(cyclic_table(2), [0]))
    assert z2(np.arange(2)).tolist() == [0.0, 1.0]
    rep = check_prenorm_properties(chain)
    assert rep.passed
    assert all(c.samples == "exhaustive" for c in rep.checks)


def patched_g8_chain():
    """A chain on g8 whose base, after construction, is {0, 4}: not closed,
    without the inverse 6 of 4, and moved by a gyration. A built chain's
    base is a subgyrogroup, on which subadditivity and inversion symmetry
    cannot fail."""
    table = load_table(Path(__file__).resolve().parent / "corpus" / "g8.json")
    chain = FiniteChain(table, [0, 5])
    chain._mask = np.isin(np.arange(table.order), [0, 4])
    return chain


def test_finite_prenorm_rows_fail_where_their_witnesses_say():
    # each row fails, and its law and rule, evaluated at the witness's
    # inputs, give the recorded residual
    chain = patched_g8_chain()
    family = build_dyadic(chain)
    rep = check_prenorm_properties(chain)
    labels = chain.model.labels
    rows = _prenorm_rows(family, ToleranceConfig())
    assert [name for name, *_ in rows] == [
        "gyration_invariance", "subadditivity", "inversion_symmetry"
    ]
    for name, _, caps, law, rule in rows:
        check = rep.check(name)
        assert not check.passed and check.samples == "exhaustive"
        witness = check.witness
        assert set(witness) == {"inputs", "residual"} and len(witness["inputs"]) == len(caps)
        inputs = [np.array([labels.index(v)]) for v in witness["inputs"]]
        residual, ok = rule(law(chain.model, *inputs))
        assert residual[0] == witness["residual"] == check.max_residual > 0
        assert not ok[0]


def test_finite_prenorm_rows_do_not_depend_on_their_batches(monkeypatch):
    # one value of the first operand per batch gives the report of one batch
    import gyrokit.core as core

    whole = check_prenorm_properties(patched_g8_chain()).to_dict()
    monkeypatch.setattr(core, "_KERNEL_CELLS", 1)
    batched = check_prenorm_properties(patched_g8_chain()).to_dict()
    del whole["wall_time_s"], batched["wall_time_s"]
    assert batched == whole


def test_finite_rule_row_batches_stay_within_the_kernel_cells(monkeypatch):
    # at 50 cells one first operand's 8^2 tuples on g8 exceed the cap, so a
    # batch fixes x and takes a run of 6 values of u (48 tuples, then 16)
    import gyrokit.core as core

    chain = patched_g8_chain()
    model = chain.model
    name, _, caps, law, rule = _prenorm_rows(build_dyadic(chain), ToleranceConfig())[0]
    assert (name, len(caps)) == ("gyration_invariance", 3)
    batches, results = [], []

    class Recording:
        def gyr(self, x, y, z):
            results.append(np.size(r := model.gyr(x, y, z)))
            return r

    def recorded(rec, *grids):
        batches.append(int(np.prod(np.broadcast_shapes(*(g.shape for g in grids)))))
        return law(rec, *grids)

    def run():
        batches.clear()
        results.clear()
        checks = [(name, recorded, len(caps), 0)]
        return exhaustive_law_checks(Recording(), model.labels, checks, rule)[0].to_dict()

    whole = run()
    assert batches == results == [8**3]
    monkeypatch.setattr(core, "_KERNEL_CELLS", 50)
    assert run() == whole and not whole["pass"]
    assert max(batches) == max(results) == 48
    assert sum(batches) == 8**3


# -- chain specs ---------------------------------------------------------------


def test_parse_chain_spec_radial():
    out = parse_chain_spec('{"kind": "radial_rapidity", "ratio": 0.5, "depth": 10}')
    assert out == {"kind": "radial_rapidity", "t0": 1.0, "ratio": 0.5, "depth": 10}
    assert parse_chain_spec({"kind": "radial_rapidity"})["depth"] == 24
    # an integer t0 or ratio is a number like any other
    assert parse_chain_spec('{"kind": "radial_rapidity", "t0": 2}')["t0"] == 2.0


@pytest.mark.parametrize("fields", [
    {"t0": 9.5}, {"t0": 0}, {"t0": -1}, {"t0": 10**400}, {"ratio": 1}, {"ratio": 10**400},
    {"depth": 0}, {"depth": 41}, {"ratio": 1e-20}, {"ratio": 1e-300, "depth": 2},
])
def test_chain_spec_is_refused_with_the_radial_chains_message(fields):
    # one check of (t0, ratio, depth): the spec is refused at parse time,
    # before any model, with the message RadialChain gives
    with pytest.raises(UsageError) as built:
        RadialChain(MobiusModel(), **fields)
    with pytest.raises(UsageError) as parsed:
        parse_chain_spec({"kind": "radial_rapidity", **fields})
    assert str(parsed.value) == str(built.value)


@pytest.mark.parametrize("fields", [{"t0": 10**5000}, {"ratio": -10**5000}, {"depth": 10**5000}])
def test_a_refused_integer_too_long_to_print_is_named_by_its_size(fields):
    # Python refuses to print an integer of more than 4300 digits, which
    # once turned this refusal into a ValueError raised from its message
    with pytest.raises(UsageError, match=r"got an integer of about 5001 digits$"):
        RadialChain(MobiusModel(), **fields)


def test_parse_chain_spec_finite():
    out = parse_chain_spec({"kind": "finite_discrete", "table": "z4", "subgyrogroup": [0, 2]})
    assert out["table"] == "z4"


@pytest.mark.parametrize(
    "spec",
    [
        "not json",
        '["list"]',
        '{"kind": "mystery"}',
        '{"kind": "radial_rapidity", "ratio": 1.5}',
        '{"kind": "radial_rapidity", "t0": -1}',
        '{"kind": "radial_rapidity", "depth": 0}',
        '{"kind": "finite_discrete", "table": "z4"}',
        '{"kind": "finite_discrete", "table": "z4", "subgyrogroup": ["a"]}',
        # JSON booleans, strings and a fractional depth are not read as numbers
        '{"kind": "finite_discrete", "table": "z4", "subgyrogroup": [true, false]}',
        '{"kind": "finite_discrete", "table": true, "subgyrogroup": [0]}',
        '{"kind": "finite_discrete", "table": ["z4"], "subgyrogroup": [0]}',
        '{"kind": "radial_rapidity", "depth": 2.7}',
        '{"kind": "radial_rapidity", "depth": true}',
        '{"kind": "radial_rapidity", "depth": "3"}',
        '{"kind": "radial_rapidity", "t0": true}',
        '{"kind": "radial_rapidity", "t0": "1.5"}',
        '{"kind": "radial_rapidity", "ratio": false}',
        '{"kind": "radial_rapidity", "ratio": "0.25"}',
        '{"kind": ["radial_rapidity"]}',
        # a field that the chain kind does not read
        '{"kind": "radial_rapidity", "ratoi": 0.5}',
        '{"kind": "radial_rapidity", "t0": 1.0, "subgyrogroup": [0]}',
        '{"kind": "finite_discrete", "table": "z4", "subgyrogroup": [0], "depth": 3}',
        '{"kind": "finite_discrete", "table": "z4", "subgyrogroup": [0], "ratio": 0.25}',
    ],
)
def test_parse_chain_spec_rejects(spec):
    with pytest.raises(UsageError):
        parse_chain_spec(spec)
