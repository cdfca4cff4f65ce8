from fractions import Fraction

import numpy as np
import pytest

from gyrokit.errors import ChainConditionError, UsageError
from gyrokit.models import EinsteinModel, MobiusModel
from gyrokit.prenorm import (
    DyadicFamily,
    FiniteChain,
    RadialChain,
    build_dyadic,
    check_prenorm_properties,
    parse_chain_spec,
    prenorm_eval,
    rapidity,
    validate_admissible_chain,
)
from gyrokit.tables import cyclic_table, klein_table

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


# -- dyadic thresholds ---------------------------------------------------------


@pytest.mark.parametrize("ratio", [0.5, 0.25, 0.3])
def test_threshold_recursion_matches_bit_sum(ratio):
    depth = 8
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=ratio, depth=depth))
    exact = ratio in (0.5, 0.25)  # binary-fraction radii sum exactly
    for m in range(1, 2 ** (depth + 1) + 1):
        r = Fraction(m, 2 ** depth)
        want = bit_sum_threshold(fam.chain.t, r)
        got = fam.threshold(r)
        if exact:
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * max(1.0, want)


def test_threshold_rejects_bad_indices():
    fam = build_dyadic(RadialChain(MobiusModel(), depth=8))
    with pytest.raises(UsageError):
        fam.threshold(Fraction(1, 3))
    with pytest.raises(UsageError):
        fam.threshold(2.5)
    with pytest.raises(UsageError):
        fam.threshold(0)
    with pytest.raises(UsageError):
        fam.threshold(Fraction(1, 2 ** 9))  # finer than depth


def test_threshold_known_values():
    fam = build_dyadic(RadialChain(MobiusModel(), t0=1.0, ratio=0.25, depth=4))
    assert fam.threshold(1) == 1.0
    assert fam.threshold(2) == 2.0
    assert fam.threshold(Fraction(1, 2)) == 0.25
    assert fam.threshold(Fraction(3, 4)) == 0.25 + 0.0625
    assert fam.threshold(Fraction(3, 2)) == 1.25


# -- membership ----------------------------------------------------------------


def test_member_matches_levels_and_extends():
    model = MobiusModel()
    chain = RadialChain(model, depth=8)
    fam = build_dyadic(chain)
    gen = np.random.default_rng(7)
    pts = gen.uniform(-0.6, 0.6, (200, 2))
    assert np.array_equal(fam.member(1, pts), chain.level_member(0, pts))
    assert np.array_equal(fam.member(Fraction(1, 4), pts), chain.level_member(2, pts))
    assert fam.member(2.5, pts).all()
    assert fam.member(2.5, pts).shape == (200,)
    with pytest.raises(UsageError):
        fam.member(Fraction(1, 5), pts)


def test_member_monotone_in_index():
    fam = build_dyadic(RadialChain(MobiusModel(), depth=6))
    gen = np.random.default_rng(11)
    pts = gen.uniform(-0.7, 0.7, (500, 2))
    grid = [Fraction(m, 64) for m in range(1, 129)]
    prev = fam.member(grid[0], pts)
    for r in grid[1:]:
        cur = fam.member(r, pts)
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
    thr = np.array([fam.threshold(Fraction(int(m), 2 ** depth)) for m in k])
    assert np.array_equal(fam.index_of_rapidity(thr), k / 2 ** depth)
    above = np.nextafter(thr, np.inf)
    assert np.array_equal(fam.index_of_rapidity(above), (k + 1) / 2 ** depth)
    top = float(np.sum(fam.chain.t))
    edges = np.array([0.0, -0.0, -1e-300, -1.0, -np.inf, np.inf, np.nan, 1.5 * top, 2.0 * top])
    want = np.array([0.0] * 5 + [2.0] * 4)
    assert np.array_equal(fam.index_of_rapidity(edges), want)


def test_index_of_rapidity_makes_no_per_index_lookups(monkeypatch):
    fam = build_dyadic(RadialChain(MobiusModel(), ratio=0.25, depth=24))
    real = DyadicFamily._thr
    calls = []

    def counted(self, m, n):
        calls.append((m, n))
        return real(self, m, n)

    monkeypatch.setattr(DyadicFamily, "_thr", counted)
    rho = np.random.default_rng(37).uniform(0.0, 1.5, 10_000)
    got = fam.index_of_rapidity(rho)
    assert calls == []
    assert got.shape == rho.shape and ((got > 0) & (got <= 2)).all()


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
    # composes to rapidity 3*t, past the allowed t of the level above
    model = MobiusModel()
    rep = validate_admissible_chain(RadialChain(model, t0=1.0, ratio=0.5, depth=3))
    lvl = rep.check("level_0_double_sum")
    assert not lvl.passed
    w = lvl.witness
    assert w["level"] == 0
    assert w["allowed"] == 1.0
    assert w["rapidity"] == pytest.approx(1.5, abs=1e-12)
    assert w["u"] == pytest.approx([np.tanh(0.5), 0.0], abs=1e-15)
    assert w["u"] == w["v"] == w["w"]


def test_admissible_sampled_triples_stay_below_extreme():
    # the deterministic extreme really is the worst case of the level
    model = MobiusModel()
    t_in = 0.25
    gen = np.random.default_rng(41)
    from gyrokit.prenorm import _rapidity_ball

    u = _rapidity_ball(gen, 3000, 2, 1.0, t_in)
    v = _rapidity_ball(gen, 3000, 2, 1.0, t_in)
    w = _rapidity_ball(gen, 3000, 2, 1.0, t_in)
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


# -- chain specs ---------------------------------------------------------------


def test_parse_chain_spec_radial():
    out = parse_chain_spec('{"kind": "radial_rapidity", "ratio": 0.5, "depth": 10}')
    assert out == {"kind": "radial_rapidity", "t0": 1.0, "ratio": 0.5, "depth": 10}
    assert parse_chain_spec({"kind": "radial_rapidity"})["depth"] == 24


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
    ],
)
def test_parse_chain_spec_rejects(spec):
    with pytest.raises(UsageError):
        parse_chain_spec(spec)
