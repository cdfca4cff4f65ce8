import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gyrokit.prenorm as prenorm_mod
from gyrokit.models import EinsteinModel, MobiusModel
from gyrokit.prenorm import (
    FiniteChain,
    RadialChain,
    _metric_rows,
    build_dyadic,
    check_metric_properties,
    pseudometric_d,
    quotient_metric_rho,
)
from gyrokit.sampling import ToleranceConfig
from gyrokit.tables import (
    TableModel,
    builtin_table,
    cyclic_table,
    enumerate_subgyrogroups,
    klein_table,
    load_table,
)

ROOT = Path(__file__).resolve().parent.parent


def mobius_chain(ratio=0.25, depth=24):
    return RadialChain(MobiusModel(), t0=1.0, ratio=ratio, depth=depth)


# -- point values --------------------------------------------------------------


def test_d_frozen_value_ratio_half():
    # with power-of-two radii the prenorm reads rapidity off the grid,
    # so the gauge distance of two radial points is their rapidity gap
    N = build_dyadic(mobius_chain(ratio=0.5))
    x = np.array([[np.tanh(0.5), 0.0]])
    y = np.array([[np.tanh(0.2), 0.0]])
    assert pseudometric_d(N, x, y)[0] == pytest.approx(0.3, abs=2.0 ** -23)


def test_rho_closed_form_ratio_half():
    N = build_dyadic(mobius_chain(ratio=0.5))
    model = N.model
    gen = np.random.default_rng(5)
    x = gen.uniform(-0.5, 0.5, (400, 2))
    y = gen.uniform(-0.5, 0.5, (400, 2))
    sep = model.norm_fraction(model.oplus(model.neg(x), y))
    oracle = 2.0 * np.arctanh(sep)
    got = quotient_metric_rho(model, N, x, y)
    assert np.abs(got - oracle).max() <= 1e-9 + 4.0 * 2.0 ** -24


def test_d_pseudometric_spot_axioms():
    N = build_dyadic(mobius_chain())

    def d(a, b):
        return pseudometric_d(N, a, b)

    gen = np.random.default_rng(9)
    x = gen.uniform(-0.6, 0.6, (300, 2))
    y = gen.uniform(-0.6, 0.6, (300, 2))
    z = gen.uniform(-0.6, 0.6, (300, 2))
    assert (d(x, x) == 0).all()
    assert np.array_equal(d(x, y), d(y, x))
    assert (d(x, z) <= d(x, y) + d(y, z) + 1e-15).all()
    # d separates nothing across a level shell: points of equal prenorm
    r = np.array([[0.3, 0.0], [0.0, 0.3]])
    assert d(r[:1], r[1:])[0] == 0.0


# -- full suites ---------------------------------------------------------------


@pytest.mark.parametrize("ratio", [0.25, 0.5])
def test_metric_suite_mobius(ratio):
    rep = check_metric_properties(mobius_chain(ratio=ratio), n_samples=2500)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    names = [c.name for c in rep.checks]
    assert names[:6] == [
        "d_identity",
        "d_symmetry",
        "d_triangle",
        "rho_identity",
        "rho_symmetry",
        "rho_triangle",
    ]
    assert "decomposition_identity" in names
    assert "rho_oracle" in names
    assert ("rho_closed_form" in names) == (ratio == 0.5)


def test_metric_suite_oracle_residual_quarter():
    # the bisection route and the greedy evaluation agree to well under
    # a grid step at the default ratio
    rep = check_metric_properties(mobius_chain(ratio=0.25), n_samples=2000)
    assert rep.check("rho_oracle").max_residual <= 2.0 ** -22


def test_rho_oracle_catches_a_truncated_prenorm(monkeypatch):
    # a prenorm that skips the finest four levels is off by up to
    # 2^-20 per term, well past the oracle's four-grid-step limit; ratio
    # 1/4 would not show it, since its prenorm takes so few distinct
    # values on sampled points that none of them moves
    chain = mobius_chain(ratio=0.5)
    names = ("rho_oracle", "rho_closed_form")
    rep = check_metric_properties(chain, n_samples=5000)
    assert all(rep.check(name).passed for name in names)

    real = prenorm_mod.prenorm_eval

    def truncated(family, x):
        coarse = copy.copy(family)
        coarse.depth = family.depth - 4
        return real(coarse, x)

    monkeypatch.setattr(prenorm_mod, "prenorm_eval", truncated)
    rep = check_metric_properties(chain, n_samples=5000)
    limit = 1e-9 + 4.0 * 2.0 ** -24
    for name in names:
        check = rep.check(name)
        assert not check.passed
        assert check.max_residual > limit
        assert set(check.witness) == {"inputs", "residual"}
        assert check.witness["residual"] > limit
    assert not rep.passed


def test_metric_suite_decomposition_tight():
    rep = check_metric_properties(mobius_chain(), n_samples=2000)
    assert rep.check("decomposition_identity").max_residual <= 1e-9


def test_metric_suite_einstein():
    model = EinsteinModel()
    rep = check_metric_properties(RadialChain(model, ratio=0.25, depth=20), n_samples=1500)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


# -- finite quotients ----------------------------------------------------------


def rho_table(N):
    """rho(a, b) over every pair of elements, as an (order, order) array."""
    pts = np.arange(N.model.order)
    xg, yg = np.meshgrid(pts, pts, indexing="ij")
    return quotient_metric_rho(N.model, N, xg.ravel(), yg.ravel()).reshape(len(pts), len(pts))


def test_finite_metric_z4_discrete_quotient():
    rep = check_metric_properties(FiniteChain(cyclic_table(4), [0, 2]))
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    for name in ("d_coset_invariance", "rho_coset_invariance", "rho_discrete_on_quotient"):
        c = rep.check(name)
        assert c.passed and c.samples == "exhaustive" and c.max_residual == 0.0


def test_finite_metric_klein_sub():
    chain = FiniteChain(klein_table(), [0, 3])
    rep = check_metric_properties(chain)
    assert rep.passed
    # rho values on the carrier are exactly two-valued
    assert set(np.unique(rho_table(build_dyadic(chain)))) == {0.0, 2.0}


def test_finite_rho_values_by_hand():
    # Z4 mod {0,2}: classes {0,2} and {1,3}
    N = build_dyadic(FiniteChain(cyclic_table(4), [0, 2]))
    assert N(np.arange(4)).tolist() == [0.0, 1.0, 0.0, 1.0]
    rho = quotient_metric_rho
    assert rho(N.model, N, np.array([0]), np.array([2]))[0] == 0.0
    assert rho(N.model, N, np.array([0]), np.array([1]))[0] == 2.0
    assert rho(N.model, N, np.array([1]), np.array([3]))[0] == 0.0
    assert pseudometric_d(N, np.array([1]), np.array([3]))[0] == 0.0


def test_finite_metric_trivial_subgyrogroup():
    # P = {0}: every element is its own class, rho is the discrete
    # metric scaled by 2
    chain = FiniteChain(cyclic_table(3), [0])
    rep = check_metric_properties(chain)
    assert rep.passed
    vals = rho_table(build_dyadic(chain))
    assert np.array_equal(vals, np.where(np.eye(3, dtype=bool), 0.0, 2.0))


# every subgyrogroup of the proper gyrogroup g8 (the `G8` literal of
# test_tables, stored as corpus/g8.json) and of three groups
FINITE_CASES = [
    (t, list(sub.elements))
    for t in (load_table(ROOT / "tests" / "corpus" / "g8.json"), builtin_table("klein"),
              builtin_table("s3"), cyclic_table(12))
    for sub in enumerate_subgyrogroups(t)
]


@pytest.mark.parametrize(
    "table,base", FINITE_CASES, ids=[f"{t.name}-{'.'.join(map(str, H))}" for t, H in FINITE_CASES]
)
def test_rho_coset_invariance_one_sided_matches_joint(table, base):
    # the joint form: rho(x + p, y + q) against rho(x, y) for every (p, q)
    # in H^2, and the same for d. The suite checks each side alone; the two
    # must agree in verdict and residual, the failing non-L bases of g8
    # included. For d both also equal the largest |N(x + p) - N(x)|
    chain = FiniteChain(table, base)
    N = build_dyadic(chain)
    nx = N(np.arange(table.order))
    T = table.table
    rep = check_metric_properties(chain)
    for name, f in (("rho_coset_invariance", rho_table(N)),
                    ("d_coset_invariance", np.abs(nx[:, None] - nx[None, :]))):
        shift = np.array([
            [np.abs(f[np.ix_(T[:, p], T[:, q])] - f).max() for q in chain.H] for p in chain.H
        ])
        check = rep.check(name)
        assert check.passed == bool((shift == 0).all())
        assert check.max_residual == float(shift.max())
    moved = np.abs(nx[T[:, chain.H]] - nx[:, None])
    assert rep.check("d_coset_invariance").max_residual == moved.max()


def test_finite_metric_witnesses_replay():
    # a g8 chain whose base, after construction, is {0, 2, 4}: the triangle
    # and both coset checks fail, and each witness, evaluated again through
    # the library's d and rho, moves by the recorded residual
    table = load_table(ROOT / "tests" / "corpus" / "g8.json")
    chain = FiniteChain(table, [0, 5])
    chain._mask = np.isin(np.arange(table.order), [0, 2, 4])
    N = build_dyadic(chain)
    rep = check_metric_properties(chain)
    T, labels = table.table, table.labels

    def at(*names):
        return [np.array([labels.index(v)]) for v in names]

    tri = rep.check("rho_triangle")
    assert set(tri.witness) == {"inputs", "residual"}
    x, y, z = at(*tri.witness["inputs"])
    rho = quotient_metric_rho
    assert rho(N.model, N, x, z) - (rho(N.model, N, x, y) + rho(N.model, N, y, z)) == [
        tri.witness["residual"]
    ] == [tri.max_residual]
    for name, dist in (("d_coset_invariance", lambda a, b: pseudometric_d(N, a, b)),
                       ("rho_coset_invariance", lambda a, b: rho(N.model, N, a, b))):
        check = rep.check(name)
        w = check.witness
        assert not check.passed and set(w) == {"shift", "side", "x", "y"}
        p, x, y = at(w["shift"], w["x"], w["y"])
        shifted = (T[x, p], y) if w["side"] == "x" else (x, T[y, p])
        assert np.abs(dist(*shifted) - dist(x, y)) == [check.max_residual]
        assert check.max_residual > 0


def g8_chain(base, mask=None):
    """A chain on g8 with the given base; ``mask``, set after construction,
    replaces the base by a subset that the chain would refuse."""
    table = load_table(ROOT / "tests" / "corpus" / "g8.json")
    chain = FiniteChain(table, base)
    if mask is not None:
        chain._mask = np.isin(np.arange(table.order), mask)
    return chain


REAL_PRENORM = prenorm_mod.prenorm_eval


def offset_prenorm(shift):
    """A prenorm that adds ``shift(x)`` to the true one."""
    return lambda family, x: REAL_PRENORM(family, x) + shift(x)


# (row, chain, prenorm_eval in force or None). On g8 the base {0, 5} is a
# subgyrogroup that some gyration moves, so N(-x + y) and N(-y + x) differ;
# the base {0, 2, 4} is not closed, so rho is no pseudometric. On a ball
# the prenorm N + 2^-10 puts rho(x, x) at 2^-9, N + 2^-10 on points with a
# positive first coordinate tells -x + y from -y + x, and N^2 is not
# subadditive along a line
RHO_FAULTS = [
    pytest.param("rho_identity", lambda: FiniteChain(cyclic_table(12), [0, 4, 8]),
                 offset_prenorm(lambda x: 1.0), id="identity-table"),
    pytest.param("rho_symmetry", lambda: g8_chain([0, 5]), None, id="symmetry-table"),
    pytest.param("rho_triangle", lambda: g8_chain([0, 5], [0, 2, 4]), None, id="triangle-table"),
    pytest.param("rho_identity", mobius_chain, offset_prenorm(lambda x: 2.0 ** -10),
                 id="identity-ball"),
    pytest.param("rho_symmetry", mobius_chain,
                 offset_prenorm(lambda x: 2.0 ** -10 * (x[..., 0] > 0)), id="symmetry-ball"),
    pytest.param("rho_triangle", mobius_chain,
                 lambda family, x: np.square(REAL_PRENORM(family, x)), id="triangle-ball"),
]


@pytest.mark.parametrize("name,make,fault", RHO_FAULTS)
def test_rho_rows_fail_where_their_witnesses_say(monkeypatch, name, make, fault):
    # each rho row fails under its fault (and passes without a patched
    # prenorm), and its law and rule, evaluated at the witness's inputs,
    # give the recorded residual
    chain = make()
    family = build_dyadic(chain)
    if fault is not None:
        assert check_metric_properties(chain, n_samples=2000).check(name).passed
        monkeypatch.setattr(prenorm_mod, "prenorm_eval", fault)
    check = check_metric_properties(chain, n_samples=2000).check(name)
    assert not check.passed
    rows = {row[0]: row for row in _metric_rows(family, ToleranceConfig())}
    assert list(rows) == ["rho_identity", "rho_symmetry", "rho_triangle"]
    witness = check.witness
    _, _, caps, law, rule = rows[name]
    assert set(witness) == {"inputs", "residual"} and len(witness["inputs"]) == len(caps)
    if chain.model.is_exact:
        inputs = [np.array([chain.model.labels.index(v)]) for v in witness["inputs"]]
    else:
        inputs = [np.array([v]) for v in witness["inputs"]]
    residual, ok = rule(law(chain.model, *inputs))
    assert residual[0] == witness["residual"] == check.max_residual > 0
    assert not ok[0]


def test_finite_metric_reads_at_most_n_squared_cells(monkeypatch):
    # the operands are broadcast index grids, so no operation and no
    # prenorm evaluation sees the n^3 triples; only the triangle residuals do
    cells = {"oplus": [], "prenorm_eval": []}
    real_oplus, real_eval = TableModel.oplus, prenorm_mod.prenorm_eval

    def oplus(self, x, y):
        out = real_oplus(self, x, y)
        cells["oplus"].append(np.size(out))
        return out

    def prenorm_eval(family, x):
        cells["prenorm_eval"].append(np.size(x))
        return real_eval(family, x)

    monkeypatch.setattr(TableModel, "oplus", oplus)
    monkeypatch.setattr(prenorm_mod, "prenorm_eval", prenorm_eval)
    rep = check_metric_properties(FiniteChain(cyclic_table(12), [0, 4, 8]))
    assert rep.passed
    assert cells["oplus"] and cells["prenorm_eval"]
    assert max(cells["oplus"]) <= 12**2
    assert max(cells["prenorm_eval"]) <= 12**2


# the CLI in a child that writes its own peak RSS (ru_maxrss, KiB on Linux)
# to stderr after the report
PEAK_CHILD = """
import resource, sys
from gyrokit.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""

# each chain suite's peak on z271 through PEAK_CHILD, in MiB, the most of
# three runs before the rho rows moved onto the law engine (Python 3.11,
# numpy 2.4, Linux); the gyration tensor's build sets all three
Z271_PEAK_MIB = {"metric": 494.7, "prenorm": 492.0, "admissible": 492.0}


def test_finite_metric_on_the_largest_table_fits_in_one_gib():
    # z271 is the largest table the CLI admits; each chain suite on it runs
    # in a child process, and the address-space limit acts on the child only.
    # The limit guards the triangle row's n^3 residuals; the peak, within
    # 10% of the recorded one, guards what stays below the limit
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    for suite, peak_mib in Z271_PEAK_MIB.items():
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_CHILD, suite, "--model", "table:z271",
             "--subgyrogroup", "0"],
            capture_output=True, text=True, env=env, preexec_fn=cap, timeout=300,
        )
        assert proc.returncode == 0, (suite, proc.stderr)
        assert int(proc.stderr.split()[-1]) / 1024 <= 1.1 * peak_mib, suite


def test_finite_spec_beside_the_largest_table_fits_in_256_mib():
    # the spec is short for --model table:z6 --subgyrogroup 0,3, so z271,
    # whose tensor alone is 152 MiB, is never built
    resource = pytest.importorskip("resource")
    limit = 256 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "gyrokit.cli", "metric", "--model", "table:z271", "--chain",
         '{"kind":"finite_discrete","table":"z6","subgyrogroup":[0,3]}'],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
