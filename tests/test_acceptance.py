"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single summary line with the measured quantity so a
verbose run reads as a checklist. Tolerances and sample counts here are
the shipped contract; do not relax them to make a failure go away.
"""

import time

import numpy as np

from gyrokit.cli import RunConfig, run_suite
from gyrokit.core import check_axioms, check_identities
from gyrokit.models import EinsteinModel, MobiusModel
from gyrokit.prenorm import (
    RadialChain,
    build_dyadic,
    check_metric_properties,
    check_prenorm_properties,
    rapidity,
    validate_admissible_chain,
)
from gyrokit.report import canonical_json
from gyrokit.sampling import Sampler, ToleranceConfig
from gyrokit.tables import (
    CayleyTable,
    TableModel,
    builtin_table,
    coset_partition,
    cyclic_table,
    enumerate_subgyrogroups,
    search_gyrogroups,
    validate_table,
)

N_BIG = 100_000
N_MED = 10_000


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_axiom_suite_both_models():
    worst = {}
    times = {}
    for model in (MobiusModel(), EinsteinModel()):
        start = time.perf_counter()
        rep = check_axioms(model, n_samples=N_BIG)
        times[model.name] = time.perf_counter() - start
        worst[model.name] = max(c.max_residual for c in rep.checks)
        assert rep.passed
        assert {c.name for c in rep.checks} == {
            "G1_identity",
            "G2_inverses",
            "G3_gyroassociativity",
            "G3_automorphism",
            "G4_loop",
        }
    ok = all(w <= 1e-8 for w in worst.values()) and all(
        t <= 10.0 for t in times.values()
    )
    _line(
        1,
        "axioms at 1e5 samples",
        ok,
        ", ".join(
            f"{m} max_residual={worst[m]:.3g} in {times[m]:.2f}s" for m in worst
        ),
    )


def test_criterion_02_identity_suite():
    wanted = {
        "left_cancellation",
        "right_cancellation",
        "twisted_right_cancellation",
        "triangle_decomposition",
    }
    worst = 0.0
    for model in (MobiusModel(), EinsteinModel()):
        rep = check_identities(model, n_samples=N_BIG)
        assert rep.passed
        assert wanted <= {c.name for c in rep.checks}
        worst = max(worst, max(c.max_residual for c in rep.checks if c.name in wanted))
    exact = True
    for order in (1, 2, 3, 4):
        for table in search_gyrogroups(order):
            rep = check_identities(TableModel(table))
            for c in rep.checks:
                exact = exact and c.passed and c.samples == "exhaustive"
                exact = exact and c.max_residual == 0.0
    ok = worst <= 1e-8 and exact
    _line(
        2,
        "cancellation and triangle identities",
        ok,
        f"continuous max_residual={worst:.3g}, finite tables exact={exact}",
    )


def test_criterion_03_rotation_factor_modulus():
    gen = Sampler(seed=42).stream("acceptance", "rotation_factor")
    # pairs well inside the disk; the factor is defined for |a||b| < 1
    re_a, im_a, re_b, im_b = gen.uniform(-0.706, 0.706, (4, N_BIG))
    a = re_a + 1j * im_a
    b = re_b + 1j * im_b
    factor = (1 + a * np.conj(b)) / (1 + np.conj(a) * b)
    dev = np.abs(np.abs(factor) - 1.0).max()
    _line(3, "unimodular gyration factor", dev <= 1e-12, f"max deviation={dev:.3g}")


def test_criterion_04_finite_oracle_equivalence():
    start = time.perf_counter()
    for name in ("z1", "z2", "z3", "z4", "z5", "z6", "klein"):
        rep = validate_table(builtin_table(name))
        assert rep.passed, name
        assert rep.notes["all_gyrations_identity"] is True
    base = cyclic_table(4).table
    rejected = 0
    gen = np.random.default_rng(4)
    seen = set()
    while rejected < 20:
        i, j, v = (int(x) for x in gen.integers(4, size=3))
        if v == base[i, j] or (i, j, v) in seen:
            continue
        seen.add((i, j, v))
        mutated = base.copy()
        mutated[i, j] = v
        rep = validate_table(CayleyTable(mutated))
        assert not rep.passed
        assert any(c.witness is not None for c in rep.checks if not c.passed)
        rejected += 1
    elapsed = time.perf_counter() - start
    _line(
        4,
        "group tables accepted, 20 mutations rejected",
        elapsed <= 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_05_coset_partition_exhaustive():
    pairs = 0
    for order in range(1, 7):
        for table in search_gyrogroups(order):
            for sub in enumerate_subgyrogroups(table):
                if not sub.is_L_subgyrogroup:
                    continue
                blocks, pi = coset_partition(table, sub.elements)
                sizes = {len(b) for b in blocks}
                assert sizes == {len(sub.elements)}
                covered = sorted(i for b in blocks for i in b)
                assert covered == list(range(order))
                assert len(pi) == order
                pairs += 1
    _line(5, "equal-size coset partitions", pairs > 0, f"{pairs} (table, subset) pairs")


def test_criterion_06_prenorm_sandwich_and_invariance():
    rep = check_prenorm_properties(
        RadialChain(MobiusModel(), t0=1.0, ratio=0.25, depth=24),
        n_samples=N_MED,
        tol=ToleranceConfig(abs_tol=1e-10),
    )
    sandwich_ok = all(rep.check(f"sandwich_level_{n}").passed for n in range(9))
    inv = rep.check("gyration_invariance").max_residual
    ok = sandwich_ok and inv <= 1e-10 and rep.passed
    _line(
        6,
        "dyadic sandwich to level 8 plus gyration invariance",
        ok,
        f"sandwich_ok={sandwich_ok}, invariance residual={inv:.3g}",
    )


def test_criterion_07_prenorm_oracle_agreement():
    # power-of-two radii: the one scale whose dyadic thresholds are
    # exact binary fractions of the rapidity coordinate
    model = MobiusModel()
    N = build_dyadic(RadialChain(model, t0=1.0, ratio=0.5, depth=24))
    gen = Sampler(seed=42).stream("acceptance", "prenorm_oracle")
    rho = gen.uniform(0.0, 2.0, N_MED)
    theta = gen.uniform(0.0, 2.0 * np.pi, N_MED)
    pts = np.tanh(rho)[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    oracle = np.arctanh(model.norm_fraction(pts))
    diff = np.abs(N(pts) - oracle).max()
    _line(7, "prenorm vs radial oracle", diff <= 2.0 ** -23, f"max diff={diff:.3g}")


def test_criterion_08_quotient_metric_recovers_disk_distance():
    model = MobiusModel()
    chain = RadialChain(model, t0=1.0, ratio=0.5, depth=24)
    bound = 1e-8 + 4.0 * 2.0 ** -24
    rep = check_metric_properties(
        chain, n_samples=N_MED, tol=ToleranceConfig(abs_tol=1e-8)
    )
    tri = rep.check("rho_triangle")
    closed = rep.check("rho_closed_form")
    ok = (
        rep.passed
        and tri.max_residual <= bound
        and closed.max_residual <= bound
        and rep.check("rho_identity").passed
        and rep.check("rho_symmetry").passed
    )
    _line(
        8,
        "quotient metric on the trivial base",
        ok,
        f"triangle residual={tri.max_residual:.3g}, "
        f"closed-form residual={closed.max_residual:.3g}",
    )


def test_criterion_09_admissibility_validator():
    model = MobiusModel()
    good = validate_admissible_chain(RadialChain(model, ratio=0.25, depth=8), n_samples=2000)
    bad = validate_admissible_chain(RadialChain(model, t0=1.0, ratio=0.5, depth=4), n_samples=2000)
    lvl = bad.check("level_0_double_sum")
    w = lvl.witness or {}
    # the witness is the axis extreme u = v = w at rapidity 0.5, whose double
    # sum reaches rapidity 1.5 against the allowed 1.0
    inputs = np.asarray(w.get("inputs", np.nan))
    witness_ok = (
        not lvl.passed
        and abs(w.get("residual", 0.0) - 0.5) < 1e-9
        and inputs.shape == (3, 2)
        and np.allclose(inputs, [np.tanh(0.5), 0.0], rtol=0, atol=1e-15)
    )
    ok = good.passed and not bad.passed and witness_ok
    _line(
        9,
        "triple condition accepts 1/4 and rejects 1/2",
        ok,
        f"witness excess={w.get('residual', float('nan')):.6f} over the level radius",
    )


def test_criterion_10_deterministic_reports():
    def run_twice(cfg_kwargs):
        payloads = []
        for _ in range(2):
            rep, code = run_suite(RunConfig(**cfg_kwargs))
            d = rep.to_dict()
            d.pop("wall_time_s", None)
            payloads.append(canonical_json(d))
        return payloads, code

    same = True
    for cfg in (
        dict(suite="axioms", model="einstein", samples=2000, seed=11),
        dict(suite="metric", model="mobius", samples=1500, seed=3),
        dict(suite="search", model="table:z4", order=4),
    ):
        (first, second), code = run_twice(cfg)
        same = same and first == second and code == 0
    _line(10, "byte-identical reports modulo wall time", same, f"match={same}")
