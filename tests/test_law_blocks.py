"""The law engine's float64 pass runs in row blocks; blocks never show.

``core.run_law_check`` evaluates each law on blocks of ``_LAW_BLOCK_ROWS``
stream rows. These tests pin that the block size cannot change a report,
the chain suites' included, that no model kernel is handed more than one
block, that the chain checks redo their stressed rows in double-double as
the law suites do, in blocks of nearly equal size, that a law pass's
working memory is one block's whatever the stream length, and that the
in-place sampling arithmetic draws the same bits as the broadcast
expressions it replaced.
"""

import contextlib
import io
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gyrokit import core, ddarith, models, prenorm, sampling
from gyrokit.cli import main
from gyrokit.core import law_g3, law_g4_loop, run_law_check
from gyrokit.models import EinsteinModel, MobiusModel, ProductModel, check_strong_base
from gyrokit.prenorm import (
    RadialChain,
    check_metric_properties,
    check_prenorm_properties,
    validate_admissible_chain,
)
from gyrokit.report import canonical_json
from gyrokit.sampling import (
    _CHUNK_ROWS,
    _SPLIT_ROWS,
    FORCED_STRIDE,
    Sampler,
    ToleranceConfig,
    ball_points,
    directions,
    rownorm,
)

_WALL = re.compile(r'"wall_time_s":[^,}]*')
_BALLS = {2: MobiusModel(), 3: EinsteinModel()}  # by dimension
SMALL_BLOCK = 7  # divides none of the stream lengths below


def run_cli(argv):
    """Exit code and report, with ``wall_time_s`` blanked, of one invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, _WALL.sub('"wall_time_s":null', out.getvalue())


# -- blocks never change a report --------------------------------------------


@pytest.mark.parametrize("tol", [None, "0"], ids=["default-tol", "tol0"])
@pytest.mark.parametrize("model", ["mobius", "einstein", "product:mobius+einstein"])
@pytest.mark.parametrize("suite", ["axioms", "identities", "strong-base"])
def test_small_blocks_keep_every_report(monkeypatch, suite, model, tol):
    argv = [suite, "--model", model, "--samples", "100", "--seed", "3"]
    if tol is not None:
        argv += ["--tol", tol]
    want = run_cli(argv)
    assert 100 % SMALL_BLOCK and 300 % SMALL_BLOCK
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    assert run_cli(argv) == want
    if tol is not None:
        assert want[0] == 1  # at tol 0 some check fails and reports a witness


@pytest.mark.parametrize("ratio", [0.25, 0.5])
@pytest.mark.parametrize("model", ["mobius", "einstein"])
@pytest.mark.parametrize("suite", ["prenorm", "metric", "admissible"])
def test_small_blocks_keep_every_chain_report(monkeypatch, suite, model, ratio):
    chain = f'{{"kind":"radial_rapidity","ratio":{ratio},"depth":8}}'
    argv = [suite, "--model", model, "--chain", chain, "--samples", "100", "--seed", "3"]
    want = run_cli(argv)
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    assert run_cli(argv) == want
    if suite == "admissible" and ratio == 0.5:
        assert want[0] == 1  # the double sums fail and report witnesses


# -- the chain checks reach double-double -------------------------------------

# the checks that run on the law engine, by suite; the admissible levels
# are level_<n>_double_sum
ENGINE_CHECKS = {
    "axioms": {name for name, *_ in core.AXIOM_CHECKS},
    "identities": {name for name, *_ in core.IDENTITY_CHECKS},
    "strong-base": {f"ball_{kind}_r={r}" for kind in ("forward", "preimage", "roundtrip")
                    for r in ("0.9", "0.5", "0.25")} | {"norm_preservation", "commutation_norm"},
    "prenorm": {"gyration_invariance", "subadditivity", "inversion_symmetry",
                "closed_form_agreement"},
    "metric": {"d_identity", "d_symmetry", "d_triangle", "rho_identity", "rho_symmetry",
               "rho_triangle", "decomposition_identity", "rho_oracle", "rho_closed_form"},
}


@pytest.mark.parametrize("ratio", [0.25, 0.5])
@pytest.mark.parametrize("cls", [MobiusModel, EinsteinModel], ids=["mobius", "einstein"])
def test_chain_checks_redo_every_stressed_row_in_double_double(monkeypatch, cls, ratio):
    # with a stress threshold below every norm fraction, each row is
    # stressed: each engine pass, of one check or of a group of checks on
    # one law, lifts every row of each operand stream once, and its lifts
    # count for each of its checks; on the ratio 1/4 chain each check
    # still passes. The law-row driver (core._run_rows) runs each check
    # through the entry that the tracer sees (run_law_check) unless it
    # shares a group's one pass (the d rows, the (x, y) rows);
    # run_law_check's own pass is run_law_group's too, and counts as the
    # check's
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    real_check, real_group = core.run_law_check, core.run_law_group
    real_lift = models._BallExtended.lift
    current, lifted, entry, groups = [()], {}, {}, []

    def engine(kind, names, streams, run):
        current[0] = names
        for name in names:
            lifted[name] = (len(streams), len(streams[0]), [])
            entry[name] = kind
        try:
            return run()
        finally:
            current[0] = ()

    def check(model, name, law, streams, tol, rule=None):
        return engine("check", (name,), streams,
                      lambda: real_check(model, name, law, streams, tol, rule))

    def group(model, names, law, streams, rules):
        if current[0]:
            return real_group(model, names, law, streams, rules)
        groups.append(list(names))
        return engine("group", names, streams,
                      lambda: real_group(model, names, law, streams, rules))

    def lift(self, x):
        assert current[0]
        for name in current[0]:
            lifted[name][2].append(len(x))
        return real_lift(self, x)

    monkeypatch.setattr(core, "run_law_check", check)
    monkeypatch.setattr(core, "run_law_group", group)
    monkeypatch.setattr(models._BallExtended, "lift", lift)
    chain = RadialChain(cls(), ratio=ratio, depth=8)
    sampler = Sampler(3)
    reports = [
        core.check_axioms(cls(), sampler, n_samples=300),
        core.check_identities(cls(), sampler, n_samples=300),
        check_strong_base(cls(), sampler=sampler, n_samples=300),
        check_prenorm_properties(chain, n_samples=300),
        check_metric_properties(chain, n_samples=300),
        validate_admissible_chain(chain, n_samples=300),
    ]
    engine = set().union(*ENGINE_CHECKS.values())
    engine |= {f"level_{n}_double_sum" for n in range(8)}
    if ratio != 0.5:
        engine -= {"closed_form_agreement", "rho_closed_form"}
    assert set(lifted) == engine
    for name, (k, n, rows) in lifted.items():
        assert rows == [n] * k, name
    grouped = [["d_identity", "d_symmetry", "d_triangle"],
               ["rho_symmetry", "rho_oracle"] + ["rho_closed_form"] * (ratio == 0.5)]
    assert groups == grouped
    assert entry == {name: "group" if any(name in g for g in grouped) else "check"
                     for name in engine}
    if ratio == 0.25:
        for rep in reports[3:]:
            assert all(c.passed for c in rep.checks if c.name in engine), rep.suite


def test_a_rule_reads_float64_points_on_double_double_rows(monkeypatch):
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    seen = []

    def rule(tuples):
        seen.append([(type(p), [(c.dtype, c.shape) for c in p])
                     for points in tuples for p in points])
        r = np.zeros(len(tuples[0][0][0]))
        return r, r <= 0.0

    m = MobiusModel()
    tol = ToleranceConfig()
    streams = m.sample_operands(np.random.default_rng(3), 100, 2, tol)
    law = lambda ops, x, y: [(ops.oplus(x, y), ops.oplus(y, x))]  # noqa: E731
    assert run_law_check(m, "commutation", law, streams, tol, rule).passed
    # the float64 block, then the double-double pass over every row,
    # lowered to float64: both give the rule points of two float64 columns
    assert seen == [[(core._Point, [(np.dtype(np.float64), (100,))] * 2)] * 2] * 2


def test_small_blocks_keep_a_witness_beyond_the_first_block(monkeypatch):
    m = MobiusModel()
    tol0 = ToleranceConfig(abs_tol=0.0, rel_tol=0.0)
    gen = Sampler(5).stream("axioms", "G3_gyroassociativity")
    streams = m.sample_operands(gen, 100, 3, ToleranceConfig())
    want = run_law_check(m, "G3_gyroassociativity", law_g3, streams, tol0)
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    got = run_law_check(m, "G3_gyroassociativity", law_g3, streams, tol0)
    assert not want.passed
    assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
    rows = [i for i, row in enumerate(streams[0].tolist()) if row == want.witness["inputs"][0]]
    assert rows and rows[0] >= SMALL_BLOCK


# -- no kernel call exceeds one block ------------------------------------------


def _point_rows(a):
    """The rows of a point the law pass hands the model: _Point columns."""
    assert isinstance(a, core._Point)
    return len(a[0])


def _recording(cls):
    class Recording(cls):
        def __init__(self):
            super().__init__()
            self.rows = {"oplus": [], "gyr": [], "norm_fraction": []}

        def oplus(self, a, b):
            self.rows["oplus"].append(_point_rows(a))
            return super().oplus(a, b)

        def gyr(self, a, b, z):
            self.rows["gyr"].append(_point_rows(a))
            return super().gyr(a, b, z)

        def norm_fraction(self, a):
            self.rows["norm_fraction"].append(_point_rows(a))
            return super().norm_fraction(a)

    return Recording()


@pytest.mark.parametrize("cls", [MobiusModel, EinsteinModel], ids=["mobius", "einstein"])
def test_no_kernel_call_exceeds_one_block(cls):
    m = _recording(cls)
    n = 300_000
    gen = np.random.default_rng(11)
    streams = [ball_points(gen, n, m, forced_offset=j) for j in range(3)]
    result = run_law_check(m, "G4_loop", law_g4_loop, streams, ToleranceConfig())
    assert result.passed and result.samples == n
    for kernel, rows in m.rows.items():
        assert rows, kernel
        assert max(rows) <= core._LAW_BLOCK_ROWS, kernel
    # the three inputs and every traced result cover each row once per call site
    assert sum(m.rows["norm_fraction"]) % n == 0
    assert sum(m.rows["norm_fraction"]) >= 3 * n


# -- each per-point value once per pass ----------------------------------------


def _on_squares(monkeypatch, record):
    """Call ``record(p)`` on each squared norm that a law pass computes: a
    ``coldot`` of a point's columns with themselves, wherever it is called."""
    real_coldot = sampling.coldot

    def coldot(p, q):
        if all(a.__array_interface__ == b.__array_interface__ for a, b in zip(p, q)):
            record(p)
        return real_coldot(p, q)

    for module in (sampling, core, models):
        monkeypatch.setattr(module, "coldot", coldot)


def test_each_point_takes_its_squared_norm_and_its_1_over_gamma_once(monkeypatch):
    # Einstein G3 with every row stressed. In the float64 pass a squared
    # norm is a coldot of a point's columns with themselves; the boundary
    # trace, the kernels' 1/gamma and the rule's magnitudes all read one per
    # traced value and block. A 1/gamma, float64 or double-double, is
    # computed once per point that a kernel reads it of, whichever ops read
    # it (a DD one is one DD.sqrt). Every point is kept alive, so no address
    # is reused within the run
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    alive, squares = [], []
    real_gamma, real_sqrt = models._inv_gamma, ddarith.DD.sqrt
    gammas = {"float64": [], "dd": []}  # per computed 1/gamma, the id of its point
    roots = [0]

    def square(p):
        alive.append(p)
        squares.append(p[0].__array_interface__["data"][0])

    def inv_gamma(u):
        alive.append(u)
        if u.g is None:
            gammas["dd" if isinstance(u[0], ddarith.DD) else "float64"].append(id(u))
        return real_gamma(u)

    def sqrt(self):
        roots[0] += 1
        return real_sqrt(self)

    m, n = EinsteinModel(), 100
    streams = m.sample_operands(np.random.default_rng(2), n, 3, ToleranceConfig())
    _on_squares(monkeypatch, square)
    monkeypatch.setattr(models, "_inv_gamma", inv_gamma)
    monkeypatch.setattr(ddarith.DD, "sqrt", sqrt)
    assert run_law_check(m, "G3_gyroassociativity", law_g3, streams, ToleranceConfig()).passed
    # per float64 block x, y, z, y + z, x + y, gyr[x, y]z, both sides and the
    # rule's lhs - rhs; then per double-double block of as many stressed
    # rows the rule's two sides and lhs - rhs, lowered to float64
    blocks = -(-n // SMALL_BLOCK)
    assert len(squares) == len(set(squares)) == 9 * blocks + 3 * blocks
    # per block of either pass x and y, read by y + z, x + (y + z), x + y and
    # gyr[x, y]z, and x + y, added on the left: five ops read six 1/gammas
    for kind in ("float64", "dd"):
        assert len(gammas[kind]) == len(set(gammas[kind])) == 3 * blocks, kind
    assert roots[0] == 3 * blocks


# -- the stressed rows run in even blocks --------------------------------------


@pytest.mark.parametrize("block", [7, 8])
def test_stressed_rows_run_in_even_double_double_blocks(monkeypatch, block):
    # k = block + 1 stressed rows run in two double-double blocks whose
    # sizes differ by at most one (steps of block rows would leave one of a
    # single row), and the report is that of one whole-stream block; with
    # no stressed row, no block runs and nothing is lifted
    m, tol0 = EinsteinModel(), ToleranceConfig(abs_tol=0.0, rel_tol=0.0)
    k = block + 1
    streams = m.sample_operands(np.random.default_rng(4), k, 3, ToleranceConfig())
    lifts, real_lift = [], models._BallExtended.lift

    def lift(self, x):
        lifts.append(len(x))
        return real_lift(self, x)

    def report():
        lifts.clear()
        result = run_law_check(m, "G3_gyroassociativity", law_g3, streams, tol0)
        return canonical_json(result.to_dict())

    monkeypatch.setattr(models._BallExtended, "lift", lift)
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    assert core._LAW_BLOCK_ROWS >= k
    whole = report()
    assert lifts == [k] * 3  # one block: each of x, y, z lifted once
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", block)
    assert report() == whole
    assert lifts == [k // 2] * 3 + [k - k // 2] * 3
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", 2.0)
    report()
    assert lifts == []


# -- a law pass holds one block of working memory -----------------------------


def test_a_law_pass_holds_one_block_beside_its_per_row_arrays(monkeypatch):
    # Einstein G3 with every row stressed, so the double-double pass redoes
    # every row. Beside the streams, drawn before tracing starts, a pass
    # holds 18 bytes a row: the float64 residual, the ok flag, the stress
    # flag and the stressed row's int64 index. Its working memory, both
    # passes' temporaries, is one block's, whatever the stream length: a
    # double-double pass over all n rows at once would hold some 600 bytes
    # a row here
    block = 256
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", block)
    m, tol = EinsteinModel(), ToleranceConfig()
    peaks = {}
    for blocks in (4, 32):
        streams = m.sample_operands(np.random.default_rng(1), blocks * block, 3, tol)
        tracemalloc.start()
        try:
            assert run_law_check(m, "G3_gyroassociativity", law_g3, streams, tol).passed
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[32] - peaks[4]) / (28 * block) <= 18 + 2


# -- in-place sampling draws the old bits -------------------------------------


def _old_directions(gen, n, dim):
    if dim == 2:
        theta = gen.uniform(0.0, 2.0 * np.pi, n)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    v = gen.normal(size=(n, dim))
    norm = rownorm(v)
    bad = norm < 1e-12
    while bad.any():
        v[bad] = gen.normal(size=(int(bad.sum()), dim))
        norm = rownorm(v)
        bad = norm < 1e-12
    return v / norm[:, None]


def _old_ball_points(gen, n, dim, margin=1e-6, forced_offset=None):
    r = np.tanh(gen.uniform(0.0, 3.0, n))
    if forced_offset is not None:
        r[forced_offset::FORCED_STRIDE] = 1.0 - margin
    return r[:, None] * _old_directions(gen, n, dim)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# on both sides of a chunk and of the size from which a draw turns its
# chunks on a second thread, and at several chunks past it
_DRAW_ROWS = (5003, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, _SPLIT_ROWS - 1, _SPLIT_ROWS,
              _SPLIT_ROWS + 1, 100_003, 300_001)


def _draw_both(n, dim, seed, scaled, gen=np.random.default_rng):
    """``directions`` and the broadcast expression on two equal generators,
    each with the generator's next value after it; unscaled, ``directions``
    scaled by ones against the unit vectors themselves."""
    scale = np.random.default_rng(seed + 100).uniform(0.0, 1.0, n) if scaled else np.ones(n)
    sides = []
    for draw in (lambda g: directions(g, n, dim, scale),
                 lambda g: _old_directions(g, n, dim) * (scale[:, None] if scaled else 1)):
        g = gen(seed)
        sides.append((draw(g), g.random()))
    return sides


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_directions_match_the_broadcast_expression(dim):
    # the generator's next value pins the end state: a draw that used the
    # stream up differently would shift every later operand
    for n in _DRAW_ROWS:
        for seed, scaled in ((0, False), (1, False), (2, False), (0, True), (1, True)):
            (got, got_next), (want, want_next) = _draw_both(n, dim, seed, scaled)
            assert _same_bits(got, want), (n, seed, scaled)
            assert got_next == want_next, (n, seed, scaled)


class _ZeroRows:
    """A generator whose normal rows at the given positions of its stream
    are zero, counted over every row it has drawn."""

    def __init__(self, seed, zero):
        self.gen, self.zero, self.rows = np.random.default_rng(seed), zero, 0

    def standard_normal(self, size=None, out=None):
        v = self.gen.standard_normal(size, out=out)
        for i in self.zero:
            if self.rows <= i < self.rows + len(v):
                v[i - self.rows] = 0.0
        self.rows += len(v)
        return v

    normal = standard_normal

    def random(self):
        return self.gen.random()


@pytest.mark.parametrize("dim", [3, 5])
def test_degenerate_rows_are_drawn_again_as_one_whole_draw_would(dim):
    # one zero row in the first chunk and one in a later chunk; the first
    # redrawn row is zero too, so it is drawn a third time. Dividing a
    # degenerate row must warn on neither thread
    for n in (_SPLIT_ROWS - 1, 100_003):
        zero = (17, _CHUNK_ROWS + 5, n)
        for scaled in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                (got, got_next), (want, want_next) = _draw_both(
                    n, dim, 3, scaled, gen=lambda seed: _ZeroRows(seed, zero))
            assert _same_bits(got, want), (n, scaled)
            assert got_next == want_next, (n, scaled)
            assert np.all(got[list(zero[:2])] != 0.0)


def test_a_large_draw_starts_one_thread_and_joins_it(monkeypatch):
    # in 3-D as in 2-D, since both turn their chunks on the worker
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    before = threading.active_count()
    for dim in (2, 3):
        for n, want in ((_SPLIT_ROWS - 1, 0), (_SPLIT_ROWS, 1), (100_003, 1)):
            starts.clear()
            directions(np.random.default_rng(1), n, dim, np.ones(n))
            assert len(starts) == want, (dim, n)
            assert threading.active_count() == before, (dim, n)


def _refuse_thread(thread):
    # as when the kernel refuses the thread's stack under an address-space limit
    raise RuntimeError("can't start new thread")


def test_a_draw_whose_thread_cannot_start_draws_the_same_bits(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", _refuse_thread)
    for dim in (2, 3):
        for n in (_SPLIT_ROWS, 100_003):
            (got, got_next), (want, want_next) = _draw_both(n, dim, 2, True)
            assert _same_bits(got, want), (dim, n)
            assert got_next == want_next, (dim, n)


@pytest.mark.parametrize("dim", [2, 3])
def test_what_the_worker_raises_the_draw_raises(monkeypatch, dim):
    # the caller's turns wait until the worker has raised, so the worker is
    # left a chunk to raise on however late it starts
    turn, raised = sampling._unit_rows, threading.Event()

    def fail_off_the_caller(*args):
        if threading.current_thread() is threading.main_thread():
            raised.wait(5.0)
            return turn(*args)
        raised.set()
        raise MemoryError("worker")

    monkeypatch.setattr(sampling, "_unit_rows", fail_off_the_caller)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker"):
        directions(np.random.default_rng(1), 100_003, dim, np.ones(100_003))
    assert threading.active_count() == before


@pytest.mark.parametrize("dim", [2, 3])
def test_the_caller_turns_the_chunks_left_after_its_last_draw(monkeypatch, dim):
    # the worker's first chunk waits until the caller has turned one, so the
    # caller must turn chunks after its last draw; the worker then finishes
    # that first chunk late, which only a join before returning catches
    turn, turned = sampling._unit_rows, []
    caller_turned = threading.Event()

    def recorded(*args):
        caller = threading.current_thread() is threading.main_thread()
        if caller:
            caller_turned.set()
        elif False not in turned and caller_turned.wait(5.0):
            time.sleep(0.05)
        turned.append(caller)
        return turn(*args)

    monkeypatch.setattr(sampling, "_unit_rows", recorded)
    n = 100_003
    (got, _), (want, _) = _draw_both(n, dim, 4, True)
    assert _same_bits(got, want)
    assert len(turned) == -(-n // _CHUNK_ROWS)
    assert turned.count(True) >= 1


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [None, 17])
def test_ball_points_match_the_broadcast_expression(dim, offset):
    got = ball_points(np.random.default_rng(4), 5003, _BALLS[dim], forced_offset=offset)
    want = _old_ball_points(np.random.default_rng(4), 5003, dim, forced_offset=offset)
    assert _same_bits(got, want)


@pytest.mark.parametrize("model,center", [
    (MobiusModel(), None),
    (EinsteinModel(), None),
    (EinsteinModel(), [0.3, -0.1, 0.2]),
], ids=["mobius", "einstein", "einstein-off-center"])
def test_strong_base_balls_match_the_broadcast_expression(monkeypatch, model, center):
    seen = {}

    def record(model_, name, law, streams, tol, rule=None):
        seen[name] = [s.copy() for s in streams]
        return run_law_check(model_, name, law, streams, tol, rule)

    monkeypatch.setattr(core, "run_law_check", record)
    tol = ToleranceConfig()
    n = 1003
    check_strong_base(model, sampler=Sampler(9), n_samples=n, tol=tol, center=center)
    c = np.zeros(model.dim) if center is None else np.asarray(center, dtype=float)
    for r in (0.9, 0.5, 0.25):
        tag = f"r={r:g}"
        gen = Sampler(9).stream("strong-base", f"ball_invariance_{tag}")
        x, y = [_old_ball_points(gen, n, model.dim, forced_offset=j) for j in range(2)]
        # the points c ⊕ B(r); at c = 0, c ⊕ v is v bit for bit
        p, q = [
            model.oplus(c, (r * gen.uniform(0.0, 1.0, n) ** (1.0 / model.dim))[:, None]
                        * _old_directions(gen, n, model.dim))
            for _ in range(2)
        ]
        fx, fy, fp = seen[f"ball_forward_{tag}"]
        _, _, fq = seen[f"ball_preimage_{tag}"]
        for got, want in ((fx, x), (fy, y), (fp, p), (fq, q)):
            assert _same_bits(got, want)


@pytest.mark.parametrize("center", [None, "zeros"])
@pytest.mark.parametrize("cls", [MobiusModel, EinsteinModel], ids=["mobius", "einstein"])
def test_the_identity_center_adds_nothing(monkeypatch, cls, center):
    # at the identity center, given or by default, the ball's p and q are
    # the Euclidean draw of B(r) byte for byte, and neither the draw nor the
    # membership rule adds the center: no ⊕ reads a lone point, given as a
    # (d,) array or as a point of 0-d columns
    seen, lone = {}, []

    def is_lone(p):
        if isinstance(p, core._Point):
            return np.ndim(p[0]) == 0
        return isinstance(p, np.ndarray) and p.ndim == 1

    class Recording(cls):
        def oplus(self, a, b):
            if is_lone(a) or is_lone(b):
                lone.append((a, b))
            return super().oplus(a, b)

    def record(model_, name, law, streams, tol, rule=None):
        seen[name] = [s.copy() for s in streams]
        return run_law_check(model_, name, law, streams, tol, rule)

    monkeypatch.setattr(core, "run_law_check", record)
    model, tol, n = Recording(), ToleranceConfig(), 1003
    c = None if center is None else np.zeros(model.dim)
    rep = check_strong_base(model, sampler=Sampler(9), n_samples=n, tol=tol, center=c)
    assert rep.passed and lone == []
    for r in (0.9, 0.5, 0.25):
        tag = f"r={r:g}"
        gen = Sampler(9).stream("strong-base", f"ball_invariance_{tag}")
        model.sample_operands(gen, n, 2, tol)
        p, q = [(r * gen.uniform(0.0, 1.0, n) ** (1.0 / model.dim))[:, None]
                * directions(gen, n, model.dim, np.ones(n)) for _ in range(2)]
        assert _same_bits(seen[f"ball_forward_{tag}"][2], p)
        assert _same_bits(seen[f"ball_preimage_{tag}"][2], q)
    # off the identity both the draw and the membership rule add the
    # center, as a (d,) array and as a point of 0-d columns
    off = [0.3] + [0.0] * (model.dim - 1)
    check_strong_base(model, ball_radii=[0.5], sampler=Sampler(9), n_samples=50, center=off)
    assert {isinstance(a, core._Point) for a, _ in lone} == {False, True}


# -- the float64 pass on contiguous columns ------------------------------------


def _contiguous(value):
    """Every array under ``value`` (lists, tuples, DD words) is C-contiguous."""
    if isinstance(value, (list, tuple)):
        return all(map(_contiguous, value))
    if isinstance(value, ddarith.DD):
        return _contiguous(value.hi) and (np.ndim(value.lo) == 0 or _contiguous(value.lo))
    return not isinstance(value, np.ndarray) or value.flags.c_contiguous


def test_an_input_point_is_contiguous_columns_that_share_no_memory_with_its_stream():
    # an input block's point holds C-contiguous copies of its rows'
    # coordinates, so no kernel or rule reads the stream through it
    m = MobiusModel()
    rows = m.sample_operands(np.random.default_rng(6), 50, 2, ToleranceConfig())
    x = core._Point.of(rows[0][10:40])
    assert _contiguous(list(x)) and not any(np.shares_memory(c, rows[0]) for c in x)
    assert all(_same_bits(c, rows[0][10:40, i].copy()) for i, c in enumerate(x))


@pytest.mark.parametrize("cls", [MobiusModel, EinsteinModel], ids=["mobius", "einstein"])
def test_law_passes_stack_nothing_and_feed_the_kernels_contiguous_columns(monkeypatch, cls):
    # every law of the axiom and identity suites, with every row stressed so
    # both passes run: no np.stack anywhere, and every column that reaches a
    # kernel, float64 or double-double, is C-contiguous
    monkeypatch.setattr(core, "STRESS_NORM_FRACTION", -1.0)
    stacks, calls = [], []
    real_stack = np.stack

    def stack(*args, **kwargs):
        stacks.append(len(args[0]))
        return real_stack(*args, **kwargs)

    def checked(name, kernel):
        def run(*args):
            calls.append(name)
            assert _contiguous(args), name
            return kernel(*args)
        return staticmethod(run)

    for name in ("_oplus_cols", "_gyr_cols"):
        monkeypatch.setattr(cls, name, checked(name, getattr(cls, name)))
    monkeypatch.setattr(np, "stack", stack)
    m, tol = cls(), ToleranceConfig()
    for name, law, base, wit in core.AXIOM_CHECKS + core.IDENTITY_CHECKS:
        streams = m.sample_operands(np.random.default_rng(5), 300, base + wit, tol)
        assert run_law_check(m, name, law, streams, tol).passed, name
    assert stacks == []
    assert set(calls) == {"_oplus_cols", "_gyr_cols"}


@pytest.mark.parametrize("make", [
    MobiusModel, EinsteinModel, lambda: ProductModel(MobiusModel(), EinsteinModel()),
], ids=["mobius", "einstein", "product"])
def test_no_chain_rule_stacks_a_point(monkeypatch, make):
    # radial prenorm and metric at ratio 1/2, where closed_form_agreement,
    # rho_oracle and rho_closed_form run too: no law pass stacks a point into
    # rows, each rule block reads N through one prenorm_eval over its points
    # joined, and every point, a product's too, reaches the chain rules with
    # the norm that its trace computed, so no chain rule squares a norm
    in_pass, in_rule = [False], [False]
    stacks, blocks, evals, rule_squares = [], [0], [0], []
    real_group, real_results = core.run_law_group, prenorm._PrenormRule.results
    real_stack, real_eval = np.stack, prenorm.prenorm_eval

    def during(flag, run):
        flag[0] = True
        try:
            return run()
        finally:
            flag[0] = False

    def group(*args):
        return during(in_pass, lambda: real_group(*args))

    def results(self, tuples):
        blocks[0] += 1
        return during(in_rule, lambda: real_results(self, tuples))

    def stack(*args, **kwargs):
        if in_pass[0]:
            stacks.append(len(args[0]))
        return real_stack(*args, **kwargs)

    def prenorm_eval(chain, x):
        assert in_rule[0] and isinstance(x, core._Point)
        evals[0] += 1
        return real_eval(chain, x)

    _on_squares(monkeypatch, lambda p: in_rule[0] and rule_squares.append(p))
    monkeypatch.setattr(core, "run_law_group", group)
    monkeypatch.setattr(prenorm._PrenormRule, "results", results)
    monkeypatch.setattr(np, "stack", stack)
    monkeypatch.setattr(prenorm, "prenorm_eval", prenorm_eval)
    chain = RadialChain(make(), ratio=0.5, depth=12)
    for check in (check_prenorm_properties, check_metric_properties):
        assert check(chain, n_samples=300).passed
    assert stacks == []
    # one block of each of the four prenorm rows and of the four metric passes
    # that read N: the d rows, rho_identity, the (x, y) rows and rho_triangle
    assert evals[0] == blocks[0] == 8
    assert rule_squares == []


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("offset", [None, 17])
def test_ball_points_hold_only_the_rapidity_draw_beside_their_points(monkeypatch, dim, offset):
    # the radii are tanh of the rapidity draw, forced points included: the
    # same bits as the expression below, computed in the draw itself, so
    # beside its points a call holds the draw and what a draw of directions
    # scaled by ones holds, and no radius array. Both draws turn their chunks
    # on the worker, whose turn may overlap the caller's: a draw's chunk (2-D)
    # or a turn after the last draw. So either draw may hold one turn's
    # temporaries more than the other, at most two chunk columns (the squared
    # norm beside a product or the norm, or a ufunc buffer) and their small
    # objects; at this n one n-row array outweighs that turn and the slack
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    n = 50021
    gen = np.random.default_rng(6)
    rho = gen.uniform(0.0, 3.0, n)
    r = np.tanh(rho)
    if offset is not None:
        r[offset::FORCED_STRIDE] = 1.0 - 1e-6
    ones = np.ones(n)
    want = directions(gen, n, dim, ones) * r[:, None]
    turn = 2 * _CHUNK_ROWS * 8 + 4096

    monkeypatch.setattr(threading.Thread, "start", counted)
    tracemalloc.start()
    try:
        directions(np.random.default_rng(6), n, dim, ones)
        beside = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got = ball_points(np.random.default_rng(6), n, _BALLS[dim], forced_offset=offset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(starts) == 2
    assert _same_bits(got, want)
    assert peak <= rho.nbytes + beside + turn + 4096
