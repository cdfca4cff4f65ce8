"""Every law row runs through one driver, ``core._run_rows``.

Four sampled row lists run on it: the axiom and identity suites
(``core._run_suite``), the strong base, a radial chain's prenorm and metric
rows (``law_checks``, whose draws read the chain's one cap table) and its
admissible levels. On each, these tests pin that every generator stream
is opened once, that each row reads the operands of its stream in the order
the generator gave them before the driver, that each draw is dead once the
last row that reads it has its result, and that a row that shares its pass
with no other runs through ``run_law_check``, the name the benchmark's
tracer wraps. On an exact carrier, a table model or a finite chain, they pin
that the driver draws nothing and runs each row on its own exhaustive pass.
"""

import weakref
from pathlib import Path

import numpy as np
import pytest

from gyrokit import core, models, prenorm
from gyrokit.core import WITNESSES, check_axioms, check_identities
from gyrokit.errors import ResourceLimitError
from gyrokit.models import EinsteinModel, MobiusModel, check_strong_base
from gyrokit.prenorm import (
    FiniteChain,
    RadialChain,
    _metric_rows,
    _prenorm_rows,
    check_metric_properties,
    check_prenorm_properties,
    validate_admissible_chain,
)
from gyrokit.sampling import Sampler, ToleranceConfig, ball_points, derive_seed, directions
from gyrokit.tables import TableModel, cyclic_table, load_table

CORPUS = Path(__file__).resolve().parent / "corpus"

SEED, N, DEPTH = 7, 200, 6
TOL = ToleranceConfig()


class Spy:
    """What one suite run does with its law rows: the sampler streams it
    opens, the rows the driver is given, the entry each row runs through,
    a copy of the operands each row reads, and weakrefs to them. At every
    stream opened, every engine call and the driver's return, each draw
    whose rows all have their results must be dead."""

    def __init__(self, monkeypatch):
        self.opened, self.rows = [], []
        self.entry, self.read, self.refs, self.done = {}, {}, {}, set()
        self.inside = False
        real_stream, real_rows = Sampler.stream, core._run_rows
        real_check, real_group = core.run_law_check, core.run_law_group

        def stream(sampler, suite, check):
            self.assert_released()
            self.opened.append((suite, check))
            return real_stream(sampler, suite, check)

        def run_rows(model, rows, draw, tol):
            self.rows += rows
            out = real_rows(model, rows, draw, tol)
            self.assert_released()
            return out

        def engine(kind, names, streams, run):
            self.assert_released()
            for name in names:
                self.entry[name] = kind
                self.read[name] = [np.array(s[0:len(s)]) for s in streams]
                self.refs[name] = [weakref.ref(s) for s in streams] + [
                    weakref.ref(s.base) for s in streams if isinstance(s, core._RowRepeat)]
            self.inside = True
            try:
                return run()
            finally:
                self.inside = False
                self.done.update(names)

        def check(model, name, law, streams, tol, rule=None):
            return engine("check", (name,), streams,
                          lambda: real_check(model, name, law, streams, tol, rule))

        def group(model, names, law, streams, rules):
            if self.inside:  # run_law_check's own pass
                return real_group(model, names, law, streams, rules)
            return engine("group", names, streams,
                          lambda: real_group(model, names, law, streams, rules))

        monkeypatch.setattr(Sampler, "stream", stream)
        for module in (core, models, prenorm):
            monkeypatch.setattr(module, "_run_rows", run_rows)
        monkeypatch.setattr(core, "run_law_check", check)
        monkeypatch.setattr(core, "run_law_group", group)

    def assert_released(self):
        readers = {}
        for name, stream, *_ in self.rows:
            readers.setdefault(stream, []).append(name)
        for stream, names in readers.items():
            if not self.done.issuperset(names):
                continue
            for name in names:
                assert all(ref() is None for ref in self.refs[name]), (stream, name)

    def assert_rows(self, suite, reference):
        """Each stream opened once, each row on the operands ``reference``
        draws for its stream, and the entry each row runs through."""
        assert len(self.opened) == len(set(self.opened))
        assert {(suite, stream) for _, stream, *_ in self.rows} <= set(self.opened)
        passes = {}
        for name, stream, reads, law, _ in self.rows:
            passes.setdefault((stream, tuple(reads), law), []).append(name)
            want = reference(stream)
            got = self.read[name]
            assert len(got) == len(reads), name
            for g, j in zip(got, reads):
                assert g.tobytes() == want[j].tobytes() and g.shape == want[j].shape, (name, j)
        for names in passes.values():
            kind = "check" if len(names) == 1 else "group"
            assert [self.entry[name] for name in names] == [kind] * len(names), names
        return passes


def generator(suite, stream):
    return np.random.default_rng(derive_seed(SEED, suite, stream))


MODELS = pytest.mark.parametrize("model", [MobiusModel(), EinsteinModel()],
                                 ids=["mobius", "einstein"])


@MODELS
@pytest.mark.parametrize("suite,run,checks", [
    ("axioms", check_axioms, core.AXIOM_CHECKS),
    ("identities", check_identities, core.IDENTITY_CHECKS),
], ids=["axioms", "identities"])
def test_law_suite_rows(monkeypatch, model, suite, run, checks):
    spy = Spy(monkeypatch)
    run(model, Sampler(SEED), n_samples=N)
    arity = {name: (base, wit) for name, _, base, wit in checks}

    def reference(stream):
        # the base operands, then the witness operands, from one generator
        base, wit = arity[stream]
        gen = generator(suite, stream)
        out = model.sample_operands(gen, N, base, TOL)
        if wit:
            out = [np.repeat(s, WITNESSES, axis=0) for s in out]
            out += model.sample_operands(gen, N * WITNESSES, wit, TOL, offset=base)
        return out

    passes = spy.assert_rows(suite, reference)
    assert list(passes.values()) == [[name] for name, *_ in checks]


@MODELS
def test_strong_base_rows(monkeypatch, model):
    spy = Spy(monkeypatch)
    check_strong_base(model, sampler=Sampler(SEED), n_samples=N)
    radii = {f"ball_invariance_r={r:g}": r for r in (0.9, 0.5, 0.25)}

    def reference(stream):
        # x and y, then p, then q, from one generator; each norm row's own
        gen = generator("strong-base", stream)
        if stream not in radii:
            return model.sample_operands(gen, N, 3 if stream == "norm_preservation" else 2, TOL)
        x, y = model.sample_operands(gen, N, 2, TOL)
        p, q = [np.zeros(model.dim) + (radii[stream] * gen.uniform(0.0, 1.0, N)
                                       ** (1.0 / model.dim))[:, None] * directions(gen, N, model.dim, np.ones(N))
                for _ in range(2)]
        return [x, y, p, q]

    passes = spy.assert_rows("strong-base", reference)
    # nine ball rows on three draws, and the two norm rows on their own
    assert len(passes) == 11


@MODELS
def test_radial_prenorm_rows(monkeypatch, model):
    spy = Spy(monkeypatch)
    chain = RadialChain(model, ratio=0.5, depth=DEPTH)
    check_prenorm_properties(chain, Sampler(SEED), n_samples=N)
    top = chain.full
    caps = {"gyration_invariance": (1.9 * top, 2.0, 2.0), "subadditivity": (1.2 * top,) * 2,
            "inversion_symmetry": (1.9 * top,), "closed_form": (1.9 * top,)}

    def reference(stream):
        gen = generator("prenorm", stream)
        return [ball_points(gen, N, model, t_max=c, margin=None) for c in caps[stream]]

    passes = spy.assert_rows("prenorm", reference)
    assert len(passes) == len(caps) == 4


@MODELS
def test_radial_metric_rows(monkeypatch, model):
    # every row reads the one triple, which is dead after the last of them
    spy = Spy(monkeypatch)
    chain = RadialChain(model, ratio=0.5, depth=DEPTH)
    check_metric_properties(chain, Sampler(SEED), n_samples=N)

    def reference(stream):
        gen = generator("metric", stream)
        return [ball_points(gen, N, model, t_max=0.95 * chain.t0, margin=None)
                for _ in range(3)]

    passes = spy.assert_rows("metric", reference)
    assert list(passes.values()) == [
        ["d_identity", "d_symmetry", "d_triangle"], ["rho_identity"],
        ["rho_symmetry", "rho_oracle", "rho_closed_form"], ["rho_triangle"],
        ["decomposition_identity"]]


@pytest.mark.parametrize("ratio", [0.25, 0.5])
def test_radial_law_row_streams_each_have_one_cap_entry(ratio):
    # every stream that a radial prenorm or metric row reads has its caps in
    # the chain's one table, one cap for each operand its rows read; at
    # ratio 1/2, where every row runs, the table has no other entry
    chain = RadialChain(MobiusModel(), ratio=ratio, depth=DEPTH)
    rows = (_prenorm_rows(chain, TOL) + chain.prenorm_rows(TOL)
            + _metric_rows(chain, TOL) + chain.metric_rows(TOL))
    read = {}
    for _, stream, reads, *_ in rows:
        read.setdefault(stream, set()).update(reads)
    assert set(read) <= set(chain.caps)
    assert (set(read) == set(chain.caps)) == (ratio == 0.5)
    for stream, operands in read.items():
        assert operands == set(range(len(chain.caps[stream]))), stream


def test_radial_law_row_caps_read_the_top_of_the_scale():
    # the caps scale `full`, the rapidity from which the bit extraction caps
    # N at 2; on the ratio-0.1 chain a pairwise sum of the radii is below it
    chain = RadialChain(MobiusModel(), t0=1.0, ratio=0.1, depth=24)
    assert float(np.sum(chain.t)) < chain.full
    top = chain.full
    assert chain.caps["gyration_invariance"] == (1.9 * top, 2.0, 2.0)
    assert chain.caps["subadditivity"] == (1.2 * top,) * 2
    assert chain.caps["inversion_symmetry"] == chain.caps["closed_form"] == (1.9 * top,)


@MODELS
def test_radial_admissible_rows(monkeypatch, model):
    spy = Spy(monkeypatch)
    chain = RadialChain(model, ratio=0.25, depth=DEPTH)
    validate_admissible_chain(chain, Sampler(SEED), n_samples=N)
    per_level = max(16, N // DEPTH)

    def reference(stream):
        # three draws from the level below, each with the extreme point appended
        t_in = float(chain.t[int(stream.removeprefix("level_")) + 1])
        gen = generator("admissible", stream)
        extreme = np.zeros((1, model.dim))
        extreme[0, 0] = np.tanh(t_in)
        return [np.vstack([ball_points(gen, per_level, model, t_max=t_in, margin=None),
                           extreme]) for _ in range(3)]

    passes = spy.assert_rows("admissible", reference)
    assert len(passes) == DEPTH


# -- exact carriers -----------------------------------------------------------


def never(stream):
    raise AssertionError(f"drew {stream!r} on an exact carrier")


def exact_rows(carrier):
    """A carrier's model and its suites' law rows: the axioms and identities
    on loop5, which fail some of them, or the prenorm and metric rows of the
    chain on g8 with base {0, 5}, whose gyration_invariance fails."""
    if carrier == "table":
        model = TableModel(load_table(CORPUS / "loop5.json"))
        checks = core.AXIOM_CHECKS + core.IDENTITY_CHECKS
        return model, [(name, name, range(base + wit), law, None)
                       for name, law, base, wit in checks]
    chain = FiniteChain(load_table(CORPUS / "g8.json"), [0, 5])
    return chain.model, _prenorm_rows(chain, TOL) + _metric_rows(chain, TOL)


EXACT = pytest.mark.parametrize("carrier", ["table", "chain"])


@EXACT
def test_exact_suites_never_draw(monkeypatch, carrier):
    # every law row of the suites on an exact carrier reaches the driver,
    # which runs it without calling the draw
    model, rows = exact_rows(carrier)
    real, seen = core._run_rows, []

    def run_rows(m, rows, draw, tol):
        seen.extend(name for name, *_ in rows)
        return real(m, rows, never, tol)

    for module in (core, prenorm):
        monkeypatch.setattr(module, "_run_rows", run_rows)
    if carrier == "table":
        reports = [check_axioms(model), check_identities(model)]
    else:
        chain = FiniteChain(model, [0, 5])
        reports = [check_prenorm_properties(chain), check_metric_properties(chain)]
    assert seen == [name for name, *_ in rows]
    assert {c.name for rep in reports for c in rep.checks} >= set(seen)
    assert not all(rep.passed for rep in reports)


@EXACT
def test_exact_rows_run_in_row_order_one_pass_each(carrier):
    # in any order the driver gives each row's result in its place, as one
    # exhaustive_law_checks call on that row alone gives it
    model, rows = exact_rows(carrier)
    for order in (rows, rows[::-1]):
        got = core._run_rows(model, order, never, TOL)
        want = [core.exhaustive_law_checks(model, model.labels, [row])[0] for row in order]
        assert [c.to_dict() for c in got] == [c.to_dict() for c in want]
        assert [c.name for c in got] == [name for name, *_ in order]
    assert not all(c.passed for c in got)


def test_exact_rows_are_refused_together_before_any_law_runs():
    # z67 has 67^4 > _EXHAUSTIVE_CAP automorphism tuples: the driver refuses
    # the list before the G1 row ahead of it runs
    model = TableModel(cyclic_table(67))
    ran = []
    rows = [("G1_identity", "G1_identity", range(1),
             lambda ops, x: ran.append(x) or core.law_g1(ops, x), None),
            ("G3_automorphism", "G3_automorphism", range(4), core.law_g3_automorphism, None)]
    assert 67 ** 3 <= core._EXHAUSTIVE_CAP < 67 ** 4
    with pytest.raises(ResourceLimitError, match="over 4 operands infeasible for order 67"):
        core._run_rows(model, rows, never, TOL)
    assert ran == []
    assert core._run_rows(model, rows[:1], never, TOL)[0].passed and len(ran) == 1
