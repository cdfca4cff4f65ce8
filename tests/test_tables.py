import collections
import itertools
import math
import time

import numpy as np
import pytest

from gyrokit.core import (
    AXIOM_CHECKS,
    IDENTITY_CHECKS,
    exact_violation,
    first_violation,
    law_g3_automorphism,
    law_g4_loop,
)
from gyrokit.errors import (
    AxiomViolationError,
    ResourceLimitError,
    TableFormatError,
    UsageError,
)
from gyrokit.tables import (
    CayleyTable,
    _TableOps,
    TableModel,
    builtin_table,
    coset_partition,
    cyclic_table,
    enumerate_subgyrogroups,
    gyr_tensor,
    is_L_subgyrogroup,
    klein_table,
    load_table,
    product_table,
    s3_table,
    search_gyrogroups,
    table_from_dict,
    validate_table,
)


# -- construction and serialization ------------------------------------------


def test_table_shape_checks():
    with pytest.raises(TableFormatError):
        CayleyTable([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(TableFormatError):
        CayleyTable([[0, 5], [1, 0]])
    with pytest.raises(TableFormatError):
        CayleyTable([[0.5, 1], [1, 0]])
    with pytest.raises(TableFormatError):
        CayleyTable([[0, 1], [1, 0]], labels=["a", "a"])


def test_from_dict_error_messages():
    base = {"order": 2, "elements": ["0", "1"], "oplus": [[0, 1], [1, 0]]}
    bad = dict(base, oplus=[[0, 1], [1]])
    with pytest.raises(TableFormatError, match="row 1 has 1 entries"):
        table_from_dict(bad)
    bad = dict(base, oplus=[[0, 1], [1, 7]])
    with pytest.raises(TableFormatError, match=r"cell \(1,1\) value 7"):
        table_from_dict(bad)
    bad = dict(base)
    del bad["order"]
    with pytest.raises(TableFormatError, match="missing field 'order'"):
        table_from_dict(bad)
    bad = dict(base, oplus=[[0, True], [1, 0]])
    with pytest.raises(TableFormatError, match="not an integer"):
        table_from_dict(bad)


def test_save_load_roundtrip(tmp_path):
    t = klein_table()
    path = tmp_path / "k.json"
    t.save(path)
    back = load_table(path)
    assert back.order == 4
    assert np.array_equal(back.table, t.table)
    assert back.labels == t.labels


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(TableFormatError, match="not valid JSON"):
        load_table(p)


# -- validation ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["z1", "z2", "z3", "z4", "z5", "z6", "klein", "s3"])
def test_builtin_tables_valid(name):
    rep = validate_table(builtin_table(name))
    assert rep.passed
    assert rep.notes["all_gyrations_identity"] is True  # groups gyrate trivially


def test_z4_single_cell_mutations_rejected():
    base = cyclic_table(4).table
    start = time.perf_counter()
    count = 0
    gen = np.random.default_rng(2024)
    seen = set()
    while count < 20:
        i, j = int(gen.integers(4)), int(gen.integers(4))
        v = int(gen.integers(4))
        if v == base[i, j] or (i, j, v) in seen:
            continue
        seen.add((i, j, v))
        mutated = base.copy()
        mutated[i, j] = v
        rep = validate_table(CayleyTable(mutated))
        assert not rep.passed, f"mutation ({i},{j})->{v} wrongly accepted"
        failing = [c for c in rep.checks if not c.passed]
        assert failing and failing[0].witness is not None
        count += 1
    assert time.perf_counter() - start < 1.0


def test_validation_check_order_and_blocking():
    # break bijectivity: gyration-level checks must report blocked
    bad = CayleyTable([[0, 1, 2], [1, 0, 0], [2, 2, 1]])
    rep = validate_table(bad)
    names = [c.name for c in rep.checks]
    assert names == [
        "G1_unique_identity",
        "G2_unique_inverses",
        "left_translations_bijective",
        "G3_gyroassociativity",
        "G3_automorphism",
        "G4_loop",
    ]
    assert not rep.check("left_translations_bijective").passed
    assert rep.check("G3_automorphism").witness == {
        "blocked_by": "left_translations_bijective"
    }


def test_inverses_computed_once_and_witnessed():
    t = s3_table()
    inv = t.inverses()
    assert inv is t.inverses()
    idx = np.arange(6)
    assert (t.table[idx, inv] == t.identity_index).all()
    assert (t.table[inv, idx] == t.identity_index).all()
    # element 1 has the two two-sided inverses 1 and 2
    two = CayleyTable([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(AxiomViolationError, match="'1' has 2 two-sided inverses"):
        two.inverses()
    assert validate_table(two).check("G2_unique_inverses").witness == {
        "element": "1", "two_sided_inverses": ["1", "2"]
    }
    # 1 + 2 = 0 but 2 + 1 = 1: a one-sided inverse does not count
    one_sided = CayleyTable([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert validate_table(one_sided).check("G2_unique_inverses").witness == {
        "element": "1", "two_sided_inverses": []
    }


def test_validation_no_identity():
    # subtraction mod 3: Latin but no two-sided identity
    t = CayleyTable([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    rep = validate_table(t)
    assert not rep.check("G1_unique_identity").passed
    assert rep.check("G2_unique_inverses").witness == {"blocked_by": "G1_unique_identity"}


def test_latin_non_gyrogroup_rejected():
    # a reduced Latin square of order 5 that is not a group; searched
    # by hand to fail the automorphism/loop stage, not bijectivity
    t = CayleyTable(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )
    rep = validate_table(t)
    assert rep.check("left_translations_bijective").passed
    assert not rep.passed
    failing = [c for c in rep.checks if not c.passed]
    assert all(c.witness is not None for c in failing)


# -- gyration tables ----------------------------------------------------------


def test_gyr_table_identity_for_groups():
    B = cyclic_table(6).gyrations()
    assert (B == np.arange(6)).all()
    assert np.array_equal(B[2, 3], np.arange(6))


def test_gyr_tensor_definition():
    # B[x,y,z] solves (x+y) + B = x + (y+z), spot-checked by brute force
    t = s3_table()
    B = gyr_tensor(t.table)
    T = t.table
    for x in range(6):
        for y in range(6):
            for z in range(6):
                assert T[T[x, y], B[x, y, z]] == T[x, T[y, z]]


def test_gyr_table_requires_bijective_rows():
    with pytest.raises(AxiomViolationError):
        CayleyTable([[0, 1], [1, 1]]).gyrations()


def test_table_model_requires_bijective_rows():
    # a unique identity and unique inverses, but row 1 is not a bijection
    with pytest.raises(AxiomViolationError, match="'1' is not a bijection"):
        TableModel(CayleyTable([[0, 1, 2], [1, 0, 1], [2, 2, 0]]))


def test_gyration_tensor_built_once_per_table(monkeypatch):
    import gyrokit.tables as tables

    calls = []
    real = tables.gyr_tensor
    monkeypatch.setattr(tables, "gyr_tensor", lambda T: calls.append(1) or real(T))
    t = cyclic_table(6)
    validate_table(t)
    TableModel(t)
    enumerate_subgyrogroups(t)
    coset_partition(t, [0, 3])
    assert t.gyrations() is t.gyrations()
    assert len(calls) == 1


LATIN5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]

# an order-5 loop, every element its own inverse, whose gyrations are not
# automorphisms
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_kernel_batches_keep_witnesses(monkeypatch):
    # one tuple per batch, the deepest split, must find the same witnesses
    import gyrokit.core as core

    latin5 = CayleyTable(LATIN5)
    loop5 = TableModel(CayleyTable(LOOP5))
    runs = [
        lambda: validate_table(latin5),
        lambda: core.check_axioms(loop5),
        lambda: core.check_identities(loop5),
    ]
    whole = [run().to_dict() for run in runs]
    monkeypatch.setattr(core, "_KERNEL_CELLS", 1)
    per_operand = [run().to_dict() for run in runs]
    for w, p in zip(whole, per_operand):
        assert w["checks"] == p["checks"]
        assert not w["pass"]


def test_builtin_table_size_guard(monkeypatch):
    import gyrokit.tables as tables

    monkeypatch.setattr(tables, "cyclic_table", None)  # must not be reached
    with pytest.raises(ResourceLimitError):
        builtin_table("z272")  # 272^3 just exceeds the exhaustive cap


def test_table_model_size_guard(monkeypatch):
    import gyrokit.tables as tables

    monkeypatch.setattr(tables, "gyr_tensor", None)  # must not be reached
    with pytest.raises(ResourceLimitError):
        TableModel(cyclic_table(272))  # a table of any origin is guarded


# -- table model ---------------------------------------------------------------


def test_table_model_exhaustive_axioms():
    from gyrokit.core import check_axioms, check_identities

    m = TableModel(s3_table())
    rep = check_axioms(m)
    assert rep.passed
    assert all(c.samples == "exhaustive" for c in rep.checks)
    assert check_identities(m).passed


def test_table_model_ops():
    m = TableModel(cyclic_table(4))
    assert m.oplus(1, 3) == 0
    assert m.neg(3) == 1
    assert m.zero_like(np.array([2, 2])).tolist() == [0, 0]
    assert m.gyr(1, 2, 3) == 3


# -- substructures -------------------------------------------------------------


def test_subgyrogroups_z4():
    subs = enumerate_subgyrogroups(cyclic_table(4))
    assert [list(s.elements) for s in subs] == [[0], [0, 2], [0, 1, 2, 3]]
    assert all(s.is_L_subgyrogroup for s in subs)


def test_subgyrogroups_klein_count():
    assert len(enumerate_subgyrogroups(klein_table())) == 5


def test_subgyrogroups_z6_s3():
    assert len(enumerate_subgyrogroups(cyclic_table(6))) == 4
    assert len(enumerate_subgyrogroups(s3_table())) == 6


# a proper (non-associative) gyrogroup of order 8 from the Foguel-Ungar
# transversal construction in S4 x Z2
G8 = [
    [0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 0, 1, 6, 7, 4, 5], [3, 2, 1, 0, 7, 6, 5, 4],
    [4, 5, 6, 7, 2, 3, 0, 1], [5, 4, 7, 6, 1, 0, 3, 2],
    [6, 7, 4, 5, 0, 1, 2, 3], [7, 6, 5, 4, 3, 2, 1, 0],
]


def _is_subgyrogroup_by_definition(t, H):
    """Whether H is closed under the operation, the inverse and every
    gyration with pivots in H, checked over H^3."""
    H = np.asarray(H)
    return bool(
        np.isin(t.table[np.ix_(H, H)], H).all()
        and np.isin(t.inverses()[H], H).all()
        and np.isin(t.gyrations()[np.ix_(H, H, H)], H).all()
    )


def _nonempty_subsets(n):
    for k in range(1, n + 1):
        yield from (np.array(H) for H in itertools.combinations(range(n), k))


def _brute_force_subgyrogroups(t):
    found = [
        tuple(H.tolist()) for H in _nonempty_subsets(t.order)
        if _is_subgyrogroup_by_definition(t, H)
    ]
    return sorted(found, key=lambda h: (len(h), h))


def _reduced_latin_squares(n):
    """Every order-n Latin square with first row and column 0, 1, ..., n-1."""
    rows = [list(range(n))]

    def grow():
        if len(rows) == n:
            yield [list(r) for r in rows]
            return
        r = len(rows)
        for rest in itertools.permutations([v for v in range(n) if v != r]):
            row = [r, *rest]
            if all(row[c] != prev[c] for prev in rows for c in range(n)):
                rows.append(row)
                yield from grow()
                rows.pop()

    yield from grow()


class _ListOps:
    """Pure-Python scalar ops over nested lists: the reference carrier."""

    def __init__(self, t, B):
        self.T = t.table.tolist()
        self.B = B.tolist()
        cand = t.identity_candidates()
        self.e = int(cand[0]) if len(cand) == 1 else None
        self.inv = None
        if self.e is not None:
            M = t._inverse_matrix()
            if t._element_without_inverse(M) is None:
                self.inv = np.argmax(M, axis=1).tolist()

    def oplus(self, x, y):
        return self.T[x][y]

    def neg(self, x):
        return self.inv[x]

    def zero_like(self, x):
        return self.e

    def gyr(self, x, y, z):
        return self.B[x][y][z]


def _reference_violation(ops, n, law, arity):
    """First failing tuple of ``law`` by a plain loop over every tuple."""
    for tup in itertools.product(range(n), repeat=arity):
        for lhs, rhs in law(ops, *tup):
            if lhs != rhs:
                return tup, lhs, rhs
    return None


_REFERENCE_TABLES = [("g8", G8), ("loop5", LOOP5)] + [
    (f"latin5.{i}", sq) for i, sq in enumerate(_reduced_latin_squares(5))
]


def test_reference_tables_are_all_reduced_order_5_squares():
    assert len(_REFERENCE_TABLES) == 2 + 56


@pytest.mark.parametrize("name,rows", _REFERENCE_TABLES, ids=[n for n, _ in _REFERENCE_TABLES])
def test_first_violation_matches_a_plain_loop(name, rows, monkeypatch):
    import gyrokit.core as core

    t = CayleyTable(rows, name=name)
    B = t.gyrations()
    reference = _ListOps(t, B)
    # the generic laws on tables without inverses run on the bare (T, B) ops
    # that validate_table uses; the others run on the exact model
    if reference.inv is None:
        ops, checks = _TableOps(t.table, B), AXIOM_CHECKS[2:]
    else:
        ops, checks = TableModel(t), AXIOM_CHECKS + IDENTITY_CHECKS
    failures = 0
    n = t.order
    for _, law, base, wit in checks:
        arity = base + wit
        want = _reference_violation(reference, n, law, arity)
        assert first_violation(ops, n, law, arity) == want
        # batches of one first operand and runs of two second operands, so
        # batches start at nonzero second operands and the last run is short
        with monkeypatch.context() as m:
            m.setattr(core, "_KERNEL_CELLS", 2 * n ** max(arity - 2, 0))
            assert first_violation(ops, n, law, arity) == want
        failures += want is not None
    # the automorphism law once per distinct gyration, as the exhaustive
    # suites run it: with runs of two classes, batches split across classes
    want = _reference_violation(reference, n, law_g3_automorphism, 4)
    assert exact_violation(ops, n, law_g3_automorphism, 4) == want
    assert first_violation(ops, n, law_g3_automorphism, 4, ops.pivot_classes) == want
    with monkeypatch.context() as m:
        m.setattr(core, "_KERNEL_CELLS", 2 * n**2)
        assert first_violation(ops, n, law_g3_automorphism, 4, ops.pivot_classes) == want
    if name == "g8":
        assert failures == 0
    if name == "loop5":
        assert failures == 6


def test_first_violation_batches_stay_within_the_kernel_cells():
    # z64 at arity 4: 64^3 tuples per first operand would be 4 batches' worth
    import gyrokit.core as core

    t = cyclic_table(64)
    ops = _TableOps(t.table, t.gyrations())
    batches, results = [], []

    class Recording:
        def oplus(self, x, y):
            results.append(np.size(r := ops.oplus(x, y)))
            return r

        def gyr(self, x, y, z):
            results.append(np.size(r := ops.gyr(x, y, z)))
            return r

    def law(rec, *grids):
        batches.append(int(np.prod(np.broadcast_shapes(*(g.shape for g in grids)))))
        return core.law_g3_automorphism(rec, *grids)

    assert first_violation(Recording(), 64, law, 4) is None
    assert max(batches) == max(results) == core._KERNEL_CELLS
    assert sum(batches) == 64**4


def test_pivot_classes_are_the_first_pair_of_each_gyration():
    counts = {}
    for name, rows in _REFERENCE_TABLES + [("z64", cyclic_table(64).table)]:
        t = CayleyTable(rows, name=name)
        B = t.gyrations()
        first = {}
        for x, y in itertools.product(range(t.order), repeat=2):
            first.setdefault(tuple(B[x, y].tolist()), (x, y))
        got = _TableOps(t.table, B).pivot_classes
        assert got.tolist() == sorted(map(list, first.values())), name
        counts[name] = len(got)
    assert (counts["z64"], counts["g8"], counts["loop5"]) == (1, 2, 11)


@pytest.mark.parametrize("cells", [None, 1000])
def test_pivot_class_batches_stay_within_the_kernel_cells(cells, monkeypatch):
    # z64 has one gyration, so the automorphism law runs on 64^2 tuples, not
    # 64^4; at 1000 cells that class's tuples split into runs of 15 values of a
    import gyrokit.core as core

    if cells is not None:
        monkeypatch.setattr(core, "_KERNEL_CELLS", cells)
    t = cyclic_table(64)
    ops = _TableOps(t.table, t.gyrations())
    batches, results = [], []

    class Recording:
        def oplus(self, x, y):
            results.append(np.size(r := ops.oplus(x, y)))
            return r

        def gyr(self, x, y, z):
            results.append(np.size(r := ops.gyr(x, y, z)))
            return r

    def law(rec, *grids):
        batches.append(int(np.prod(np.broadcast_shapes(*(g.shape for g in grids)))))
        return core.law_g3_automorphism(rec, *grids)

    assert first_violation(Recording(), 64, law, 4, ops.pivot_classes) is None
    assert max(batches) == max(results) <= core._KERNEL_CELLS
    assert sum(batches) == 64**2


SMALL_TABLES = {
    **{f"z{n}": (lambda n=n: cyclic_table(n)) for n in range(1, 9)},
    "klein": klein_table,
    "s3": s3_table,
    "z2xz4": lambda: product_table(cyclic_table(2), cyclic_table(4)),
    "z2xklein": lambda: product_table(cyclic_table(2), klein_table()),
    "g8": lambda: CayleyTable(G8, name="g8"),
    **{
        f"search{n}.{i}": (lambda n=n, i=i: search_gyrogroups(n)[i])
        for n, i in ((4, 0), (4, 1), (5, 0), (6, 0), (6, 1))
    },
}


@pytest.mark.parametrize("name", list(SMALL_TABLES))
def test_closure_growth_finds_every_subgyrogroup(name):
    t = SMALL_TABLES[name]()
    subs = enumerate_subgyrogroups(t)
    assert [s.elements for s in subs] == _brute_force_subgyrogroups(t)
    B = t.gyrations()
    for s in subs:
        assert s.is_L_subgyrogroup == bool(
            np.isin(B[:, list(s.elements)][:, :, list(s.elements)], s.elements).all()
        )
    if name == "g8":
        assert validate_table(t).passed and not t.is_associative()
        assert len(subs) == 10
        L = {s.elements: s.is_L_subgyrogroup for s in subs}
        assert not L[(0, 5)] and not L[(0, 7)] and L[(0, 2, 5, 7)]


def _grow_by_every_element(t):
    """Closure growth without the right-coset lemma, the reference: every
    subgyrogroup found is grown by each element it lacks. Returns each
    subgyrogroup with its L flag, by size then elements."""
    from gyrokit.tables import _closure

    frontier = {frozenset({t.identity_index})}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for H in frontier:
            for g in range(t.order):
                if g not in H:
                    grown = _closure(t, H | {g})
                    if grown not in seen:
                        seen.add(grown)
                        nxt.add(grown)
        frontier = nxt
    B = t.gyrations()
    subs = sorted((tuple(sorted(H)) for H in seen), key=lambda h: (len(h), h))
    return [(H, bool(np.isin(B[:, H][:, :, H], H).all())) for H in subs]


def _row_only_table(rng, n):
    """A random order-n table with identity 0, bijective rows and two-sided
    inverses (an involution), whose columns are not all permutations."""
    while True:
        inv = list(range(n))
        rest = rng.permutation(np.arange(1, n)).tolist()
        for _ in range(rng.integers(len(rest) // 2 + 1)):
            a, b = rest.pop(), rest.pop()
            inv[a], inv[b] = b, a
        rows = [list(range(n))]
        for x in range(1, n):
            values = rng.permutation([v for v in range(1, n) if v != x]).tolist()
            rows.append([x if y == 0 else 0 if y == inv[x] else values.pop()
                         for y in range(n)])
        t = CayleyTable(rows, name=f"rows{n}")
        if not (np.sort(t.table, axis=0) == np.arange(n)[:, None]).all():
            return t


_COSET_TABLES = {
    **{f"z{n}": (lambda n=n: cyclic_table(n)) for n in range(9, 41)},
    "z2xz12": lambda: product_table(cyclic_table(2), cyclic_table(12)),
    "s3xklein": lambda: product_table(s3_table(), klein_table()),
    "loop5": lambda: CayleyTable(LOOP5, name="loop5"),
}


@pytest.mark.parametrize("name", list(_COSET_TABLES))
def test_one_closure_per_right_coset_matches_growth_by_every_element(name):
    t = _COSET_TABLES[name]()
    got = [(s.elements, s.is_L_subgyrogroup) for s in enumerate_subgyrogroups(t)]
    assert got == _grow_by_every_element(t)


def test_one_closure_per_right_coset_on_every_raw_order_6_table():
    tables = search_gyrogroups(6, canonical_identity=False)
    assert len(tables) == 80
    for t in tables:
        got = [(s.elements, s.is_L_subgyrogroup) for s in enumerate_subgyrogroups(t)]
        assert got == _grow_by_every_element(t), t.table.tolist()


@pytest.mark.parametrize("n", [5, 6, 7])
def test_one_closure_per_right_coset_needs_only_bijective_rows(n):
    # the lemma uses left translations only, so tables whose columns repeat
    # values must enumerate as the reference does too
    rng = np.random.default_rng(4700 + n)
    for _ in range(100):
        t = _row_only_table(rng, n)
        assert len(t.identity_candidates()) == 1 and t._non_bijective_row() is None
        t.inverses()
        got = [(s.elements, s.is_L_subgyrogroup) for s in enumerate_subgyrogroups(t)]
        assert got == _grow_by_every_element(t), t.table.tolist()


def test_one_closure_per_right_coset_on_z24(monkeypatch):
    import gyrokit.tables as tables

    calls = []
    closure = tables._closure
    monkeypatch.setattr(tables, "_closure", lambda t, seed: calls.append(1) or closure(t, seed))
    t = cyclic_table(24)
    assert len(enumerate_subgyrogroups(t)) == 8
    assert len(calls) == 52
    calls.clear()
    _grow_by_every_element(t)  # the reference closes each subgroup's lacking elements
    assert len(calls) == 132


@pytest.mark.parametrize("name", [*SMALL_TABLES, "loop5"])
def test_operation_closure_is_the_subgyrogroup_definition(name):
    # LOOP5 has bijective left translations and two-sided inverses but fails
    # the laws: the closure lemma needs only the former
    from gyrokit.tables import _closed_under

    t = CayleyTable(LOOP5) if name == "loop5" else SMALL_TABLES[name]()
    for H in _nonempty_subsets(t.order):
        assert _closed_under(t, H) == _is_subgyrogroup_by_definition(t, H), H.tolist()


def test_subgyrogroup_calls_need_two_sided_inverses():
    # 2 + 3 = 0 but 3 + 2 = 1, so 2 has no two-sided inverse; {0} is still
    # closed under the operation
    t = CayleyTable(LATIN5)
    with pytest.raises(AxiomViolationError, match="'2' has 0 two-sided inverses"):
        enumerate_subgyrogroups(t)
    for call in (is_L_subgyrogroup, coset_partition):
        with pytest.raises(AxiomViolationError, match="'2' has 0 two-sided inverses"):
            call(t, [0])


def test_is_L_subgyrogroup_requires_subgyrogroup():
    with pytest.raises(AxiomViolationError):
        is_L_subgyrogroup(cyclic_table(4), [0, 1])


def test_coset_partition_z4():
    blocks, pi = coset_partition(cyclic_table(4), [0, 2])
    assert blocks == [(0, 2), (1, 3)]
    assert pi.tolist() == [0, 1, 0, 1]


def test_coset_partition_s3_subgroups():
    t = s3_table()
    for s in enumerate_subgyrogroups(t):
        if not s.is_L_subgyrogroup:
            continue
        blocks, pi = coset_partition(t, s.elements)
        assert sorted(i for b in blocks for i in b) == list(range(6))
        assert {len(b) for b in blocks} == {len(s.elements)}


def test_coset_partition_rejects_non_invariant():
    with pytest.raises(AxiomViolationError):
        coset_partition(cyclic_table(4), [0, 1])
    with pytest.raises(AxiomViolationError, match="all-pivot invariance"):
        coset_partition(CayleyTable(G8), [0, 5])


def test_cosets_check_the_subgyrogroup_once(monkeypatch):
    import gyrokit.tables as tables

    calls = []
    real = tables._closed_under
    monkeypatch.setattr(tables, "_closed_under", lambda *a: calls.append(1) or real(*a))
    report = tables.check_cosets(cyclic_table(6), [0, 3])
    assert report.passed and len(calls) == 1
    assert report.notes["blocks"] == [["0", "3"], ["1", "4"], ["2", "5"]]


# -- products ------------------------------------------------------------------


def test_product_z2_z2_is_klein():
    p = product_table(cyclic_table(2), cyclic_table(2))
    assert np.array_equal(p.table, klein_table().table)
    assert p.labels[1] == "(0,1)"


# -- search --------------------------------------------------------------------


# |Aut(G)| of each group of orders 1 to 6: the trivial group; Z2; Z3; Z4
# and Z2^2; Z5; Z6 and S3
GROUP_AUTOMORPHISMS = {1: [1], 2: [1], 3: [2], 4: [2, 6], 5: [4], 6: [2, 6]}


def test_search_counts_match_small_order_classification():
    # orders below 8 admit only the classical group structures; counts
    # verified against the exhaustive validator at freeze time
    canonical = [len(search_gyrogroups(k)) for k in range(1, 7)]
    assert canonical == [1, 1, 1, 2, 1, 2]
    raw = [len(search_gyrogroups(k, canonical_identity=False)) for k in range(1, 7)]
    assert raw == [1, 1, 1, 4, 6, 80]
    # an isomorphism of tables with identity 0 fixes 0, so a class holds
    # (n - 1)!/|Aut(G)| raw tables, and the orbits sum to the raw count
    for n, auts in GROUP_AUTOMORPHISMS.items():
        members = collections.Counter(
            _canonical_by_loop(t.table)[0] for t in search_gyrogroups(n, canonical_identity=False)
        )
        assert sorted(members.values()) == sorted(math.factorial(n - 1) // a for a in auts)


def test_search_results_all_valid_and_associative():
    for k in range(1, 7):
        for t in search_gyrogroups(k):
            assert validate_table(t).passed
            assert t.is_associative()  # no non-group structures this small


def _orbit_by_loop(T):
    """Every identity-fixing relabeling of the table, one permutation at a
    time, keyed by its uint8 bytes: the reference for the search's orbits."""
    n = T.shape[0]
    orbit = {}
    for rest in itertools.permutations(range(1, n)):
        perm = np.array((0,) + rest)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        relab = perm[T[np.ix_(inv, inv)]]
        orbit.setdefault(relab.astype(np.uint8).tobytes(), relab)
    return orbit


def _canonical_by_loop(T):
    """The least relabeling of :func:`_orbit_by_loop` by uint8 bytes, as
    (bytes, table): the reference canonical form."""
    orbit = _orbit_by_loop(T)
    best = min(orbit)
    return best, orbit[best]


def _iso(a, b):
    return _canonical_by_loop(a)[0] == _canonical_by_loop(b)[0]


def test_search_canonical_is_relabel_invariant():
    # order 4: Z4 and Klein appear, whichever relabeling the search emits
    found = search_gyrogroups(4)
    assert len({t.table.tobytes() for t in found}) == 2
    assert any(_iso(t.table, klein_table().table) for t in found)
    assert any(_iso(t.table, cyclic_table(4).table) for t in found)
    # a relabeled Z4 canonicalizes to the same class representative
    z4 = cyclic_table(4).relabel([0, 3, 2, 1])
    assert _iso(z4.table, cyclic_table(4).table)


def test_search_deduplicates_isomorphs():
    # every raw order-5 hit collapses to the single cyclic class
    raw = search_gyrogroups(5, canonical_identity=False)
    assert len(raw) == 6
    target = _canonical_by_loop(cyclic_table(5).table)[0]
    assert all(_canonical_by_loop(t.table)[0] == target for t in raw)


def test_search_max_results():
    got = search_gyrogroups(6, max_results=1)
    assert len(got) == 1


def _assert_first_k_tables(canonical_identity, k):
    for n in range(1, 7):
        everything = search_gyrogroups(n, canonical_identity)
        got = search_gyrogroups(n, canonical_identity, max_results=k)
        assert [(t.table.tobytes(), t.name, t.table.dtype) for t in got] == [
            (t.table.tobytes(), t.name, t.table.dtype) for t in everything[:k]
        ]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_search_max_results_takes_k_of_the_raw_tables(k):
    _assert_first_k_tables(False, k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_search_max_results_takes_k_of_the_canonical_tables(k):
    _assert_first_k_tables(True, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_search_canonical_tables_are_the_least_forms_of_the_raw_tables(n):
    forms = {_canonical_by_loop(t.table)[0] for t in search_gyrogroups(n, canonical_identity=False)}
    found = search_gyrogroups(n)
    assert [t.table.astype(np.uint8).tobytes() for t in found] == sorted(forms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_search_matches_brute_force_over_every_reduced_square(n):
    # no inverse prune and no stacked filter: every reduced Latin square,
    # kept when the exhaustive validator passes it
    valid = sorted(
        np.array(sq, dtype=np.uint8).tobytes()
        for sq in _reduced_latin_squares(n)
        if validate_table(CayleyTable(sq)).passed
    )
    found = search_gyrogroups(n, canonical_identity=False)
    assert [t.table.astype(np.uint8).tobytes() for t in found] == valid
    assert [t.name for t in found] == [f"search{n}_{i}" for i in range(len(found))]


def _inverse_symmetric_squares(n):
    """Every reduced Latin square of order n, identity 0, with x + y = 0
    exactly when y + x = 0, each as a flat list of its n * n entries, in
    lexicographic order: the reference for order 6, where
    _reduced_latin_squares is too slow.

    Backtracks row by row, left to right, with one bitmask of used values
    per row and per column; a cell takes its free values lowest bit first,
    so in ascending order. At cell (r, c) with c < r, row c is complete,
    so r + c must be 0 if c + r is, and must not be 0 otherwise.
    """
    T = [list(range(n))] + [[r] + [0] * (n - 1) for r in range(1, n)]
    row_used = [1 << r for r in range(n)]
    col_used = [1 << c for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    every = (1 << n) - 1

    def fill(k):
        if k == len(cells):
            yield [v for row in T for v in row]
            return
        r, c = cells[k]
        free = every & ~(row_used[r] | col_used[c])
        if c < r:
            free &= 1 if T[c][r] == 0 else ~1
        while free:
            bit = free & -free
            free ^= bit
            T[r][c] = bit.bit_length() - 1
            row_used[r] |= bit
            col_used[c] |= bit
            yield from fill(k + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit

    yield from fill(0)


def test_reference_inverse_prune_keeps_exactly_the_inverse_symmetric_squares():
    for n in range(1, 6):
        want = [
            sum(sq, []) for sq in _reduced_latin_squares(n)
            if all((sq[x][y] == 0) == (sq[y][x] == 0) for x in range(n) for y in range(n))
        ]
        assert list(_inverse_symmetric_squares(n)) == want
    assert sum(1 for _ in _inverse_symmetric_squares(6)) == 1808


def _zeros_at(flat, n, inv):
    return all(flat[x * n + inv[x]] == 0 for x in range(n))


def _involution(n, k):
    inv = list(range(n))
    for a in range(1, 2 * k, 2):
        inv[a], inv[a + 1] = a + 1, a
    return inv


def _latin_involution_squares(n, k):
    """The cell-by-cell Latin fill that the row fill replaced, the
    reference: every reduced Latin square of order n, identity 0, whose
    inverse map is the involution (1 2)(3 4)...(2k-1 2k), each a flat
    list of its n * n entries, in lexicographic order.

    The zeros sit at (x, inv[x]) before the fill starts. The fill
    backtracks over the other cells of rows and columns 1..n-1, row by row,
    left to right, with one bitmask of used values per row and per column;
    a cell takes its free values lowest bit first, so in ascending order.
    """
    inv = _involution(n, k)
    T = [list(range(n))] + [[r] + [0] * (n - 1) for r in range(1, n)]
    row_used = [1 << r | 1 for r in range(n)]  # bit 0: the zero placed in row r
    col_used = [1 << c | 1 for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n) if c != inv[r]]
    every = (1 << n) - 1
    squares = []

    def fill(i):
        if i == len(cells):
            squares.append([v for row in T for v in row])
            return
        r, c = cells[i]
        free = every & ~(row_used[r] | col_used[c])
        while free:
            bit = free & -free
            free ^= bit
            T[r][c] = bit.bit_length() - 1
            row_used[r] |= bit
            col_used[c] |= bit
            fill(i + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit

    fill(0)
    return squares


def _reference_squares(n):
    """Every reduced square of order n by brute force up to order 5, and
    at order 6 the inverse-symmetric ones of the reference above."""
    if n <= 5:
        return [sum(sq, []) for sq in _reduced_latin_squares(n)]
    return list(_inverse_symmetric_squares(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_involution_fill_yields_exactly_the_reduced_squares_with_its_zeros(n):
    # the reference Latin fill, which the search must match below
    squares = _reference_squares(n)
    counts = []
    for k in range((n - 1) // 2 + 1):
        inv = _involution(n, k)
        want = [sq for sq in squares if _zeros_at(sq, n, inv)]
        assert _latin_involution_squares(n, k) == want
        counts.append(len(want))
    if n == 6:
        assert counts == [48, 56, 80]


def _is_bol_square(flat, n, inv):
    """Whether the rows L_a of a flat square satisfy L_-a = L_a^-1 and
    L_a L_b L_a = L_{a + (b + a)} for every a, b: a plain loop."""
    L = [flat[a * n:(a + 1) * n] for a in range(n)]
    for a in range(n):
        if any(L[inv[a]][L[a][x]] != x for x in range(n)):
            return False
        for b in range(n):
            c = L[a][L[b][a]]
            if any(L[a][L[b][L[a][x]]] != L[c][x] for x in range(n)):
                return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_row_fill_yields_exactly_the_bol_squares_with_its_zeros(n):
    from gyrokit.tables import _involution_squares

    squares = _reference_squares(n)
    counts = []
    for k in range((n - 1) // 2 + 1):
        inv = _involution(n, k)
        want = [sq for sq in squares if _zeros_at(sq, n, inv) and _is_bol_square(sq, n, inv)]
        assert _involution_squares(n, k) == want
        counts.append(len(want))
    if n == 5:
        assert counts == [0, 0, 2]
    if n == 6:
        assert counts == [0, 2, 4]


def _search_results(*args):
    return [(t.name, t.table.dtype, t.table.tobytes()) for t in search_gyrogroups(*args)]


@pytest.mark.parametrize("args", [(), (False,), (True, 1)], ids=["canonical", "raw", "max-1"])
def test_row_fill_search_matches_the_latin_fill_search(args, monkeypatch):
    import gyrokit.tables as tables

    for n in range(1, 7):
        got = _search_results(n, *args)
        with monkeypatch.context() as m:
            m.setattr(tables, "_involution_squares", _latin_involution_squares)
            assert _search_results(n, *args) == got


def test_row_fill_prunes_order_6_to_24_nodes(monkeypatch):
    # Two of the fill's pruning checks show only in these counts, since the
    # leaves stay the same without either: with no mask check on a forced
    # row the fill reaches 28 nodes and masks 118 rows, and with no zero
    # check it masks 146.
    import gyrokit.tables as tables

    n = 6
    search_gyrogroups(n)  # warm: every candidate list of order 6 is built
    before = tables._row_candidates.cache_info()
    masked = []
    real = tables._column_mask
    monkeypatch.setattr(tables, "_column_mask", lambda n, p: masked.append(p) or real(n, p))
    leaves = [sq for k in range((n - 1) // 2 + 1) for sq in tables._involution_squares(n, k)]
    after = tables._row_candidates.cache_info()
    assert after.misses == before.misses
    inner = after.hits - before.hits  # one call per inner node
    assert (inner, len(leaves)) == (18, 6)
    assert inner + len(leaves) == 24  # the nodes that search_gyrogroups' docstring states
    # the three roots' identity rows, and every row that settle masks
    assert len(masked) == 114


def test_row_candidates_are_the_permutations_by_first_entry_and_zero():
    from gyrokit.tables import _permutations, _row_candidates

    for n in range(1, 7):
        everything = list(itertools.permutations(range(n)))
        blocks = _permutations(n)
        assert [p for block in blocks for p in block] == everything
        assert all(p[0] == a for a, block in enumerate(blocks) for p in block)
        for a in range(n):
            for j in range(n):
                want = [p for p in everything if p[0] == a and p[j] == 0]
                candidates = _row_candidates(n, a, j)
                assert [p for p, _ in candidates] == want
                for p, mask in candidates:
                    assert mask == sum(1 << (c * n + v) for c, v in enumerate(p))


def test_identity_fixing_perms_are_the_row_fills_first_permutations():
    from gyrokit.tables import _identity_fixing_perms

    for n in range(1, 7):
        perms, invs = _identity_fixing_perms(n)
        want = np.array([(0,) + rest for rest in itertools.permutations(range(1, n))])
        assert perms.dtype == want.dtype and np.array_equal(perms, want)
        want_invs = np.argsort(want, axis=1)
        assert invs.dtype == want_invs.dtype and np.array_equal(invs, want_invs)
        assert not perms.flags.writeable and not invs.flags.writeable


def test_stacked_law_filter_matches_each_order_6_square():
    import gyrokit.core as core
    from gyrokit.tables import _stack_law_holds

    stack = np.array(list(_inverse_symmetric_squares(6))).reshape(-1, 6, 6)
    B = gyr_tensor(stack)
    assert B.shape == (len(stack), 6, 6, 6)
    step = core._KERNEL_CELLS // 6**3  # stacks that keep the law passes small
    holds = {}
    for law, arity in ((law_g4_loop, 3), (law_g3_automorphism, 4)):
        holds[law] = np.concatenate([
            _stack_law_holds(stack[k:k + step], B[k:k + step], law, arity)
            for k in range(0, len(stack), step)
        ])
    for T, Bk, g4, g3 in zip(stack, B, holds[law_g4_loop], holds[law_g3_automorphism]):
        single = gyr_tensor(T)
        assert np.array_equal(Bk, single)
        ops = _TableOps(T, single)
        assert g4 == (exact_violation(ops, 6, law_g4_loop, 3) is None)
        assert g3 == (exact_violation(ops, 6, law_g3_automorphism, 4) is None)
    assert (holds[law_g4_loop] <= holds[law_g3_automorphism]).all()
    assert not holds[law_g3_automorphism].all()
    # the survivors of both laws are exactly the search's raw tables
    survivors = stack[holds[law_g4_loop] & holds[law_g3_automorphism]]
    found = search_gyrogroups(6, canonical_identity=False)
    assert len(survivors) == len(found) == 80
    assert [T.tobytes() for T in survivors] == [t.table.tobytes() for t in found]


def test_search_filter_batches_stay_within_the_kernel_cells(monkeypatch):
    # at 30 cells one square's 6^2 tuples per first operand exceed the cap,
    # so a batch fixes the square and the first two operands and takes a
    # run of 5 values of the third
    import gyrokit.core as core
    import gyrokit.tables as tables

    batches, results = [], []

    class Recording(_TableOps):
        def oplus(self, x, y):
            results.append(np.size(r := super().oplus(x, y)))
            return r

        def gyr(self, x, y, z):
            results.append(np.size(r := super().gyr(x, y, z)))
            return r

    def recorded(law):
        def run(ops, *grids):
            # the table grid, ops._base, is one more operand of the batch
            shape = np.broadcast_shapes(ops._base.shape, *(g.shape for g in grids))
            batches.append(int(np.prod(shape)))
            return law(ops, *grids)
        return run

    def search():
        batches.clear()
        results.clear()
        return [(t.name, t.table.tobytes()) for t in search_gyrogroups(6, canonical_identity=False)]

    monkeypatch.setattr(tables, "_TableOps", Recording)
    monkeypatch.setattr(tables, "law_g4_loop", recorded(law_g4_loop))
    monkeypatch.setattr(tables, "law_g3_automorphism", recorded(law_g3_automorphism))
    whole = search()
    # one batch per law: the 6 leaves' loop law, its 6 survivors' automorphism law
    assert batches == [6 * 6**3, 6 * 6**4]
    assert max(results) <= core._KERNEL_CELLS
    monkeypatch.setattr(core, "_KERNEL_CELLS", 30)
    assert search() == whole and len(whole) == 80
    assert max(batches) == max(results) == 30
    assert sum(batches) == 6 * 6**3 + 6 * 6**4


def test_stacked_law_filter_rejects_and_accepts_per_table():
    from gyrokit.tables import _stack_law_holds

    # order 6 has no G4 survivor that fails G3, so reject one directly
    stack = np.array([LOOP5, cyclic_table(5).table])
    holds = _stack_law_holds(stack, gyr_tensor(stack), law_g3_automorphism, 4)
    assert holds.tolist() == [False, True]
    for law, arity in ((law_g4_loop, 3), (law_g3_automorphism, 4)):
        empty = _stack_law_holds(
            np.zeros((0, 6, 6), dtype=np.int64), np.zeros((0, 6, 6, 6), dtype=np.int64),
            law, arity,
        )
        assert empty.shape == (0,) and empty.dtype == bool


def test_search_filters_loop_law_survivors_by_the_automorphism_law(monkeypatch):
    # up to order 6 every loop-law survivor passes the automorphism law, so
    # let every square survive the loop law: LOOP5 must still be rejected
    import gyrokit.tables as tables

    monkeypatch.setattr(tables, "law_g4_loop", lambda ops, x, y, z: [])
    found = search_gyrogroups(5, canonical_identity=False)
    assert LOOP5 not in [t.table.tolist() for t in found]
    for t in found:
        ops = _TableOps(t.table, t.gyrations())
        assert exact_violation(ops, 5, law_g3_automorphism, 4) is None


def test_search_builds_one_gyration_tensor_per_stack(monkeypatch):
    import gyrokit.tables as tables

    calls, orbits = [], []
    real, real_orbit = tables.gyr_tensor, tables._relabelings
    monkeypatch.setattr(tables, "gyr_tensor", lambda T: calls.append(T.shape) or real(T))
    monkeypatch.setattr(tables, "_relabelings", lambda T: orbits.append(1) or real_orbit(T))
    assert len(search_gyrogroups(6)) == 2
    # the row fill's 6 leaves in one stack; all 6 pass both laws
    assert calls == [(6, 6, 6)]
    # one relabeling per class, not per survivor, in either mode
    for n, classes in ((4, 2), (5, 1), (6, 2)):
        for canonical_identity in (True, False):
            orbits.clear()
            search_gyrogroups(n, canonical_identity)
            assert len(orbits) == classes


def test_search_orbits_match_a_per_permutation_loop():
    for n in range(1, 7):
        raw = search_gyrogroups(n, canonical_identity=False)
        found = {t.table.astype(np.uint8).tobytes(): t.table for t in search_gyrogroups(n)}
        # each canonical table is the loop's least form of every raw member of its class
        for t in raw:
            blob, relab = _canonical_by_loop(t.table)
            assert found[blob].dtype == relab.dtype and np.array_equal(found[blob], relab)
        # the raw tables are the union of those classes' orbits
        orbits = [_orbit_by_loop(T) for T in found.values()]
        union = {blob: R for orbit in orbits for blob, R in orbit.items()}
        assert sum(map(len, orbits)) == len(union) == len(raw)
        for t in raw:
            want = union[t.table.astype(np.uint8).tobytes()]
            assert t.table.dtype == want.dtype and np.array_equal(t.table, want)


def test_search_order_guard():
    with pytest.raises(ResourceLimitError):
        search_gyrogroups(7)
    with pytest.raises(UsageError):
        search_gyrogroups(0)


def test_table_suites_from_package():
    import gyrokit

    assert gyrokit.check_search(4).notes["count"] == 2
    assert gyrokit.check_cosets(gyrokit.cyclic_table(6), [0, 3]).passed
    assert not gyrokit.check_cosets(gyrokit.cyclic_table(4), [0, 1]).passed
    assert gyrokit.check_subgyrogroups(gyrokit.klein_table()).notes["count"] == 5
