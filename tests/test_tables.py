import itertools
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


def test_search_counts_match_small_order_classification():
    # orders below 8 admit only the classical group structures; counts
    # verified against the exhaustive validator at freeze time
    canonical = [len(search_gyrogroups(k)) for k in range(1, 7)]
    assert canonical == [1, 1, 1, 2, 1, 2]
    raw = [len(search_gyrogroups(k, canonical_identity=False)) for k in range(1, 7)]
    assert raw == [1, 1, 1, 4, 6, 80]


def test_search_results_all_valid_and_associative():
    for k in range(1, 7):
        for t in search_gyrogroups(k):
            assert validate_table(t).passed
            assert t.is_associative()  # no non-group structures this small


def _canonical(table):
    from gyrokit.tables import _canonical_bytes

    return _canonical_bytes(table)


def _iso(a, b):
    return _canonical(a)[0] == _canonical(b)[0]


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
    target = _canonical(cyclic_table(5).table)[0]
    assert all(_canonical(t.table)[0] == target for t in raw)


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
    forms = {_canonical(t.table)[0] for t in search_gyrogroups(n, canonical_identity=False)}
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_involution_fill_yields_exactly_the_reduced_squares_with_its_zeros(n):
    from gyrokit.tables import _involution_squares

    # brute force up to order 5; at order 6 the reference above
    squares = (
        [sum(sq, []) for sq in _reduced_latin_squares(n)] if n <= 5
        else list(_inverse_symmetric_squares(n))
    )
    counts = []
    for k in range((n - 1) // 2 + 1):
        inv = list(range(n))
        for a in range(1, 2 * k, 2):
            inv[a], inv[a + 1] = a + 1, a
        want = [sq for sq in squares if _zeros_at(sq, n, inv)]
        assert list(_involution_squares(n, k)) == want
        counts.append(len(want))
    if n == 6:
        assert counts == [48, 56, 80]


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

    calls, forms = [], []
    real, real_forms = tables.gyr_tensor, tables._canonical_bytes
    monkeypatch.setattr(tables, "gyr_tensor", lambda T: calls.append(T.shape) or real(T))
    monkeypatch.setattr(tables, "_canonical_bytes", lambda T: forms.append(1) or real_forms(T))
    assert len(search_gyrogroups(6)) == 2
    # 184 squares in one stack; 6 of them pass both laws
    assert calls == [(184, 6, 6)]
    assert len(forms) == 6


def _canonical_by_loop(T):
    """The relabeling search one permutation at a time, the reference."""
    n = T.shape[0]
    best = best_relab = None
    for rest in itertools.permutations(range(1, n)):
        perm = np.array((0,) + rest)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        relab = perm[T[np.ix_(inv, inv)]]
        blob = relab.astype(np.uint8).tobytes()
        if best is None or blob < best:
            best, best_relab = blob, relab
    return best, best_relab


def test_canonical_bytes_matches_a_per_permutation_loop():
    from gyrokit.tables import _canonical_bytes

    tables = [t.table for n in (5, 6) for t in search_gyrogroups(n, canonical_identity=False)]
    tables += [np.array(sq) for sq in _reduced_latin_squares(5)]
    assert len(tables) == 6 + 80 + 56
    for T in tables:
        blob, relab = _canonical_bytes(T)
        want_blob, want_relab = _canonical_by_loop(T)
        assert blob == want_blob
        assert relab.dtype == want_relab.dtype and np.array_equal(relab, want_relab)


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
