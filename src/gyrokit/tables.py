"""Finite gyrogroups given by Cayley tables.

Everything here is exact integer work: axiom validation, the derived
permutation table, substructure enumeration, coset partitions, products
and the exhaustive small-order search. The gyrogroup laws themselves are
the generic ones of :mod:`gyrokit.core`, run on every tuple by
:func:`gyrokit.core.first_violation`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import (
    _EXHAUSTIVE_CAP,
    GyrogroupModel,
    first_violation,
    law_g3,
    law_g3_automorphism,
    law_g4_loop,
)
from .errors import (
    AxiomViolationError,
    ResourceLimitError,
    TableFormatError,
    UsageError,
)
from .report import VerificationReport, array_check, suite_report, witness_check


class CayleyTable:
    """An order-n operation table with element labels.

    Construction checks well-formedness only (shape, index range, label
    uniqueness); the axioms are a separate, exhaustive concern of
    :func:`validate_table`.
    """

    def __init__(self, table, labels=None, name: str | None = None):
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise TableFormatError(f"table must be square and nonempty, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TableFormatError("table entries must be integers")
        n = arr.shape[0]
        bad = (arr < 0) | (arr >= n)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise TableFormatError(
                f"cell ({i},{j}) value {arr[i, j]} out of range [0,{n})"
            )
        self.order = n
        self.table = arr.astype(np.int64)
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels = [str(x) for x in labels]
        if len(labels) != n:
            raise TableFormatError(f"{len(labels)} labels for order {n}")
        if len(set(labels)) != n:
            dup = sorted({x for x in labels if labels.count(x) > 1})[0]
            raise TableFormatError(f"duplicate label {dup!r}")
        self.labels = tuple(labels)
        self.name = name or f"table{n}"
        self._inv = None
        self._gyr = None

    # -- identity / inverses (discovered, not assumed) --

    def identity_candidates(self):
        n = self.order
        rng = np.arange(n)
        rows = (self.table == rng[None, :]).all(axis=1)
        cols = (self.table == rng[:, None]).all(axis=0)
        return np.flatnonzero(rows & cols)

    @property
    def identity_index(self) -> int:
        cand = self.identity_candidates()
        if len(cand) != 1:
            raise AxiomViolationError(
                f"table has {len(cand)} two-sided identities, expected exactly 1"
            )
        return int(cand[0])

    def _inverse_matrix(self) -> np.ndarray:
        """M[x, y] is True when y is a two-sided inverse of x."""
        e = self.identity_index
        return (self.table == e) & (self.table.T == e)

    @staticmethod
    def _element_without_inverse(M):
        """Index of the first element with no unique two-sided inverse, or None."""
        bad = np.flatnonzero(M.sum(axis=1) != 1)
        return int(bad[0]) if len(bad) else None

    def inverses(self) -> np.ndarray:
        """The two-sided inverse of each element, computed once."""
        if self._inv is None:
            M = self._inverse_matrix()
            x = self._element_without_inverse(M)
            if x is not None:
                raise AxiomViolationError(
                    f"element {self.labels[x]!r} has {np.count_nonzero(M[x])} "
                    "two-sided inverses"
                )
            self._inv = np.argmax(M, axis=1)
        return self._inv

    def _non_bijective_row(self):
        """Index of the first row that is not a permutation, or None."""
        srt = np.sort(self.table, axis=1)
        bad = np.flatnonzero((srt != np.arange(self.order)[None, :]).any(axis=1))
        return int(bad[0]) if len(bad) else None

    def rows_bijective(self) -> bool:
        return self._non_bijective_row() is None

    def gyrations(self) -> np.ndarray:
        """The gyration tensor ``gyr_tensor(self.table)``, computed once.

        Raises ResourceLimitError, before allocating, when the tensor is
        too large, and AxiomViolationError when a left translation is not
        a bijection, since the gyrations are then undefined.
        """
        if self._gyr is None:
            _check_tensor_size(self.order, self.name)
            row = self._non_bijective_row()
            if row is not None:
                raise AxiomViolationError(
                    f"left translation by {self.labels[row]!r} is not a bijection"
                )
            self._gyr = gyr_tensor(self.table)
        return self._gyr

    def is_associative(self) -> bool:
        T = self.table
        lhs = T[T]  # (x,y),z -> T[T[x,y],z]
        rhs = T[:, T]  # x,(y,z) -> T[x, T[y,z]]
        return bool((lhs == rhs).all())

    # -- serialization --

    def to_dict(self):
        return {
            "order": self.order,
            "elements": list(self.labels),
            "oplus": self.table.tolist(),
        }

    def relabel(self, perm) -> "CayleyTable":
        """Return the table under new indexing: new index i holds old perm[i]."""
        perm = np.asarray(perm)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.order)
        new = inv[self.table[np.ix_(perm, perm)]]
        return CayleyTable(new, [self.labels[p] for p in perm], name=self.name)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def load_table(path) -> CayleyTable:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: not valid JSON ({exc})") from exc
    return table_from_dict(raw, name=_stem(path))


def _stem(path):
    s = str(path)
    s = s.rsplit("/", 1)[-1]
    return s[:-5] if s.endswith(".json") else s


def table_from_dict(raw, name=None) -> CayleyTable:
    if not isinstance(raw, dict):
        raise TableFormatError("table file must hold a JSON object")
    for key in ("order", "elements", "oplus"):
        if key not in raw:
            raise TableFormatError(f"missing field {key!r}")
    order = raw["order"]
    if not isinstance(order, int) or order < 1:
        raise TableFormatError(f"field 'order' must be a positive integer, got {order!r}")
    elements = raw["elements"]
    if not isinstance(elements, list) or len(elements) != order:
        raise TableFormatError("field 'elements' must list exactly 'order' labels")
    rows = raw["oplus"]
    if not isinstance(rows, list) or len(rows) != order:
        raise TableFormatError("field 'oplus' must hold 'order' rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != order:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise TableFormatError(f"row {i} has {got} entries, expected {order}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TableFormatError(f"cell ({i},{j}) is not an integer: {v!r}")
            if not 0 <= v < order:
                raise TableFormatError(f"cell ({i},{j}) value {v} out of range [0,{order})")
    return CayleyTable(np.array(rows), elements, name=name)


# ---------------------------------------------------------------------------
# derived permutations


def _row_inverse(table):
    """RI with RI[a, table[a, z]] = z; rows must be permutations."""
    n = table.shape[0]
    ri = np.empty_like(table)
    rows = np.repeat(np.arange(n), n)
    ri[rows, table.ravel()] = np.tile(np.arange(n), n)
    return ri


def gyr_tensor(table: np.ndarray) -> np.ndarray:
    """B[x, y, z] = index of the gyration of (x, y) applied to z."""
    n = table.shape[0]
    ri = _row_inverse(table)
    t_yz = table
    t_x_yz = table[np.arange(n)[:, None, None], t_yz[None, :, :]]
    return ri[table[:, :, None], t_x_yz]


def _check_tensor_size(n: int, name: str):
    """Refuse an order whose n^3 gyration tensor exceeds the exhaustive cap."""
    if n**3 > _EXHAUSTIVE_CAP:
        raise ResourceLimitError(
            f"table {name} is too large: its gyration tensor would hold "
            f"{n**3} > {_EXHAUSTIVE_CAP} entries"
        )


class _TableOps:
    """A table's operation and gyration tensor as ops for the generic
    G3/G4 laws; needs no identity or inverses, unlike TableModel."""

    def __init__(self, T, B):
        self.T = T
        self.B = B

    def oplus(self, x, y):
        return self.T[x, y]

    def gyr(self, x, y, z):
        return self.B[x, y, z]


# ---------------------------------------------------------------------------
# validation


def validate_table(t: CayleyTable) -> VerificationReport:
    """Exhaustively check the axioms of a finite table; exact, tolerance-free."""
    with suite_report("table-validate", t.name) as report:
        n, T, L = t.order, t.table, t.labels

        cand = t.identity_candidates()
        e = int(cand[0]) if len(cand) == 1 else None
        witness = None if e is not None else {"identity_candidates": [L[i] for i in cand]}
        report.checks.append(witness_check("G1_unique_identity", witness))

        if e is None:
            witness = {"blocked_by": "G1_unique_identity"}
        else:
            report.notes["identity"] = L[e]
            M = t._inverse_matrix()
            x = t._element_without_inverse(M)
            witness = None if x is None else {
                "element": L[x], "two_sided_inverses": [L[y] for y in np.flatnonzero(M[x])]
            }
        report.checks.append(witness_check("G2_unique_inverses", witness))

        row = t._non_bijective_row()
        witness = None
        if row is not None:
            vals, counts = np.unique(T[row], return_counts=True)
            witness = {"row": L[row], "repeated_value": L[int(vals[counts > 1][0])]}
        report.checks.append(witness_check("left_translations_bijective", witness))

        laws = (
            ("G3_gyroassociativity", law_g3, 3,
             lambda x, y, z: {"triple": [L[x], L[y], L[z]]}),
            ("G3_automorphism", law_g3_automorphism, 4,
             lambda x, y, a, b: {"pair": [L[x], L[y]], "arguments": [L[a], L[b]]}),
            ("G4_loop", law_g4_loop, 3,
             lambda x, y, z: {"pair": [L[x], L[y]], "argument": L[z]}),
        )
        if row is not None:
            for name, _, _, _ in laws:
                report.checks.append(
                    witness_check(name, {"blocked_by": "left_translations_bijective"})
                )
            return report

        B = t.gyrations()
        report.notes["all_gyrations_identity"] = bool((B == np.arange(n)).all())
        ops = _TableOps(T, B)
        for name, law, arity, witness in laws:
            bad = first_violation(ops, n, law, arity)
            report.checks.append(witness_check(name, None if bad is None else witness(*bad[0])))
    return report


# ---------------------------------------------------------------------------
# the finite model plugged into the generic suites


class TableModel(GyrogroupModel):
    """Adapter exposing a Cayley table to the sampling-free exact suites."""

    is_exact = True

    def __init__(self, t: CayleyTable):
        self.source = t
        self.order = t.order
        self.labels = t.labels
        self.name = t.name
        self._T = t.table
        self._e = t.identity_index
        self._inv = t.inverses()
        self._B = t.gyrations() if t.rows_bijective() else None
        self.has_closed_gyr = self._B is not None

    def oplus(self, x, y):
        return self._T[x, y]

    def neg(self, x):
        return self._inv[x]

    def zero_like(self, x):
        return np.full_like(np.asarray(x), self._e)

    def gyr(self, x, y, z):
        if self._B is None:
            raise AxiomViolationError("gyrations undefined: left translations not bijective")
        return self._B[x, y, z]


# ---------------------------------------------------------------------------
# substructures


@dataclass(frozen=True)
class SubgyrogroupSet:
    elements: tuple
    is_L_subgyrogroup: bool = False

    def __len__(self):
        return len(self.elements)


def _closed_under(t: CayleyTable, B, H: np.ndarray) -> bool:
    inH = np.zeros(t.order, dtype=bool)
    inH[H] = True
    if not inH[t.table[np.ix_(H, H)]].all():
        return False
    if not inH[t.inverses()[H]].all():
        return False
    # gyration restriction must fix H setwise for pivots inside H
    return bool(inH[B[np.ix_(H, H, H)]].all())


def _is_L(t: CayleyTable, B, H: np.ndarray) -> bool:
    inH = np.zeros(t.order, dtype=bool)
    inH[H] = True
    return bool(inH[B[:, H][:, :, H]].all())


def _closure(t: CayleyTable, B, seed) -> frozenset:
    T = t.table
    inv = t.inverses()
    cur = set(seed) | {t.identity_index}
    while True:
        arr = np.fromiter(cur, dtype=np.int64)
        new = set(T[np.ix_(arr, arr)].ravel().tolist())
        new |= set(inv[arr].tolist())
        new |= set(B[np.ix_(arr, arr, arr)].ravel().tolist())
        if new <= cur:
            return frozenset(cur)
        cur |= new


def enumerate_subgyrogroups(t: CayleyTable) -> list:
    """All subsets that carry the induced structure, flagged for the
    strong (all-pivot) invariance property.

    Closure growth: starting from the closure of the identity, every
    subgyrogroup found is grown by each element it lacks and closed again
    under the operation, inverses and its own gyrations. Every
    subgyrogroup H is reached this way, by adding the elements of H one at
    a time, since each closure stays inside H.
    """
    B = t.gyrations()
    frontier = {_closure(t, B, [])}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for H in frontier:
            for g in range(t.order):
                if g in H:
                    continue
                grown = _closure(t, B, H | {g})
                if grown not in seen:
                    seen.add(grown)
                    nxt.add(grown)
        frontier = nxt

    out = []
    for elems in sorted((tuple(sorted(H)) for H in seen), key=lambda h: (len(h), h)):
        out.append(SubgyrogroupSet(elems, _is_L(t, B, np.array(elems))))
    return out


def is_L_subgyrogroup(t: CayleyTable, H) -> bool:
    """Whether every gyration of the ambient table, with second pivot in
    H, maps H onto itself. Requires H to be a subgyrogroup."""
    elems = tuple(sorted(H))
    arr = np.array(elems, dtype=np.int64)
    B = t.gyrations()
    if not _closed_under(t, B, arr):
        raise AxiomViolationError(f"{list(elems)} is not a subgyrogroup")
    return _is_L(t, B, arr)


def coset_partition(t: CayleyTable, H):
    """Left cosets a + H as a partition, plus the projection index map.

    Only available when H has the strong invariance property; otherwise
    the blocks may overlap and the call refuses.
    """
    elems = tuple(sorted(H))
    if not is_L_subgyrogroup(t, elems):
        raise AxiomViolationError(
            f"{list(elems)} lacks the all-pivot invariance property; "
            "cosets are not guaranteed to partition the carrier"
        )
    arr = np.array(elems, dtype=np.int64)
    n = t.order
    blocks = []
    index_of = {}
    pi = np.full(n, -1)
    for a in range(n):
        coset = tuple(sorted(set(t.table[a, arr].tolist())))
        if coset not in index_of:
            index_of[coset] = len(blocks)
            blocks.append(coset)
        pi[a] = index_of[coset]
    sizes = {len(b) for b in blocks}
    covered = sorted(x for b in blocks for x in b)
    if sizes != {len(arr)} or covered != list(range(n)):
        raise AxiomViolationError("cosets failed to partition the carrier")
    return blocks, pi


# ---------------------------------------------------------------------------
# products


def product_table(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    na, nb = a.order, b.order
    ia, ja = np.divmod(np.arange(na * nb), nb)
    ta = a.table[np.ix_(ia, ia)]
    tb = b.table[np.ix_(ja, ja)]
    table = ta * nb + tb
    labels = [f"({a.labels[i]},{b.labels[j]})" for i, j in zip(ia, ja)]
    return CayleyTable(table, labels, name=f"product({a.name},{b.name})")


# ---------------------------------------------------------------------------
# built-in tables


def cyclic_table(n: int) -> CayleyTable:
    idx = np.arange(n)
    return CayleyTable((idx[:, None] + idx[None, :]) % n, name=f"z{n}")


def klein_table() -> CayleyTable:
    idx = np.arange(4)
    return CayleyTable(idx[:, None] ^ idx[None, :], name="klein")


def s3_table() -> CayleyTable:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.empty((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(3))]
    labels = ["".join(str(v) for v in p) for p in perms]
    return CayleyTable(table, labels, name="s3")


def builtin_table(name: str) -> CayleyTable:
    name = name.lower()
    if name == "klein":
        return klein_table()
    if name == "s3":
        return s3_table()
    if name.startswith("z") and name[1:].isdigit() and int(name[1:]) >= 1:
        n = int(name[1:])
        _check_tensor_size(n, name)
        return cyclic_table(n)
    raise UsageError(f"unknown built-in table {name!r}")


BUILTIN_TABLE_NAMES = ("z1", "z2", "z3", "z4", "z5", "z6", "klein", "s3")


# ---------------------------------------------------------------------------
# exhaustive search


def _axioms_hold(T: np.ndarray) -> bool:
    """Fast exact validity test for a reduced Latin square with identity 0."""
    n = T.shape[0]
    right = np.argmax(T == 0, axis=1)  # the one y with x + y = 0 in row x
    if (T[right, np.arange(n)] != 0).any():
        return False
    ops = _TableOps(T, gyr_tensor(T))
    # the n^3 loop law goes first: at order 6 it rejects all but 80 of the
    # 1,808 squares with inverses, so the n^4 automorphism law rarely runs
    return (
        first_violation(ops, n, law_g4_loop, 3) is None
        and first_violation(ops, n, law_g3_automorphism, 4) is None
    )


def _canonical_bytes(T: np.ndarray):
    """Minimal relabeling (identity fixed at 0) of the table, as bytes."""
    n = T.shape[0]
    best = None
    best_perm = None
    for rest in itertools.permutations(range(1, n)):
        perm = np.array((0,) + rest)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        relab = perm[T[np.ix_(inv, inv)]]
        blob = relab.astype(np.uint8).tobytes()
        if best is None or blob < best:
            best = blob
            best_perm = relab
    return best, best_perm


def search_gyrogroups(order: int, canonical_identity: bool = True, max_results=None):
    """Every valid operation table of the given order, identity at 0.

    Backtracks over reduced Latin squares, validates each exactly, and
    (by default) deduplicates up to identity-fixing relabeling,
    returning canonical representatives sorted by their serialized
    form. With ``canonical_identity=False`` every valid reduced square
    is returned without deduplication. Deterministic.
    """
    if order < 1:
        raise UsageError("order must be >= 1")
    if order > 6:
        raise ResourceLimitError("exhaustive search is supported for order <= 6")
    n = order
    results = []
    seen = set()

    T = np.zeros((n, n), dtype=np.int64)
    T[0] = np.arange(n)
    T[:, 0] = np.arange(n)
    col_used = [set([j]) if j else set(range(n)) for j in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def backtrack(k):
        if max_results is not None and len(results) >= max_results:
            return
        if k == len(cells):
            if not _axioms_hold(T):
                return
            if not canonical_identity:
                results.append(CayleyTable(T.copy(), name=f"search{n}_{len(results)}"))
                return
            blob, relab = _canonical_bytes(T)
            if blob not in seen:
                seen.add(blob)
                results.append(CayleyTable(relab, name=f"search{n}_{len(results)}"))
            return
        r, c = cells[k]
        row_used = set(T[r, :c])
        for v in range(n):
            if v in row_used or v in col_used[c]:
                continue
            T[r, c] = v
            col_used[c].add(v)
            backtrack(k + 1)
            col_used[c].remove(v)
            if max_results is not None and len(results) >= max_results:
                return
        T[r, c] = 0

    backtrack(0)
    results.sort(key=lambda t: t.table.astype(np.uint8).tobytes())
    for i, t in enumerate(results):
        t.name = f"search{n}_{i}"
    return results


# ---------------------------------------------------------------------------
# suites over tables


def check_search(order: int, max_results=None) -> VerificationReport:
    """Search every table of ``order`` and validate each one found."""
    with suite_report("search", f"order{order}") as report:
        found = search_gyrogroups(order, max_results=max_results)
        ok = all(validate_table(t).passed for t in found)
        report.checks.append(array_check("all_candidates_valid", float(not ok), ok, len(found)))
        report.notes["count"] = len(found)
        report.notes["tables"] = [t.to_dict() for t in found]
    return report


def check_subgyrogroups(t: CayleyTable) -> VerificationReport:
    """List every subgyrogroup of a table, flagged for all-pivot invariance."""
    with suite_report("subgyrogroups", t.name) as report:
        subs = enumerate_subgyrogroups(t)
        report.checks.append(witness_check("enumeration"))
        report.notes["count"] = len(subs)
        report.notes["subgyrogroups"] = [
            {
                "elements": [t.labels[i] for i in s.elements],
                "indices": list(s.elements),
                "invariant_under_all_gyrations": s.is_L_subgyrogroup,
            }
            for s in subs
        ]
    return report


def check_cosets(t: CayleyTable, subgyrogroup) -> VerificationReport:
    """Check that the given indices form a subgyrogroup invariant under
    every gyration, and that its left cosets partition the carrier."""
    H = sorted(set(subgyrogroup))
    if not H or H[0] < 0 or H[-1] >= t.order:
        raise UsageError(f"subgyrogroup indices must lie in [0,{t.order}), got {H}")
    with suite_report("cosets", t.name) as report:
        try:
            is_l = is_L_subgyrogroup(t, H)
        except AxiomViolationError as exc:
            report.checks.append(witness_check("is_subgyrogroup", {"error": str(exc)}))
            return report
        report.checks.append(witness_check("is_subgyrogroup"))
        report.checks.append(
            array_check("invariant_under_all_gyrations", float(not is_l), is_l, "exhaustive")
        )
        if not is_l:
            return report
        blocks, pi = coset_partition(t, H)
        sizes = sorted({len(b) for b in blocks})
        report.checks.append(array_check("equal_block_sizes", 0.0, sizes == [len(H)], "exhaustive"))
        covered = sorted(i for b in blocks for i in b)
        report.checks.append(
            array_check("disjoint_cover", 0.0, covered == list(range(t.order)), "exhaustive")
        )
        report.notes["blocks"] = [[t.labels[i] for i in b] for b in blocks]
        report.notes["projection"] = pi.tolist()
    return report
