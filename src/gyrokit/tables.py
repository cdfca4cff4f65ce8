"""Finite gyrogroups given by Cayley tables.

Everything here is exact integer work: axiom validation, the derived
permutation table, substructure enumeration, coset partitions, products
and the exhaustive small-order search. The gyrogroup laws themselves are
the generic ones of :mod:`gyrokit.core`, run on every tuple by
:func:`gyrokit.core.first_violation`. The automorphism law
gyr[x, y](a + b) = gyr[x, y]a + gyr[x, y]b sees its pivots x, y only
through the permutation gyr[x, y], so it runs once per distinct gyration
(``_TableOps.pivot_classes``; one of 4,096 pivot pairs on z64) and still
reports the lexicographically first failing tuple.

Subgyrogroups are decided by the operation alone. On a finite table with
bijective left translations, an identity and two-sided inverses, a
nonempty subset H with H + H in H is a subgyrogroup: left translation by
a in H is injective, so it permutes H, and H holds the identity and the
inverse of a; and gyr[a, b]c, the unique w with (a + b) + w =
a + (b + c), lies in H for a, b, c in H.

The same argument gives the right-coset lemma that the enumeration
rests on: on such a table, for a subgyrogroup H, an element g and h in
H, the closure of H and h + g equals the closure of H and g. The closure
S of H and g holds h + g, so it holds the closure S' of H and h + g.
S' is finite and closed and holds h, so left translation by h, being
injective, permutes S'; the one element it maps to h + g, which is g,
lies in S', so S' holds S. One closure thus serves the whole right coset
H + g.

The search fills a table one whole row at a time, not cell by cell.
Write L_a for the left translation x -> a + x, row a of the table. Every
gyrogroup is a left Bol loop with the left inverse property (Burn,
*Finite Bol loops*, 1978; Foguel and Ungar, J. Group Theory 3, 2000):
L_-a = L_a^-1 and L_a L_b L_a = L_{a + (b + a)}. So each chosen row fixes
its inverse's row and, with every row already there, two more rows, and
a conflict prunes the branch before the table is complete. Every
gyrogroup table meets no conflict on the way to its own rows, so each
class is still found. At order 6 the fill reaches 24 nodes and returns 6
leaves.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _EXHAUSTIVE_CAP,
    AXIOM_CHECKS,
    GyrogroupModel,
    _batches,
    exhaustive_law_checks,
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

    def _check_gyrations(self):
        """Raise ResourceLimitError when the gyration tensor would be too
        large, and AxiomViolationError when a left translation is not a
        bijection, since the gyrations are then undefined; allocates no
        tensor."""
        _check_tensor_size(self.order, self.name)
        row = self._non_bijective_row()
        if row is not None:
            raise AxiomViolationError(
                f"left translation by {self.labels[row]!r} is not a bijection"
            )

    def gyrations(self) -> np.ndarray:
        """The gyration tensor ``gyr_tensor(self.table)``, computed once,
        after :meth:`_check_gyrations`."""
        if self._gyr is None:
            self._check_gyrations()
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
    except ValueError as exc:  # not JSON, not UTF-8, or an integer of too many digits
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
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
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
    """RI with RI[..., a, table[..., a, z]] = z; rows must be permutations."""
    ri = np.empty_like(table)
    z = np.broadcast_to(np.arange(table.shape[-1]), table.shape)
    np.put_along_axis(ri, table, z, axis=-1)
    return ri


def gyr_tensor(table: np.ndarray) -> np.ndarray:
    """B[..., x, y, z] = index of the gyration of (x, y) applied to z, for
    one table (n, n) or for each table of a stack (..., n, n).

    B[x, y, z] = RI[x + y, x + (y + z)], both gathered from the flattened
    stack, where row a of table k starts at (k * n + a) * n.
    """
    n = table.shape[-1]
    T = table.reshape(-1, n, n)
    first_row = np.arange(len(T))[:, None, None, None] * n
    x_yz = T.reshape(-1)[(first_row + np.arange(n)[:, None, None]) * n + T[:, None]]
    B = _row_inverse(T).reshape(-1)[(first_row + T[..., None]) * n + x_yz]
    return B.reshape(table.shape + (n,))


def _check_tensor_size(n: int, name: str):
    """Refuse an order whose n^3 gyration tensor exceeds the exhaustive cap."""
    if n**3 > _EXHAUSTIVE_CAP:
        raise ResourceLimitError(
            f"table {name} is too large: its gyration tensor would hold "
            f"{n**3} > {_EXHAUSTIVE_CAP} entries"
        )


class _TableOps:
    """A table's operation and gyration tensor as ops for the generic
    G3/G4 laws; needs no identity or inverses. TableModel adds those.

    Both ops are one gather from a flat offset: x + y is entry
    (base + x) * n + y of the flattened table and gyr[x, y]z is entry
    ((base + x) * n + y) * n + z of the flattened tensor, so the index
    arrays combine into one before the gather. For a stack of tables,
    T (m, n, n) and B (m, n, n, n), ``table`` is the index grid of the
    table axis that every operand broadcasts against and base is
    table * n, so each op applies table k to the operands at k; for one
    table base is 0.
    """

    def __init__(self, T, B, table=None):
        self.n = T.shape[-1]
        self.T = T.reshape(-1)
        self.B = B.reshape(-1)
        self._base = 0 if table is None else table * self.n

    @functools.cached_property
    def pivot_classes(self):
        """The first pivot pair (x, y), in lexicographic order, of each
        distinct gyration gyr[x, y] of one table, as an (m, 2) array in
        lexicographic order: the ``pivots`` of
        :func:`~gyrokit.core.first_violation`.

        Each row B[x, y, :] is one void item of n uint16 values (the tensor
        cap keeps n <= 271), so that ``np.unique`` compares whole rows as
        bytes, far faster than ``np.unique(..., axis=0)`` on int64 rows.
        """
        n = self.n
        rows = np.ascontiguousarray(self.B.reshape(n * n, n), dtype=np.uint16)
        _, first = np.unique(rows.view(np.dtype((np.void, rows.itemsize * n))), return_index=True)
        return np.stack(np.divmod(np.sort(first), n), axis=1)

    def oplus(self, x, y):
        return self.T[(self._base + x) * self.n + y]

    def gyr(self, x, y, z):
        return self.B[((self._base + x) * self.n + y) * self.n + z]


# ---------------------------------------------------------------------------
# validation

_TABLE_LAWS = AXIOM_CHECKS[2:]  # G3 and G4, which need no identity or inverses


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

        if row is not None:
            for name, _, _, _ in _TABLE_LAWS:
                report.checks.append(
                    witness_check(name, {"blocked_by": "left_translations_bijective"})
                )
            return report

        B = t.gyrations()
        report.notes["all_gyrations_identity"] = bool((B == np.arange(n)).all())
        rows = [(name, name, range(base + wit), law, None) for name, law, base, wit in _TABLE_LAWS]
        report.checks += exhaustive_law_checks(_TableOps(T, B), L, rows)
    return report


# ---------------------------------------------------------------------------
# the finite model plugged into the generic suites


class TableModel(_TableOps, GyrogroupModel):
    """A Cayley table as a model for the sampling-free exact suites: its
    table's ops plus the identity and inverses. A table without bijective
    left translations, a unique identity or unique inverses raises
    AxiomViolationError."""

    is_exact = True
    has_closed_gyr = True

    def __init__(self, t: CayleyTable):
        # every refusal comes before the n^3 tensor is allocated
        t._check_gyrations()
        self._e = t.identity_index
        self._inv = t.inverses()
        super().__init__(t.table, t.gyrations())
        self.source = t
        self.order = t.order
        self.labels = t.labels
        self.name = t.name

    def neg(self, x):
        return self._inv[x]

    def zero_like(self, x):
        return np.full_like(np.asarray(x), self._e)


# ---------------------------------------------------------------------------
# substructures


@dataclass(frozen=True)
class SubgyrogroupSet:
    elements: tuple
    is_L_subgyrogroup: bool = False

    def __len__(self):
        return len(self.elements)


def _subset_indices(order: int, subgyrogroup) -> list:
    """The sorted distinct indices of a base subset of a carrier; a
    UsageError unless there is one and each lies in [0, order)."""
    H = sorted(set(int(i) for i in subgyrogroup))
    if not H or H[0] < 0 or H[-1] >= order:
        raise UsageError(f"subgyrogroup indices must lie in [0,{order}), got {H}")
    return H


def _closed_under(t: CayleyTable, H: np.ndarray) -> bool:
    """Whether H + H lies in H; for a nonempty H on a table with bijective
    left translations, an identity and two-sided inverses, whether H is a
    subgyrogroup (see the module docstring)."""
    inH = np.zeros(t.order, dtype=bool)
    inH[H] = True
    return bool(inH[t.table[np.ix_(H, H)]].all())


def _is_L(t: CayleyTable, B, H: np.ndarray) -> bool:
    """Whether H is an L-subgyrogroup: gyr[a, h](H) = H for every a and every h in H."""
    inH = np.zeros(t.order, dtype=bool)
    inH[H] = True
    return bool(inH[B[:, H][:, :, H]].all())


def _closure(t: CayleyTable, seed) -> frozenset:
    """The least subset that holds ``seed`` and is closed under the
    operation."""
    T = t.table
    cur = set(seed)
    while True:
        arr = np.fromiter(cur, dtype=np.int64)
        new = set(T[np.ix_(arr, arr)].ravel().tolist())
        if new <= cur:
            return frozenset(cur)
        cur |= new


def enumerate_subgyrogroups(t: CayleyTable) -> list:
    """All subsets that carry the induced structure, each flagged as an
    L-subgyrogroup or not (:func:`_is_L`).

    Closure growth: starting from the identity alone, every subgyrogroup
    H found is grown by one element g of each right coset H + g outside H
    and closed again under the operation, which makes it a subgyrogroup
    (see the module docstring). By the right-coset lemma there, each h + g
    with h in H gives the same closure as g, so after one closure the
    whole coset T[H, g] is done. Every subgyrogroup K is still reached,
    by adding elements of K one at a time: each closure stays inside K,
    and an element h + g of K that is skipped has the closure of g.

    Raises AxiomViolationError when the table lacks bijective left
    translations, a unique identity or unique two-sided inverses.
    """
    B = t.gyrations()
    t.inverses()
    T = t.table
    frontier = {frozenset({t.identity_index})}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for H in frontier:
            arr = np.fromiter(H, dtype=np.int64)
            done = np.zeros(t.order, dtype=bool)
            done[arr] = True
            for g in range(t.order):
                if done[g]:
                    continue
                done[T[arr, g]] = True
                grown = _closure(t, H | {g})
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
    H, maps H onto itself. Requires H to be a subgyrogroup and the table
    to have two-sided inverses."""
    elems = tuple(sorted(H))
    arr = np.array(elems, dtype=np.int64)
    B = t.gyrations()
    t.inverses()
    if not _closed_under(t, arr):
        raise AxiomViolationError(f"{list(elems)} is not a subgyrogroup")
    return _is_L(t, B, arr)


def _left_cosets(t: CayleyTable, H):
    """The distinct left cosets a + H, in order of first appearance, and
    the index of each element's coset; no precondition on H."""
    arr = np.array(sorted(H), dtype=np.int64)
    blocks = []
    index_of = {}
    pi = np.full(t.order, -1)
    for a in range(t.order):
        coset = tuple(sorted(set(t.table[a, arr].tolist())))
        if coset not in index_of:
            index_of[coset] = len(blocks)
            blocks.append(coset)
        pi[a] = index_of[coset]
    return blocks, pi


def coset_partition(t: CayleyTable, H):
    """Left cosets a + H as a partition, plus the projection index map.

    Only available when H is an L-subgyrogroup; otherwise the blocks may
    overlap and the call refuses.
    """
    elems = tuple(sorted(H))
    if not is_L_subgyrogroup(t, elems):
        raise AxiomViolationError(
            f"{list(elems)} lacks the all-pivot invariance property; "
            "cosets are not guaranteed to partition the carrier"
        )
    blocks, pi = _left_cosets(t, elems)
    sizes = {len(b) for b in blocks}
    covered = sorted(x for b in blocks for x in b)
    if sizes != {len(elems)} or covered != list(range(t.order)):
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


def _is_builtin_name(name: str) -> bool:
    """klein, s3 and z<n> in any case (z0 too, which builtin_table refuses)."""
    return name.lower() in ("klein", "s3") or (name[:1].lower() == "z" and name[1:].isdecimal())


def builtin_table(name: str) -> CayleyTable:
    name = name.lower()
    if name == "klein":
        return klein_table()
    if name == "s3":
        return s3_table()
    if _is_builtin_name(name) and (n := int(name[1:])) >= 1:
        _check_tensor_size(n, name)
        return cyclic_table(n)
    raise UsageError(f"unknown built-in table {name!r}")


# ---------------------------------------------------------------------------
# exhaustive search


def _stack_law_holds(stack: np.ndarray, B: np.ndarray, law, arity: int) -> np.ndarray:
    """Whether each table of a stack (m, n, n), with gyration tensors
    B (m, n, n, n), satisfies ``law`` on every tuple of ``arity``
    operands; m may be 0. The table is one more leading operand of the
    batches (``core._batches``), so all m tables run in the same batches."""
    m, n = stack.shape[:2]
    ok = np.ones(m, dtype=bool)
    for at, (table, *operands) in _batches((m,) + (n,) * arity):
        for lhs, rhs in law(_TableOps(stack, B, table), *operands):
            ok[at[0]] &= (lhs == rhs).all(axis=tuple(range(1, arity + 1)))
    return ok


def _column_mask(n: int, p) -> int:
    """The row p of an order-n table as the int with bits c * n + p(c):
    two rows repeat a value in some column exactly when their masks meet."""
    mask = 0
    for c, v in enumerate(p):
        mask |= 1 << (c * n + v)
    return mask


@functools.lru_cache(maxsize=None)
def _permutations(n: int):
    """Every permutation of range(n) as a tuple, in lexicographic order,
    split by first entry: ``_permutations(n)[a]`` holds the (n-1)! with
    p(0) = a. Built once per n and shared by every caller."""
    block = math.factorial(n - 1)
    perms = tuple(itertools.permutations(range(n)))
    return tuple(perms[a * block:(a + 1) * block] for a in range(n))


@functools.lru_cache(maxsize=None)
def _row_candidates(n: int, a: int, j: int):
    """The candidates for row a of an order-n table where -a = j: each
    permutation p of :func:`_permutations` with p(0) = a and p(j) = 0, in
    lexicographic order, paired with its :func:`_column_mask`."""
    return tuple((p, _column_mask(n, p)) for p in _permutations(n)[a] if p[j] == 0)


@functools.lru_cache(maxsize=None)
def _identity_fixing_perms(n: int):
    """Every permutation of range(n) that fixes 0, in lexicographic order,
    and the inverse of each, as two read-only ((n-1)!, n) arrays shared by
    every caller: the first block of :func:`_permutations`."""
    perms = np.array(_permutations(n)[0])
    invs = np.argsort(perms, axis=1)
    perms.flags.writeable = invs.flags.writeable = False
    return perms, invs


def _relabelings(T: np.ndarray) -> np.ndarray:
    """Every identity-fixing relabeling perm[T[inv, inv]] of the table, in
    the order of :func:`_identity_fixing_perms`, as one ((n-1)!, n, n)
    gather."""
    perms, invs = _identity_fixing_perms(T.shape[0])
    return perms[np.arange(len(perms))[:, None, None], T[invs[:, :, None], invs[:, None, :]]]


def _canonical_bytes(T: np.ndarray):
    """Minimal relabeling (identity fixed at 0) of the table, as bytes: the
    lexicographically smallest of :func:`_relabelings` as uint8 bytes."""
    relab = _relabelings(T)
    flat = relab.astype(np.uint8).reshape(len(relab), -1)
    best = np.lexsort(flat.T[::-1])[0]  # lexsort's last key is the primary one
    return flat[best].tobytes(), relab[best]


def _involution_squares(n: int, k: int):
    """The list of every reduced Latin square of order n, identity 0, whose
    inverse map is the involution (1 2)(3 4)...(2k-1 2k) and whose left
    translations L_a (row a: x -> a + x) satisfy L_-a = L_a^-1 and the Bol
    closure L_a L_b L_a = L_{a + (b + a)}, each square a flat list of its
    n * n entries, in lexicographic order.

    The fill places whole rows. Row 0 is the identity. A node fills its
    lowest unfilled row a with each candidate p of :func:`_row_candidates`
    (p(0) = a, p(-a) = 0) in turn whose column mask misses the filled rows'
    masks, then places every row that p forces: a row q placed at r forces
    row -r to be q^-1, and with each filled row s at b it forces row
    r + (b + r) to be q s q and row b + (r + b) to be s q s. The branch is
    pruned when a forced row differs from the row already there, breaks
    q(-r) = 0 or repeats a value in a column (q(0) = r holds by
    construction). Two leaves first differ in a row that some node chose,
    with every lower row shared, so the list is in lexicographic order.
    """
    inv = list(range(n))
    for a in range(1, 2 * k, 2):
        inv[a], inv[a + 1] = a + 1, a
    squares = []

    def settle(rows, used, todo):
        """Place every queued (index, row) pair and the rows each forces
        in turn: the filled rows' column mask, or None on a conflict."""
        while todo:
            r, q = todo.pop()
            if rows[r] is not None:
                if rows[r] != q:
                    return None
                continue
            if q[inv[r]]:
                return None
            mask = _column_mask(n, q)
            if used & mask:
                return None
            used |= mask
            rows[r] = q
            q_inv = [0] * n
            for c, v in enumerate(q):
                q_inv[v] = c
            todo.append((inv[r], tuple(q_inv)))
            for b, s in enumerate(rows):
                if s is not None:
                    todo.append((q[s[r]], tuple([q[s[y]] for y in q])))
                    if b != r:
                        todo.append((s[q[b]], tuple([s[q[y]] for y in s])))
        return used

    def fill(rows, used):
        if None not in rows:
            squares.append([v for row in rows for v in row])
            return
        a = rows.index(None)
        for p, mask in _row_candidates(n, a, inv[a]):
            if not used & mask:
                branch = list(rows)
                settled = settle(branch, used, [(a, p)])
                if settled is not None:
                    fill(branch, settled)

    identity = tuple(range(n))
    fill([identity] + [None] * (n - 1), _column_mask(n, identity))
    return squares


def search_gyrogroups(order: int, canonical_identity: bool = True, max_results=None):
    """Every valid operation table of the given order, identity at 0.

    The search fills only squares whose inverse map is a representative
    involution. In a gyrogroup with identity 0 the inverse map x -> -x,
    the y with x + y = 0, is an involution that fixes 0, and an
    identity-fixing relabeling sigma turns it into sigma (-) sigma^-1. Two
    involutions are conjugate exactly when they have the same number of
    2-cycles, so every isomorphism class has a member whose inverse map is
    (1 2)(3 4)...(2k-1 2k) for one k in 0..(n-1)//2.

    For each such involution the row fill of :func:`_involution_squares`
    returns the reduced Latin squares with its zeros whose rows satisfy
    the left inverse property and the Bol closure. A gyrogroup satisfies
    both, so no table of a class is lost; the Bol closure alone does not
    give the automorphism law, so the laws still decide. At order 6 the
    fill reaches 24 nodes (the three roots, one per involution, and the
    21 rows it chose that met no conflict) and 6 leaves. The leaves go in
    one stack and one tensor build through :func:`_stack_law_holds`, in
    batches within ``core._KERNEL_CELLS`` (order 6: one batch per law):
    the n^3 loop law, then the n^4 automorphism law on the loop law's
    survivors only (order 6: all 6). A reduced Latin square has an
    identity and bijective left translations, and gyroassociativity holds
    by the construction of the gyrations, so what passes both laws is
    valid, and its class is found.

    By default each class is returned once, as its canonical form
    (:func:`_canonical_bytes`). With ``canonical_identity=False`` every
    valid reduced square is returned: the union of the found classes'
    orbits under the identity-fixing relabelings. Either way the tables
    are sorted by their uint8 bytes, cut to the first ``max_results`` and
    named in that order. That is what a search returns that meets the
    reduced squares in lexicographic order and stops after
    ``max_results`` hits: relabeling keeps a square reduced and valid, so
    the first square it meets of each class is the least of the class,
    its canonical form. Deterministic.
    """
    if order < 1:
        raise UsageError("order must be >= 1")
    if order > 6:
        raise ResourceLimitError("exhaustive search is supported for order <= 6")
    n = order
    leaves = [sq for k in range((n - 1) // 2 + 1) for sq in _involution_squares(n, k)]
    stack = np.array(leaves).reshape(-1, n, n)
    B = gyr_tensor(stack)
    loop = _stack_law_holds(stack, B, law_g4_loop, 3)
    stack, B = stack[loop], B[loop]
    found = {}
    for T in stack[_stack_law_holds(stack, B, law_g3_automorphism, 4)]:
        if canonical_identity:
            blob, relab = _canonical_bytes(T)
            found[blob] = relab
        else:
            found.update((R.astype(np.uint8).tobytes(), R) for R in _relabelings(T))
    keys = sorted(found)
    if max_results is not None:
        keys = keys[:max(max_results, 0)]
    return [CayleyTable(found[blob], name=f"search{n}_{i}") for i, blob in enumerate(keys)]


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
    """List every subgyrogroup of a table, each flagged as an L-subgyrogroup or not."""
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
    """Check that the given indices form an L-subgyrogroup (the check
    ``invariant_under_all_gyrations``) whose left cosets partition the carrier."""
    H = _subset_indices(t.order, subgyrogroup)
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
        # H was checked once above; coset_partition would check it again
        blocks, pi = _left_cosets(t, H)
        sizes = sorted({len(b) for b in blocks})
        report.checks.append(array_check("equal_block_sizes", 0.0, sizes == [len(H)], "exhaustive"))
        covered = sorted(i for b in blocks for i in b)
        report.checks.append(
            array_check("disjoint_cover", 0.0, covered == list(range(t.order)), "exhaustive")
        )
        report.notes["blocks"] = [[t.labels[i] for i in b] for b in blocks]
        report.notes["projection"] = pi.tolist()
    return report
