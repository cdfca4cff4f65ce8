"""The witness checks read their base streams through a row-repeat view.

The axiom suite's draw (``core._run_suite`` hands it to the law-row driver
``core._run_rows``) pairs each base sample of ``G3_automorphism`` and
``G4_loop`` with ``WITNESSES`` witness points. The base streams are
``core._RowRepeat`` views that read like ``np.repeat`` copies but hold
only the base rows. These tests pin that the view gives the copies' bits
for every read the law engine makes, that reports built on it equal the
reports built on the copies, and that the copies are really gone.
"""

import tracemalloc

import numpy as np
import pytest

from gyrokit import core
from gyrokit.cli import _resolve_model
from gyrokit.core import (
    WITNESSES,
    _RowRepeat,
    check_axioms,
    law_g3_automorphism,
    law_g4_loop,
    run_law_check,
)
from gyrokit.report import canonical_json
from gyrokit.sampling import Sampler, ToleranceConfig

SMALL_BLOCK = 7  # divides none of the stream lengths below, nor is it a multiple of WITNESSES
MODELS = ["mobius", "einstein", "product:mobius+einstein"]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def axiom_draw(model, n, seed):
    """The draw that the axiom suite at ``n`` samples hands the driver;
    nothing is drawn until it is called with a check's name."""
    draws = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_run_rows", lambda model, rows, draw, tol: draws.append(draw) or [])
        check_axioms(model, Sampler(seed), n_samples=n)
    return draws[0]


# -- the view reads as the repeated copy -----------------------------------------


@pytest.fixture
def base():
    return np.random.default_rng(0).random((10, 3))


def test_view_len_and_shape(base):
    view = _RowRepeat(base)
    assert len(view) == view.shape[0] == 30
    assert view.shape == np.repeat(base, WITNESSES, axis=0).shape
    assert _RowRepeat(base[:0]).shape == (0, 3)


def test_view_slices_match_the_repeated_copy(base):
    view, want = _RowRepeat(base), np.repeat(base, WITNESSES, axis=0)
    # every start and stop from before the front to past the end: starts at
    # each residue mod WITNESSES, empty and reversed slices, slices past the end
    bounds = [None, *range(-len(want) - 2, len(want) + 3)]
    for lo in bounds:
        for hi in bounds:
            assert _same_bits(view[lo:hi], want[lo:hi]), (lo, hi)
    # the blocks of run_law_check, the last one partial
    for lo in range(0, len(want), SMALL_BLOCK):
        assert _same_bits(view[lo:lo + SMALL_BLOCK], want[lo:lo + SMALL_BLOCK]), lo


def test_view_index_arrays_match_the_repeated_copy(base):
    view, want = _RowRepeat(base), np.repeat(base, WITNESSES, axis=0)
    for idx in (
        np.array([29, 0, 14, 3, 3, 28, 1, 1, 1]),  # unsorted and repeated
        np.flatnonzero(np.arange(30) % 4 == 1),  # sorted, as run_law_check's stressed rows
        np.array([-1, -2, -3, -4, -30]),  # negative
        np.array([], dtype=np.int64),
        np.array([5, 7], dtype=np.uint32),
    ):
        assert _same_bits(view[idx], want[idx]), idx
    for i in (0, 1, 2, 3, 17, 29, -1, -30, np.int64(22)):
        assert _same_bits(view[i], want[i]), i
        assert view[i].tolist() == want[i].tolist()


def test_view_refuses_reads_it_would_get_wrong(base):
    view = _RowRepeat(base)
    with pytest.raises(IndexError):
        view[::2]
    with pytest.raises(IndexError):
        view[np.ones(30, dtype=bool)]
    with pytest.raises(IndexError):
        view[30]
    with pytest.raises(IndexError):
        view[np.array([-31])]


# -- reports built on the view equal those built on the copies --------------------


@pytest.mark.parametrize("name,law,n_base,n_wit", [
    ("G3_automorphism", law_g3_automorphism, 2, 2),
    ("G4_loop", law_g4_loop, 2, 1),
], ids=["G3_automorphism", "G4_loop"])
@pytest.mark.parametrize("spec", MODELS)
def test_reports_match_the_repeated_copies(monkeypatch, spec, name, law, n_base, n_wit):
    model = _resolve_model(spec)
    n = 100
    tol0 = ToleranceConfig(abs_tol=0.0, rel_tol=0.0)
    # at seed 5 every one of these checks has its witness on a repeated row
    streams = axiom_draw(model, n, 5)(name)
    assert [type(s) for s in streams] == [_RowRepeat] * n_base + [np.ndarray] * n_wit
    copies = [np.repeat(s.base, WITNESSES, axis=0) for s in streams[:n_base]] + streams[n_base:]
    monkeypatch.setattr(core, "_LAW_BLOCK_ROWS", SMALL_BLOCK)
    want = run_law_check(model, name, law, copies, tol0)
    got = run_law_check(model, name, law, streams, tol0)
    assert not want.passed and want.samples == n * WITNESSES
    assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())
    # the witness stream's rows are distinct, so its witness row names the sample
    inputs = got.witness["inputs"]
    (row,) = [i for i, r in enumerate(copies[-1].tolist()) if r == inputs[-1]]
    assert row >= SMALL_BLOCK and row % WITNESSES  # a repeated row past the first block
    assert inputs[:n_base] == [c[row].tolist() for c in copies[:n_base]]


# -- the repeated copies are gone -----------------------------------------------


@pytest.mark.parametrize("spec", MODELS)
def test_witness_streams_hold_only_base_and_witness_rows(spec):
    model = _resolve_model(spec)
    n, d = 20_000, model.dim
    axiom_draw(model, 1, 1)("G3_automorphism")  # lazy imports and caches, untraced
    draw = axiom_draw(model, n, 1)
    tracemalloc.start()
    try:
        streams = draw("G3_automorphism")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(streams) == 4 and all(len(s) == n * WITNESSES for s in streams)
    # two base streams of n rows and two witness streams of 3n rows; the
    # np.repeat copies of the base streams held another 4n rows
    assert held <= (2 * n + 6 * n) * d * 8 + 64 * 1024
