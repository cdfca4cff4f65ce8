"""Deterministic seeded sampling for the verification suites.

One root seed governs a whole run. Each (suite, check) pair gets its own
generator derived by hashing, so adding or reordering checks never
perturbs the samples other checks see.

Continuous carriers are sampled in the chart of ``model.radii``: rapidity
uniform on [0, t_max], direction uniform on the circle/sphere.
A check that reads nothing of a point but its rapidity, such as a radial
chain's sandwich level, draws the rapidity alone and puts the point on
the first axis (``prenorm._rapidity_ball``). A fixed 1% slice of each
operand stream is forced to the carrier boundary at distance
``boundary_margin``; distinct operands use distinct index strides so the
forced points of two operands never coincide.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, SamplingError

DEFAULT_T_MAX = 3.0
FORCED_STRIDE = 100  # every 100th sample of an operand stream is a boundary point
# rows x dim of one point stream. At this cap the law suites peak at 29-48
# bytes per such value (ru_maxrss of a CLI child, the most of three runs;
# Python 3.11, numpy 2.4, Linux): axioms 342 MiB on Mobius and 281 MiB on
# Einstein, identities 342 and 305 MiB, strong-base 456 and 418 MiB. All six
# are pinned in tests/test_metric.py.
MAX_SAMPLE_VALUES = 10_000_000
# a direction draw reads the generator this many rows at a time, and one of
# at least _SPLIT_ROWS rows turns the drawn chunks into points on a second
# thread; see ``directions``
_CHUNK_ROWS = 8192
_SPLIT_ROWS = 16384


@dataclass(frozen=True)
class ToleranceConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    boundary_margin: float = 1e-6

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.abs_tol, self.rel_tol, self.boundary_margin)):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.boundary_margin >= 1:
            raise ValueError("boundary_margin must be < 1 for ball carriers")

    def to_dict(self):
        return {
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "boundary_margin": self.boundary_margin,
        }


def derive_seed(root_seed: int, suite: str, check: str) -> int:
    digest = hashlib.sha256(f"{root_seed}|{suite}|{check}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class Sampler:
    """Root-seeded factory of per-check random generators."""

    def __init__(self, seed: int = 42):
        self.seed = int(seed)

    def stream(self, suite: str, check: str) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self.seed, suite, check))


def coldot(p, q):
    """Per-point dot product of two lists of coordinate columns.

    Bit-identical to ``np.sum(a * b, axis=-1)`` over the stacked columns
    for fewer than eight coordinates: numpy sums such a short axis left to
    right from +0.0, which the leading ``0.0 +`` reproduces (it turns an
    all -0.0 row into +0.0). Column arithmetic is several times faster
    than numpy's reduce over an axis of length 2 or 3, and the sum is
    accumulated in place, as the columns of a point share one shape.
    """
    s = 0.0 + p[0] * q[0]
    for i in range(1, len(p)):
        s += p[i] * q[i]
    return s


def rowdot(a, b):
    """Per-point dot product over the last (coordinate) axis; see ``coldot``."""
    d = a.shape[-1]
    return coldot([a[..., i] for i in range(d)], [b[..., i] for i in range(d)])


def rownorm(a):
    """Per-point Euclidean norm; bit-identical to ``np.linalg.norm(a, axis=-1)``
    for fewer than eight coordinates."""
    return np.sqrt(rowdot(a, a))


def _unit_rows(v, theta, scale):
    """Turn the drawn rows ``v`` into unit vectors times ``scale``, in place:
    (cos θ, sin θ) of the angles ``theta`` in 2-D (``v`` is then written,
    not read), otherwise each row over its norm. Returns the positions of
    the degenerate rows, those with a norm below 1e-12, which are divided
    by 1 in place of that norm and are left to be drawn again; in 2-D, an
    empty array."""
    if theta is not None:
        np.cos(theta, out=v[:, 0])
        np.sin(theta, out=v[:, 1])
        bad = np.empty(0, np.intp)
    else:
        norm = rownorm(v)
        bad = np.flatnonzero(norm < 1e-12)
        norm[bad] = 1.0
        v /= norm[:, None]
    v *= scale[:, None]
    return bad


def directions(gen: np.random.Generator, n: int, dim: int, scale) -> np.ndarray:
    """``n`` unit vectors in ``dim`` coordinates, uniform on the circle or
    sphere, as an (n, dim) array, row i multiplied by ``scale[i]``. A scale
    of ones gives the unit vectors' own bits.

    In 2-D a point is (cos θ, sin θ) of one uniform angle θ per row. Above
    2-D it is a standard normal vector over its norm, and the rare draw
    with a norm below 1e-12 is drawn again. ``standard_normal`` gives the
    bits of ``normal(size=...)`` except where a draw is exactly -0.0, which
    ``normal``'s 0.0 + 1.0·z turns into +0.0.

    The generator is read in chunks of ``_CHUNK_ROWS`` rows, in stream
    order: ``uniform(0, 2π, m)`` into one angle array in 2-D,
    ``standard_normal`` into the output's own rows above it. The chunks give
    the bits and the end state of one whole call, because each value takes
    the next outputs of the bit generator and nothing is buffered between
    calls. A draw of at least ``_SPLIT_ROWS`` rows starts one worker thread,
    to which the caller hands each chunk once it is drawn; the worker turns
    it into scaled unit vectors (``_unit_rows``) while the caller draws the
    next. After its last draw the caller turns the chunks the worker has not
    taken, then joins it, and raises what the worker raised, so a
    half-turned array is never returned (``_turn_on_worker``). Each chunk is
    turned by one thread with the same ufuncs as a serial pass, so the bits
    do not depend on which thread turned it. Smaller draws run the same
    chunks on the caller, as does a draw whose thread cannot start
    (``RuntimeError``, as under an address-space limit too tight for its
    stack). Degenerate rows are drawn again after the whole draw, in row
    order, and only they are then divided and scaled. numpy's errstate
    belongs to each thread, so the worker does not see the caller's; a
    degenerate row is divided by 1, which warns on neither. The angles share
    one array: with an array per chunk, freed on the worker, a fresh
    metrization pass took about 8,000 more minor page faults (35,700 against
    26,000-29,800).

    Medians against the whole-array draw followed by its scaling (Python
    3.11, numpy 2.4, 2 vCPUs): 3-D, 1e5 rows 5.4 against 6.5 ms and 3e5
    rows 14.2 against 19.8 ms, where the generator alone takes 4.5 and
    13.0 ms; 2-D, 1e5 rows 3.2 against 3.7 ms. The worker pays in 2-D from
    ``_SPLIT_ROWS`` = two chunks up (0.67 against 0.81 ms on the caller
    alone). In 3-D it costs 0.1 ms there and breaks even near 24,576 rows;
    the law suites' 3-D draws are of 1e5 rows, and metrization's 417-point
    draws stay on the caller.
    """
    out = np.empty((n, dim))
    theta = np.empty(n) if dim == 2 else None  # the angles, filled a chunk at a time
    bad = []  # the degenerate rows of each chunk that has any

    def draw(lo):
        # the chunk's angles in 2-D; above it the chunk is drawn in place
        if dim == 2:
            angles = theta[lo:lo + _CHUNK_ROWS]
            angles[:] = gen.uniform(0.0, 2.0 * np.pi, len(angles))
            return angles
        gen.standard_normal(out=out[lo:lo + _CHUNK_ROWS])
        return None

    def turn(lo, angles):
        hi = lo + _CHUNK_ROWS
        degenerate = _unit_rows(out[lo:hi], angles, scale[lo:hi])
        if len(degenerate):
            bad.append(lo + degenerate)

    chunks = range(0, n, _CHUNK_ROWS)
    if n < _SPLIT_ROWS or not _turn_on_worker(chunks, draw, turn):
        for lo in chunks:
            turn(lo, draw(lo))
    if bad:  # in row order, as one whole draw redraws them
        rows = np.sort(np.concatenate(bad))
        while len(rows):
            v = gen.standard_normal((len(rows), dim))
            again = _unit_rows(v, None, scale[rows])
            out[rows] = v
            rows = rows[again]
    return out


def _turn_on_worker(chunks, draw, turn):
    """``turn(lo, draw(lo))`` for each chunk start ``lo``, drawing in order on
    the caller while one worker thread turns the chunks drawn so far. After
    its last draw the caller turns the chunks the worker has not taken,
    then joins it and raises what it raised. False, having drawn nothing,
    when the thread cannot start."""
    drawn, failed = [], []  # (lo, draw(lo)) in draw order; what the worker raised
    taken, closed = 0, False  # chunks taken to be turned; the caller has drawn its last
    handoff = threading.Condition()

    def take():
        # the next drawn chunk, waiting for one until the draw is closed;
        # None once every drawn chunk is taken, or the worker failed
        nonlocal taken
        with handoff:
            while taken == len(drawn) and not closed:
                handoff.wait()
            if taken == len(drawn) or failed:
                return None
            taken += 1
            return drawn[taken - 1]

    def close():
        nonlocal closed
        with handoff:
            closed = True
            handoff.notify()

    def work():
        try:
            while (chunk := take()) is not None:
                turn(*chunk)
        except BaseException as exc:  # raised again by the caller
            failed.append(exc)

    worker = threading.Thread(target=work)
    try:
        worker.start()
    except RuntimeError:  # no thread to be had
        return False
    try:
        for lo in chunks:
            chunk = (lo, draw(lo))
            with handoff:
                drawn.append(chunk)
                handoff.notify()
        close()
        while (chunk := take()) is not None:  # the chunks the worker has not taken
            turn(*chunk)
    finally:
        close()
        worker.join()
    if failed:
        raise failed[0]
    return True


def check_sample_size(rows: int, dim: int) -> None:
    """Refuse a stream of ``rows`` points in ``dim`` coordinates before
    anything is allocated for it."""
    if rows < 1:
        raise SamplingError("sample count must be >= 1")
    if rows * dim > MAX_SAMPLE_VALUES:
        raise ResourceLimitError(
            f"{rows} samples of dimension {dim} are too large: rows x dim "
            f"may be at most {MAX_SAMPLE_VALUES}"
        )


def suite_prologue(sampler, tol, dim=None, n_samples=None, rows=None):
    """``(sampler, tol)``, ``Sampler()`` and ``ToleranceConfig()`` for None, of
    a suite before its first stream. On a carrier of ``dim`` coordinates it
    refuses a count ``n_samples`` below 1 and a largest stream of ``rows``
    points (default the count) past the cap; without ``dim`` it refuses none."""
    if dim is not None:
        if n_samples < 1:
            raise SamplingError("sample count must be >= 1")
        check_sample_size(n_samples if rows is None else rows, dim)
    return sampler or Sampler(), tol or ToleranceConfig()


def ball_points(
    gen: np.random.Generator,
    n: int,
    model,
    t_max: float = DEFAULT_T_MAX,
    margin: float | None = 1e-6,
    forced_offset: int | None = None,
) -> np.ndarray:
    """Sample n carrier points of the unit ball.

    Radii are ``model.radii`` of a uniform rapidity. When ``forced_offset``
    is given, indices forced_offset::100 are then placed at Euclidean
    distance margin from the boundary.

    The radii are computed in place in the rapidity draw, so the call
    holds no whole-stream temporary beside that draw and what it returns.
    """
    check_sample_size(n, model.dim)
    r = model.radii(gen.uniform(0.0, t_max, n))
    if forced_offset is not None:
        if margin is None or margin <= 0:
            raise SamplingError("boundary forcing requires a positive margin")
        r[forced_offset::FORCED_STRIDE] = 1.0 - margin
    return directions(gen, n, model.dim, scale=r)


def sample_operands(
    gen: np.random.Generator,
    n: int,
    model,
    k: int,
    margin: float = 1e-6,
    offset: int = 0,
) -> list:
    """Draw k operand streams of n points each from one generator.

    Operand j gets its forced-boundary points at stride offset
    (offset + j) % FORCED_STRIDE, so no sampled tuple has two operands at
    the boundary simultaneously; a second draw for the same tuples passes
    the number of operands already drawn as ``offset``.
    """
    return [
        ball_points(gen, n, model, margin=margin, forced_offset=(offset + j) % FORCED_STRIDE)
        for j in range(k)
    ]
