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
# rows x dim of one point stream. At this cap the law suites peak at 34-48
# bytes per such value (ru_maxrss of a CLI child, the most of three runs;
# Python 3.11, numpy 2.4, Linux): axioms 342 MiB on Mobius and 325 MiB on
# Einstein, identities 342 and 342 MiB, strong-base 456 and 418 MiB. All six
# are pinned in tests/test_metric.py.
MAX_SAMPLE_VALUES = 10_000_000
# a 2-D direction draw of at least this many rows computes its cosines on a
# second thread; see ``directions``
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


def directions(gen: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` unit vectors in ``dim`` coordinates, uniform on the circle or
    sphere, as an (n, dim) array.

    In 2-D a point is (cos θ, sin θ) of one uniform angle θ per row. A draw
    of at least ``_SPLIT_ROWS`` rows computes the cosines on a second
    thread while the caller computes the sines, and joins that thread
    before it returns. The bits are those of the two calls made one after
    the other: each ufunc writes its own column from the same angles, and
    numpy releases the GIL inside both. Smaller draws make the two calls
    in turn, as does a draw whose thread cannot start (``RuntimeError``,
    as under an address-space limit too tight for its stack). The split
    pays from about 8,000 rows up (Python 3.11, numpy 2.4, 2 vCPUs): at
    1e3 rows it costs 0.12 against 0.02 ms serial, at 1e5 rows it saves
    1.4 of 3.4 ms. ``_SPLIT_ROWS`` stays above that break-even, so
    metrization's 417-point draws stay serial.

    Above 2-D a point is a standard normal vector over its norm, and the
    rare draw with a norm below 1e-12 is drawn again. ``standard_normal``
    gives the bits of ``normal(size=...)`` except where a draw is exactly
    -0.0, which ``normal``'s 0.0 + 1.0·z turns into +0.0.
    """
    if dim == 2:
        theta = gen.uniform(0.0, 2.0 * np.pi, n)
        out = np.empty((n, 2))
        cos = None
        if n >= _SPLIT_ROWS:
            cos = threading.Thread(target=np.cos, args=(theta,), kwargs={"out": out[:, 0]})
            try:
                cos.start()
            except RuntimeError:  # no thread to be had; compute in turn
                cos = None
        if cos is None:
            np.cos(theta, out=out[:, 0])
        np.sin(theta, out=out[:, 1])
        if cos is not None:
            cos.join()
        return out
    v = gen.standard_normal((n, dim))
    norm = rownorm(v)
    # resample the (measure-zero) degenerate draws rather than dividing by ~0
    bad = norm < 1e-12
    while bad.any():
        v[bad] = gen.standard_normal((int(bad.sum()), dim))
        norm = rownorm(v)
        bad = norm < 1e-12
    v /= norm[:, None]
    return v


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
    d = directions(gen, n, model.dim)
    d *= r[:, None]
    return d


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
