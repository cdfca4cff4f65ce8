"""Deterministic seeded sampling for the verification suites.

One root seed governs a whole run. Each (suite, check) pair gets its own
generator derived by hashing, so adding or reordering checks never
perturbs the samples other checks see.

Continuous carriers are sampled in (rapidity, direction) coordinates:
rapidity uniform on [0, t_max], direction uniform on the circle/sphere.
A fixed 1% slice of each operand stream is forced to the carrier
boundary at distance ``boundary_margin``; distinct operands use distinct
index strides so the forced points of two operands never coincide.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, SamplingError

DEFAULT_T_MAX = 3.0
FORCED_STRIDE = 100  # every 100th sample of an operand stream is a boundary point
# rows x dim of one point stream. At this cap the law suites peak at 50-90
# bytes per such value (ru_maxrss, numpy 2.4): axioms 518 MiB on Mobius and
# 486 MiB on Einstein, identities 691 and 596 MiB, strong-base 844 and 673 MiB.
MAX_SAMPLE_VALUES = 10_000_000


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
    than numpy's reduce over an axis of length 2 or 3.
    """
    s = 0.0 + p[0] * q[0]
    for i in range(1, len(p)):
        s = s + p[i] * q[i]
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
    if dim == 2:
        theta = gen.uniform(0.0, 2.0 * np.pi, n)
        out = np.empty((n, 2))
        np.cos(theta, out=out[:, 0])
        np.sin(theta, out=out[:, 1])
        return out
    v = gen.normal(size=(n, dim))
    norm = rownorm(v)
    # resample the (measure-zero) degenerate draws rather than dividing by ~0
    bad = norm < 1e-12
    while bad.any():
        v[bad] = gen.normal(size=(int(bad.sum()), dim))
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


def ball_points(
    gen: np.random.Generator,
    n: int,
    dim: int,
    bound: float = 1.0,
    t_max: float = DEFAULT_T_MAX,
    margin: float | None = 1e-6,
    forced_offset: int | None = None,
) -> np.ndarray:
    """Sample n carrier points of a radius-``bound`` ball.

    Radii are tanh of a uniform rapidity. When ``forced_offset`` is given,
    indices forced_offset::100 are placed at Euclidean distance
    bound*margin from the boundary.
    """
    check_sample_size(n, dim)
    rho = gen.uniform(0.0, t_max, n)
    r = np.tanh(rho)
    if forced_offset is not None:
        if margin is None or margin <= 0:
            raise SamplingError("boundary forcing requires a positive margin")
        r[forced_offset::FORCED_STRIDE] = 1.0 - margin
    d = directions(gen, n, dim)
    d *= (bound * r)[:, None]
    return d


def sample_operands(
    gen: np.random.Generator,
    n: int,
    dim: int,
    k: int,
    bound: float = 1.0,
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
        ball_points(gen, n, dim, bound, margin=margin, forced_offset=(offset + j) % FORCED_STRIDE)
        for j in range(k)
    ]
