"""Seeded, platform-reproducible sample generators for the harness.

All randomness flows through a counter-based Philox generator keyed by
(seed, stream), so identical configurations reproduce identical samples
bit for bit on any platform.  Directions are drawn uniformly on the
sphere by normalizing standard complex Gaussians; radii are scaled to at
most ``radius_cap`` to keep conditioning bounded away from the boundary.
Ball samples have one draw routine, :func:`sample_ball_coords`: the
harness suites and ``linearize``'s check points draw (count, n)
coordinate rows, and :func:`sample_ball_point` is one row of it.  Its two
steps, each row's draws (:func:`_ball_draws`) and the normalization of the
whole stack (:func:`_scaled_rows`), are apart so that the equivariance
suite can draw each row's phases right after it.
"""

from __future__ import annotations

import numpy as np

from .domains import BallPoint, DomainPoint, type_iii_shape
from .linalg import _squared_norms

__all__ = [
    "generator",
    "sample_ball_coords",
    "sample_ball_point",
    "sample_phases",
    "sample_type_iii",
]


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ball_draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, float]:
    """One ball row's draws, in stream order: 2n normals, the real parts then
    the imaginary ones (the stream and the bits of drawing the two halves in
    turn), then a uniform for its radius."""
    return rng.standard_normal(2 * n), rng.random()


def _scaled_rows(normals: np.ndarray, radii: np.ndarray, radius_cap: float) -> np.ndarray:
    """The (count, n) ball rows of :func:`_ball_draws`' (count, 2n) normals
    and count uniforms: all rows at once, with the bits of dividing each by
    its own ``np.linalg.norm`` and multiplying it by ``radius_cap`` times its
    uniform."""
    n = normals.shape[1] // 2
    coords = np.empty((len(normals), n), dtype=np.complex128)
    coords.real, coords.imag = normals[:, :n], normals[:, n:]
    coords /= np.sqrt(_squared_norms(coords))[:, np.newaxis]
    coords *= (radius_cap * radii)[:, np.newaxis]
    return coords


def sample_ball_coords(rng: np.random.Generator, n: int, count: int, radius_cap: float = 0.95) -> np.ndarray:
    """``count`` ball points as the rows of a (count, n) array, drawn one
    after the other: per row a uniform direction, then a radius uniform in
    (0, radius_cap).  The draws keep stream order; the rows are normalized
    and scaled after, in one pass."""
    normals, radii = np.empty((count, 2 * n)), np.empty(count)
    for i in range(count):
        normals[i], radii[i] = _ball_draws(rng, n)
    return _scaled_rows(normals, radii, radius_cap)


def sample_ball_point(rng: np.random.Generator, n: int, radius_cap: float = 0.95) -> BallPoint:
    """One row of :func:`sample_ball_coords`, as a :class:`BallPoint`."""
    return BallPoint(sample_ball_coords(rng, n, 1, radius_cap)[0])


def sample_type_iii(rng: np.random.Generator, k: int, radius_cap: float = 0.95) -> DomainPoint:
    """Interior symmetric point of the bounded model."""
    raw = _complex_normal(rng, (k, k))
    raw = 0.5 * (raw + raw.T)
    top = np.linalg.svd(raw, compute_uv=False)[0]
    return DomainPoint(type_iii_shape(k), raw * (radius_cap * rng.random() / top))


def sample_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit complex numbers, one per coordinate."""
    angles = rng.random(n) * 2.0 * np.pi
    return np.exp(1j * angles)
