"""Seeded, platform-reproducible sample generators for the harness.

All randomness flows through a counter-based Philox generator keyed by
(seed, stream), so identical configurations reproduce identical samples
bit for bit on any platform.  Directions are drawn uniformly on the
sphere by normalizing standard complex Gaussians; radii are scaled to at
most ``radius_cap`` to keep conditioning bounded away from the boundary.
"""

from __future__ import annotations

import numpy as np

from .domains import BallPoint, DomainPoint, type_iii_shape

__all__ = [
    "generator",
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


def sample_ball_point(rng: np.random.Generator, n: int, radius_cap: float = 0.95) -> BallPoint:
    """Uniform direction, radius uniform in (0, radius_cap)."""
    direction = _complex_normal(rng, n)
    direction /= np.linalg.norm(direction)
    return BallPoint(direction * (radius_cap * rng.random()))


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
