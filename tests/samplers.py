"""Seeded samplers of type I and Siegel points, which only tests draw.

They draw from the stream of a :func:`siegelmaps.sampling.generator`
exactly as the package's samplers do, so a test that draws the same
sequence gets the same points.
"""

from __future__ import annotations

import numpy as np

from siegelmaps.domains import DomainPoint, siegel_shape, type_i_shape
from siegelmaps.sampling import _complex_normal


def sample_type_i(
    rng: np.random.Generator, p: int, q: int, radius_cap: float = 0.95
) -> DomainPoint:
    """Interior type I point with largest singular value below radius_cap."""
    raw = _complex_normal(rng, (p, q))
    top = np.linalg.svd(raw, compute_uv=False)[0]
    return DomainPoint(type_i_shape(p, q), raw * (radius_cap * rng.random() / top))


def sample_siegel(rng: np.random.Generator, g: int) -> DomainPoint:
    """Interior Siegel point: random real symmetric part, SPD imaginary part."""
    real = rng.standard_normal((g, g))
    real = 0.5 * (real + real.T)
    root = rng.standard_normal((g, g))
    imag = root @ root.T / g + 0.1 * np.eye(g)
    return DomainPoint(siegel_shape(g), real + 1j * imag)
