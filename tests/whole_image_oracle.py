"""The whole-image linearity oracle, the reference the block oracle is
checked against.

``whole_image_residuals`` is ``embeddings._oracle_residuals`` as it was
before the oracle compared factor blocks: per point, ``max|reference -
image|`` over the whole g x g target, where the images come from the
public one-point ``direct_sum_embed`` and the reference holds the factor
constructions on its diagonal blocks and zeros elsewhere, so every point
also checks the padding.  It takes ball points and checks them first, with
their index.  ``whole_image_linearize`` is ``linearize`` on top of it: the
same seeded check points, the same ``NonlinearityDetected`` message.
"""

from __future__ import annotations

import numpy as np

from siegelmaps import embeddings
from siegelmaps.domains import BallPoint
from siegelmaps.embeddings import (
    _STACK_ENTRIES,
    _ball_coords,
    _block_entries,
    _factor_blocks,
    _point_slices,
    block_layout,
)
from siegelmaps.errors import NonlinearityDetected
from siegelmaps.linalg import DEFAULT_TOLERANCE, Tolerance
from siegelmaps.sampling import generator


def whole_image_residuals(spec, points, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    g = spec.target_g
    (coords,) = _ball_coords(spec.source_dim, tol, points)
    layout = block_layout(spec)
    residuals = np.empty(len(points))
    for part in _point_slices(len(points), _block_entries(spec), _STACK_ENTRIES):
        blocks = _factor_blocks(spec.factors, coords[part], tol)
        for sub in _point_slices(len(blocks[0]), g * g, _STACK_ENTRIES):
            # |image - reference| has the bits of |reference - image|.
            difference = np.array([embeddings.direct_sum_embed(spec, z, tol).z for z in points[part][sub]])
            for (_, start, stop), block in zip(layout, blocks):
                difference[:, start:stop, start:stop] -= block[sub]
            residuals[part][sub] = np.abs(difference).max(axis=(1, 2))
    return residuals


def whole_image_linearize(spec, tol: Tolerance = DEFAULT_TOLERANCE, seed: int = 0) -> np.ndarray:
    rng = generator(seed, 0x11E4)
    n = spec.source_dim
    points = []
    for _ in range(50):
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        points.append(BallPoint(direction * (0.95 * rng.random())))
    residuals = whole_image_residuals(spec, points, tol)
    i = int(np.argmax(residuals))
    worst = float(residuals[i])
    if worst > tol.eq_tol:
        raise NonlinearityDetected(
            f"embedding deviates from its linearization by {worst:.3e} > {tol.eq_tol:.3e} "
            f"at z={np.array2string(points[i].coords, precision=6)}"
        )
    return np.concatenate([embeddings.factor_form(factor)[0] for factor, _, _ in block_layout(spec)])
