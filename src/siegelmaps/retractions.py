"""Holomorphic left inverses of the embeddings.

Every factor of an embedding is the fixed linear map ``A_f`` of
:func:`~siegelmaps.embeddings.factor_form`, so its retraction is the fixed
matrix ``P_f = A_f^+``: applied to the factor's flattened diagonal block,
it projects orthogonally onto the factor's image and recovers the source
coordinates.  A direct sum is retracted blockwise and the per-factor ball
points are averaged with equal weights, which stays inside the ball by
convexity.  Every step is linear, so the retraction is holomorphic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import (
    BallPoint,
    DomainKind,
    DomainPoint,
    _ball_distances,
    _matrix_distances,
    _require_interior,
    kobayashi_distance,
    type_iii_shape,
)
from .embeddings import EmbeddingSpec, _point_slices, block_layout, direct_sum_embed, factor_form
from .errors import DimensionMismatch, IllConditioned, SpecMismatch
from .linalg import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "SandwichRecord",
    "isometry_sandwich",
    "retract_direct_sum",
]


def retract_direct_sum(y, spec: EmbeddingSpec, tol: Tolerance = DEFAULT_TOLERANCE, verify: bool = True):
    """Left inverse of the direct-sum embedding.

    Applies each factor's ``P_f`` to its flattened diagonal block and
    averages the resulting ball points with equal weights; convexity of
    the ball keeps the average interior.  Raises :class:`IllConditioned`
    when a block retracts outside the ball, which no interior input does.

    ``y`` is a type III point, and the result a :class:`BallPoint`.  It may
    also be a (B, g, g) array, such as the stacked images of
    :func:`direct_sum_embed`: the source coordinates then come back as one
    (B, N) array, each member with the bits of its matrix retracted alone,
    and an error names the failing member by its index.
    """
    g = spec.target_g
    layout = block_layout(spec)
    if isinstance(y, DomainPoint):
        if y.shape.kind is not DomainKind.TYPE_III or y.shape.p != g:
            raise SpecMismatch(
                f"expected a type III point of size {g}, got {y.shape.kind.value} {y.shape.p}"
            )
        if verify:
            _require_interior(y, tol, "direct-sum retraction input")
        # Its own loop, not a batch of one: the stacked form's set-up is a
        # large share of a one-point call.
        total = np.zeros(spec.source_dim, dtype=np.complex128)
        for factor, start, stop in layout:
            _, pseudo = factor_form(factor)
            coords = pseudo @ y.z[start:stop, start:stop].reshape(-1)
            norm = float(np.linalg.norm(coords))
            if norm >= 1.0:
                raise IllConditioned(f"{factor.kind.value} block retracts to norm {norm:.6f} >= 1")
            total += coords
        return BallPoint(total / len(layout))
    images = np.asarray(y, dtype=np.complex128)
    if images.ndim != 3 or images.shape[1:] != (g, g):
        raise SpecMismatch(f"expected a (B, {g}, {g}) stack, got shape {images.shape}")
    finite = np.isfinite(images).all(axis=(1, 2))
    if not finite.all():
        raise DimensionMismatch(f"matrix {int(np.argmin(finite))}: entries must be finite")
    if verify:
        for i, image in enumerate(images):
            _require_interior(DomainPoint(type_iii_shape(g), image), tol, f"direct-sum retraction input {i}")
    total = np.zeros((len(images), spec.source_dim), dtype=np.complex128)
    for factor, start, stop in layout:
        _, pseudo = factor_form(factor)
        blocks = images[:, start:stop, start:stop].reshape(len(images), (stop - start) ** 2)
        # One matrix-vector product per member, the same as P_f @ block:
        # blocks @ P_f^T rounds differently for some factors.
        coords = (pseudo @ blocks[..., np.newaxis])[..., 0]
        norms = np.sqrt((coords.real**2 + coords.imag**2).sum(axis=1))
        outside = norms >= 1.0
        if outside.any():
            i = int(np.argmax(outside))
            raise IllConditioned(f"matrix {i}: {factor.kind.value} block retracts to norm {norms[i]:.6f} >= 1")
        total += coords
    return total / len(layout)


@dataclass(frozen=True)
class SandwichRecord:
    """Distances through one embed/retract cycle.

    ``source`` is the ball distance, ``target`` the distance between the
    embedded images measured in the ambient matrix ball, ``retracted`` the
    ball distance after retraction.  Holomorphy forces target <= source
    and source <= target (via the retraction), so all three agree.
    """

    source: float
    target: float
    retracted: float

    @property
    def max_gap(self) -> float:
        return max(abs(self.source - self.target), abs(self.source - self.retracted))


def _sandwich_stack(
    spec: EmbeddingSpec, xs, ys, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source, target and retracted distances of pairs of ball points.

    Only the g x g images are sliced: each slice of a few hundred KiB is
    embedded, which checks the points, measured by one stacked matrix
    distance call and retracted.  The source and the retracted distances
    then take one stacked ball distance call each over all pairs."""
    target = np.empty(len(xs))
    rx, ry = (np.empty((len(xs), spec.source_dim), dtype=np.complex128) for _ in range(2))
    # Each pair holds two g x g images.
    for part in _point_slices(len(xs), 2 * spec.target_g**2):
        ex, ey = (direct_sum_embed(spec, points[part], tol) for points in (xs, ys))
        # The stacks go to the distance kernel as they are: wrapping each
        # member as a point for kobayashi_distance would copy every image.
        target[part] = _matrix_distances(list(ex), list(ey), tol, symmetric=True)
        rx[part], ry[part] = (retract_direct_sum(images, spec, tol, verify=False) for images in (ex, ey))
    return kobayashi_distance(xs, ys, tol), target, _ball_distances(rx, ry, tol)


def isometry_sandwich(
    spec: EmbeddingSpec, x: BallPoint, y: BallPoint, tol: Tolerance = DEFAULT_TOLERANCE
) -> SandwichRecord:
    """Measure the distance sandwich for one pair of interior points."""
    source, target, retracted = _sandwich_stack(spec, [x], [y], tol)
    return SandwichRecord(float(source[0]), float(target[0]), float(retracted[0]))
