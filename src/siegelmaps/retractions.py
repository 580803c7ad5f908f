"""Holomorphic left inverses of the embeddings.

Every factor of an embedding is the fixed linear map ``A_f`` of
:func:`~siegelmaps.embeddings.factor_form`, so its retraction is the fixed
matrix ``P_f = A_f^+``: applied to the factor's flattened diagonal block,
it projects orthogonally onto the factor's image and recovers the source
coordinates.  A direct sum is retracted blockwise and the per-factor ball
points are averaged with equal weights, which stays inside the ball by
convexity.  Every step is linear, so the retraction is holomorphic.  The
stacked :func:`retract_direct_sum` extracts the factor blocks of its
g x g matrices for :func:`_retract_blocks`, which the verify suites call
on the blocks of :func:`~siegelmaps.embeddings._embed_blocks` directly.
"""

from __future__ import annotations

import numpy as np

from .domains import (
    BallPoint,
    DomainKind,
    DomainPoint,
    _ball_distances,
    _diagonal_blocks,
    _matrix_distances,
    _require_interior,
    kobayashi_distance,
    type_iii_shape,
)
from .embeddings import (
    EmbeddingSpec,
    _ball_coords,
    _block_entries,
    _embed_blocks,
    _point_slices,
    block_layout,
    factor_form,
)
from .errors import DimensionMismatch, IllConditioned, ShapeMismatch, SpecMismatch
from .linalg import DEFAULT_TOLERANCE, Tolerance

__all__ = [
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
    return _retract_blocks(spec, [images[:, start:stop, start:stop] for _, start, stop in layout])


def _retract_blocks(spec: EmbeddingSpec, blocks) -> np.ndarray:
    """Source coordinates, one (B, N) array, from the diagonal blocks of B
    images given as one (B, b, b) array per factor in ``block_layout``
    order, such as :func:`~siegelmaps.embeddings._embed_blocks` returns.
    A block that retracts outside the ball raises, naming its member."""
    total = np.zeros((len(blocks[0]), spec.source_dim), dtype=np.complex128)
    for factor, block in zip(spec.factors, blocks):
        _, pseudo = factor_form(factor)
        flat = block.reshape(len(block), factor.block_size**2)
        # One matrix-vector product per member, the same as P_f @ block:
        # blocks @ P_f^T rounds differently for some factors.
        coords = (pseudo @ flat[..., np.newaxis])[..., 0]
        norms = np.sqrt((coords.real**2 + coords.imag**2).sum(axis=1))
        outside = norms >= 1.0
        if outside.any():
            i = int(np.argmax(outside))
            raise IllConditioned(f"matrix {i}: {factor.kind.value} block retracts to norm {norms[i]:.6f} >= 1")
        total += coords
    return total / len(blocks)


def _sandwich_stack(
    spec: EmbeddingSpec, xs, ys, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source, target and retracted distances of pairs of ball points.

    The points are checked once, pair by pair, and an error names the
    pair.  The images are carried as their factor blocks
    (:func:`_embed_blocks`), never as g x g matrices.  Each slice of pairs
    holding a few hundred KiB of block entries is embedded, split into its
    exact diagonal blocks, measured by one pass of the matrix distance
    kernel per block size, and retracted.  The source and the retracted
    distances then take one stacked ball distance call each over all
    pairs."""
    cx, cy = _ball_coords(spec.source_dim, tol, xs, ys)
    target = np.empty(len(cx))
    rx, ry = np.empty_like(cx), np.empty_like(cy)
    # Each pair holds the blocks of two images.
    for part in _point_slices(len(cx), 2 * _block_entries(spec)):
        bx, by = _embed_blocks(spec, cx[part]), _embed_blocks(spec, cy[part])
        target[part] = _matrix_distances(_diagonal_blocks(bx, by), len(bx[0]), tol, symmetric=True)
        rx[part], ry[part] = _retract_blocks(spec, bx), _retract_blocks(spec, by)
    return kobayashi_distance(xs, ys, tol), target, _ball_distances(rx, ry, tol)


def isometry_sandwich(
    spec: EmbeddingSpec, x, y, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure the distance sandwich for pairs of interior points.

    x and y are equal-length sequences of ball points.  The source
    distances of the pairs, the target distances of their images in the
    ambient matrix ball and the ball distances after retraction come back
    as three arrays from stacked evaluations (see :func:`_sandwich_stack`).
    The embedding is holomorphic and has a holomorphic left inverse, so the
    three agree.  Within one slice of pairs the blocks are those
    :func:`kobayashi_distance` finds on the g x g images, so the target
    distances have its bits."""
    xs, ys = list(x), list(y)
    if not xs or len(xs) != len(ys):
        raise ShapeMismatch(f"expected equal nonzero numbers of points, got {len(xs)} and {len(ys)}")
    return _sandwich_stack(spec, xs, ys, tol)
