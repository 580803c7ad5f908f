"""Holomorphic left inverses of the embeddings.

Every factor of an embedding is the fixed linear map ``A_f`` that
:func:`~siegelmaps.embeddings.factor_form` reads off the wedge basis, so its
retraction is the fixed matrix ``P_f = A_f^+``: applied to the factor's
flattened diagonal block, it projects orthogonally onto the factor's image
and recovers the source coordinates.  A direct sum is retracted blockwise and the per-copy ball
points are averaged with equal weights, which stays inside the ball by
convexity.  Every step is linear, so the retraction is holomorphic.

The spec's copy plan (:func:`~siegelmaps.embeddings._copy_plan`) groups
the blocks by distinct factor.  One core, :func:`_retract_copies`,
retracts each factor's copies by one stacked product, checks their norms
in one pass and sums all copies in block order, with the values and the
error of retracting each copy in turn.  :func:`retract_direct_sum` hands
it the copies it gathers from one point through the plan;
:func:`_retract_blocks` hands it, for a stack of images, the one block
per distinct factor of :func:`~siegelmaps.embeddings._embed_blocks`,
which stands for all of that factor's copies.
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
    _pair_names,
    _require_interior,
    kobayashi_distance,
)
from .embeddings import (
    _DISTANCE_ENTRIES,
    EmbeddingSpec,
    _ball_coords,
    _block_entries,
    _copy_plan,
    _embed_blocks,
    _point_slices,
    factor_form,
)
from .errors import IllConditioned, ShapeMismatch, SpecMismatch
from .linalg import DEFAULT_TOLERANCE, Tolerance, _squared_norms, _stack_label

__all__ = [
    "isometry_sandwich",
    "retract_direct_sum",
]


def retract_direct_sum(
    y: DomainPoint, spec: EmbeddingSpec, tol: Tolerance = DEFAULT_TOLERANCE, verify: bool = True
) -> BallPoint:
    """Left inverse of the direct-sum embedding, at a type III point.

    Applies each factor's ``P_f`` to its flattened diagonal block and
    averages the resulting ball points with equal weights; convexity of
    the ball keeps the average interior.  Any input but a type III
    :class:`DomainPoint` of size g raises :class:`SpecMismatch`.  Raises
    :class:`IllConditioned` when a block retracts outside the ball, which no
    interior input does.
    """
    g = spec.target_g
    if not isinstance(y, DomainPoint):
        raise SpecMismatch(f"expected a type III DomainPoint of size {g}, got {type(y).__name__}")
    if y.shape.kind is not DomainKind.TYPE_III or y.shape.p != g:
        raise SpecMismatch(f"expected a type III point of size {g}, got {y.shape.kind.value} {y.shape.p}")
    if verify:
        _require_interior(y, tol, "direct-sum retraction input")
    # A view of the point when the blocks fill it, else a copy of their square.
    cost = spec.cost
    flat = (y.z if cost == g else y.z[:cost, :cost]).reshape(-1)
    coords = _retract_copies(spec, [flat[index] for _, index in _copy_plan(spec)])
    # Frozen, so the point keeps it without a copy.
    coords.setflags(write=False)
    return BallPoint(coords)


def _retract_copies(spec: EmbeddingSpec, flats) -> np.ndarray:
    """Source coordinates, (..., N), from the flattened blocks of every
    copy: one (k, ..., b * b) array per entry of the spec's
    :func:`~siegelmaps.embeddings._copy_plan`, or (1, ..., b * b) where the
    k copies are one and the same.  Each copy is retracted, its norm
    checked, and all copies summed in block order, with the bits of doing
    so one copy at a time.  A copy that retracts outside the ball raises,
    naming the first such block in layout order and, in a stack, its first
    such member."""
    coords, squares = _copy_coords(_copy_plan(spec), flats)
    # A norm is at least 1 where its square is.
    outside = squares >= 1.0
    if np.count_nonzero(outside):
        copy = int(np.argmax(outside.reshape(len(outside), -1).any(axis=1)))
        member = int(np.argmax(outside[copy].reshape(-1)))
        norm = float(np.sqrt(squares[copy].reshape(-1)[member]))
        label = _stack_label(member, outside.shape[1:])
        raise IllConditioned(f"{label}{spec.factors[copy].kind.value} block retracts to norm {norm:.6f} >= 1")
    return _sum_from_zero(coords) / len(coords)


@np.errstate(over="ignore", invalid="ignore")
def _copy_coords(plan, flats) -> tuple[np.ndarray, np.ndarray]:
    """Source coordinates of every copy, one (F, ..., N) array in layout
    order, and their squared norms (:func:`~siegelmaps.linalg._squared_norms`),
    from the flats that :func:`_retract_copies` takes: the coordinates of a
    (1, ..., b * b) entry are repeated k times.  Each distinct factor takes
    one stacked product, of one matrix-vector product per copy and member,
    the same as ``P_f @ block``: ``blocks @ P_f^T`` rounds differently for
    some factors.  Blocks too large to square give norms of inf, or
    coordinates that are not finite, without a warning."""
    coords = []
    for (factor, index), flat in zip(plan, flats):
        copies = (factor_form(factor)[1] @ flat[..., np.newaxis])[..., 0]
        if len(copies) < len(index):
            copies = np.broadcast_to(copies, (len(index), *copies.shape[1:]))
        coords.append(copies)
    coords = coords[0] if len(coords) == 1 else np.concatenate(coords)
    return coords, _squared_norms(coords)


def _sum_from_zero(coords: np.ndarray) -> np.ndarray:
    """The sum along the first axis with the bits of adding each entry in
    turn to a zero total.  An accumulation adds in order, where a reduction
    may pair its terms; adding 0.0 to its last entry turns a sum of -0.0
    into the 0.0 a zero total gives, and leaves every other value as it is."""
    return np.add.accumulate(coords)[-1] + 0.0


def _retract_blocks(spec: EmbeddingSpec, blocks) -> np.ndarray:
    """Source coordinates, one (B, N) array, from the diagonal blocks of B
    images given as one (B, b, b) array per distinct factor, as
    :func:`~siegelmaps.embeddings._embed_blocks` returns them.  Each member
    has the bits of :func:`retract_direct_sum` on a matrix whose copies of
    each factor hold that factor's block (:func:`_retract_copies`)."""
    return _retract_copies(spec, [block.reshape(1, len(block), block.shape[-1] ** 2) for block in blocks])


def isometry_sandwich(
    spec: EmbeddingSpec, x, y, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure the distance sandwich for pairs of interior points.

    x and y are equal-length sequences of ball points, checked once, pair by
    pair; an error names the pair.  The source distances of the pairs, the
    target distances of their images in the ambient matrix ball and the ball
    distances after retraction come back as three arrays.  The embedding is
    holomorphic and has a holomorphic left inverse, so the three agree.

    The images are carried as one block per distinct factor
    (:func:`_embed_blocks`), never as g x g matrices.  Each slice of pairs
    holding up to 256 KiB of block entries is embedded, split into its
    exact diagonal blocks, measured by one pass of the matrix distance
    kernel per block size, and retracted.  Within a slice the blocks are
    those :func:`kobayashi_distance` finds on the g x g images but for the
    repeats of a factor's copies, which change no largest distance and no
    smallest margin, so the target distances have its bits.  The source and the retracted distances take
    one stacked ball distance call each over all pairs."""
    xs, ys = list(x), list(y)
    if not xs or len(xs) != len(ys):
        raise ShapeMismatch(f"expected equal nonzero numbers of points, got {len(xs)} and {len(ys)}")
    cx, cy = _ball_coords(spec.source_dim, tol, xs, ys)
    target = np.empty(len(cx))
    rx, ry = np.empty_like(cx), np.empty_like(cy)
    names = _pair_names(len(cx))
    # Each pair holds the blocks of two images.
    for part in _point_slices(len(cx), 2 * _block_entries(spec), _DISTANCE_ENTRIES):
        bx, by = _embed_blocks(spec, cx[part]), _embed_blocks(spec, cy[part])
        target[part] = _matrix_distances(_diagonal_blocks(zip(bx, by)), names[part], tol, symmetric=True)
        rx[part], ry[part] = _retract_blocks(spec, bx), _retract_blocks(spec, by)
    return kobayashi_distance(xs, ys, tol), target, _ball_distances(rx, ry, tol)
