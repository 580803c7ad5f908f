"""Many images of ball points at once, for tests that measure them in
bulk, from the blocks of ``_embed_blocks`` for the rows of a (B, N)
coordinate array.  The rows must be interior ball points of the spec's
dimension; they are not checked.

``_embed_blocks`` gives one block per distinct factor; ``copy_blocks``
expands them through the copy plan to one block per copy, and
``embedded_images`` places those on zero g x g matrices, for tests that
feed whole images to ``membership`` or ``kobayashi_distance``.  Each
image has the bits of the one-point ``direct_sum_embed``, which
``test_one_point_embed_holds_the_kernel_blocks`` pins on every spec of the
acceptance sweep, at a fraction of its per-point cost.

``target_distances`` measures the images of pairs without building them,
as ``isometry_sandwich`` does: the factor blocks are split into their exact
diagonal blocks and measured by the matrix distance kernel, one pass per
block size.  The distances have the bits of ``kobayashi_distance`` on the
``embedded_images`` of the same pairs, which ``test_block_groups`` checks.
"""

from __future__ import annotations

import numpy as np

from siegelmaps import DEFAULT_TOLERANCE
from siegelmaps.domains import DomainPoint, _diagonal_blocks, _matrix_distances, type_iii_shape
from siegelmaps.embeddings import _copy_plan, _embed_blocks, block_layout


def copy_blocks(spec, coords: np.ndarray) -> list[np.ndarray]:
    """The blocks of ``_embed_blocks``, one per distinct factor, expanded
    through the copy plan to one (B, b, b) array per copy in
    ``block_layout`` order."""
    blocks = _embed_blocks(spec, coords)
    return [block for (_, index), block in zip(_copy_plan(spec), blocks) for _ in index]


def embedded_images(spec, coords: np.ndarray) -> list[DomainPoint]:
    g = spec.target_g
    images = np.zeros((len(coords), g, g), dtype=np.complex128)
    for (_, start, stop), block in zip(block_layout(spec), copy_blocks(spec, coords)):
        images[:, start:stop, start:stop] = block
    return [DomainPoint(type_iii_shape(g), image) for image in images]


def target_distances(spec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    bx, by = _embed_blocks(spec, xs), _embed_blocks(spec, ys)
    return _matrix_distances(_diagonal_blocks(zip(bx, by)), len(xs), DEFAULT_TOLERANCE, symmetric=True)
