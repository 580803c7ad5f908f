"""Many g x g images of ball points at once, for tests that feed them to
``membership`` or ``kobayashi_distance`` in bulk: the blocks of
``_embed_blocks`` on zero matrices.  Each image has the bits of the
one-point ``direct_sum_embed``, which
``test_one_point_embed_holds_the_kernel_blocks`` pins on every spec of the
acceptance sweep, at a fraction of its per-point cost.  The points must
be interior ball points of the spec's dimension; they are not checked."""

from __future__ import annotations

import numpy as np

from siegelmaps.domains import DomainPoint, type_iii_shape
from siegelmaps.embeddings import _embed_blocks, block_layout


def embedded_images(spec, points) -> list[DomainPoint]:
    g = spec.target_g
    images = np.zeros((len(points), g, g), dtype=np.complex128)
    blocks = _embed_blocks(spec, np.stack([z.coords for z in points]))
    for (_, start, stop), block in zip(block_layout(spec), blocks):
        images[:, start:stop, start:stop] = block
    return [DomainPoint(type_iii_shape(g), image) for image in images]
