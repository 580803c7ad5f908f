"""The embedding and its retraction applied one factor copy at a time, as
they were before the copies of a factor were applied together: the
reference that ``test_copy_plan`` holds the package's maps to, bit for
bit.  Inputs are not checked; the maps are called on points the package
accepts.  ``copy_flats`` hands per-copy blocks, which may disagree, to the
package's stacked retraction core."""

from __future__ import annotations

import itertools

import numpy as np

from siegelmaps import BallPoint, factor_form
from siegelmaps.embeddings import block_layout
from siegelmaps.errors import IllConditioned


def embed_per_copy(spec, z: BallPoint) -> np.ndarray:
    """The g x g image: each copy's ``A_f z`` on its diagonal block."""
    g = spec.target_g
    out = np.zeros((g, g), dtype=np.complex128)
    for factor, start, stop in block_layout(spec):
        matrix, _ = factor_form(factor)
        out[start:stop, start:stop] = (matrix @ z.coords).reshape(stop - start, stop - start)
    return out


def retract_per_copy(z: np.ndarray, spec) -> np.ndarray:
    """The source coordinates of a g x g point: each copy's ``P_f`` on its
    flattened block, its norm checked, added in turn to a zero total."""
    layout = block_layout(spec)
    total = np.zeros(spec.source_dim, dtype=np.complex128)
    for factor, start, stop in layout:
        _, pseudo = factor_form(factor)
        coords = pseudo @ z[start:stop, start:stop].reshape(-1)
        norm = float(np.linalg.norm(coords))
        if norm >= 1.0:
            raise IllConditioned(f"{factor.kind.value} block retracts to norm {norm:.6f} >= 1")
        total += coords
    return total / len(layout)


def embed_blocks_per_copy(spec, coords: np.ndarray) -> list[np.ndarray]:
    """The (B, b, b) blocks of B points, one array per copy."""
    blocks = []
    for factor in spec.factors:
        matrix, _ = factor_form(factor)
        size = factor.block_size
        blocks.append((matrix @ coords[..., np.newaxis])[..., 0].reshape(-1, size, size))
    return blocks


def retract_blocks_per_copy(spec, blocks) -> np.ndarray:
    """The (B, N) source coordinates of B points given by their blocks, one
    copy at a time, naming the first member outside the ball."""
    total = np.zeros((len(blocks[0]), spec.source_dim), dtype=np.complex128)
    for factor, block in zip(spec.factors, blocks):
        _, pseudo = factor_form(factor)
        flat = block.reshape(len(block), factor.block_size**2)
        coords = (pseudo @ flat[..., np.newaxis])[..., 0]
        norms = np.sqrt((coords.real**2 + coords.imag**2).sum(axis=1))
        outside = norms >= 1.0
        if outside.any():
            i = int(np.argmax(outside))
            raise IllConditioned(f"matrix {i}: {factor.kind.value} block retracts to norm {norms[i]:.6f} >= 1")
        total += coords
    return total / len(blocks)


def copy_flats(spec, blocks) -> list[np.ndarray]:
    """One (B, b, b) array per factor copy, in layout order, regrouped as
    the (k, B, b * b) stacks of each distinct factor's k copies that
    ``retractions._retract_copies`` takes."""
    flats, first = [], 0
    for factor, copies in itertools.groupby(spec.factors):
        group = np.stack(blocks[first : first + len(list(copies))])
        flats.append(group.reshape(len(group), len(group[0]), factor.block_size**2))
        first += len(group)
    return flats
