"""The factor constructions at one ball point, through the stacked kernels
the linearity oracle runs: a stack of one point."""

from __future__ import annotations

import numpy as np

from siegelmaps.embeddings import _factor_blocks, _wedge_blocks
from siegelmaps.linalg import DEFAULT_TOLERANCE


def wedge_block(z, m: int, symmetric: bool = False, tol=DEFAULT_TOLERANCE) -> np.ndarray:
    """The normalized degree-m wedge block X Y^{-1} of a ball point."""
    return _wedge_blocks(z.coords[np.newaxis, :], [(m, symmetric)], tol)[0][0]


def factor_block(factor, z, tol=DEFAULT_TOLERANCE) -> np.ndarray:
    """The symmetric block a factor's construction gives a ball point."""
    return _factor_blocks((factor,), z.coords[np.newaxis, :], tol)[0][0]
