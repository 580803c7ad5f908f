"""The standard factors' direct constructions, kept as the reference the
wedge path is held to bit for bit.  ``standard_I`` places the ball along
the first row of a 1 x p type I matrix and connects it; ``standard_III``
places a one-dimensional source as a symmetric 1 x 1 corner.  The package
builds both from degree-1 wedge blocks moved by a fixed automorphism of
III_g instead."""

from __future__ import annotations

import numpy as np

from siegelmaps.embeddings import FactorKind, _connecting_matrix

# Probe radius of standard_form: well inside every domain.
PROBE = 0.25


def standard_blocks(factor, coords: np.ndarray) -> np.ndarray:
    """The (B, b, b) blocks of a standard factor at the rows of a (B, p)
    coordinate stack."""
    if factor.kind is FactorKind.STANDARD_I:
        return _connecting_matrix(coords[:, np.newaxis, :])
    assert factor.kind is FactorKind.STANDARD_III
    return coords.reshape(-1, 1, 1).copy()


def standard_form(factor) -> tuple[np.ndarray, np.ndarray]:
    """``factor_form``'s ``(A, P)`` built from :func:`standard_blocks` at
    the probes, by the steps of ``probe_forms.probe_form``."""
    probes = PROBE * np.eye(factor.p, dtype=np.complex128)
    matrix = np.ascontiguousarray(standard_blocks(factor, probes).reshape(factor.p, -1).T)
    matrix /= PROBE
    return matrix, np.linalg.pinv(matrix)
