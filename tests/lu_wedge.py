"""Determinant routes through exterior powers, the references the
package's wedge constructions are tested against.

``wedge_coefficients`` expands the wedge of one column stack over a wedge
basis by LU determinants; ``lu_wedge_coefficients`` builds the column
stacks the Laplace-recursion kernel ``embeddings._wedge_coefficients``
wedges at every point of a coordinate stack and expands each of them, with
the kernel's signature and output layout.  ``induced_form_decomposable``
pairs two decomposable wedges as the determinant of their base pairings.
"""

from __future__ import annotations

import numpy as np

from siegelmaps.errors import DimensionMismatch
from siegelmaps.exterior import signature

from wedge_reference import WedgeBasis, multi_indices, wedge_basis


def wedge_coefficients(columns: np.ndarray, basis: WedgeBasis) -> np.ndarray:
    """Coordinates of the wedge of the given column vectors.

    ``columns`` is a (p+1) x m matrix whose columns are wedged left to
    right; the result holds the m x m minors det(columns[M, :]) in basis
    order.
    """
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.shape != (basis.p + 1, basis.m):
        raise DimensionMismatch(
            f"expected a {basis.p + 1}x{basis.m} column stack, got {columns.shape}"
        )
    rows = np.array(basis.ordered, dtype=np.intp).reshape(basis.size, basis.m) - 1
    return np.linalg.det(columns[rows, :])


def column_stacks(coords: np.ndarray, m: int) -> np.ndarray:
    """(B, s, p+1, m): per point and degree-(m-1) subset of the positive
    vectors b_i = e_i + conj(z_i) e_{p+1}, those vectors left to right and
    then v = (z, 1)."""
    count, p = coords.shape
    stacks = np.empty((count, signature(p, m)[1], p + 1, m), dtype=np.complex128)
    for t, subset in enumerate(multi_indices(p, m - 1) if m > 1 else ((),)):
        for k, i in enumerate(subset):
            stacks[:, t, :, k] = 0.0
            stacks[:, t, i - 1, k] = 1.0
            stacks[:, t, p, k] = np.conj(coords[:, i - 1])
        stacks[:, t, :p, m - 1] = coords
        stacks[:, t, p, m - 1] = 1.0
    return stacks


def lu_wedge_coefficients(coords: np.ndarray, m: int) -> np.ndarray:
    """The kernel's (B, C(p+1, m), s) wedge coordinates, one LU
    determinant per minor."""
    basis = wedge_basis(coords.shape[1], m)
    stacks = column_stacks(coords, m)
    return np.array([[wedge_coefficients(stack, basis) for stack in point] for point in stacks]).swapaxes(1, 2)


def hermitian_pairing(x, y, p: int) -> complex:
    """Signature-(p, 1) pairing on C^(p+1), conjugate-linear in x."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if x.size != p + 1 or y.size != p + 1:
        raise DimensionMismatch(f"vectors must have length {p + 1}")
    return complex(np.vdot(x[:p], y[:p]) - np.conj(x[p]) * y[p])


def induced_form_decomposable(xs: np.ndarray, ys: np.ndarray, p: int) -> complex:
    """Pairing of decomposables x_1 ^ ... ^ x_m and y_1 ^ ... ^ y_m.

    Evaluates det(F(x_i, y_j)) directly from the base pairing.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    if xs.shape != ys.shape or xs.ndim != 2 or xs.shape[0] != p + 1:
        raise DimensionMismatch(f"expected matching (p+1) x m column stacks, got {xs.shape} and {ys.shape}")
    m = xs.shape[1]
    gram = np.empty((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            gram[i, j] = hermitian_pairing(xs[:, i], ys[:, j], p)
    return complex(np.linalg.det(gram))
