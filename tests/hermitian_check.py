"""The checked eigensolve for Hermitian matrices a caller passes in, the
reference the package's unchecked margin eigensolve is tested against.

``hermitian_eigenvalues`` checks ``m == m*`` up to ``eq_tol``, member by
member, raising ``NotHermitian`` naming the first member that fails, and
then takes the eigenvalues of (m + m*)/2 by the package's own symmetrized
eigensolve: on a matrix that passes the check, the values have the bits of
the margins the package computes from the Grams it forms itself.
"""

from __future__ import annotations

import numpy as np

from siegelmaps.errors import SiegelmapsError
from siegelmaps.linalg import DEFAULT_TOLERANCE, Tolerance, _require_square, _stack_label, _symmetrized_eigenvalues


class NotHermitian(SiegelmapsError):
    """Matrix fails the Hermitian symmetry check."""


def _require_hermitian(m: np.ndarray, tol: Tolerance) -> np.ndarray:
    """m as a complex square matrix or stack, after checking ``m == m*`` up
    to ``eq_tol`` member by member."""
    m = np.asarray(m, dtype=np.complex128)
    _require_square(m, "hermitian matrix")
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    over = defect > tol.eq_tol
    if over.any():
        flat = int(np.argmax(over.reshape(-1)))
        label = _stack_label(flat, m.shape[:-2])
        raise NotHermitian(
            f"{label}matrix deviates from Hermitian by {defect.reshape(-1)[flat]:.3e} > {tol.eq_tol:.3e}"
        )
    return m


def hermitian_eigenvalues(m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, or of each member
    of a ``(..., n, n)`` stack, after the check of :func:`_require_hermitian`."""
    return _symmetrized_eigenvalues(_require_hermitian(m, tol))
