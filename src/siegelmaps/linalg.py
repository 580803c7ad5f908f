"""Dense complex matrix kernel.

Every other module funnels its numerics through the handful of operations
here, so the tolerance regime is defined in one place: ``Tolerance.eq_tol``
bounds residuals of equality assertions and ``Tolerance.psd_margin`` is the
minimum-eigenvalue bound below which positivity is not trusted.

A condition test rejects a matrix whose condition number, the ratio of
its extreme singular values from an SVD, exceeds 1/psd_margin.  Most
matrices the package tests are far from that limit, so each test is
certified first: bounds sigma_max <= hi and sigma_min >= lo that the
caller already holds, such as ||B||_F ||B^-1||_F from an LU solve or
1 -/+ ||X|| ||Y|| for I - X*Y with contractions X and Y (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 6
and 7), clear a matrix when hi <= lo / (16 psd_margin).  A cleared matrix
provably passes the SVD test, with LAPACK's error bounds on the computed
singular values and a factor above 12 to spare (see ``_certified``); the
SVD runs only for the matrices the bounds cannot clear, with the same
decisions and messages.

All operations are pure functions of their inputs and deterministic: the
same input bits produce the same output bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    SingularSystem,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "Tolerance",
    "as_complex_matrix",
    "singular_values",
    "solve_right",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance regime threaded through all checks.

    eq_tol: residual bound for equality assertions.
    psd_margin: minimum-eigenvalue bound for strict positivity.
    """

    eq_tol: float = 1e-9
    psd_margin: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.psd_margin < self.eq_tol < 1.0:
            raise ValueError(
                "tolerances must satisfy 0 < psd_margin < eq_tol < 1, got "
                f"psd_margin={self.psd_margin!r}, eq_tol={self.eq_tol!r}"
            )


DEFAULT_TOLERANCE = Tolerance()


def as_complex_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and freeze a 2-d complex matrix.

    Ensures a two-dimensional complex128 array with at least one row and
    column and no NaN/Inf entries.  The returned array is marked read-only
    so values can be shared freely.  A read-only, C-contiguous complex128
    array that owns its data is already in that form and is returned
    without a copy; any other input is copied.
    """
    frozen = (
        isinstance(data, np.ndarray)
        and data.dtype == np.complex128
        and data.flags.c_contiguous
        and data.flags.owndata
        and not data.flags.writeable
    )
    m = data if frozen else np.array(data, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise DimensionMismatch("matrix entries must be finite")
    m.setflags(write=False)
    return m


def _require_square(m: np.ndarray, what: str) -> None:
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m*)/2 of a square matrix or stack."""
    sym = m + m.conj().swapaxes(-1, -2)
    sym *= 0.5
    return sym


def _symmetrized_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (m + m*)/2, of a matrix or of each member of
    a stack, with no Hermitian check.

    For matrices Hermitian in exact arithmetic that the package forms
    itself, such as the Gram I - Z*Z of a point or the imaginary part
    (Z - Z*)/2i of a Siegel point.  The rounding of a formed product grows
    with its entries, |Z|^2 for a Gram, so an absolute ``eq_tol`` check
    would reject a point with large entries instead of letting its margin
    classify it.  The symmetrization alone gives the eigensolve a Hermitian
    input."""
    try:
        return np.linalg.eigvalsh(_symmetrized(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values; count = min(rows, cols)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    return _singular_values(m)


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of a matrix or of each member of a stack."""
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"SVD failed: {exc}") from exc


def _stack_label(flat: int, batch: tuple[int, ...]) -> str:
    """Prefix naming a member of a stack, empty for a single matrix."""
    if not batch:
        return ""
    index = np.unravel_index(flat, batch)
    return f"matrix {int(index[0]) if len(batch) == 1 else tuple(int(i) for i in index)}: "


_EPS = float(np.finfo(np.float64).eps)

# A matrix is cleared without an SVD when its bounds put the condition
# number at most this share of 1/psd_margin (see _certified).
_CERTIFIED_SHARE = 1.0 / 16.0


def _spectral_slack(order: int) -> float:
    """An upper bound on p(n) u at order n, taken as n^3 eps: the factor in
    LAPACK's error bounds |s' - s| <= p(n) u ||A||_2 on computed singular
    values and Hermitian eigenvalues, with p(n) a modestly growing
    function of n (LAPACK Users' Guide, 3rd ed., sections 4.7 and 4.9).
    As n^3 eps = 2 n^3 u, it also covers the rounding of forming the Gram
    matrix I - Z*Z of a contraction, at most n^2 u in norm."""
    return order**3 * _EPS


def _certified(hi, lo, order: int, tol: Tolerance) -> np.ndarray:
    """Where the bounds sigma_max <= hi and sigma_min >= lo on the singular
    values of order-n matrices prove that an SVD condition test passes:
    ``hi * psd_margin <= lo / 16``, elementwise over members.

    The tests this stands in for take the computed extreme singular values
    s'_max, s'_min of a matrix, or of a group of matrices tested together,
    and reject when ``s'_min <= 0 or s'_max / s'_min > 1/psd_margin``
    (:func:`solve_right`) or when ``s'_min <= psd_margin * s'_max`` (the
    Cayley transforms).  Rounding argument for a cleared member, with
    m = psd_margin and c = 1/16:

    * The bounds.  Callers form hi and lo from a few norms, products and
      square roots, so they bound the exact extreme singular values to a
      relative error far below 1/8; the true ratio is at most
      (9/8) c / m = 9 / (128 m).
    * The SVD.  LAPACK's computed singular values satisfy
      |s' - s| <= p(n) u s_max.  This helper clears nothing unless
      p(n) u <= n^3 eps <= m / 8 (:func:`_spectral_slack`).  Then
      s'_min >= s_min - (m/8) s_max >= s_min (1 - 9/1024) > 0 and
      s'_max <= s_max (1 + m/8).
    * The test.  The computed ratio s'_max / s'_min, with its own rounding,
      is below 1.01 * 9 / (128 m) < 1 / (12 m), more than 12 times below
      the rejection threshold 1/m of either test.

    So a cleared member passes the SVD test; a member not cleared, and any
    member whose bounds are NaN, must take that test.
    """
    if _spectral_slack(order) > tol.psd_margin / 8.0:
        return np.zeros(np.broadcast_shapes(np.shape(hi), np.shape(lo)), dtype=bool)
    return np.asarray(hi * tol.psd_margin <= _CERTIFIED_SHARE * lo)


# Frobenius norms below this may have lost the squares of small entries to
# underflow, so they bound nothing.
_NORM_FLOOR = 2.0**-450


def solve_right(
    a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Solve X @ b = a for X, with b square and well conditioned.

    Rejects systems whose condition number exceeds 1/psd_margin and
    verifies the residual ``max|X b - a| <= eq_tol * max|a|`` before
    returning.  ``a`` and ``b`` may be stacks ``(..., n, k)`` and
    ``(..., k, k)`` with equal leading shapes; each member is checked on
    its own, and an error names the first failing member.

    One LU solve gives X and an approximate inverse Z of b^T together.
    Where the residual r = ||b^T Z - I||_F is at most 1/2,
    sigma_min(b) >= (1 - r) / ||Z||_F >= 1 / (2 ||Z||_F) holds whatever the
    accuracy of Z, and sigma_max(b) <= ||b||_F; on a member these bounds
    clear, the rounding of r is below 1/500.  They clear most members of
    the condition test without an SVD (see :func:`_certified`); the SVD
    decides the others, and the whole stack when the LU meets an exactly
    singular member.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    _require_square(b, "right-hand factor")
    if a.shape[:-2] != b.shape[:-2] or a.ndim != b.ndim or a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    n, k = a.shape[-2], b.shape[-1]
    eye = np.eye(k, dtype=np.complex128)
    transposed = b.swapaxes(-1, -2)
    rhs = np.zeros(b.shape[:-1] + (n + k,), dtype=np.complex128)
    rhs[..., :n] = a.swapaxes(-1, -2)
    rhs[..., n:] = eye
    try:
        # X has the bits of the solve for a alone: LAPACK solves each
        # right-hand column by the same steps.
        both = np.linalg.solve(transposed, rhs)
    except np.linalg.LinAlgError:
        return _solve_conditioned(a, b, _singular_values(b), tol)
    # X in the layout of the solve for a alone, so that the residual's
    # product takes the same path.
    x, inverse = np.ascontiguousarray(both[..., :n]).swapaxes(-1, -2), both[..., n:]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        defect = transposed @ inverse
        defect -= eye
        # Frobenius norms, from the squares of the real and imaginary parts.
        parts = np.stack([b, inverse, defect]).view(np.float64)
        norm, inverse_norm, defect_norm = np.sqrt(np.einsum("...ij,...ij->...", parts, parts))
        unsettled = ~(
            _certified(norm, 0.5 / inverse_norm, k, tol)
            & (defect_norm <= 0.5)
            & (np.minimum(norm, inverse_norm) >= _NORM_FLOOR)
        )
    bad = np.zeros(b.shape[:-2], dtype=bool)
    if unsettled.any():
        sv = _singular_values(b[unsettled])
        bad[unsettled] = _ill_conditioned(sv[..., 0], sv[..., -1], tol)
    _raise_ill_conditioned(bad, tol)
    return _residual_checked(x, a, b, tol)


def _solve_conditioned(a: np.ndarray, b: np.ndarray, sv: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The SVD condition test and the checked solve of :func:`solve_right`,
    given the singular values ``sv`` of ``b``."""
    _raise_ill_conditioned(_ill_conditioned(sv[..., 0], sv[..., -1], tol), tol)
    return _residual_checked(_solve_unchecked(a, b), a, b, tol)


def _raise_ill_conditioned(bad: np.ndarray, tol: Tolerance) -> None:
    """Raise the condition error of :func:`solve_right` for the first member
    of a stack where ``bad`` holds."""
    if bad.any():
        label = _stack_label(int(np.argmax(bad.reshape(-1))), bad.shape)
        raise SingularSystem(f"{label}condition number exceeds {1.0 / tol.psd_margin:.3e}")


def _residual_checked(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """X, after the residual check of :func:`solve_right`."""
    residual, bound = _residuals(x, a, b, tol)
    over = residual > bound
    if over.any():
        flat = int(np.argmax(over.reshape(-1)))
        label = _stack_label(flat, b.shape[:-2])
        raise SingularSystem(f"{label}solution residual {residual.reshape(-1)[flat]:.3e} exceeds tolerance")
    return x


def _ill_conditioned(largest: np.ndarray, smallest: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Where a matrix with these extreme singular values has a condition
    number above 1/psd_margin (or is singular): the test of :func:`solve_right`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (smallest <= 0.0) | (largest / smallest > 1.0 / tol.psd_margin)


def _solve_unchecked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with X @ b = a for matching stacks, with no condition or residual check."""
    try:
        return np.linalg.solve(b.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"solve failed: {exc}") from exc


def _residuals(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Per member, ``max|X b - a|`` and the bound :func:`solve_right` holds it to."""
    residual = np.abs(x @ b - a).max(axis=(-2, -1), initial=0.0)
    bound = tol.eq_tol * np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), 1.0)
    return residual, bound
