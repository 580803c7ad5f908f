"""Dense complex matrix kernel.

Every other module funnels its numerics through the handful of operations
here, so the tolerance regime is defined in one place: ``Tolerance.eq_tol``
bounds residuals of equality assertions and ``Tolerance.psd_margin`` is the
minimum-eigenvalue bound below which positivity is not trusted.

A condition test rejects a matrix whose condition number exceeds
1/psd_margin, and decides on the matrix as computed.  Where bounds
sigma_max <= hi and sigma_min >= lo on the computed matrix's singular
values give lo > psd_margin * hi (``_cleared``), the condition number is
provably below the limit and no SVD runs; any other member takes an SVD,
and the test compares the ratio of its computed extreme singular values
with 1/psd_margin.  ``_require_conditioned`` is that test, for the
distance kernels, the Cayley transforms and ``_solve_conditioned``, the
wedge oracle's solve with that test and a residual check.  The callers'
bounds cover the rounding of forming their matrices: the wedge oracle's
negative block has singular values 1 and 1 - |z|^2 in closed form, and
I - X*Y, I - W and Z + iI are bounded from interior margins and norms
(``domains._formed_bounds``), at any order.

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
    if _frozen(data):
        m = data
    else:
        m = np.array(data, dtype=np.complex128, order="C")
        m.setflags(write=False)
    shape = m.shape
    if len(shape) != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={len(shape)}")
    if shape[0] < 1 or shape[1] < 1:
        raise DimensionMismatch(f"matrix must be at least 1x1, got {shape}")
    if rows is not None and shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {shape[0]}")
    if cols is not None and shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {shape[1]}")
    if not _all_finite(m):
        raise DimensionMismatch("matrix entries must be finite")
    return m


def _frozen(data) -> bool:
    """Whether ``data`` is a read-only, C-contiguous complex128 array that
    owns its data: the form a point keeps without a copy."""
    if not (isinstance(data, np.ndarray) and data.dtype == np.complex128):
        return False
    flags = data.flags
    return flags.c_contiguous and flags.owndata and not flags.writeable


def _all_finite(m: np.ndarray) -> bool:
    """Whether every entry of an array, both parts of a complex one, is
    finite."""
    return np.count_nonzero(np.isfinite(m)) == m.size


def _symmetrized(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(m + m*)/2 of a square matrix or stack, as half + half* with
    half = m/2 so that it is finite wherever m is; written to ``out`` when
    given."""
    half = m * 0.5
    return np.add(half, half.conj().mT, out=out)


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


def _squared_norms(coords: np.ndarray) -> np.ndarray:
    """|z|^2 along the last axis of a coordinate stack, from the dot
    products of the real and of the imaginary parts: the bits of the square
    of ``np.linalg.norm``, which takes the same dot products."""
    return np.vecdot(coords.real, coords.real) + np.vecdot(coords.imag, coords.imag)


def _stack_label(flat: int, batch: tuple[int, ...]) -> str:
    """Prefix naming a member of a stack, empty for a single matrix."""
    if not batch:
        return ""
    index = np.unravel_index(flat, batch)
    return f"matrix {int(index[0]) if len(batch) == 1 else tuple(int(i) for i in index)}: "


_EPS = float(np.finfo(np.float64).eps)


def _spectral_slack(order: int) -> float:
    """An upper bound on p(n) u at order n, taken as n^3 eps: the factor in
    LAPACK's error bound |l' - l| <= p(n) u ||A||_2 on computed Hermitian
    eigenvalues, with p(n) a modestly growing function of n (LAPACK Users'
    Guide, 3rd ed., section 4.7).  As n^3 eps = 2 n^3 u, it also covers the
    rounding of forming the Gram matrix I - Z*Z of a contraction, at most
    n^2 u in norm."""
    return order**3 * _EPS


def _cleared(hi, lo, tol: Tolerance) -> np.ndarray:
    """Where bounds sigma_max <= hi and sigma_min >= lo on the singular
    values of computed matrices prove a condition number below
    1/psd_margin: ``lo > psd_margin * hi``, elementwise over members.  NaN
    bounds clear nothing.  The bounds are the callers' to widen by the
    rounding of forming them and of psd_margin * hi."""
    return np.asarray(lo > tol.psd_margin * hi)


def _solve_conditioned(a: np.ndarray, b: np.ndarray, bounds, tol: Tolerance) -> np.ndarray:
    """X with X @ b = a, for a system or for matching stacks ``(..., n, k)``
    and ``(..., k, k)``, after the condition test and the residual check,
    either of which names the first failing member of a stack.

    ``bounds`` (hi, lo) bound the singular values of each member of b, as
    :func:`_require_conditioned` takes them: only the members they do not
    clear take an SVD.  Each member has the bits of its system solved
    alone: LAPACK solves each member and right-hand column by the same
    steps.
    """
    _require_conditioned([b], bounds, tol)
    return _residual_checked(_solve_unchecked(a, b), a, b, tol)


def _require_conditioned(
    stacks, bounds, tol: Tolerance, label=_stack_label, error=SingularSystem, joined=(0.0, np.inf)
) -> None:
    """The condition test of the members of ``(*members, ..., k, k)``
    stacks, given ``bounds`` (hi, lo), which broadcast to the member shape,
    on the singular values of each member's computed matrices: it rejects
    a member that is singular or whose condition number exceeds
    1/psd_margin.  A member the bounds clear (:func:`_cleared`) passes with no SVD; each stack takes
    one SVD of the other members, whose extreme singular values are joined
    over their matrices in all stacks and with ``joined``, (1, 1) standing
    for the zero padding of blocks of several sizes to one order.  The
    first failing member raises ``error`` prefixed by
    ``label(flat index, member shape)``, by default ``matrix i: ``.
    """
    unsettled = ~_cleared(*bounds, tol)
    if not np.count_nonzero(unsettled):
        return
    largest, smallest = joined
    for stack in stacks:
        sv = _singular_values(stack[unsettled])
        sv = sv.reshape(len(sv), -1, sv.shape[-1])
        largest = np.maximum(largest, sv[..., 0].max(axis=1))
        smallest = np.minimum(smallest, sv[..., -1].min(axis=1))
    bad = np.zeros(unsettled.shape, dtype=bool)
    bad[unsettled] = _ill_conditioned(largest, smallest, tol)
    if np.count_nonzero(bad):
        flat = int(np.argmax(bad.reshape(-1)))
        raise error(f"{label(flat, bad.shape)}condition number exceeds {1.0 / tol.psd_margin:.3e}")


def _residual_checked(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """X, after the residual check ``max|X b - a| <= eq_tol * max(1, max|a|)``
    of each member, naming the first member that fails it."""
    residual = _residual(x, a, b)
    # The bound is at least eq_tol, so it is formed only where that is passed.
    if np.count_nonzero(residual > tol.eq_tol):
        over = residual > _residual_bound(a, tol)
        if np.count_nonzero(over):
            flat = int(np.argmax(over.reshape(-1)))
            label = _stack_label(flat, b.shape[:-2])
            raise SingularSystem(f"{label}solution residual {residual.reshape(-1)[flat]:.3e} exceeds tolerance")
    return x


def _ill_conditioned(largest: np.ndarray, smallest: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Where a matrix with these extreme singular values has a condition
    number above 1/psd_margin (or is singular): the condition test of
    :func:`_require_conditioned`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (smallest <= 0.0) | (largest / smallest > 1.0 / tol.psd_margin)


def _solve_unchecked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with X @ b = a for matching stacks, with no condition or residual check."""
    try:
        return np.linalg.solve(b.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"solve failed: {exc}") from exc


def _residual(x: np.ndarray, a: np.ndarray, b: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Per member, ``max|X b - a|`` over ``axis``, which may also span the
    blocks of a member."""
    return np.abs(x @ b - a).max(axis=axis, initial=0.0)


def _residual_bound(a: np.ndarray, tol: Tolerance, axis=(-2, -1)) -> np.ndarray:
    """Per member, ``eq_tol * max(1, max|a|)`` over ``axis``: the bound
    :func:`_residual_checked` holds :func:`_residual` to."""
    return tol.eq_tol * np.maximum(np.abs(a).max(axis=axis, initial=0.0), 1.0)
