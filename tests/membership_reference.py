"""``membership`` as it was written before the one-point round trip lost its
per-call glue: a fresh identity per Gram, the asymmetry taken by a
two-axis reduction outside the ``errstate`` scope, and the positivity
matrix formed inside it.  ``test_round_trip`` holds the package's
``membership`` to it byte for byte: status, ``repr`` of the margin and
reason.  Entries too large to subtract warn here, as they did."""

from __future__ import annotations

import numpy as np

from siegelmaps import DomainKind, MembershipResult, MembershipStatus


def _asymmetries(z: np.ndarray) -> np.ndarray:
    return np.abs(z - z.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _contraction_grams(z: np.ndarray) -> np.ndarray:
    adjoint = z.conj().swapaxes(-1, -2)
    gram = adjoint @ z if z.shape[-2] >= z.shape[-1] else z @ adjoint
    return np.subtract(np.eye(gram.shape[-1], dtype=np.complex128), gram, out=gram)


def _positivity(pt) -> np.ndarray:
    if pt.shape.kind is DomainKind.SIEGEL:
        half = pt.z * 0.5
        return (half - half.conj().T) / 1j
    return _contraction_grams(pt.z)


def _symmetrized_eigenvalues(m: np.ndarray) -> np.ndarray:
    half = m * 0.5
    return np.linalg.eigvalsh(np.add(half, half.conj().swapaxes(-1, -2)))


def _gram_margin(gram: np.ndarray) -> float:
    if np.count_nonzero(np.isfinite(gram)) == gram.size:
        return float(_symmetrized_eigenvalues(gram)[0])
    return -np.inf


def membership(pt, tol) -> MembershipResult:
    reason = None
    if pt.shape.kind is not DomainKind.TYPE_I:
        defect = float(_asymmetries(pt.z))
        if defect > tol.eq_tol:
            reason = f"matrix is not symmetric: max|Z - Z^t| = {defect:.3e}"
    with np.errstate(over="ignore", invalid="ignore"):
        positivity = _positivity(pt)
    margin = _gram_margin(positivity)
    if reason is not None:
        return MembershipResult(MembershipStatus.OUTSIDE, margin, reason)
    if margin > tol.psd_margin:
        return MembershipResult(MembershipStatus.INTERIOR, margin)
    if margin < -tol.psd_margin:
        return MembershipResult(MembershipStatus.OUTSIDE, margin)
    return MembershipResult(MembershipStatus.BOUNDARY, margin)
