"""The SVD-only condition test, the reference the package's conditioned
solves are checked against.

``svd_solve_right`` solves X @ b = a with no bounds: it takes the singular
values of every member of ``b``, rejects members whose condition number
exceeds 1/psd_margin, solves the whole stack and checks each member's
residual, naming the first failing member.  The package's
``linalg._solve_conditioned`` takes the SVD only of the members its
caller's bounds do not clear; the wedge oracle, the Cayley transforms and
the transvection reference must give this function's bits and messages.
"""

from __future__ import annotations

import numpy as np

from siegelmaps.errors import DimensionMismatch, NoConvergence, SingularSystem
from siegelmaps.linalg import DEFAULT_TOLERANCE, Tolerance


def _label(flat: int, batch: tuple[int, ...]) -> str:
    if not batch:
        return ""
    index = np.unravel_index(flat, batch)
    return f"matrix {int(index[0]) if len(batch) == 1 else tuple(int(i) for i in index)}: "


def svd_solve_right(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """X with X @ b = a, after an SVD condition test of every member of b."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"right-hand factor must be square, got shape {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.ndim != b.ndim or a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    try:
        sv = np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed: {exc}") from exc
    batch = b.shape[:-2]
    largest, smallest = sv[..., 0], sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (smallest <= 0.0) | (largest / smallest > 1.0 / tol.psd_margin)
    if bad.any():
        label = _label(int(np.argmax(bad.reshape(-1))), batch)
        raise SingularSystem(f"{label}condition number exceeds {1.0 / tol.psd_margin:.3e}")
    try:
        x = np.linalg.solve(b.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"solve failed: {exc}") from exc
    residual = np.abs(x @ b - a).max(axis=(-2, -1), initial=0.0)
    bound = tol.eq_tol * np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), 1.0)
    over = residual > bound
    if over.any():
        flat = int(np.argmax(over.reshape(-1)))
        label = _label(flat, batch)
        raise SingularSystem(f"{label}solution residual {residual.reshape(-1)[flat]:.3e} exceeds tolerance")
    return x
