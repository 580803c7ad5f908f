"""The transvection, the reference the Kobayashi distance is checked
against.

``transvection_to_origin`` builds the Moebius automorphism of a type I
matrix ball that sends a base point to the origin,

    g_a(Z) = (I - a a*)^{-1/2} (Z - a) (I - a* Z)^{-1} (I - a* a)^{1/2},

from one eigensystem each of I - a a* and I - a* a.  The largest singular
value of ``g_x(y)`` is tanh of the distance of x and y, so this is an
independent oracle for :func:`siegelmaps.domains.kobayashi_distance`,
which takes Cholesky factors instead and moves nothing.

Its accuracy limit: the eigendecomposition loses accuracy like
eps / (1 - r^2) near the sphere, r the norm of the base, and the oracle
agrees with the kernel to about 2e-15 / (1 - r^2).  At r = 1 - 1e-6 it is
within 1.1e-10 of 40-digit references, where the Cholesky kernel is
within 2.1e-11 and the closed form on the ball within 2.5e-16.  So a test
against this oracle allows 2e-15 / (1 - r^2), not a fixed bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from siegelmaps.domains import BallPoint, DomainKind, DomainPoint, DomainShape, _interior_detail
from siegelmaps.errors import IllConditioned, MembershipViolation, NoConvergence, ShapeMismatch, SingularSystem
from siegelmaps.linalg import DEFAULT_TOLERANCE, Tolerance, _symmetrized

from hermitian_check import _require_hermitian
from svd_solve import svd_solve_right


def hermitian_eigensystem(m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    sym = _symmetrized(_require_hermitian(m, tol))
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    return values, vectors


def _inverse_sqrt_from(values: np.ndarray, vectors: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Inverse square root from an ascending eigensystem of I - a a*."""
    if values[0] <= tol.psd_margin:
        raise IllConditioned(
            f"base point too close to the boundary: matrix not positive definite within margin: {values[0]:.3e}"
        )
    return (vectors * (values**-0.5)[np.newaxis, :]) @ vectors.conj().T


def _require_margin(margin: float, tol: Tolerance) -> None:
    """The interior test of ``membership`` on a margin already measured."""
    if not margin > tol.psd_margin:
        raise MembershipViolation(f"transvection base {_interior_detail(margin)}")


@dataclass(frozen=True)
class Transvection:
    """Moebius automorphism of a type I matrix ball sending ``base`` to 0."""

    shape: DomainShape
    base: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tol: Tolerance

    def apply(self, pt: DomainPoint) -> DomainPoint:
        if pt.shape != self.shape:
            raise ShapeMismatch(f"transvection on {self.shape} applied to {pt.shape}")
        eye = np.eye(self.shape.q, dtype=np.complex128)
        try:
            middle = svd_solve_right(pt.z - self.base, eye - self.base.conj().T @ pt.z, self.tol)
        except SingularSystem as exc:
            raise IllConditioned(f"transvection denominator near singular: {exc}") from exc
        return DomainPoint(self.shape, self.left @ middle @ self.right)


def as_type_i(pt: DomainPoint | BallPoint) -> DomainPoint:
    """The same point, a ball point as a column of the matrix ball I_{n,1}."""
    if isinstance(pt, BallPoint):
        return DomainPoint(DomainShape(DomainKind.TYPE_I, pt.n, 1), pt.coords.reshape(-1, 1))
    return pt


def transvection_to_origin(a: DomainPoint | BallPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> Transvection:
    """Automorphism handle moving an interior type I point to the origin."""
    pt = as_type_i(a)
    if pt.shape.kind is not DomainKind.TYPE_I:
        raise ShapeMismatch(f"transvections act on type I points, got {pt.shape.kind.value}")
    z = pt.z
    p, q = pt.shape.p, pt.shape.q
    # One eigensystem each of I - ZZ* and I - Z*Z.  The smaller side, the
    # one membership() measures, comes first and gives the interior check.
    left_gram = np.eye(p, dtype=np.complex128) - z @ z.conj().T
    right_gram = np.eye(q, dtype=np.complex128) - z.conj().T @ z
    if p >= q:
        right_values, right_vectors = hermitian_eigensystem(right_gram, tol)
        _require_margin(float(right_values[0]), tol)
        left_system = hermitian_eigensystem(left_gram, tol)
    else:
        left_system = hermitian_eigensystem(left_gram, tol)
        _require_margin(float(left_system[0][0]), tol)
        right_values, right_vectors = hermitian_eigensystem(right_gram, tol)
    left = _inverse_sqrt_from(*left_system, tol)
    right = (right_vectors * np.sqrt(right_values)[np.newaxis, :]) @ right_vectors.conj().T
    return Transvection(pt.shape, z, left, right, tol)
