"""Classical bounded matrix domains and the Siegel upper half space.

Models three kinds of points in their standard (Harish-Chandra) matrix
coordinates:

* type I: p x q complex matrices Z with ``I - Z* Z`` positive definite,
* type III: symmetric k x k matrices in the type I ball (the bounded model
  of the Siegel upper half space),
* Siegel: symmetric g x g matrices with positive-definite imaginary part.

The module provides membership classification with explicit margins, the
Cayley transform between the Siegel and bounded models, origin-moving
Moebius automorphisms, and Kobayashi distances.  Distances on the matrix
ball are computed in closed form: transvect the first argument to the
origin and take arctanh of the largest singular value.  Type III points
are measured as points of the ambient type I ball; Siegel points are
measured through the Cayley transform.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    MembershipViolation,
    RankDeficient,
    ShapeMismatch,
    SingularCayley,
    SingularSystem,
)
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _inverse_sqrt_from,
    as_complex_matrix,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    max_abs,
    singular_values,
    solve_right,
)

__all__ = [
    "BallPoint",
    "DomainKind",
    "DomainPoint",
    "DomainShape",
    "MembershipResult",
    "MembershipStatus",
    "Transvection",
    "ball_distance",
    "ball_infinitesimal_metric",
    "ball_point",
    "cayley",
    "cayley_to_bounded",
    "cayley_to_siegel",
    "kobayashi_distance",
    "membership",
    "siegel_shape",
    "transvection_to_origin",
    "type_i_shape",
    "type_iii_shape",
]


class DomainKind(str, enum.Enum):
    TYPE_I = "I"
    TYPE_III = "III"
    SIEGEL = "Siegel"


@dataclass(frozen=True)
class DomainShape:
    """Shape descriptor: kind plus matrix dimensions.

    For type I the point matrices are p x q; for type III and Siegel they
    are p x p symmetric and q is ignored (stored equal to p).
    """

    kind: DomainKind
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise DimensionMismatch(f"shape dimensions must be positive, got {self.p}x{self.q}")
        if self.kind is not DomainKind.TYPE_I and self.q != self.p:
            raise DimensionMismatch(f"{self.kind.value} shapes are square, got {self.p}x{self.q}")

    @property
    def rows(self) -> int:
        return self.p

    @property
    def cols(self) -> int:
        return self.q

    @property
    def ambient_dim(self) -> int:
        """Complex dimension of the ambient coordinate space."""
        if self.kind is DomainKind.TYPE_I:
            return self.p * self.q
        return self.p * (self.p + 1) // 2


def type_i_shape(p: int, q: int) -> DomainShape:
    return DomainShape(DomainKind.TYPE_I, p, q)


def type_iii_shape(k: int) -> DomainShape:
    return DomainShape(DomainKind.TYPE_III, k, k)


def siegel_shape(g: int) -> DomainShape:
    return DomainShape(DomainKind.SIEGEL, g, g)


@dataclass(frozen=True)
class DomainPoint:
    """A matrix point tagged with its domain shape.

    Construction validates dimensions and finiteness only; membership (and
    symmetry, for the square kinds) is classified by :func:`membership` so
    that out-of-domain points remain representable and reportable.
    """

    shape: DomainShape
    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "z", as_complex_matrix(self.z, rows=self.shape.rows, cols=self.shape.cols)
        )


@dataclass(frozen=True)
class BallPoint:
    """Point of the unit ball in C^n, Euclidean norm strictly below one."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coords, dtype=np.complex128).reshape(-1)
        if c.size < 1:
            raise DimensionMismatch("ball point needs at least one coordinate")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise DimensionMismatch("ball coordinates must be finite")
        if np.linalg.norm(c) >= 1.0:
            raise MembershipViolation(f"ball point has norm {np.linalg.norm(c):.6f} >= 1")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return int(self.coords.size)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def as_type_i(self) -> DomainPoint:
        """The same point as a column of the matrix ball I_{n,1}."""
        return DomainPoint(type_i_shape(self.n, 1), self.coords.reshape(-1, 1))


def ball_point(coords) -> BallPoint:
    return BallPoint(np.asarray(coords, dtype=np.complex128))


class MembershipStatus(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class MembershipResult:
    status: MembershipStatus
    margin: float
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.status is MembershipStatus.INTERIOR


def _contraction_margin(z: np.ndarray, tol: Tolerance) -> float:
    """Smallest eigenvalue of I - Z*Z, computed on the smaller square side."""
    if z.shape[0] >= z.shape[1]:
        gram = z.conj().T @ z
    else:
        gram = z @ z.conj().T
    eye = np.eye(gram.shape[0], dtype=np.complex128)
    return float(hermitian_eigenvalues(eye - gram, tol)[0])


def _asymmetry(pt: DomainPoint, tol: Tolerance) -> str | None:
    """Why a point of a square kind fails the symmetry test, or None."""
    if pt.shape.kind is DomainKind.TYPE_I:
        return None
    defect = max_abs(pt.z - pt.z.T)
    if defect > tol.eq_tol:
        return f"matrix is not symmetric: max|Z - Z^t| = {defect:.3e}"
    return None


def membership(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> MembershipResult:
    """Classify a point as Interior / Boundary / Outside with its margin.

    The margin is the smallest eigenvalue of the defining positivity
    matrix (``I - Z*Z`` for the bounded kinds, ``Im Z`` for Siegel).
    Square kinds additionally require symmetry up to ``eq_tol``; an
    asymmetric point is Outside with the defect named in ``reason``.
    """
    z = pt.z
    reason = _asymmetry(pt, tol)
    if pt.shape.kind is DomainKind.SIEGEL:
        imag = (z - z.conj().T) / 2j
        margin = float(hermitian_eigenvalues(imag, tol)[0])
    else:
        margin = _contraction_margin(z, tol)
    if reason is not None:
        return MembershipResult(MembershipStatus.OUTSIDE, margin, reason)
    if margin > tol.psd_margin:
        return MembershipResult(MembershipStatus.INTERIOR, margin)
    if margin < -tol.psd_margin:
        return MembershipResult(MembershipStatus.OUTSIDE, margin)
    return MembershipResult(MembershipStatus.BOUNDARY, margin)


def _require_interior(pt: DomainPoint, tol: Tolerance, what: str) -> MembershipResult:
    result = membership(pt, tol)
    if not result:
        detail = result.reason or f"margin {result.margin:.3e}"
        raise MembershipViolation(f"{what} must be an interior point: {detail}")
    return result


def _require_margin(margin: float, tol: Tolerance, what: str) -> None:
    """The interior test of :func:`membership` on a margin already measured."""
    if not margin > tol.psd_margin:
        raise MembershipViolation(f"{what} must be an interior point: margin {margin:.3e}")


def cayley_to_bounded(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Siegel upper half space to bounded model: W = (Z - iI)(Z + iI)^-1.

    The center i*I maps to the origin.
    """
    if pt.shape.kind is not DomainKind.SIEGEL:
        raise ShapeMismatch(f"expected a Siegel point, got kind {pt.shape.kind.value}")
    _require_interior(pt, tol, "Cayley input")
    g = pt.shape.p
    eye = np.eye(g, dtype=np.complex128)
    denom = pt.z + 1j * eye
    sv = singular_values(denom)
    if sv[-1] <= tol.psd_margin * sv[0]:
        raise SingularCayley("Z + iI is numerically singular")
    w = solve_right(pt.z - 1j * eye, denom, tol)
    return DomainPoint(type_iii_shape(g), w)


def cayley_to_siegel(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Bounded model to Siegel upper half space: Z = i(I - W)^-1 (I + W)."""
    if pt.shape.kind is not DomainKind.TYPE_III:
        raise ShapeMismatch(f"expected a type III point, got kind {pt.shape.kind.value}")
    _require_interior(pt, tol, "Cayley input")
    g = pt.shape.p
    eye = np.eye(g, dtype=np.complex128)
    denom = eye - pt.z
    sv = singular_values(denom)
    if sv[-1] <= tol.psd_margin * sv[0]:
        raise SingularCayley("I - W is numerically singular")
    # (I + W)(I - W)^-1 commutes, so left/right placement agree.
    z = 1j * solve_right(eye + pt.z, denom, tol)
    return DomainPoint(siegel_shape(g), z)


def cayley(pt: DomainPoint, direction: str, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Dispatch on direction: ``"to-bounded"`` or ``"to-siegel"``."""
    if direction == "to-bounded":
        return cayley_to_bounded(pt, tol)
    if direction == "to-siegel":
        return cayley_to_siegel(pt, tol)
    raise ValueError(f"unknown Cayley direction {direction!r}")


@dataclass(frozen=True)
class Transvection:
    """Moebius automorphism of a type I matrix ball sending ``base`` to 0.

    g_a(Z) = (I - a a*)^{-1/2} (Z - a) (I - a* Z)^{-1} (I - a* a)^{1/2}
    """

    shape: DomainShape
    base: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tol: Tolerance

    def apply(self, pt: DomainPoint) -> DomainPoint:
        if pt.shape != self.shape:
            raise ShapeMismatch(f"transvection on {self.shape} applied to {pt.shape}")
        eye = np.eye(self.shape.cols, dtype=np.complex128)
        try:
            middle = solve_right(pt.z - self.base, eye - self.base.conj().T @ pt.z, self.tol)
        except SingularSystem as exc:
            raise IllConditioned(f"transvection denominator near singular: {exc}") from exc
        return DomainPoint(self.shape, self.left @ middle @ self.right)


def transvection_to_origin(a: DomainPoint | BallPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> Transvection:
    """Automorphism handle moving an interior type I point to the origin."""
    pt = a.as_type_i() if isinstance(a, BallPoint) else a
    if pt.shape.kind is not DomainKind.TYPE_I:
        raise ShapeMismatch(f"transvections act on type I points, got {pt.shape.kind.value}")
    z = pt.z
    p, q = pt.shape.rows, pt.shape.cols
    # One eigensystem each of I - ZZ* and I - Z*Z.  The smaller side, the
    # one membership() measures, comes first and gives the interior check.
    left_gram = np.eye(p, dtype=np.complex128) - z @ z.conj().T
    right_gram = np.eye(q, dtype=np.complex128) - z.conj().T @ z
    if p >= q:
        right_values, right_vectors = hermitian_eigensystem(right_gram, tol)
        _require_margin(float(right_values[0]), tol, "transvection base")
        left_system = hermitian_eigensystem(left_gram, tol)
    else:
        left_system = hermitian_eigensystem(left_gram, tol)
        _require_margin(float(left_system[0][0]), tol, "transvection base")
        right_values, right_vectors = hermitian_eigensystem(right_gram, tol)
    try:
        left = _inverse_sqrt_from(*left_system, tol)
    except RankDeficient as exc:
        raise IllConditioned(f"base point too close to the boundary: {exc}") from exc
    right = (right_vectors * np.sqrt(right_values)[np.newaxis, :]) @ right_vectors.conj().T
    return Transvection(pt.shape, z, left, right, tol)


def _as_matrix_ball(pt: DomainPoint, tol: Tolerance) -> DomainPoint:
    """View a point inside its ambient type I ball, Cayley-transforming Siegel input."""
    if pt.shape.kind is DomainKind.SIEGEL:
        pt = cayley_to_bounded(pt, tol)
    if pt.shape.kind is DomainKind.TYPE_III:
        return DomainPoint(type_i_shape(pt.shape.p, pt.shape.p), pt.z)
    return pt


def kobayashi_distance(
    x: DomainPoint | BallPoint,
    y: DomainPoint | BallPoint,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Kobayashi distance between two interior points of the same shape.

    Computed as arctanh of the largest singular value of y transvected by
    the automorphism moving x to the origin.  On the ball this is the
    Poincare distance.  x is checked for interiority by the transvection
    (and by the Cayley transform for Siegel points), so only its symmetry
    is checked here.
    """
    if isinstance(x, BallPoint) != isinstance(y, BallPoint):
        raise ShapeMismatch("cannot mix ball points and matrix points")
    if isinstance(x, BallPoint):
        x, y = x.as_type_i(), y.as_type_i()
    if x.shape != y.shape:
        raise ShapeMismatch(f"points live on different shapes: {x.shape} vs {y.shape}")
    reason = _asymmetry(x, tol)
    if reason is not None:
        raise MembershipViolation(f"distance argument must be an interior point: {reason}")
    _require_interior(y, tol, "distance argument")
    x, y = _as_matrix_ball(x, tol), _as_matrix_ball(y, tol)
    moved = transvection_to_origin(x, tol).apply(y)
    top = float(singular_values(moved.z)[0])
    if top >= 1.0:
        raise IllConditioned(f"transvected point has norm {top:.6f} >= 1")
    return float(np.arctanh(top))


def ball_distance(x: BallPoint, y: BallPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Poincare (= Kobayashi) distance on the unit ball."""
    return kobayashi_distance(x, y, tol)


def ball_infinitesimal_metric(x: BallPoint, v) -> float:
    """Kobayashi-Poincare length of tangent vector v at ball point x.

    Closed form on the ball:

        k(x, v)^2 = (|v|^2 (1 - |x|^2) + |<x, v>|^2) / (1 - |x|^2)^2

    with the Hermitian inner product <x, v> = sum conj(x_i) v_i.  At the
    origin this is the Euclidean norm of v.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != x.n:
        raise DimensionMismatch(f"vector length {v.size} != ball dimension {x.n}")
    rho = 1.0 - x.norm**2
    pairing = np.vdot(x.coords, v)
    value = (float(np.vdot(v, v).real) * rho + abs(pairing) ** 2) / rho**2
    return float(np.sqrt(value))
