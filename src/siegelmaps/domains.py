"""Classical bounded matrix domains and the Siegel upper half space.

Models three kinds of points in their standard (Harish-Chandra) matrix
coordinates:

* type I: p x q complex matrices Z with ``I - Z* Z`` positive definite,
* type III: symmetric k x k matrices in the type I ball (the bounded model
  of the Siegel upper half space),
* Siegel: symmetric g x g matrices with positive-definite imaginary part.

The module provides membership classification with explicit margins, the
Cayley transform between the Siegel and bounded models, and Kobayashi
distances.  A distance is arctanh of the largest singular value of y
moved by the automorphism taking x to the origin, computed without moving
anything: in closed form on the ball, and from Cholesky factors of
I - XX* and I - X*X on the matrix ball, over the exact diagonal blocks of
square points, grouped by size.  Type III points are measured as points
of the ambient type I ball; Siegel points are measured through the Cayley
transform.  The distance kernels run on stacks of pairs, one LAPACK call
per step for all of them.

The positivity matrices, I - Z*Z or Im Z for Siegel points, take one
path for every kind: formed here, symmetrized from halves, so that no
finite entry overflows, and not checked for being Hermitian.  Where an
input only has to be interior (the Cayley transforms, the checked
retraction, the distance kernels, each Siegel side of a distance once),
one Cholesky factorization of the matrix H shifted by 2b,
b = 128 psd_margin + (n + 16) n^3 eps c with c the larger of 1 and the
largest diagonal entry of H (1 for I - Z*Z), proves that the eigensolve
would find the point interior with a margin above b
(:func:`_interior_certificate`); b then stands for the margin.  The
values-only eigensolve runs for the margin that :func:`membership`
returns, and for every input the factorization does not certify, with
the same checks and messages.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    MembershipViolation,
    ShapeMismatch,
    SingularCayley,
    SingularSystem,
)
from .linalg import (
    _EPS,
    DEFAULT_TOLERANCE,
    Tolerance,
    _all_finite,
    _frozen,
    _require_conditioned,
    _residual,
    _residual_bound,
    _residual_checked,
    _solve_unchecked,
    _spectral_slack,
    _symmetrized,
    _symmetrized_eigenvalues,
    as_complex_matrix,
)

__all__ = [
    "BallPoint",
    "DomainKind",
    "DomainPoint",
    "DomainShape",
    "MembershipResult",
    "MembershipStatus",
    "ball_point",
    "cayley",
    "cayley_to_bounded",
    "cayley_to_siegel",
    "kobayashi_distance",
    "membership",
    "siegel_shape",
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


# Shapes are frozen, so each is built and checked once.
@lru_cache(maxsize=None, typed=True)
def type_i_shape(p: int, q: int) -> DomainShape:
    return DomainShape(DomainKind.TYPE_I, p, q)


@lru_cache(maxsize=None, typed=True)
def type_iii_shape(k: int) -> DomainShape:
    return DomainShape(DomainKind.TYPE_III, k, k)


@lru_cache(maxsize=None, typed=True)
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
            self, "z", as_complex_matrix(self.z, rows=self.shape.p, cols=self.shape.q)
        )


@dataclass(frozen=True)
class BallPoint:
    """Point of the unit ball in C^n, Euclidean norm strictly below one.

    The coordinates are kept as a read-only complex vector: a read-only,
    C-contiguous complex128 vector that owns its data is kept as it is, as
    :func:`~siegelmaps.linalg.as_complex_matrix` keeps a matrix; any other
    input is copied and flattened."""

    coords: np.ndarray
    # Euclidean norm of the coordinates, measured once at construction.
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = self.coords
        if not (_frozen(c) and c.ndim == 1):
            c = np.array(c, dtype=np.complex128).reshape(-1)
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        if c.size < 1:
            raise DimensionMismatch("ball point needs at least one coordinate")
        norm = _ball_norm(c)
        # A finite norm proves every coordinate finite.
        if not math.isfinite(norm) and not _all_finite(c):
            raise DimensionMismatch("ball coordinates must be finite")
        if norm >= 1.0:
            raise MembershipViolation(f"ball point has norm {norm:.6f} >= 1")
        object.__setattr__(self, "norm", norm)

    @property
    def n(self) -> int:
        return int(self.coords.size)


@np.errstate(over="ignore")
def _ball_norm(c: np.ndarray) -> float:
    """The Euclidean norm of ball coordinates, inf without a warning where
    they are too large to square."""
    return float(np.linalg.norm(c))


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


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only complex identity of order n."""
    eye = np.eye(n, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


def _contraction_grams(z: np.ndarray, out: np.ndarray | None = None, adjoint: np.ndarray | None = None) -> np.ndarray:
    """The Gram I - Z*Z of a matrix or of each member of a ``(..., p, q)``
    stack, or I - ZZ* where Z is wider than tall: the smaller square side.
    Entries too large to square make entries that are not finite (see
    :func:`_gram_margins`); callers that take such points ignore the
    overflow.  The Grams are written to ``out`` when given; ``adjoint`` is
    Z* where the caller already holds it."""
    if adjoint is None:
        adjoint = z.conj().mT
    gram = np.matmul(adjoint, z, out=out) if z.shape[-2] >= z.shape[-1] else np.matmul(z, adjoint, out=out)
    return np.subtract(_identity(gram.shape[-1]), gram, out=gram)


def _gram_margins(gram: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of a matrix that :func:`_positivity` forms, or of
    each member of a ``(..., n, n)`` stack of them: the margin of a point,
    for a Gram I - Z*Z the contraction margin of Z on the smaller side.

    The matrix is formed here, Hermitian in exact arithmetic, so it goes to
    the eigensolve symmetrized from halves but unchecked
    (:func:`_symmetrized_eigenvalues`).  A Gram's rounding grows with
    |Z|^2: an absolute ``eq_tol`` check would reject a symmetric point with
    entries near 1e6, where the margin should say Outside.  Every entry and
    partial sum of Z*Z is at most s_max(Z)^2 in modulus, so a Gram with an
    entry that is not finite, s_max past about 1.34e154, has 1 - s_max^2
    rounded to -inf: its margin is -inf, with no eigensolve."""
    finite = np.isfinite(gram)
    if np.count_nonzero(finite) == finite.size:
        return _symmetrized_eigenvalues(gram)[..., 0]
    finite = finite.all(axis=(-2, -1))
    margins = np.full(finite.shape, -np.inf)
    margins[finite] = _symmetrized_eigenvalues(gram[finite])[..., 0]
    return margins


def _asymmetries(z: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """max|Z - Z^t| of a square matrix or of each member of a stack, over
    ``axis``, which may also span the blocks of a member."""
    return np.abs(z - z.mT).max(axis=axis, initial=0.0)


def _asymmetry_detail(defect: float) -> str:
    return f"matrix is not symmetric: max|Z - Z^t| = {defect:.3e}"


def _asymmetry(pt: DomainPoint, tol: Tolerance) -> str | None:
    """Why a point of a square kind fails the symmetry test, or None: the
    defect of :func:`_asymmetries`, inf where Z - Z^t overflows, which
    :func:`_asymmetry_and_positivity`'s scope leaves without a warning."""
    if pt.shape.kind is DomainKind.TYPE_I:
        return None
    z = pt.z
    defect = float(np.abs(z - z.T).max())
    if defect > tol.eq_tol:
        return _asymmetry_detail(defect)
    return None


@np.errstate(over="ignore", invalid="ignore")
def _asymmetry_and_positivity(pt: DomainPoint, tol: Tolerance) -> tuple[str | None, np.ndarray]:
    """A point's :func:`_asymmetry` and its :func:`_positivity` matrix, in
    one scope: entries too large to subtract or to square overflow without
    a warning, into a defect of inf or a Gram that is not finite, whose
    margin is -inf."""
    return _asymmetry(pt, tol), _positivity(pt)


def _positivity(pt: DomainPoint) -> np.ndarray:
    """The matrix whose smallest eigenvalue is the margin of a point: the
    Gram I - Z*Z of the bounded kinds (:func:`_contraction_grams`), or
    (Z - Z*)/2i, whose Hermitian part is Im Z, of a Siegel point, formed
    from Z/2 so that it is finite.  Both are Hermitian in exact arithmetic
    and go unchecked to the eigensolve of :func:`_gram_margins`."""
    if pt.shape.kind is DomainKind.SIEGEL:
        half = pt.z * 0.5
        return (half - half.conj().T) / 1j
    return _contraction_grams(pt.z)


def membership(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> MembershipResult:
    """Classify a point as Interior / Boundary / Outside with its margin.

    The margin is the smallest eigenvalue of the defining positivity
    matrix (``I - Z*Z`` for the bounded kinds, ``Im Z`` for Siegel).
    Square kinds additionally require symmetry up to ``eq_tol``; an
    asymmetric point is Outside with the defect named in ``reason``.
    """
    reason, positivity = _asymmetry_and_positivity(pt, tol)
    margin = float(_gram_margins(positivity))
    if reason is not None:
        return MembershipResult(MembershipStatus.OUTSIDE, margin, reason)
    if margin > tol.psd_margin:
        return MembershipResult(MembershipStatus.INTERIOR, margin)
    if margin < -tol.psd_margin:
        return MembershipResult(MembershipStatus.OUTSIDE, margin)
    return MembershipResult(MembershipStatus.BOUNDARY, margin)


def _interior_certificate(
    matrices: np.ndarray, order: int, tol: Tolerance, out: np.ndarray | None = None, gram: bool = False
) -> tuple[np.ndarray, float] | None:
    """The matrices H = (M + M*)/2 that the margin eigensolve sees
    (:func:`_symmetrized_eigenvalues`), of a matrix M or of each member of
    a stack, shifted to H - 2bI, and the margin bound b; None where an
    entry of M is not finite or the order is too large for the bound.  A
    member whose Cholesky factorization of H - 2bI completes is certified:
    the eigensolve of H would return a smallest eigenvalue above b, and b
    is more than 128 times ``psd_margin``.

    With m = psd_margin, n the given order, at least that of H, s = n^3 eps
    (:func:`~siegelmaps.linalg._spectral_slack`) and c the larger of 1 and
    the largest diagonal entry of H over the stack,

        b = 128 m + (n + 16) s c,

    given (n + 16) s <= 1.  c is at most 1 for a Gram I - Z*Z and scales b
    with Im Z for a Siegel point.  Rounding argument for a member whose
    factorization completes, with u = eps/2 and t = 2b:

    * The shift.  Only the diagonal of H - tI rounds, each entry by at most
      u |H_ii - t| <= u (c + t).
    * The factorization.  A Cholesky factorization that completes gives
      R*R = H - tI + E + F, E the rounding of the shift and
      |F| <= g |R*| |R| with g <= 4 (n + 2) u, complex arithmetic included
      (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
      2002, Thm 10.3 and sec. 3.6).  A diagonal entry d_i of R*R is at most
      c + g d_i, so d_i <= 2c, |F_ij| <= g sqrt(d_i d_j) <= 2gc and
      ||F||_2 <= 2ngc <= 4 n (n + 2) eps c.  R*R is positive semidefinite,
      so lambda_min(H) >= t (1 - u) - u c - 4 n (n + 2) eps c.
    * The eigensolve.  H is then positive definite, ||H||_2 <= trace H <= nc,
      and the computed eigenvalues lie within s ||H||_2 <= n^4 eps c of the
      exact ones.
    * In all.  Both the exact and the computed smallest eigenvalue are at
      least t (1 - u) - (n^4 + 4 n^2 + 8 n + 1/2) eps c
      >= 2b (1 - u) - (n + 16) s c + 3.5 eps c, as 16 n^3 >= 4 n^2 + 8 n + 4.
      That is b + 128 m - 2ub + 3.5 eps c, above b: where (n + 16) s <= 1,
      2ub and the rounding of b itself, a few u of it, are at most
      3 eps (128 m + c), below 128 m + 3.5 eps c.
    * Downstream.  b bounds the margin as the eigensolve's margin does, and
      b - s >= 128 m.  So a contraction Z with margin bound b has
      ||Z|| <= sqrt(1 - b + s) <= 1 - 64 m, and so has a product of two:
      the bounds of :func:`_formed_bounds` on I - X*Y and I - W,
      lo >= 64 m - d and hi <= 2 + d, clear their condition tests
      (:func:`~siegelmaps.linalg._cleared`) 16 times over while d <= 30 m:
      at every order for I - W, and up to order 2,500 for I - X*Y.

    So a certified member passes the eigensolve's interior test, and a
    margin of b adds no SVD where the eigensolve's margin would add none.
    A member whose factorization fails takes the eigensolve instead.

    The shifted matrices are written to ``out``, a contiguous array, when
    given.  For Grams (``gram``) c is 1 without a look at the diagonal:
    every diagonal entry of a computed Z*Z is a sum of squares, so that of
    I - Z*Z, and of H, is at most 1.
    """
    factor = (order + 16) * _spectral_slack(order)
    if factor > 1.0 or not _all_finite(matrices):
        return None
    hermitian = _symmetrized(matrices, out)
    n = hermitian.shape[-1]
    # A strided view of the diagonals: the matrices are contiguous.
    diagonal = hermitian.reshape(*hermitian.shape[:-2], n * n)[..., :: n + 1]
    scale = 1.0 if gram else max(1.0, float(diagonal.real.max()))
    bound = 128.0 * tol.psd_margin + factor * scale
    diagonal -= 2.0 * bound
    return hermitian, bound


def _require_interior(pt: DomainPoint, tol: Tolerance, what: str) -> float:
    """A lower bound on the margin of an interior point: the bound of
    :func:`_interior_certificate` where its Cholesky factorization
    completes, else the margin of :func:`membership`.  A point that is not
    interior raises ``MembershipViolation`` naming ``what``, with the
    message of that eigensolve path."""
    reason, positivity = _asymmetry_and_positivity(pt, tol)
    # Shifted in place: the matrix is formed for this test alone.
    gram = pt.shape.kind is not DomainKind.SIEGEL
    certificate = None if reason else _interior_certificate(positivity, pt.shape.p, tol, positivity, gram)
    if certificate is not None:
        try:
            np.linalg.cholesky(certificate[0])
        except np.linalg.LinAlgError:
            pass
        else:
            return certificate[1]
    result = membership(pt, tol)
    if not result:
        detail = result.reason or f"margin {result.margin:.3e}"
        raise MembershipViolation(f"{what} must be an interior point: {detail}")
    return result.margin


def _interior_detail(margin: float) -> str:
    return f"must be an interior point: margin {margin:.3e}"


def cayley_to_bounded(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Siegel upper half space to bounded model: W = (Z - iI)(Z + iI)^-1.

    The center i*I maps to the origin.
    """
    if pt.shape.kind is not DomainKind.SIEGEL:
        raise ShapeMismatch(f"expected a Siegel point, got kind {pt.shape.kind.value}")
    _require_interior(pt, tol, "Cayley input")
    return _bounded_image(pt, tol)


def _bounded_image(pt: DomainPoint, tol: Tolerance) -> DomainPoint:
    """The solve of :func:`cayley_to_bounded`, at a point proven interior."""
    g = pt.shape.p
    i_eye = 1j * _identity(g)
    # On an interior point s_min(Z + iI) >= 1 + lambda_min(Im Z) >= 1, from
    # |<v, (Z + iI) v>| >= Im <v, (Z + iI) v>, and ||Z|| <= ||Z||_F.  An
    # overflowing norm makes the bounds infinite, which clear nothing.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(pt.z)
    w = _cayley_solve(pt.z - i_eye, pt.z + i_eye, _formed_bounds(norm, 1.0, g * g), "Z + iI", tol)
    return DomainPoint(type_iii_shape(g), w)


def cayley_to_siegel(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Bounded model to Siegel upper half space: Z = i(I - W)^-1 (I + W)."""
    if pt.shape.kind is not DomainKind.TYPE_III:
        raise ShapeMismatch(f"expected a type III point, got kind {pt.shape.kind.value}")
    margin = _require_interior(pt, tol, "Cayley input")
    g = pt.shape.p
    eye = _identity(g)
    # ||W||^2 <= 1 - margin, up to the eigensolve's error (for a certified
    # bound, see _interior_certificate), so the singular values of I - W
    # lie within ||W|| of 1.
    norm = np.sqrt(1.0 - margin + _spectral_slack(g))
    # (I + W)(I - W)^-1 commutes, so left/right placement agree.
    w = _cayley_solve(eye + pt.z, eye - pt.z, _formed_bounds(norm, 1.0 - norm, 0), "I - W", tol)
    # Written once in the read-only C order that DomainPoint keeps as it is.
    z = np.multiply(1j, w, out=np.empty((g, g), dtype=np.complex128))
    z.setflags(write=False)
    return DomainPoint(siegel_shape(g), z)


def _cayley_solve(a: np.ndarray, denom: np.ndarray, bounds, name: str, tol: Tolerance) -> np.ndarray:
    """a @ denom^-1 for a Cayley transform, after the condition test of the
    denominator, given ``bounds`` on its singular values as computed
    (:func:`_formed_bounds`), and the residual check of
    :func:`~siegelmaps.linalg._residual_checked`.  Where the bounds do not
    clear it, one SVD decides, and a failure raises ``SingularCayley``
    named by ``name``."""
    _require_conditioned([denom], bounds, tol, lambda *_: f"{name}: ", SingularCayley)
    return _residual_checked(_solve_unchecked(a, denom), a, denom, tol)


def _formed_bounds(reach, low, terms: int):
    """Bounds (hi, lo) on the singular values of I - X*Y, I - W or Z + iI
    as computed, per member, from bounds ||P||_2 <= ``reach`` (for X*Y,
    ||X|| ||Y|| <= reach) and s_min >= ``low`` on the exact D + P
    (P = -X*Y, -W or Z; D = I or iI):

        hi = 1 + reach + d,  lo = low - d,  d = (terms + 4) eps (1 + reach),

    ``terms`` at least k (p + 2) for I - X*Y of p x q blocks of rank at most
    k, 0 for I - W and g^2 for Z + iI of order g.  With u = eps/2:

    * The product.  An entry of the computed X*Y, a sum of p complex
      products, is within sqrt(2) g_(p+1) of the sum of their moduli
      (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
      2002, Lemma 3.5 and sec. 3.6), so X*Y is within
      sqrt(2) g_(p+1) ||X||_F ||Y||_F <= k (p + 2) eps reach in norm.
    * The norm.  For Z + iI, reach is ||Z||_F summed from 2 g^2 squares,
      within (g^2 + 2) u of itself of the exact norm.
    * The diagonal.  Adding D rounds only the diagonal entries, each by at
      most u of its modulus, below 1 + reach and the product's error.
    * Weyl's inequality puts each computed singular value in
      [low, 1 + reach] widened by (terms + 1) eps (1 + reach); the last
      3 eps (1 + reach) of d cover the rounding of reach, low, hi, lo and
      psd_margin * hi.

    So lo > psd_margin * hi (:func:`~siegelmaps.linalg._cleared`) proves
    the computed matrix's condition number below 1/psd_margin.  An infinite
    reach clears nothing."""
    slack = (terms + 4) * _EPS * (1.0 + reach)
    return 1.0 + reach + slack, low - slack


def cayley(pt: DomainPoint, direction: str, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Dispatch on direction: ``"to-bounded"`` or ``"to-siegel"``."""
    if direction == "to-bounded":
        return cayley_to_bounded(pt, tol)
    if direction == "to-siegel":
        return cayley_to_siegel(pt, tol)
    raise ValueError(f"unknown Cayley direction {direction!r}")


# The axes of a pair's blocks and their entries in a group's stacks.
_PAIR_AXES = (-3, -2, -1)


def _pair_names(count: int) -> list[str]:
    """Message prefixes naming the ``count`` pairs of a call, none for one."""
    return [""] if count == 1 else [f"pair {i}: " for i in range(count)]


def _raise_first(bad: np.ndarray, error: type[Exception], message, names=None) -> None:
    """Raise ``error(names[i] + message(i))`` for the first pair i where
    ``bad`` holds, ``names`` by default the :func:`_pair_names` of all."""
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise error((names or _pair_names(len(bad)))[i] + message(i))


def _block_ranges(piece: np.ndarray) -> list[tuple[int, int]]:
    """The finest consecutive diagonal ranges of k x k matrices outside
    which every entry of every matrix is exactly zero, all-zero ranges left
    out.  ``piece`` is a (..., k, k) stack of such matrices.  A nonzero
    corner entry [0, k - 1] makes one range without a scan."""
    k = piece.shape[-1]
    if np.count_nonzero(piece[..., 0, -1]):
        return [(0, k)]
    nonzero = (piece != 0).reshape(-1, k, k).any(axis=0)
    nonzero |= nonzero.T
    index = np.arange(k)
    # The furthest index reached by any row up to i: a range ends at i
    # where that is i itself.
    reach = np.maximum.accumulate(np.maximum(np.where(nonzero, index, 0).max(axis=1), index))
    stops = np.flatnonzero(reach == index) + 1
    used = nonzero.any(axis=1)
    return [(start, stop) for start, stop in zip((0, *stops[:-1]), stops) if used[start:stop].any()]


def _diagonal_blocks(pieces) -> list[np.ndarray]:
    """Stacks of B square matrices on S sides split into their finest
    diagonal blocks, grouped by exact size.

    The matrices are given as pieces along the diagonal, every entry off
    the pieces being zero: one piece for whole matrices, or one per factor
    block of direct-sum images.  Each piece is an ``(S, B, b, b)`` array,
    or a sequence of S ``(B, b, b)`` stacks, stacked once on entry; the
    sides are the two points of each pair for a distance, or one side for
    a margin.  Within a piece the blocks are the finest consecutive
    diagonal ranges outside which every entry of every matrix of every side
    is exactly zero (:func:`_block_ranges`).  The cut between two factor
    blocks is such a range boundary, so the factor blocks of images give
    the same blocks as the whole images, also where structural zeros split
    a factor block.  Every nonzero entry and its transpose fall in one
    block, so the blocks hold every entry of Z - Z^t too.

    Returns one contiguous ``(S, B, n, s, s)`` array per block size, in
    ascending order, holding the n blocks of size s of every side in
    diagonal order.  No block is padded, so a kernel run once per group
    sees only the blocks' own entries, and a piece that forms one block is
    not copied again.  A lone piece that forms one block, as a dense pair
    does, is its own group, with no grouping by size.
    """
    pieces = [np.asarray(piece) for piece in pieces]
    ranges = [_block_ranges(piece) for piece in pieces]
    if len(pieces) == 1 and ranges[0] == [(0, pieces[0].shape[-1])]:
        return [np.ascontiguousarray(pieces[0])[:, :, np.newaxis]]
    sizes: dict[int, list[tuple[int, int, int]]] = {}
    for j, piece_ranges in enumerate(ranges):
        for start, stop in piece_ranges:
            sizes.setdefault(stop - start, []).append((j, start, stop))
    return [_group_of(pieces, sizes[s]) for s in sorted(sizes)]


def _group_of(pieces, ranges) -> np.ndarray:
    """The contiguous (S, B, n, s, s) stack of the diagonal blocks at
    ``(piece, start, stop)`` ranges of one size s."""
    blocks = [pieces[j][..., start:stop, start:stop] for j, start, stop in ranges]
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0])[:, :, np.newaxis]
    return np.stack(blocks, axis=2)


def _block_margins(grams, count: int) -> np.ndarray:
    """Smallest contraction margin over all blocks of each of ``count``
    members, from one eigensolve per group of ``(..., count, n, s, s)``
    Grams as :func:`_contraction_grams` forms them; 1, the margin of zero,
    with no blocks."""
    if not grams:
        return np.ones(count)
    return reduce(np.minimum, [_gram_margins(gram).min(axis=-1) for gram in grams])


def _factored(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Cholesky factors of a ``(k, B, ...)`` stack, its B pairs along axis
    1, and None where every member completes.  Otherwise the calls are
    split in halves along the pairs until each failing call holds one pair:
    the factors of the pairs whose members all complete, and the mask of
    the pairs that fail, whose factors are left unset.  Each member has the
    bits of its factorization alone."""
    try:
        return np.linalg.cholesky(stack), None
    except np.linalg.LinAlgError:
        pass
    factors = np.empty_like(stack)
    failed = np.zeros(stack.shape[1], dtype=bool)
    spans = [(0, stack.shape[1])]
    while spans:
        start, stop = spans.pop()
        if stop - start == 1:
            failed[start] = True
            continue
        middle = (start + stop) // 2
        for part in (slice(start, middle), slice(middle, stop)):
            try:
                factors[:, part] = np.linalg.cholesky(stack[:, part])
            except np.linalg.LinAlgError:
                spans.append((part.start, part.stop))
    return factors, failed


def _certificate_rows(group: np.ndarray, order: int, tol: Tolerance):
    """The stack :func:`_matrix_distances` factors for one
    ``(2, B, n, p, q)`` group, the margin bound of
    :func:`_interior_certificate` (None without one), x's adjoint X* and
    x's base matrices I - XX* and I - X*X, as ``(k, B, n, s, s)`` pieces in
    the order of their Cholesky factors C and D.  The stack's rows hold
    both Grams shifted by the certificate, I - XX* for square blocks, then
    x's and y's Grams: the rows one Cholesky call takes come first, and both
    Grams are contiguous.  A base matrix of the stack's order is a piece of
    it, x's Gram being the smaller side's; the larger side's of rectangular
    blocks is formed apart."""
    p, q = group.shape[-2:]
    square = p == q
    rows = np.empty((4 + square, *group.shape[1:-2], min(p, q), min(p, q)), dtype=np.complex128)
    adjoints = group.conj().swapaxes(-1, -2)
    grams = _contraction_grams(group, rows[2 + square :], adjoints)
    certificate = _interior_certificate(grams, order, tol, rows[:2], gram=True)
    xb, adjoint = group[0], adjoints[0]
    if square:
        np.subtract(_identity(p), np.matmul(xb, adjoint, out=rows[2]), out=rows[2])
        base = [rows[2:4]]
    elif p > q:
        base = [(_identity(p) - xb @ adjoint)[np.newaxis], rows[2:3]]
    else:
        base = [rows[2:3], (_identity(q) - adjoint @ xb)[np.newaxis]]
    return rows, None if certificate is None else certificate[1], adjoint, base


def _certified_factors(rows: np.ndarray, base: list[np.ndarray]) -> tuple[list, np.ndarray | None]:
    """The Cholesky factors [C, D] of a group's x side, from the base
    pieces of :func:`_certificate_rows`, and the mask of the pairs whose
    certificate fails (None for none), whose factors are unset.  One call
    takes every row of the stack but y's Gram: both shifted Grams and the
    piece the stack holds, the one of its order; a piece formed apart takes
    a call of its own."""
    factors, failed = _factored(rows[:-1])
    pair = []
    for piece in base:
        if piece.shape[-1] == rows.shape[-1]:
            pair.extend(factors[2:])
        else:
            apart, more = _factored(piece)
            pair.extend(apart)
            failed = _either(failed, more)
    return pair, failed


def _matrix_distances(groups, pairs, tol: Tolerance, symmetric: bool, check_inputs: bool = True) -> np.ndarray:
    """Kobayashi distances between B pairs of matrix-ball points, given by
    their diagonal blocks: per group one ``(2, B, n, p, q)`` block stack, x
    side first, as :func:`_diagonal_blocks` returns; a rectangular point is
    one p x q block.  ``pairs`` is B, or the pairs' names in a larger call.

    tanh d(X, Y) = s_max(C^-1 (Y - X)(I - X*Y)^-1 D) with the Cholesky
    factors C C* = I - X X* and D D* = I - X*X.  They differ from the
    transvection's (I - X X*)^{-1/2} and (I - X*X)^{1/2} by unitary factors
    only, so the singular values are those of the transvected point.  For
    block-diagonal points all of these are block diagonal: the distance is
    the largest over the blocks, the margins the smallest, and an all-zero
    range adds distance 0 and margin 1.  Each step is one LAPACK call per
    group over all its blocks of all pairs (the two Cholesky factors of
    rectangular points take two).  Before each check the per-pair values of
    all groups are combined, so the checks run in one order whatever the
    groups.

    With ``check_inputs``, both sides are checked for symmetry (when
    ``symmetric``), x before y, and y for interiority, as
    :func:`membership` does; x is always checked against ``psd_margin``,
    and I - X*Y with the condition test of
    :func:`~siegelmaps.linalg._require_conditioned`: the bounds of
    :func:`_formed_bounds` decide it where they can, and an SVD on the
    extreme singular values over all blocks of a pair elsewhere.  The
    Grams I - Z*Z of both sides are formed once, into one stack per group with I - XX* and the
    Grams' shifts by :func:`_interior_certificate`; x's Gram is also the
    one Cholesky factor D is taken of (C's where the blocks are wider than
    tall).  One Cholesky call factors the stack: where it completes every
    block of both sides is certified interior, with a margin bound that
    clears the condition test of every pair the eigensolve's margins would
    clear.  Where a member fails, the call is split until the pairs that
    fail are found (:func:`_factored`); only their margins come from the
    eigensolve of their Grams, unchecked, as in :func:`_gram_margins`, and
    only their factors from a second, unshifted call on the base matrices
    the stack already holds.  A certified pair
    passes every check those margins and factors face, so the checks,
    decisions and messages are those of the eigensolve path.  Where the
    blocks have more than one size, 1 joins the extreme singular values,
    as the zero padding of the smaller blocks did when every block was
    padded to the largest, so that no decision moves.  A failing check
    names the first failing pair.
    """
    count, names = (pairs, None) if isinstance(pairs, int) else (len(pairs), pairs)
    if not groups:
        # Every member of both stacks is zero.
        return np.zeros(count)
    # One scope for the kernel: the Grams of points too large to square
    # overflow without a warning, and their margins are -inf.
    with np.errstate(over="ignore", invalid="ignore"):
        if check_inputs and symmetric:
            defects = reduce(np.maximum, [_asymmetries(group, _PAIR_AXES) for group in groups])
            over = defects > tol.eq_tol
            if np.count_nonzero(over):
                what = "distance argument must be an interior point: "
                for bad, defect in zip(over, defects):
                    _raise_first(bad, MembershipViolation, lambda i: what + _asymmetry_detail(defect[i]), names)
        order = max(max(group.shape[-2:]) for group in groups)
        rows, bounds, adjoints, bases = zip(*[_certificate_rows(group, order, tol) for group in groups])
        factors, failed = [None] * len(groups), None
        if None in bounds:
            failed = np.ones(count, dtype=bool)
        else:
            for j, (stack, base) in enumerate(zip(rows, bases)):
                factors[j], bad = _certified_factors(stack, base)
                failed = _either(failed, bad)
        if failed is None:
            margins = min(bounds)
        else:
            index = np.flatnonzero(failed)
            # A call without a certificate has no bound, and no certified pair.
            margins = np.full((2, count), min(bounds) if len(index) < count else np.nan)
            names = names or _pair_names(count)
            margins[:, index] = _fallback(rows, bases, factors, index, names, tol, check_inputs)
        differences = [yb - xb for xb, yb in groups]
        denominators = [_identity(yb.shape[-1]) - adjoint @ yb for adjoint, (_, yb) in zip(adjoints, groups)]
        # ||X_b||^2 <= 1 - x_margin for every block X_b, up to the
        # eigensolve's error (for certified bounds, see
        # _interior_certificate), and the same for Y, so the singular values
        # of each block of I - X*Y lie within ||X_b|| ||Y_b|| of 1.  The
        # largest block order n bounds the rounding of every group: the
        # eigensolve's, and with n (n + 2) the product's.
        norms = np.sqrt(1.0 - margins + _spectral_slack(order))
        reach = norms * norms if failed is None else norms[0] * norms[1]
        hi, lo = _formed_bounds(reach, 1.0 - reach, order * (order + 2))
        near_singular = "transvection denominator near singular: "
        _require_conditioned(
            denominators,
            # One lo per pair gives the test its member shape.
            (hi, np.full(count, lo)),
            tol,
            lambda i, _: (names or _pair_names(count))[i] + near_singular,
            IllConditioned,
            joined=(1.0, 1.0) if len(groups) > 1 else (0.0, np.inf),
        )
        try:
            middles = [_solve_unchecked(a, b) for a, b in zip(differences, denominators)]
        except SingularSystem as exc:
            raise IllConditioned(f"{near_singular}{exc}") from exc
        # The bound is at least eq_tol, so it is formed only where that is passed.
        checks = zip(middles, differences, denominators)
        residual = reduce(np.maximum, [_residual(*args, _PAIR_AXES) for args in checks])
        if np.count_nonzero(residual > tol.eq_tol):
            bound = reduce(np.maximum, [_residual_bound(a, tol, _PAIR_AXES) for a in differences])
            too_large = near_singular + "solution residual {:.3e} exceeds tolerance"
            _raise_first(residual > bound, IllConditioned, lambda i: too_large.format(residual[i]), names)
        top = reduce(
            np.maximum,
            [
                np.linalg.svd(np.linalg.solve(left, middle @ right), compute_uv=False)[..., 0].max(axis=-1)
                for middle, (left, right) in zip(middles, factors)
            ],
        )
        _raise_first(top >= 1.0, IllConditioned, lambda i: f"transvected point has norm {top[i]:.6f} >= 1", names)
        return np.arctanh(top)


def _either(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """The union of two masks, None standing for the empty one."""
    return a if b is None else b if a is None else a | b


def _fallback(rows, bases, factors, index, names, tol: Tolerance, check_inputs: bool) -> np.ndarray:
    """The margins, (2, F), of the F pairs at ``index`` that
    :func:`_matrix_distances` could not certify, from the eigensolve of
    their Grams, the last two rows of each stack of
    :func:`_certificate_rows`, checked (y first, with ``check_inputs``);
    their base factors, one unshifted call per base piece, are written into
    ``factors``.  ``names`` names every pair of the call."""
    names = [names[i] for i in index]
    margins = _block_margins([stack[-2:, index] for stack in rows], len(index))
    (x_margin, y_margin), (x_bad, y_bad) = margins, ~(margins > tol.psd_margin)
    if check_inputs:
        _raise_first(y_bad, MembershipViolation, lambda i: "distance argument " + _interior_detail(y_margin[i]), names)
    _raise_first(x_bad, MembershipViolation, lambda i: "transvection base " + _interior_detail(x_margin[i]), names)
    try:
        pairs = [[f for piece in base for f in np.linalg.cholesky(piece[:, index])] for base in bases]
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"base point too close to the boundary: {exc}") from exc
    for j, pair in enumerate(pairs):
        if factors[j] is None:
            factors[j] = pair
        else:
            factors[j][0][index], factors[j][1][index] = pair
    return margins


def _ball_distances(x: np.ndarray, y: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Poincare distances between the rows of two ``(B, n)`` stacks of ball
    points, pair by pair, in closed form (Rudin, *Function Theory in the
    Unit Ball*, 2.2): tanh d(x, y) = |phi_x(y)| with

        phi_x(y) = (x - P_x y - s_x Q_x y) / (1 - <y, x>),  s_x = sqrt(1 - |x|^2),

    P_x the orthogonal projection onto C x and Q_x = I - P_x.  It is
    evaluated as P_x y + s_x Q_x y = s_x y + <y, x> x / (1 + s_x), which
    divides by no |x|^2 and holds at x = 0.  The guards are those of the
    matrix kernel on n x 1 columns, where I - X*Y is a nonzero scalar.
    """
    y_margin = 1.0 - (y.real**2 + y.imag**2).sum(axis=-1)
    _raise_first(
        ~(y_margin > tol.psd_margin),
        MembershipViolation,
        lambda i: "distance argument " + _interior_detail(y_margin[i]),
    )
    x_margin = 1.0 - (x.real**2 + x.imag**2).sum(axis=-1)
    _raise_first(
        ~(x_margin > tol.psd_margin),
        MembershipViolation,
        lambda i: "transvection base " + _interior_detail(x_margin[i]),
    )
    s = np.sqrt(x_margin)[:, np.newaxis]
    pairing = (y * x.conj()).sum(axis=-1, keepdims=True)
    moved = (x - s * y - pairing / (1.0 + s) * x) / (1.0 - pairing)
    top = np.sqrt((moved.real**2 + moved.imag**2).sum(axis=-1))
    _raise_first(top >= 1.0, IllConditioned, lambda i: f"transvected point has norm {top[i]:.6f} >= 1")
    return np.arctanh(top)


def _point_shape(pt: DomainPoint | BallPoint) -> DomainShape:
    return type_i_shape(pt.n, 1) if isinstance(pt, BallPoint) else pt.shape


def kobayashi_distance(
    x: DomainPoint | BallPoint | Sequence[DomainPoint | BallPoint],
    y: DomainPoint | BallPoint | Sequence[DomainPoint | BallPoint],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float | np.ndarray:
    """Kobayashi distance between two interior points of the same shape.

    On the ball this is the Poincare distance, in the closed form
    tanh d = |phi_x(y)|.  On the matrix ball it is
    tanh d = s_max(C^-1 (Y - X)(I - X*Y)^-1 D) with Cholesky factors
    C C* = I - X X* and D D* = I - X*X: the largest singular value of y
    moved by the automorphism taking x to the origin.  Type III points are
    measured as points of the ambient type I ball, split into their exact
    diagonal blocks; Siegel points are checked in the Siegel model and
    measured through the Cayley transform.

    x and y may also be equal-length sequences of points of one shape: the
    distances of the pairs come back as an array, from one call of the
    stacked kernel, and each equals the distance of its pair alone bit for
    bit.  Two points are a batch of one: their matrices go into the same
    stack, with no sequence built around them first.
    """
    pair = isinstance(x, (DomainPoint, BallPoint))
    xs, ys = ((x,), (y,)) if pair else (list(x), list(y))
    if not xs or len(xs) != len(ys):
        raise ShapeMismatch(f"expected equal nonzero numbers of points, got {len(xs)} and {len(ys)}")
    ball = isinstance(xs[0], BallPoint)
    shape = _point_shape(xs[0])
    for a, b in zip(xs, ys):
        if isinstance(a, BallPoint) is not ball or isinstance(b, BallPoint) is not ball:
            raise ShapeMismatch("cannot mix ball points and matrix points")
        for other in (_point_shape(a), _point_shape(b)):
            if other != shape:
                raise ShapeMismatch(f"points live on different shapes: {shape} vs {other}")
    if ball:
        distances = _ball_distances(np.stack([a.coords for a in xs]), np.stack([b.coords for b in ys]), tol)
    else:
        siegel = shape.kind is DomainKind.SIEGEL
        if siegel:
            # Each side proven interior once in the Siegel model, measured in the bounded one.
            for name, a, b in zip(_pair_names(len(xs)), xs, ys):
                for point in (a, b):
                    _require_interior(point, tol, name + "distance argument")
            xs, ys = [_bounded_image(a, tol) for a in xs], [_bounded_image(b, tol) for b in ys]
        # Both sides in one (2, B, p, q) stack, x first.
        z = np.asarray([a.z for a in xs] + [b.z for b in ys]).reshape(2, len(xs), shape.p, shape.q)
        groups = _diagonal_blocks([z]) if shape.p == shape.q else [z[:, :, np.newaxis]]
        distances = _matrix_distances(
            groups, len(xs), tol, symmetric=shape.kind is not DomainKind.TYPE_I, check_inputs=not siegel
        )
    return float(distances[0]) if pair else distances
