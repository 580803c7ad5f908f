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

The positivity matrices, I - Z*Z or Im Z for Siegel points, are formed
here, symmetrized but not checked for being Hermitian.  Where an input
only has to be interior (the Cayley transforms, the checked retraction,
the distance kernels), one Cholesky factorization of the matrix H shifted
by 2b, b = 128 psd_margin + (n + 16) n^3 eps c with c the larger of 1 and
the largest diagonal entry of H (1 for I - Z*Z), proves that the
eigensolve would find the point interior with a margin above b
(:func:`_interior_certificate`); b then stands for the margin.  The
values-only eigensolve runs for the margin that :func:`membership`
returns, and for every input the factorization does not certify, with
the same checks and messages.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

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
    DEFAULT_TOLERANCE,
    Tolerance,
    _certified,
    _ill_conditioned,
    _residual_checked,
    _residuals,
    _solve_conditioned,
    _solve_unchecked,
    _spectral_slack,
    _symmetrized,
    _symmetrized_eigenvalues,
    as_complex_matrix,
    singular_values,
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
            self, "z", as_complex_matrix(self.z, rows=self.shape.p, cols=self.shape.q)
        )


@dataclass(frozen=True)
class BallPoint:
    """Point of the unit ball in C^n, Euclidean norm strictly below one."""

    coords: np.ndarray
    # Euclidean norm of the coordinates, measured once at construction.
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.array(self.coords, dtype=np.complex128).reshape(-1)
        if c.size < 1:
            raise DimensionMismatch("ball point needs at least one coordinate")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise DimensionMismatch("ball coordinates must be finite")
        norm = float(np.linalg.norm(c))
        if norm >= 1.0:
            raise MembershipViolation(f"ball point has norm {norm:.6f} >= 1")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "norm", norm)

    @property
    def n(self) -> int:
        return int(self.coords.size)


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


def _contraction_grams(z: np.ndarray) -> np.ndarray:
    """The Gram I - Z*Z of a matrix or of each member of a ``(..., p, q)``
    stack, or I - ZZ* where Z is wider than tall: the smaller square side.
    Entries too large to square make entries that are not finite, without
    a warning (see :func:`_gram_margins`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if z.shape[-2] >= z.shape[-1]:
            gram = z.conj().swapaxes(-1, -2) @ z
        else:
            gram = z @ z.conj().swapaxes(-1, -2)
        np.subtract(np.eye(gram.shape[-1], dtype=np.complex128), gram, out=gram)
    return gram


def _gram_margins(gram: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of a Gram I - Z*Z that :func:`_contraction_grams`
    forms, or of each member of a ``(..., n, n)`` stack of them: the
    contraction margin of Z, on the smaller square side.

    The Gram is formed here, Hermitian in exact arithmetic, so it goes to
    the eigensolve symmetrized but unchecked (:func:`_symmetrized_eigenvalues`).
    Its rounding grows with |Z|^2: an absolute ``eq_tol`` check on it would
    reject a symmetric point with entries near 1e6, where the margin should
    say Outside.  Every entry and partial sum of
    Z*Z is at most s_max(Z)^2 in modulus, so a Gram with an entry that is
    not finite has 1 - s_max^2 rounded to -inf: its margin is -inf, with no
    eigensolve."""
    finite = np.isfinite(gram)
    if finite.all():
        return _symmetrized_eigenvalues(gram)[..., 0]
    finite = finite.all(axis=(-2, -1))
    margins = np.full(finite.shape, -np.inf)
    margins[finite] = _symmetrized_eigenvalues(gram[finite])[..., 0]
    return margins


def _asymmetries(z: np.ndarray) -> np.ndarray:
    """max|Z - Z^t| of a square matrix or of each member of a stack."""
    return np.abs(z - z.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _asymmetry_detail(defect: float) -> str:
    return f"matrix is not symmetric: max|Z - Z^t| = {defect:.3e}"


def _asymmetry(pt: DomainPoint, tol: Tolerance) -> str | None:
    """Why a point of a square kind fails the symmetry test, or None."""
    if pt.shape.kind is DomainKind.TYPE_I:
        return None
    defect = float(_asymmetries(pt.z))
    if defect > tol.eq_tol:
        return _asymmetry_detail(defect)
    return None


def _positivity(pt: DomainPoint) -> np.ndarray:
    """The matrix whose smallest eigenvalue is the margin of a point: the
    Gram I - Z*Z of the bounded kinds (:func:`_contraction_grams`), or
    (Z - Z*)/2i, whose Hermitian part is Im Z, of a Siegel point.  Both are
    Hermitian in exact arithmetic and go unchecked to the symmetrized
    eigensolve (see :func:`_gram_margins`)."""
    z = pt.z
    if pt.shape.kind is DomainKind.SIEGEL:
        return (z - z.conj().T) / 2j
    return _contraction_grams(z)


def membership(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> MembershipResult:
    """Classify a point as Interior / Boundary / Outside with its margin.

    The margin is the smallest eigenvalue of the defining positivity
    matrix (``I - Z*Z`` for the bounded kinds, ``Im Z`` for Siegel).
    Square kinds additionally require symmetry up to ``eq_tol``; an
    asymmetric point is Outside with the defect named in ``reason``.
    """
    reason = _asymmetry(pt, tol)
    if pt.shape.kind is DomainKind.SIEGEL:
        margin = float(_symmetrized_eigenvalues(_positivity(pt))[0])
    else:
        margin = float(_gram_margins(_positivity(pt)))
    if reason is not None:
        return MembershipResult(MembershipStatus.OUTSIDE, margin, reason)
    if margin > tol.psd_margin:
        return MembershipResult(MembershipStatus.INTERIOR, margin)
    if margin < -tol.psd_margin:
        return MembershipResult(MembershipStatus.OUTSIDE, margin)
    return MembershipResult(MembershipStatus.BOUNDARY, margin)


def _interior_certificate(matrices: np.ndarray, order: int, tol: Tolerance) -> tuple[np.ndarray, float] | None:
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
      ||Z|| <= sqrt(1 - b + s) <= 1 - 64 m, and a product of two has norm
      at most 1 - 64 m: the bounds 1 -/+ ||X|| ||Y|| and 1 -/+ ||W|| clear
      the condition tests of :func:`_matrix_distances` and
      :func:`cayley_to_siegel` (``1 + r <= (1 - r) / (16 m)``, see
      :func:`~siegelmaps.linalg._certified`) with a factor near 2 to spare,
      wherever the order lets them clear anything.

    So a certified member passes the eigensolve's interior test, and a
    margin of b adds no SVD where the eigensolve's margin would add none.
    A member whose factorization fails, or any member of a stack factored
    in one call that fails, takes the eigensolve instead.
    """
    factor = (order + 16) * _spectral_slack(order)
    if factor > 1.0 or not np.isfinite(matrices).all():
        return None
    hermitian = _symmetrized(matrices)
    diagonal = np.arange(hermitian.shape[-1])
    scale = max(1.0, float(hermitian[..., diagonal, diagonal].real.max()))
    bound = 128.0 * tol.psd_margin + factor * scale
    hermitian[..., diagonal, diagonal] -= 2.0 * bound
    return hermitian, bound


def _require_interior(pt: DomainPoint, tol: Tolerance, what: str) -> float:
    """A lower bound on the margin of an interior point: the bound of
    :func:`_interior_certificate` where its Cholesky factorization
    completes, else the margin of :func:`membership`.  A point that is not
    interior raises ``MembershipViolation`` naming ``what``, with the
    message of that eigensolve path."""
    if _asymmetry(pt, tol) is None:
        certificate = _interior_certificate(_positivity(pt), pt.shape.p, tol)
        if certificate is not None:
            shifted, bound = certificate
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                pass
            else:
                return bound
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
    g = pt.shape.p
    eye = np.eye(g, dtype=np.complex128)
    # On an interior point s_min(Z + iI) >= 1 + lambda_min(Im Z) >= 1, from
    # |<v, (Z + iI) v>| >= Im <v, (Z + iI) v>, and s_max <= ||Z||_F + 1.
    # Where these bounds clear, the eigensolve's error is below 1/128.  An
    # overflowing norm makes the bound inf, which certifies nothing.
    with np.errstate(over="ignore"):
        hi = np.linalg.norm(pt.z) + 1.0
    w = _cayley_solve(pt.z - 1j * eye, pt.z + 1j * eye, hi, 1.0, "Z + iI", tol)
    return DomainPoint(type_iii_shape(g), w)


def cayley_to_siegel(pt: DomainPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Bounded model to Siegel upper half space: Z = i(I - W)^-1 (I + W)."""
    if pt.shape.kind is not DomainKind.TYPE_III:
        raise ShapeMismatch(f"expected a type III point, got kind {pt.shape.kind.value}")
    margin = _require_interior(pt, tol, "Cayley input")
    g = pt.shape.p
    eye = np.eye(g, dtype=np.complex128)
    # ||W||^2 <= 1 - margin, up to the eigensolve's error (for a certified
    # bound, see _interior_certificate), so the singular values of I - W
    # lie within ||W|| of 1.
    norm = np.sqrt(1.0 - margin + _spectral_slack(g))
    # (I + W)(I - W)^-1 commutes, so left/right placement agree.
    z = 1j * _cayley_solve(eye + pt.z, eye - pt.z, 1.0 + norm, 1.0 - norm, "I - W", tol)
    return DomainPoint(siegel_shape(g), z)


def _cayley_solve(a: np.ndarray, denom: np.ndarray, hi: float, lo: float, name: str, tol: Tolerance) -> np.ndarray:
    """a @ denom^-1 for a Cayley transform, given bounds s_max <= hi and
    s_min >= lo on the denominator's singular values.  Where they do not
    clear it (see :func:`_certified`), one SVD of the denominator serves
    both the singularity test and the condition test of solve_right."""
    if _certified(hi, lo, denom.shape[-1], tol):
        return _residual_checked(_solve_unchecked(a, denom), a, denom, tol)
    sv = singular_values(denom)
    if sv[-1] <= tol.psd_margin * sv[0]:
        raise SingularCayley(f"{name} is numerically singular")
    return _solve_conditioned(a, denom, sv, tol)


def cayley(pt: DomainPoint, direction: str, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Dispatch on direction: ``"to-bounded"`` or ``"to-siegel"``."""
    if direction == "to-bounded":
        return cayley_to_bounded(pt, tol)
    if direction == "to-siegel":
        return cayley_to_siegel(pt, tol)
    raise ValueError(f"unknown Cayley direction {direction!r}")


def _raise_first(bad: np.ndarray, error: type[Exception], message) -> None:
    """Raise ``error(message(i))`` for the first pair i where ``bad`` holds;
    in a stack of several pairs the message names the pair."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(("" if len(bad) == 1 else f"pair {i}: ") + message(i))


def _block_ranges(piece: np.ndarray) -> list[tuple[int, int]]:
    """The finest consecutive diagonal ranges of k x k matrices outside
    which every entry of every matrix is exactly zero, all-zero ranges left
    out.  ``piece`` is a (..., k, k) stack of such matrices.  A nonzero
    corner entry [0, k - 1] makes one range without a scan."""
    k = piece.shape[-1]
    if (piece[..., 0, -1] != 0).any():
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
    not copied again.
    """
    pieces = [np.asarray(piece) for piece in pieces]
    sizes: dict[int, list[tuple[int, int, int]]] = {}
    for j, piece in enumerate(pieces):
        for start, stop in _block_ranges(piece):
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


def _base_factors(xb: np.ndarray, gram: np.ndarray, shifted=()) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors C and D, C C* = I - XX* and D D* = I - X*X, of a
    stack of p x q base blocks X, given the Gram of the smaller side as
    :func:`_contraction_grams` forms it: one call for square blocks, one per
    side otherwise.  The matrices of ``shifted``, of the Gram's size, join
    the Gram's call and their factors are dropped; a failure of any member
    raises ``LinAlgError``."""
    p, q = xb.shape[-2:]
    adjoint = xb.conj().swapaxes(-1, -2)
    if p == q:
        return np.linalg.cholesky(np.asarray([np.eye(p) - xb @ adjoint, gram, *shifted]))[:2]
    if p > q:
        return np.linalg.cholesky(np.eye(p) - xb @ adjoint), np.linalg.cholesky(np.asarray([gram, *shifted]))[0]
    return np.linalg.cholesky(np.asarray([gram, *shifted]))[0], np.linalg.cholesky(np.eye(q) - adjoint @ xb)


def _matrix_distances(groups, count: int, tol: Tolerance, symmetric: bool, check_inputs: bool = True) -> np.ndarray:
    """Kobayashi distances between ``count`` pairs of matrix-ball points
    given by their diagonal blocks: per group one ``(2, count, n, p, q)``
    block stack, x side first, as :func:`_diagonal_blocks` returns for
    square points; a rectangular point is one p x q block.

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
    and I - X*Y like :func:`solve_right` does, on the extreme singular
    values over all blocks of a pair.  The Grams I - Z*Z of both sides are
    formed once; x's Gram is also the one Cholesky factor D is taken of
    (C's where the blocks are wider than tall).  Their shifts by
    :func:`_interior_certificate` join the Cholesky call of their size, so
    that where it completes every block of both sides is certified
    interior, with a margin bound that clears the condition test of every
    pair the eigensolve's margins would clear.  Where it fails, the margins
    come from the eigensolve of the Grams, unchecked, as in
    :func:`_gram_margins`, and the checks, decisions and messages are those
    of that eigensolve path.  Where the
    blocks have more than one size, 1 joins the extreme singular values:
    it is the singular value that the zero padding of the smaller blocks
    added when every block was padded to the largest, kept so that no
    decision moves.  A failing check names the first failing pair.
    """
    if not groups:
        # Every member of both stacks is zero.
        return np.zeros(count)
    if check_inputs and symmetric:
        defects = reduce(np.maximum, [_asymmetries(group).max(axis=-1) for group in groups])
        asymmetric = defects > tol.eq_tol
        if asymmetric.any():
            for bad, defect in zip(asymmetric, defects):
                _raise_first(
                    bad,
                    MembershipViolation,
                    lambda i: f"distance argument must be an interior point: {_asymmetry_detail(defect[i])}",
                )
    grams = [_contraction_grams(group) for group in groups]
    order = max(max(group.shape[-2:]) for group in groups)
    largest_q = max(group.shape[-1] for group in groups)
    certificates = [_interior_certificate(gram, order, tol) for gram in grams]
    factors = None
    if all(certificate is not None for certificate in certificates):
        try:
            # A Gram that passes may still have an I - XX* too large to form.
            with np.errstate(over="ignore", invalid="ignore"):
                factors = [
                    _base_factors(group[0], gram[0], shifted)
                    for group, gram, (shifted, _) in zip(groups, grams, certificates)
                ]
        except np.linalg.LinAlgError:
            pass
    if factors is not None:
        # Every block of both sides is certified interior.
        margins = np.full((2, count), min(bound for _, bound in certificates))
    else:
        margins = _block_margins(grams, count)
        (x_margin, y_margin), (x_bad, y_bad) = margins, ~(margins > tol.psd_margin)
        if check_inputs:
            _raise_first(y_bad, MembershipViolation, lambda i: "distance argument " + _interior_detail(y_margin[i]))
        _raise_first(x_bad, MembershipViolation, lambda i: "transvection base " + _interior_detail(x_margin[i]))
        try:
            factors = [_base_factors(group[0], gram[0]) for group, gram in zip(groups, grams)]
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"base point too close to the boundary: {exc}") from exc
    differences, denominators = [], []
    for xb, yb in groups:
        differences.append(yb - xb)
        denominators.append(np.eye(xb.shape[-1]) - xb.conj().swapaxes(-1, -2) @ yb)
    # ||X_b||^2 <= 1 - x_margin for every block X_b, up to the eigensolve's
    # error (for certified bounds, see _interior_certificate), and the same
    # for Y, so the singular values of each block of I - X*Y lie within
    # ||X_b|| ||Y_b|| of 1.  The largest block order bounds the rounding of
    # every group.
    x_norm, y_norm = np.sqrt(1.0 - margins + _spectral_slack(order))
    reach = x_norm * y_norm
    unsettled = ~_certified(1.0 + reach, 1.0 - reach, largest_q, tol)
    near_singular = "transvection denominator near singular: "
    if unsettled.any():
        largest, smallest = (1.0, 1.0) if len(groups) > 1 else (0.0, np.inf)
        for denominator in denominators:
            sv = np.linalg.svd(denominator[unsettled], compute_uv=False)
            largest = np.maximum(largest, sv[..., 0].max(axis=1))
            smallest = np.minimum(smallest, sv[..., -1].min(axis=1))
        bad = np.zeros(count, dtype=bool)
        bad[unsettled] = _ill_conditioned(largest, smallest, tol)
        _raise_first(
            bad,
            IllConditioned,
            lambda i: f"{near_singular}condition number exceeds {1.0 / tol.psd_margin:.3e}",
        )
    try:
        middles = [_solve_unchecked(a, b) for a, b in zip(differences, denominators)]
    except SingularSystem as exc:
        raise IllConditioned(f"{near_singular}{exc}") from exc
    checks = [_residuals(*args, tol) for args in zip(middles, differences, denominators)]
    residual, bound = (reduce(np.maximum, [r.max(axis=1) for r in values]) for values in zip(*checks))
    _raise_first(
        residual > bound,
        IllConditioned,
        lambda i: f"{near_singular}solution residual {residual[i]:.3e} exceeds tolerance",
    )
    top = reduce(
        np.maximum,
        [
            np.linalg.svd(np.linalg.solve(left, middle @ right), compute_uv=False)[..., 0].max(axis=1)
            for middle, (left, right) in zip(middles, factors)
        ]
    )
    _raise_first(top >= 1.0, IllConditioned, lambda i: f"transvected point has norm {top[i]:.6f} >= 1")
    return np.arctanh(top)


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
            # Checked pair by pair in the Siegel model, measured in the bounded one.
            for a, b in zip(xs, ys):
                reason = _asymmetry(a, tol)
                if reason is not None:
                    raise MembershipViolation(f"distance argument must be an interior point: {reason}")
                _require_interior(b, tol, "distance argument")
            xs, ys = [cayley_to_bounded(a, tol) for a in xs], [cayley_to_bounded(b, tol) for b in ys]
        # Both sides in one (2, B, p, q) stack, x first.
        z = np.asarray([a.z for a in xs] + [b.z for b in ys]).reshape(2, len(xs), shape.p, shape.q)
        groups = _diagonal_blocks([z]) if shape.p == shape.q else [z[:, :, np.newaxis]]
        distances = _matrix_distances(
            groups, len(xs), tol, symmetric=shape.kind is not DomainKind.TYPE_I, check_inputs=not siegel
        )
    return float(distances[0]) if pair else distances
