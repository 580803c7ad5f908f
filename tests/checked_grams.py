"""The distance and margin kernels as they were when every Gram they form
went through the Hermitian check of ``hermitian_eigenvalues``, and each
side of a pair was grouped apart: the reference that ``test_gram_kernels``
holds the package's kernels to, bit for bit.

``_diagonal_blocks`` returns, per block size, a tuple of one
``(B, n, s, s)`` stack per side; ``_matrix_distances`` and
``_block_margins`` take those tuples.  ``_contraction_margins`` raises
``NotHermitian`` where the rounding of a Gram with large entries exceeds
``eq_tol``.  ``_residuals`` forms the residual and its bound for every
member, as the kernels did.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from siegelmaps.domains import _asymmetries, _asymmetry_detail, _interior_detail, _raise_first
from siegelmaps.errors import IllConditioned, MembershipViolation, SingularSystem
from siegelmaps.linalg import (
    Tolerance,
    _certified,
    _ill_conditioned,
    _solve_unchecked,
    _spectral_slack,
)

from hermitian_check import hermitian_eigenvalues


def _residuals(x: np.ndarray, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Per member, ``max|X b - a|`` and its bound ``eq_tol * max(1, max|a|)``."""
    residual = np.abs(x @ b - a).max(axis=(-2, -1), initial=0.0)
    bound = tol.eq_tol * np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), 1.0)
    return residual, bound


def _contraction_margins(z: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Smallest eigenvalue of I - Z*Z for a matrix or for each member of a
    ``(..., p, q)`` stack, computed on the smaller square side."""
    if z.shape[-2] >= z.shape[-1]:
        gram = z.conj().swapaxes(-1, -2) @ z
    else:
        gram = z @ z.conj().swapaxes(-1, -2)
    np.subtract(np.eye(gram.shape[-1], dtype=np.complex128), gram, out=gram)
    return hermitian_eigenvalues(gram, tol)[..., 0]


def _block_ranges(pieces) -> list[tuple[int, int]]:
    """The finest consecutive diagonal ranges of k x k matrices outside
    which every entry of every matrix is exactly zero, all-zero ranges left
    out.  ``pieces`` holds (B, k, k) stacks of such matrices.  A nonzero
    corner entry [0, k - 1] makes one range without a scan."""
    k = pieces[0].shape[-1]
    if any((piece[:, 0, -1] != 0).any() for piece in pieces):
        return [(0, k)]
    nonzero = np.zeros((k, k), dtype=bool)
    for piece in pieces:
        nonzero |= (piece != 0).any(axis=0)
    nonzero |= nonzero.T
    index = np.arange(k)
    # The furthest index reached by any row up to i: a range ends at i
    # where that is i itself.
    reach = np.maximum.accumulate(np.maximum(np.where(nonzero, index, 0).max(axis=1), index))
    stops = np.flatnonzero(reach == index) + 1
    used = nonzero.any(axis=1)
    return [(start, stop) for start, stop in zip((0, *stops[:-1]), stops) if used[start:stop].any()]


def _diagonal_blocks(*stacks) -> list[tuple[np.ndarray, ...]]:
    """Stacks of B square matrices split into their finest diagonal
    blocks, grouped by exact size.

    Each stack is a list of pieces along the diagonal, every entry off the
    pieces being zero: one piece for whole matrices, or the (B, b, b)
    factor blocks of direct-sum images.  Piece j of every stack is a
    sequence or a stack of B matrices of one size.  Within a piece the
    blocks are the finest consecutive diagonal ranges outside which every
    entry of every matrix of every stack is exactly zero
    (:func:`_block_ranges`).  The cut between two factor blocks is such a
    range boundary, so the factor blocks of images give the same blocks as
    the whole images, also where structural zeros split a factor block.
    Every nonzero entry and its transpose fall in one block, so the blocks
    hold every entry of Z - Z^t too.

    Returns one entry per block size, in ascending order, holding for each
    stack a ``(B, n, s, s)`` array of its n blocks of size s in diagonal
    order.  No block is padded, so a kernel run once per group sees only
    the blocks' own entries.  A piece given as a sequence is stacked once,
    on entry, and a piece that forms one block is not copied again.
    """
    stacks = [[np.asarray(piece) for piece in stack] for stack in stacks]
    sizes: dict[int, list[tuple[int, int, int]]] = {}
    for j, pieces in enumerate(zip(*stacks)):
        for start, stop in _block_ranges(pieces):
            sizes.setdefault(stop - start, []).append((j, start, stop))
    return [tuple(_group_of(stack, sizes[s]) for stack in stacks) for s in sorted(sizes)]


def _group_of(stack, ranges) -> np.ndarray:
    """The contiguous (B, n, s, s) stack of a stack's diagonal blocks at
    ``(piece, start, stop)`` ranges of one size s."""
    blocks = [stack[j][:, start:stop, start:stop] for j, start, stop in ranges]
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0])[:, np.newaxis]
    return np.stack(blocks, axis=1)


def _block_margins(groups, count: int, tol: Tolerance) -> np.ndarray:
    """Smallest contraction margin over all blocks of each of ``count``
    members, from one eigensolve per group of ``(..., count, n, s, s)``
    block stacks; 1, the margin of zero, with no blocks."""
    if not groups:
        return np.ones(count)
    return reduce(np.minimum, [_contraction_margins(blocks, tol).min(axis=-1) for blocks in groups])


def _matrix_distances(groups, count: int, tol: Tolerance, symmetric: bool, check_inputs: bool = True) -> np.ndarray:
    """Kobayashi distances between ``count`` pairs of matrix-ball points
    given by their diagonal blocks: per group an (x, y) pair of
    ``(count, n, p, q)`` block stacks, as :func:`_diagonal_blocks` returns
    for square points; a rectangular point is one p x q block.

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

    With ``check_inputs``, x is checked for symmetry (when ``symmetric``)
    and y for interiority, as :func:`membership` does; x is always checked
    against ``psd_margin``, and I - X*Y with the condition test of
    ``linalg._solve_conditioned``, on the extreme singular values over all
    blocks of a pair.  Where the
    blocks have more than one size, 1 joins those extremes: it is the
    singular value that the zero padding of the smaller blocks added when
    every block was padded to the largest, kept so that no decision moves.
    A failing check names the first failing pair.
    """
    if not groups:
        # Every member of both stacks is zero.
        return np.zeros(count)
    if check_inputs and symmetric:
        for side in (0, 1):
            defect = reduce(np.maximum, [_asymmetries(group[side]).max(axis=1) for group in groups])
            _raise_first(
                defect > tol.eq_tol,
                MembershipViolation,
                lambda i: f"distance argument must be an interior point: {_asymmetry_detail(defect[i])}",
            )
    x_margin, y_margin = _block_margins([np.stack(group) for group in groups], count, tol)
    if check_inputs:
        _raise_first(
            ~(y_margin > tol.psd_margin),
            MembershipViolation,
            lambda i: "distance argument " + _interior_detail(y_margin[i]),
        )
    _raise_first(
        ~(x_margin > tol.psd_margin),
        MembershipViolation,
        lambda i: "transvection base " + _interior_detail(x_margin[i]),
    )
    differences, denominators, factors = [], [], []
    order = largest_q = 0
    for xb, yb in groups:
        p, q = xb.shape[-2:]
        order, largest_q = max(order, p, q), max(largest_q, q)
        adjoint = xb.conj().swapaxes(-1, -2)
        grams = (np.eye(p) - xb @ adjoint, np.eye(q) - adjoint @ xb)
        try:
            if p == q:
                factors.append(np.linalg.cholesky(np.stack(grams)))
            else:
                factors.append([np.linalg.cholesky(gram) for gram in grams])
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"base point too close to the boundary: {exc}") from exc
        differences.append(yb - xb)
        denominators.append(np.eye(q) - adjoint @ yb)
    # ||X_b||^2 <= 1 - x_margin for every block X_b, up to the eigensolve's
    # error, and the same for Y, so the singular values of each block of
    # I - X*Y lie within ||X_b|| ||Y_b|| of 1.  The largest block order
    # bounds the rounding of every group.
    x_norm, y_norm = np.sqrt(1.0 - np.stack([x_margin, y_margin]) + _spectral_slack(order))
    reach = x_norm * y_norm
    unsettled = ~_certified(1.0 + reach, 1.0 - reach, largest_q, tol)
    bad = np.zeros(count, dtype=bool)
    if unsettled.any():
        largest, smallest = (1.0, 1.0) if len(groups) > 1 else (0.0, np.inf)
        for denominator in denominators:
            sv = np.linalg.svd(denominator[unsettled], compute_uv=False)
            largest = np.maximum(largest, sv[..., 0].max(axis=1))
            smallest = np.minimum(smallest, sv[..., -1].min(axis=1))
        bad[unsettled] = _ill_conditioned(largest, smallest, tol)
    near_singular = "transvection denominator near singular: "
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
