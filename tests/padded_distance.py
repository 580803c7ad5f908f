"""The padded distance kernel, the reference the grouped kernel is checked
against.

``padded_distances`` is :func:`siegelmaps.domains._matrix_distances` as it
was before the diagonal blocks were grouped by size: the finest diagonal
blocks of square points (``padded_blocks``) are zero-padded to the largest
and run through each step as one stack, so a padded block adds singular
value 1 to the condition test of I - X*Y.  It takes two equal-length
sequences of p x q matrices and checks, in order: symmetry, the margins
of y and of x, the Cholesky factors, the condition number, the solve and
its residual, and the norm of the transvected point, naming the first
failing pair.
"""

from __future__ import annotations

import numpy as np

from checked_grams import _contraction_margins, _residuals
from siegelmaps.domains import _asymmetries, _asymmetry_detail, _interior_detail, _raise_first
from siegelmaps.errors import IllConditioned, MembershipViolation, SingularSystem
from siegelmaps.linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _certified,
    _ill_conditioned,
    _solve_unchecked,
    _spectral_slack,
)


def padded_blocks(*stacks) -> tuple[np.ndarray, ...]:
    """Equal-length sequences of square k x k matrices split into
    ``(B, n, s, s)`` stacks of their finest diagonal blocks, each padded
    with zeros to the largest size s."""
    if any(m[0, -1] != 0 for z in stacks for m in z):
        return tuple(np.stack(z)[:, np.newaxis] for z in stacks)
    k = stacks[0][0].shape[-1]
    nonzero = np.zeros((k, k), dtype=bool)
    for z in stacks:
        for m in z:
            nonzero |= m != 0
    nonzero |= nonzero.T
    index = np.arange(k)
    reach = np.maximum.accumulate(np.maximum(np.where(nonzero, index, 0).max(axis=1), index))
    stops = np.flatnonzero(reach == index) + 1
    used = nonzero.any(axis=1)
    ranges = [(start, stop) for start, stop in zip((0, *stops[:-1]), stops) if used[start:stop].any()]
    size = max((stop - start for start, stop in ranges), default=0)
    split = []
    for z in stacks:
        blocks = np.zeros((len(z), len(ranges), size, size), dtype=np.complex128)
        for i, m in enumerate(z):
            for j, (start, stop) in enumerate(ranges):
                blocks[i, j, : stop - start, : stop - start] = m[start:stop, start:stop]
        split.append(blocks)
    return tuple(split)


def padded_distances(
    x, y, tol: Tolerance = DEFAULT_TOLERANCE, symmetric: bool = True, check_inputs: bool = True
) -> np.ndarray:
    """Kobayashi distances of the pairs (x[i], y[i]) of matrix-ball points
    on zero-padded diagonal blocks."""
    square = x[0].shape[-1] == x[0].shape[-2]
    xb, yb = padded_blocks(x, y) if square else (np.stack(x)[:, np.newaxis], np.stack(y)[:, np.newaxis])
    if check_inputs and symmetric:
        for blocks in (xb, yb):
            defect = _asymmetries(blocks).max(axis=1, initial=0.0)
            _raise_first(
                defect > tol.eq_tol,
                MembershipViolation,
                lambda i: f"distance argument must be an interior point: {_asymmetry_detail(defect[i])}",
            )
    if xb.shape[1] == 0:
        return np.zeros(len(x))
    x_margin, y_margin = _contraction_margins(np.stack([xb, yb]), tol).min(axis=-1)
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
    p, q = xb.shape[-2:]
    adjoint = xb.conj().swapaxes(-1, -2)
    grams = (np.eye(p) - xb @ adjoint, np.eye(q) - adjoint @ xb)
    try:
        if square:
            left, right = np.linalg.cholesky(np.stack(grams))
        else:
            left, right = (np.linalg.cholesky(gram) for gram in grams)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"base point too close to the boundary: {exc}") from exc
    difference = yb - xb
    denominator = np.eye(q) - adjoint @ yb
    x_norm, y_norm = np.sqrt(1.0 - np.stack([x_margin, y_margin]) + _spectral_slack(max(p, q)))
    reach = x_norm * y_norm
    unsettled = ~_certified(1.0 + reach, 1.0 - reach, q, tol)
    bad = np.zeros(len(x), dtype=bool)
    if unsettled.any():
        sv = np.linalg.svd(denominator[unsettled], compute_uv=False)
        bad[unsettled] = _ill_conditioned(sv[..., 0].max(axis=1), sv[..., -1].min(axis=1), tol)
    near_singular = "transvection denominator near singular: "
    _raise_first(
        bad,
        IllConditioned,
        lambda i: f"{near_singular}condition number exceeds {1.0 / tol.psd_margin:.3e}",
    )
    try:
        middle = _solve_unchecked(difference, denominator)
    except SingularSystem as exc:
        raise IllConditioned(f"{near_singular}{exc}") from exc
    residual, bound = (r.max(axis=1) for r in _residuals(middle, difference, denominator, tol))
    _raise_first(
        residual > bound,
        IllConditioned,
        lambda i: f"{near_singular}solution residual {residual[i]:.3e} exceeds tolerance",
    )
    moved = np.linalg.solve(left, middle @ right)
    top = np.linalg.svd(moved, compute_uv=False)[..., 0].max(axis=1)
    _raise_first(top >= 1.0, IllConditioned, lambda i: f"transvected point has norm {top[i]:.6f} >= 1")
    return np.arctanh(top)
