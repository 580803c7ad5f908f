"""The condition-test rule the distance kernels and the Cayley transforms
cleared by before one rule, ``lo > psd_margin * hi`` on bounds of the
computed matrix, served every solve: it emulates LAPACK's p(n) as n^3 eps
and clears a bound hi / lo on the exact matrix only within 1/16 of
1/psd_margin.  Kept verbatim for the reference kernels
(``checked_grams``, ``padded_distance``), whose decisions are those of the
SVD test wherever it clears.
"""

from __future__ import annotations

import numpy as np

from siegelmaps.linalg import Tolerance, _spectral_slack

# A matrix is cleared without an SVD when its bounds put the condition
# number at most this share of 1/psd_margin (see _certified).
_CERTIFIED_SHARE = 1.0 / 16.0


def _certified(hi, lo, order: int, tol: Tolerance) -> np.ndarray:
    """Where the bounds sigma_max <= hi and sigma_min >= lo on the singular
    values of order-n matrices prove that an SVD condition test passes:
    ``hi * psd_margin <= lo / 16``, elementwise over members.

    It serves the distance kernels and the Cayley transforms.  The test
    this stands in for, :func:`_require_conditioned`, takes the computed
    extreme singular values s'_max, s'_min of a matrix, or of a group of
    matrices tested together, and rejects when
    ``s'_min <= 0 or s'_max / s'_min > 1/psd_margin``.  Rounding argument
    for a cleared member, with m = psd_margin and c = 1/16:

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
      the rejection threshold 1/m.

    So a cleared member passes the SVD test; a member not cleared, and any
    member whose bounds are NaN, must take that test.
    """
    if _spectral_slack(order) > tol.psd_margin / 8.0:
        return np.zeros(np.broadcast_shapes(np.shape(hi), np.shape(lo)), dtype=bool)
    return np.asarray(hi * tol.psd_margin <= _CERTIFIED_SHARE * lo)
