"""The entrywise max-norm the tests measure residuals with."""

from __future__ import annotations

import numpy as np


def max_abs(m) -> float:
    """Entrywise max-norm, 0 for an empty array."""
    return float(np.abs(m).max()) if np.size(m) else 0.0
