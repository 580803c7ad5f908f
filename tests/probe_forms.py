"""Factor forms read off the wedge construction at probe points, the
reference the compiled forms of ``embeddings.factor_form`` are held to.

Column k of ``A`` is the construction's block at ``PROBE * e_k`` divided by
the probe radius, flattened row major, and ``P`` is its pseudoinverse.  The
construction is linear, so this is the map ``factor_form`` reads off the
wedge basis without evaluating anything.  The construction is looked up on
the package at each call: a test that swaps the wedge kernel (for
``lu_wedge.lu_wedge_coefficients``) builds the forms through that kernel.
"""

from __future__ import annotations

import sys

import numpy as np

from siegelmaps import embeddings
from siegelmaps.linalg import DEFAULT_TOLERANCE

# Probe radius: well inside every domain, and a power of two.
PROBE = 0.25


def probe_form(factor) -> tuple[np.ndarray, np.ndarray]:
    """``factor_form``'s ``(A, P)`` from the construction at the probes."""
    probes = PROBE * np.eye(factor.p, dtype=np.complex128)
    (blocks,) = embeddings._factor_blocks((factor,), probes, DEFAULT_TOLERANCE)
    matrix = np.ascontiguousarray(blocks.reshape(factor.p, -1).T)
    matrix /= PROBE
    return matrix, np.linalg.pinv(matrix)


def clear_package_caches() -> None:
    """Empty every memo cache (``functools.lru_cache``) of the package, as
    a fresh process would have them."""
    for name, module in list(sys.modules.items()):
        if name == "siegelmaps" or name.startswith("siegelmaps."):
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) == name and hasattr(obj, "cache_clear"):
                    obj.cache_clear()
