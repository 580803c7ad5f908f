"""Wedge-basis combinatorics for exterior powers of an indefinite space.

The base space is C^(p+1) carrying the Hermitian pairing of signature
(p, 1),

    F(x, y) = sum_{i<=p} conj(x_i) y_i - conj(x_{p+1}) y_{p+1},

conjugate-linear in the first argument.  Degree-m wedge products are
expanded over the basis ``e_M = e_{i_1} ^ ... ^ e_{i_m}`` indexed by
strictly increasing multi-indices M in {1..p+1}.  The induced pairing on
the power is diagonal on this basis: +1 when p+1 is not in M, -1 when it
is, giving signature (C(p, m), C(p, m-1)).  The coordinates of a wedge
of m column vectors are its m x m minors over the rows of each M; the
embeddings' oracle computes them with a Laplace recursion over the
columns, without LAPACK determinants.

The coordinate convention used throughout the package lists the +1 basis
vectors first and the -1 vectors second, each block in lexicographic
order of index tuples, so coordinates are reproducible across runs.

A semi-linear conjugation sends ``e_M`` to ``a(M) e_{M^c}`` with

    a(M) = -i * eps(M^c, M) * eta(M),

where eps is the sign of the concatenated permutation (M^c, M) against
(1, ..., p+1) and eta(M) is -1 when p+1 is in M, +1 otherwise.  Applying
the conjugation twice multiplies ``e_M`` by the unit
``conj(a(M)) * a(M^c)``; the value is exposed for measurement rather than
assumed to be 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch, NotAPermutation

__all__ = [
    "WedgeBasis",
    "balanced_symmetric",
    "complement",
    "conjugation_unit",
    "conjugation_twice_unit",
    "induced_form",
    "multi_indices",
    "perm_sign",
    "signature",
    "wedge_basis",
]

MultiIndex = tuple[int, ...]


def multi_indices(n: int, m: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing m-tuples in {1..n}, lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), m))


def perm_sign(concatenated) -> int:
    """Sign of a permutation of {1..n}, by inversion-count parity."""
    seq = [int(v) for v in concatenated]
    n = len(seq)
    if sorted(seq) != list(range(1, n + 1)):
        raise NotAPermutation(f"sequence {seq} is not a permutation of 1..{n}")
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def _check_multi_index(m_idx: MultiIndex, p: int) -> MultiIndex:
    m_idx = tuple(int(i) for i in m_idx)
    if not m_idx:
        raise DegreeOutOfRange("multi-index must be nonempty")
    if any(i < 1 or i > p + 1 for i in m_idx):
        raise DimensionMismatch(f"multi-index {m_idx} out of range 1..{p + 1}")
    if any(a >= b for a, b in zip(m_idx, m_idx[1:])):
        raise DimensionMismatch(f"multi-index {m_idx} is not strictly increasing")
    return m_idx


def complement(m_idx: MultiIndex, p: int) -> MultiIndex:
    """Complementary multi-index within {1..p+1}."""
    m_idx = _check_multi_index(m_idx, p)
    members = set(m_idx)
    return tuple(i for i in range(1, p + 2) if i not in members)


def conjugation_unit(m_idx: MultiIndex, p: int) -> complex:
    """Unit coefficient a(M) of the semi-linear conjugation on degree-m wedges.

    a(M) = -i * eps(M^c, M) * eta(M), with eta(M) = -1 iff p+1 is in M.
    """
    m_idx = _check_multi_index(m_idx, p)
    return _conjugation_unit(m_idx, complement(m_idx, p), p)


def _conjugation_unit(m_idx: MultiIndex, comp: MultiIndex, p: int) -> complex:
    """a(M) for a valid multi-index M and its complement."""
    eta = -1 if (p + 1) in m_idx else 1
    return -1j * perm_sign(comp + m_idx) * eta


def conjugation_twice_unit(m_idx: MultiIndex, p: int) -> complex:
    """Unit multiplier picked up by e_M under the conjugation applied twice.

    Equals conj(a(M)) * a(M^c); recorded by the verification harness, not
    normalized away.
    """
    m_idx = _check_multi_index(m_idx, p)
    return complex(np.conj(conjugation_unit(m_idx, p)) * conjugation_unit(complement(m_idx, p), p))


def signature(p: int, m: int) -> tuple[int, int]:
    """Signature (r, s) = (C(p, m), C(p, m-1)) of the induced degree-m pairing."""
    if not 1 <= m <= p:
        raise DegreeOutOfRange(f"degree m={m} outside 1..{p}")
    return comb(p, m), comb(p, m - 1)


def balanced_symmetric(p: int, m: int) -> bool:
    """True when the balanced case r = s admits a symmetric-matrix model.

    Requires m = (p+1)/2 (so r = s) together with p = 1 mod 4, which makes
    the top-degree bilinear pairing alternating.
    """
    if not 1 <= m <= p:
        raise DegreeOutOfRange(f"degree m={m} outside 1..{p}")
    return p % 4 == 1 and 2 * m == p + 1


@dataclass(frozen=True)
class WedgeBasis:
    """Ordered wedge basis of degree m over C^(p+1), split by pairing sign.

    ``positives`` lists the multi-indices without p+1 (pairing +1) and
    ``negatives`` those containing p+1 (pairing -1), each lexicographic.
    Coordinates follow the order positives + negatives.
    """

    p: int
    m: int
    positives: tuple[MultiIndex, ...]
    negatives: tuple[MultiIndex, ...]

    @property
    def size(self) -> int:
        return len(self.positives) + len(self.negatives)

    @property
    def ordered(self) -> tuple[MultiIndex, ...]:
        return self.positives + self.negatives

    def diagonal(self) -> np.ndarray:
        """Diagonal +/-1 values of the induced pairing in basis order."""
        return np.concatenate(
            [np.ones(len(self.positives)), -np.ones(len(self.negatives))]
        )


@lru_cache(maxsize=None)
def wedge_basis(p: int, m: int) -> WedgeBasis:
    """Memoized wedge basis for (p, m); safe for concurrent readers."""
    if not 1 <= m <= p:
        raise DegreeOutOfRange(f"degree m={m} outside 1..{p}")
    everything = multi_indices(p + 1, m)
    positives = tuple(M for M in everything if (p + 1) not in M)
    negatives = tuple(M for M in everything if (p + 1) in M)
    return WedgeBasis(p, m, positives, negatives)


@lru_cache(maxsize=None)
def _row_selector(p: int, m: int) -> np.ndarray:
    """0-based row subsets of the basis order, shape (C(p+1, m), m)."""
    basis = wedge_basis(p, m)
    return np.array([[i - 1 for i in M] for M in basis.ordered], dtype=np.intp)


def induced_form(p: int, m: int, x, y) -> complex | np.ndarray:
    """Induced pairing of two degree-m coefficient vectors in basis order.

    Sesquilinear extension of the diagonal +1/-1 values; on decomposable
    arguments it equals the determinant of the base pairings.
    Two ``(k, size)`` stacks of vectors pair row by row and give a length-k
    array.
    """
    basis = wedge_basis(p, m)
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.ndim == 2 or y.ndim == 2:
        if x.shape != y.shape or x.ndim != 2 or x.shape[1] != basis.size:
            raise DimensionMismatch(
                f"coefficient stacks must both have shape (k, {basis.size}), got {x.shape} and {y.shape}"
            )
        return np.sum(np.conj(x) * basis.diagonal() * y, axis=1)
    x, y = x.reshape(-1), y.reshape(-1)
    if x.size != basis.size or y.size != basis.size:
        raise DimensionMismatch(f"coefficient vectors must have length {basis.size}")
    return complex(np.sum(np.conj(x) * basis.diagonal() * y))
