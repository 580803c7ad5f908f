"""The wedge basis one multi-index at a time, the reference the package's
index arrays are tested against.

These are its tuple-per-multi-index constructions: 1-based
multi-indices, permutation signs by inversion count, complements, the
conjugation units ``a(M) = -i * eps(M^c, M) * eta(M)``, the ordered basis
split by pairing sign, and the induced pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from siegelmaps.errors import DegreeOutOfRange, DimensionMismatch, SiegelmapsError


class NotAPermutation(SiegelmapsError):
    """Sequence is not a permutation of 1..n."""


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

