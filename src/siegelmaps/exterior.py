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
columns, without LAPACK determinants, from the basis index tables of
:func:`_basis_rows`, which the signature and equivariance suites read
too.  The tables and the conjugation units below are index arrays over
one table of the lexicographic m-subsets (:func:`_subsets`).

The coordinate convention used throughout the package lists the +1 basis
vectors first and the -1 vectors second, each block in lexicographic
order of index tuples, so coordinates are reproducible across runs.

A semi-linear conjugation sends ``e_M`` to ``a(M) e_{M^c}`` with

    a(M) = -i * eps(M^c, M) * eta(M),

where eps is the sign of the concatenated permutation (M^c, M) against
(1, ..., p+1) and eta(M) is -1 when p+1 is in M, +1 otherwise
(:func:`_subset_units`).  Applying the conjugation twice multiplies
``e_M`` by the unit ``conj(a(M)) * a(M^c)``; the verification report
records the measured value rather than assuming it is 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DegreeOutOfRange

__all__ = ["balanced_symmetric", "signature"]


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


@lru_cache(maxsize=None)
def _subsets(p: int, m: int) -> np.ndarray:
    """The m-subsets of the p + 1 rows, 0-based, in lexicographic order:
    shape (C(p+1, m), m)."""
    subsets = list(itertools.combinations(range(p + 1), m))
    return np.array(subsets, dtype=np.intp).reshape(len(subsets), m)


@lru_cache(maxsize=None)
def _basis_rows(p: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index tables of the degree-m basis, 0-based: the rows of the
    positive multi-indices, shape (r, m); the rows of the negative ones with
    p + 1 dropped, shape (s, m - 1), which are the (m-1)-subsets of the
    first p rows in lexicographic order; and the position of each basis
    member, in basis order, among the lexicographic m-subsets of the p + 1
    rows."""
    subsets = _subsets(p, m)
    negative = subsets[:, -1] == p
    order = np.concatenate([np.flatnonzero(~negative), np.flatnonzero(negative)])
    return subsets[~negative], subsets[negative, :-1], order


@lru_cache(maxsize=None)
def _subset_units(p: int, m: int) -> np.ndarray:
    """The units a(M) of the lexicographic m-subsets of the p + 1 rows.

    For 0-based rows R, the concatenation (M^c, M) has m(p+1-m) -
    sum_t (R_t - t) inversions: R_t - t members of M^c lie below R_t and
    the others above it, out of order with it.
    """
    subsets = _subsets(p, m)
    inversions = m * (p + 1 - m) - (subsets - np.arange(m)).sum(axis=1)
    eta = np.where(subsets[:, -1] == p, -1, 1)
    # Multiplied left to right, as -i * eps * eta in scalar complex
    # arithmetic, so each zero real part keeps that product's sign.
    return -1j * (1 - 2 * (inversions % 2)) * eta
