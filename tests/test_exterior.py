"""Wedge combinatorics: the index arrays of the wedge basis and its
conjugation units, held to the per-multi-index reference; and the
reference's signs, bases, induced pairing and signatures."""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest

from siegelmaps import EmbeddingSpec, FactorKind, FactorSpec, balanced_symmetric, signature
from siegelmaps.embeddings import _conjugation_units
from siegelmaps.errors import DegreeOutOfRange, DimensionMismatch
from siegelmaps.exterior import _basis_rows, _subset_units, _subsets
from siegelmaps.harness import _conjugation_notes

from lu_wedge import induced_form_decomposable, wedge_coefficients
from wedge_reference import (
    NotAPermutation,
    complement,
    conjugation_unit,
    induced_form,
    multi_indices,
    perm_sign,
    wedge_basis,
)


def _brute_force_sign(seq) -> int:
    # independent oracle: count inversions directly
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def test_perm_sign_identity():
    assert perm_sign((1, 2, 3, 4)) == 1


def test_perm_sign_transposition():
    assert perm_sign((2, 1)) == -1


def test_perm_sign_block_swap():
    # complement (3,4) followed by (1,2): four inversions
    assert _brute_force_sign((3, 4, 1, 2)) == 1
    assert perm_sign((3, 4, 1, 2)) == 1


def test_perm_sign_matches_brute_force():
    rng = np.random.default_rng(201)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        seq = rng.permutation(n) + 1
        assert perm_sign(seq) == _brute_force_sign(list(seq))


def test_perm_sign_multiplicative_under_composition():
    rng = np.random.default_rng(202)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        p = rng.permutation(n)
        q = rng.permutation(n)
        composed = p[q] + 1
        assert perm_sign(composed) == perm_sign(p + 1) * perm_sign(q + 1)


def test_perm_sign_rejects_non_permutation():
    with pytest.raises(NotAPermutation):
        perm_sign((1, 1, 2))
    with pytest.raises(NotAPermutation):
        perm_sign((0, 1))


def test_conjugation_unit_examples():
    # p=1, M=(1): complement (2), concatenation (2,1) has sign -1, eta=+1
    assert conjugation_unit((1,), 1) == 1j
    # p=3, M=(1,2): concatenation (3,4,1,2) has sign +1, eta=+1
    assert conjugation_unit((1, 2), 3) == -1j
    # p=3, M=(1,4): contains p+1 so eta=-1; concatenation (2,3,1,4) has sign +1
    assert conjugation_unit((1, 4), 3) == 1j


def test_conjugation_units_are_imaginary_units():
    for p in range(1, 10):
        for m in range(1, p + 1):
            units = _subset_units(p, m)
            assert units.shape == (comb(p + 1, m),)
            assert np.all((units == 1j) | (units == -1j))


def test_conjugation_twice_constant_sign_per_degree():
    # applying the conjugation twice scales e_M by conj(a(M)) * a(M^c); the
    # value is recorded (it is -(-1)^(m(p+1-m)), derived by expanding the
    # two permutation signs) and is +1 exactly in the balanced cases.  The
    # complements of the lexicographic m-subsets are the (p+1-m)-subsets
    # in reverse order.
    for p in range(1, 10):
        for m in range(1, p + 1):
            squares = np.conj(_subset_units(p, m)) * _subset_units(p, p + 1 - m)[::-1]
            expected = -((-1.0) ** (m * (p + 1 - m)))
            assert np.all(squares == expected)
            if balanced_symmetric(p, m):
                assert expected == 1.0
    # The report notes the same square: lambda_III(5, 3) is balanced.
    notes = _conjugation_notes(EmbeddingSpec(5, (FactorSpec(FactorKind.LAMBDA_III, 5, 3),), 10))
    assert notes == {"p=5,m=3": {"units": ["-i", "i"], "squared": ["1"]}}


def test_conjugation_units_have_the_bytes_of_the_reference():
    # The units of every m-subset and of the negatives, built as index
    # arrays, against the units built one multi-index at a time.
    for p in range(1, 10):
        for m in range(1, p + 1):
            negatives = wedge_basis(p, m).negatives
            pairs = [
                (_subset_units(p, m), np.array([conjugation_unit(M, p) for M in multi_indices(p + 1, m)])),
                (_conjugation_units(p, m), np.array([conjugation_unit(M, p) for M in negatives], dtype=np.complex128)),
            ]
            for got, expected in pairs:
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


def test_complement_partitions_index_range():
    for p in range(1, 7):
        for m in range(1, p + 1):
            for M in wedge_basis(p, m).ordered:
                comp = complement(M, p)
                assert sorted(M + comp) == list(range(1, p + 2))


def test_wedge_basis_counts_exhaustive():
    for p in range(1, 9):
        for m in range(1, p + 1):
            basis = wedge_basis(p, m)
            assert len(basis.positives) == comb(p, m)
            assert len(basis.negatives) == comb(p, m - 1)
            assert basis.size == comb(p + 1, m)


def test_wedge_basis_order_is_lexicographic():
    basis = wedge_basis(3, 2)
    assert basis.positives == ((1, 2), (1, 3), (2, 3))
    assert basis.negatives == ((1, 4), (2, 4), (3, 4))
    assert np.array_equal(basis.diagonal(), [1, 1, 1, -1, -1, -1])


def test_basis_rows_equal_the_tables_each_module_built():
    # The tables the embeddings' oracle, the equivariance suite and the LU
    # reference each derived from the basis before they read one table,
    # written out as they were built, with the same bytes.
    for p in range(1, 10):
        for m in range(1, p + 1):
            basis = wedge_basis(p, m)
            row_selector = np.array([[i - 1 for i in M] for M in basis.ordered], dtype=np.intp)
            subsets = multi_indices(p, m - 1) if m > 1 else ((),)
            sub_idx = np.array([[i - 1 for i in sub] for sub in subsets], dtype=np.intp).reshape(len(subsets), m - 1)
            lexicographic = {rows: i for i, rows in enumerate(itertools.combinations(range(p + 1), m))}
            order = np.array([lexicographic[tuple(rows)] for rows in row_selector.tolist()], dtype=np.intp)
            phase_positives = np.array(basis.positives, dtype=np.intp).reshape(len(basis.positives), m) - 1
            phase_negatives = np.array([neg[:-1] for neg in basis.negatives], dtype=np.intp)
            phase_negatives = phase_negatives.reshape(len(basis.negatives), m - 1) - 1

            positives, negatives, table_order = _basis_rows(p, m)
            pairs = ((positives, phase_positives), (negatives, phase_negatives), (negatives, sub_idx), (table_order, order))
            for got, expected in pairs:
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            last = np.full((len(negatives), 1), p, dtype=np.intp)
            assert np.array_equal(np.concatenate([positives, np.concatenate([negatives, last], axis=1)]), row_selector)


@pytest.mark.parametrize("p", range(1, 22, 2))
def test_complement_reverses_the_balanced_basis(p):
    # The symmetric model's reindex: with 2m = p + 1, the complement of
    # negative i is positive r - 1 - i.  Counted per pair of index rows, on
    # tables kept out of the cache: p = 21 has 352,716 negatives.
    m = (p + 1) // 2
    try:
        positives, negatives, _ = _basis_rows.__wrapped__(p, m)
    finally:
        _subsets.cache_clear()
    r = len(positives)
    assert len(negatives) == r
    counts = np.zeros((r, p + 1), dtype=np.intp)
    rows = np.arange(r)[:, np.newaxis]
    # No row repeats within a member, so each += adds one per row; the
    # negatives' tables drop their last row, p.
    counts[rows, negatives] += 1
    counts[rows, positives[::-1]] += 1
    assert (counts[:, :p] == 1).all() and (counts[:, p] == 0).all()
    if p <= 9:
        complements = [complement((*M, p + 1), p) for M in (negatives + 1).tolist()]
        assert complements == [tuple(M) for M in (positives[::-1] + 1).tolist()]


def test_induced_form_diagonal_values():
    for p in range(1, 6):
        for m in range(1, p + 1):
            basis = wedge_basis(p, m)
            lead = np.zeros(basis.size)
            lead[basis.ordered.index(tuple(range(1, m + 1)))] = 1.0
            assert induced_form(p, m, lead, lead) == 1.0


def test_induced_form_orthogonality_of_distinct_indices():
    basis = wedge_basis(4, 2)
    x = np.zeros(basis.size)
    y = np.zeros(basis.size)
    x[basis.ordered.index((1, 2))] = 1.0
    y[basis.ordered.index((1, 3))] = 1.0
    assert induced_form(4, 2, x, y) == 0.0


def test_induced_form_agrees_with_determinant_route():
    # (e1 + e2) ^ e3 against e1 ^ e3 for p = 3: both routes give 1
    p, m = 3, 2
    basis = wedge_basis(p, m)
    e = np.eye(p + 1, dtype=complex)
    xs = np.column_stack([e[:, 0] + e[:, 1], e[:, 2]])
    ys = np.column_stack([e[:, 0], e[:, 2]])
    det_route = induced_form_decomposable(xs, ys, p)
    coeff_route = induced_form(p, m, wedge_coefficients(xs, basis), wedge_coefficients(ys, basis))
    assert det_route == pytest.approx(1.0)
    assert coeff_route == pytest.approx(det_route)


def test_induced_form_routes_agree_on_random_decomposables():
    rng = np.random.default_rng(203)
    for _ in range(50):
        p = int(rng.integers(2, 6))
        m = int(rng.integers(1, p + 1))
        basis = wedge_basis(p, m)
        xs = rng.standard_normal((p + 1, m)) + 1j * rng.standard_normal((p + 1, m))
        ys = rng.standard_normal((p + 1, m)) + 1j * rng.standard_normal((p + 1, m))
        det_route = induced_form_decomposable(xs, ys, p)
        coeff_route = induced_form(
            p, m, wedge_coefficients(xs, basis), wedge_coefficients(ys, basis)
        )
        assert coeff_route == pytest.approx(det_route, abs=1e-9 * (1 + abs(det_route)))


def test_induced_form_conjugate_linear_in_first_argument():
    basis = wedge_basis(3, 2)
    rng = np.random.default_rng(204)
    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    y = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    alpha = 0.3 - 1.7j
    assert induced_form(3, 2, alpha * x, y) == pytest.approx(np.conj(alpha) * induced_form(3, 2, x, y))
    assert induced_form(3, 2, x, alpha * y) == pytest.approx(alpha * induced_form(3, 2, x, y))


def test_induced_form_pairs_stacks_row_by_row():
    basis = wedge_basis(4, 2)
    rng = np.random.default_rng(205)
    xs = rng.standard_normal((3, basis.size)) + 1j * rng.standard_normal((3, basis.size))
    ys = rng.standard_normal((3, basis.size)) + 1j * rng.standard_normal((3, basis.size))
    values = induced_form(4, 2, xs, ys)
    assert values.shape == (3,)
    assert list(values) == [induced_form(4, 2, x, y) for x, y in zip(xs, ys)]
    units = np.eye(basis.size)
    assert list(induced_form(4, 2, units, units).real) == list(basis.diagonal())
    with pytest.raises(DimensionMismatch):
        induced_form(4, 2, xs, ys[:2])
    with pytest.raises(DimensionMismatch):
        induced_form(4, 2, xs[:, :-1], ys[:, :-1])


def test_signature_balanced_case():
    assert signature(5, 3) == (10, 10)


def test_signature_standard_representation():
    for p in range(1, 8):
        assert signature(p, 1) == (p, 1)


def test_signature_by_counting_basis_lists():
    assert signature(4, 2) == (6, 4)
    basis = wedge_basis(4, 2)
    assert (len(basis.positives), len(basis.negatives)) == (6, 4)


def test_signature_rejects_bad_degree():
    with pytest.raises(DegreeOutOfRange):
        signature(3, 0)
    with pytest.raises(DegreeOutOfRange):
        signature(3, 4)


def test_diagonal_count_reproduces_signature_exhaustively():
    for p in range(1, 7):
        for m in range(1, p + 1):
            basis = wedge_basis(p, m)
            plus = minus = 0
            for idx in range(basis.size):
                unit = np.zeros(basis.size)
                unit[idx] = 1.0
                if induced_form(p, m, unit, unit).real > 0:
                    plus += 1
                else:
                    minus += 1
            assert (plus, minus) == signature(p, m)


def test_balanced_signature_iff_middle_degree():
    for p in range(1, 9):
        for m in range(1, p + 1):
            r, s = signature(p, m)
            assert (r == s) == (2 * m == p + 1)


def test_balanced_symmetric_cases_up_to_six():
    hits = [
        (p, m)
        for p in range(1, 7)
        for m in range(1, p + 1)
        if balanced_symmetric(p, m)
    ]
    assert hits == [(1, 1), (5, 3)]


def test_wedge_coefficients_on_basis_vectors():
    basis = wedge_basis(4, 2)
    e = np.eye(5, dtype=complex)
    coeffs = wedge_coefficients(e[:, [0, 2]], basis)
    expected = np.zeros(basis.size, dtype=complex)
    expected[basis.ordered.index((1, 3))] = 1.0
    assert np.allclose(coeffs, expected)


def test_wedge_coefficients_antisymmetry():
    rng = np.random.default_rng(205)
    basis = wedge_basis(3, 2)
    cols = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    swapped = cols[:, ::-1]
    assert np.allclose(wedge_coefficients(cols, basis), -wedge_coefficients(swapped, basis))


def test_multi_indices_are_strictly_increasing():
    for M in multi_indices(6, 3):
        assert all(a < b for a, b in zip(M, M[1:]))
