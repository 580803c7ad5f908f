"""Matrix kernel: decompositions, solvers, and their contracts."""

from __future__ import annotations

import numpy as np
import pytest

from siegelmaps import (
    DEFAULT_TOLERANCE,
    Tolerance,
    as_complex_matrix,
    singular_values,
)
from siegelmaps.errors import (
    DimensionMismatch,
    SingularSystem,
)
from siegelmaps.linalg import _solve_conditioned, _symmetrized_eigenvalues

from hermitian_check import NotHermitian, hermitian_eigenvalues
from norms import max_abs
from transvection import hermitian_eigensystem

EQ = DEFAULT_TOLERANCE.eq_tol


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_tolerance_ordering_enforced():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=1e-12, psd_margin=1e-10)
    with pytest.raises(ValueError):
        Tolerance(eq_tol=2.0)


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(np.empty((0, 2)))
    with pytest.raises(DimensionMismatch):
        as_complex_matrix([[np.nan, 0.0]])
    out = as_complex_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128 and not out.flags.writeable


def test_as_complex_matrix_keeps_only_frozen_owned_arrays():
    frozen = np.arange(6, dtype=np.complex128).reshape(2, 3).copy()
    frozen.setflags(write=False)
    assert as_complex_matrix(frozen, rows=2, cols=3) is frozen
    with pytest.raises(DimensionMismatch):
        as_complex_matrix(frozen, rows=3)
    # Writable, a contiguous view, another dtype or Fortran order: copied and frozen.
    writable = np.arange(6, dtype=np.complex128).reshape(2, 3).copy()
    for data in (writable, frozen[:1], writable.real, np.asfortranarray(writable)):
        out = as_complex_matrix(data)
        assert out is not data and not np.shares_memory(out, data)
        assert not out.flags.writeable and np.array_equal(out, data)
    writable[0, 0] = 7.0
    assert out[0, 0] == 0.0
    # Frozen or not, non-finite input is rejected.
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        m = np.zeros((2, 2), dtype=np.complex128)
        m[1, 0] = bad
        with pytest.raises(DimensionMismatch, match="finite"):
            as_complex_matrix(m)
        m.setflags(write=False)
        with pytest.raises(DimensionMismatch, match="finite"):
            as_complex_matrix(m)


def test_hermitian_eigenvalues_stack_equals_members():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    stack = raw @ raw.conj().swapaxes(-1, -2)
    values = hermitian_eigenvalues(stack)
    for member, expected in zip(stack, values):
        assert np.array_equal(hermitian_eigenvalues(member), expected)
    stack[2, 0, 1] += 1e-3
    with pytest.raises(NotHermitian, match="^matrix 2: "):
        hermitian_eigenvalues(stack)


def test_formed_matrices_take_the_hermitian_part_unchecked():
    # Eigenvalues of (m + m*)/2, not of one triangle of m, and no check: the
    # path of the Grams the package forms itself.
    m = np.array([[[1.0, 2e-3], [0.0, 1.0]], [[2.0, 0.0], [4j, 0.0]]])
    values = _symmetrized_eigenvalues(m)
    assert np.allclose(values, [[1.0 - 1e-3, 1.0 + 1e-3], [1.0 - np.sqrt(5.0), 1.0 + np.sqrt(5.0)]])
    with pytest.raises(NotHermitian, match="^matrix 0: "):
        hermitian_eigenvalues(m)
    hermitian = (m + m.conj().swapaxes(-1, -2)) / 2
    assert values.tobytes() == hermitian_eigenvalues(hermitian).tobytes()


def test_hermitian_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(2, dtype=complex)), [1.0, 1.0])


def test_hermitian_eigenvalues_pauli_type():
    m = np.array([[0.0, 1j], [-1j, 0.0]])
    assert np.allclose(hermitian_eigenvalues(m), [-1.0, 1.0], atol=EQ)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvalues_of_gram_match_squared_singular_values():
    # independent cross-check of the two decomposition routes
    rng = np.random.default_rng(101)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        a = _random_complex(rng, (k, k))
        gram_eigs = hermitian_eigenvalues(a.conj().T @ a)
        squared = np.sort(singular_values(a) ** 2)
        assert np.allclose(gram_eigs, squared, atol=EQ * max(1.0, squared.max()))


def test_hermitian_reconstruction_residual():
    rng = np.random.default_rng(102)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        a = _random_complex(rng, (k, k))
        m = a + a.conj().T
        values, vectors = hermitian_eigensystem(m)
        rebuilt = (vectors * values[np.newaxis, :]) @ vectors.conj().T
        assert max_abs(m - rebuilt) <= EQ * (1.0 + max_abs(m))


def test_singular_values_zero_matrix():
    assert np.allclose(singular_values(np.zeros((3, 2))), [0.0, 0.0])


def test_singular_values_column_vector_is_norm():
    v = np.array([[0.3 + 0.1j], [0.4 - 0.2j]])
    assert np.allclose(singular_values(v), [np.linalg.norm(v)])


def test_singular_values_of_connecting_block_matrix():
    # symmetric block matrix carrying (0.3, 0.4) off the diagonal;
    # oracle: eigenvalues of M*M, computed independently of the SVD path
    m = np.array(
        [
            [0.0, 0.3, 0.4],
            [0.3, 0.0, 0.0],
            [0.4, 0.0, 0.0],
        ],
        dtype=complex,
    )
    oracle = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
    got = singular_values(m)
    # compare squared values so roundoff near zero is not amplified by sqrt
    assert np.allclose(got**2, oracle, atol=EQ)
    assert np.allclose(got, [0.5, 0.5, 0.0], atol=EQ)


def test_singular_values_unitary_invariance():
    rng = np.random.default_rng(103)
    for _ in range(25):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = _random_complex(rng, (p, q))
        u = np.linalg.qr(_random_complex(rng, (p, p)))[0]
        v = np.linalg.qr(_random_complex(rng, (q, q)))[0]
        assert np.allclose(singular_values(u @ m @ v), singular_values(m), atol=EQ)


def _solve(a, b, cleared=False):
    """The right solve X @ b = a with its condition test and residual check,
    the members ``cleared`` marks given bounds hi = lo = 1 that clear the
    test, the others bounds that clear nothing."""
    b = np.asarray(b, dtype=complex)
    lo = np.where(np.broadcast_to(cleared, b.shape[:-2]), 1.0, 0.0)
    return _solve_conditioned(np.asarray(a, dtype=complex), b, (1.0, lo), DEFAULT_TOLERANCE)


def test_solve_right_identity():
    rng = np.random.default_rng(104)
    a = _random_complex(rng, (2, 3))
    assert np.allclose(_solve(a, np.eye(3, dtype=complex)), a)


def test_solve_right_scaled():
    rng = np.random.default_rng(105)
    b = _random_complex(rng, (3, 3)) + 3.0 * np.eye(3)
    x = _solve(2.0 * b, b)
    assert np.allclose(x, 2.0 * np.eye(3), atol=EQ)


def test_solve_right_residual_on_seeded_systems():
    rng = np.random.default_rng(106)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        b = _random_complex(rng, (n, n)) + 2.0 * n * np.eye(n)
        a = _random_complex(rng, (int(rng.integers(1, 5)), n))
        x = _solve(a, b)
        assert max_abs(x @ b - a) <= EQ * max(1.0, max_abs(a))
    # A cleared system still has its residual checked.
    with pytest.raises(SingularSystem, match="solution residual"):
        _solve(np.array([[1.0, 0.0], [0.3, 0.7]]), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), True)


def test_solve_right_rejects_singular():
    with pytest.raises(SingularSystem, match="^condition number"):
        _solve(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))


def test_solve_right_stack_equals_members():
    rng = np.random.default_rng(110)
    b = _random_complex(rng, (5, 3, 3)) + 6.0 * np.eye(3)
    a = _random_complex(rng, (5, 2, 3))
    x = _solve(a, b)
    assert x.shape == (5, 2, 3)
    for i in range(5):
        assert np.array_equal(x[i], _solve(a[i], b[i]))
    # A stack of one has the bits of the 2-d call, and which members are
    # cleared moves no bit.
    assert np.array_equal(_solve(a[:1], b[:1])[0], _solve(a[0], b[0]))
    assert np.array_equal(_solve(a, b, np.arange(5) % 2 == 0), x)


def test_solve_right_stack_names_its_singular_member(monkeypatch):
    b = np.stack([np.eye(2, dtype=complex)] * 4)
    b[2] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularSystem, match="matrix 2: condition number"):
        _solve(np.ones((4, 1, 2), dtype=complex), b)
    with pytest.raises(SingularSystem, match=r"matrix \(1, 0\): condition number"):
        _solve(np.ones((2, 2, 1, 2), dtype=complex), b.reshape(2, 2, 2, 2))
    # Only the members not cleared take the SVD, and the error still names
    # the member by its index in the stack.
    shapes = []
    svd = np.linalg.svd

    def counting(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    with pytest.raises(SingularSystem, match="matrix 2: condition number"):
        _solve(np.ones((4, 1, 2), dtype=complex), b, np.array([True, False, False, True]))
    assert shapes == [(2, 2, 2)]


def test_determinism_bitwise():
    rng = np.random.default_rng(109)
    a = _random_complex(rng, (5, 5))
    m = a + a.conj().T
    first = hermitian_eigenvalues(m)
    second = hermitian_eigenvalues(m.copy())
    assert np.array_equal(first, second)
    assert np.array_equal(singular_values(a), singular_values(a.copy()))
