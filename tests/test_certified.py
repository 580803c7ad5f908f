"""Certified condition tests against the exact SVD decisions.

Where the bounds clear a matrix, no SVD runs; everywhere the results have
the bits of the SVD-only path, and the accept/reject decisions and the
messages are the same.  The distance and Cayley kernels are compared with
themselves, their certificate switched off.
"""

from __future__ import annotations

import numpy as np
import pytest

from siegelmaps import (
    DomainPoint,
    cayley_to_bounded,
    cayley_to_siegel,
    kobayashi_distance,
    siegel_shape,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps import domains
from siegelmaps.errors import SiegelmapsError


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the arguments of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _outcome(fn, *args):
    """The result's bytes, or the class and message of the package error
    the call raises."""
    try:
        result = fn(*args)
    except SiegelmapsError as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(result, "z", result)).tobytes()


def _exact(fn, *args):
    """The outcome of a domains kernel with no matrix cleared by bounds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            domains,
            "_certified",
            lambda hi, lo, order, tol: np.zeros(np.broadcast_shapes(np.shape(hi), np.shape(lo)), dtype=bool),
        )
        return _outcome(fn, *args)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, k):
    return np.linalg.qr(_random_complex(rng, (k, k)))[0]


def _contraction(rng, p, q, margin, symmetric):
    """A p x q matrix with top singular value sqrt(1 - margin), symmetric
    (u D u^t) when asked."""
    k = min(p, q)
    values = np.sqrt(1.0 - margin) * np.concatenate([[1.0], rng.uniform(0.0, 1.0, k - 1)])
    u = _unitary(rng, p)
    v = u if symmetric else _unitary(rng, q)
    return (u[:, :k] * values) @ v[:, :k].T


def _near_boundary_pairs(rng, p, q, symmetric, count):
    shape = type_iii_shape(p) if symmetric else type_i_shape(p, q)
    margins = np.geomspace(1e-10, 1e-8, count)
    xs = [DomainPoint(shape, _contraction(rng, p, q, m, symmetric)) for m in rng.permutation(margins)]
    ys = [DomainPoint(shape, _contraction(rng, p, q, m, symmetric)) for m in rng.permutation(margins)]
    # I - X*Y = diag(1 - r^2, 1 + r^2, 1, ...): a condition number near 2e10.
    x, y = np.zeros((p, q)), np.zeros((p, q))
    x[0, 0] = x[1, 1] = y[0, 0] = np.sqrt(1.0 - 1.01e-10)
    y[1, 1] = -x[1, 1]
    return xs + [DomainPoint(shape, x)], ys + [DomainPoint(shape, y)]


@pytest.mark.parametrize("p, q, symmetric", [(2, 2, True), (4, 4, True), (3, 2, False), (2, 3, False)])
def test_distances_near_the_boundary_match_the_svd_test(p, q, symmetric):
    rng = np.random.default_rng(73 + p + 10 * q)
    xs, ys = _near_boundary_pairs(rng, p, q, symmetric, 12)
    outcomes = set()
    for pairs in [(xs, ys)] + [([x], [y]) for x, y in zip(xs, ys)]:
        got = _outcome(kobayashi_distance, *pairs)
        assert got == _exact(kobayashi_distance, *pairs)
        outcomes.add(type(got))
    # Both distances and rejections occur.
    assert outcomes == {bytes, tuple}


def test_distances_take_the_denominator_svd_only_where_the_bounds_do_not_clear(svd_calls):
    rng = np.random.default_rng(74)
    shape = type_iii_shape(4)
    inner = [DomainPoint(shape, _contraction(rng, 4, 4, 0.3, True)) for _ in range(6)]
    kobayashi_distance(inner[:3], inner[3:])
    # Only the distance itself, the top singular value.
    assert svd_calls == [(3, 1, 4, 4)]
    svd_calls.clear()
    near = DomainPoint(shape, _contraction(rng, 4, 4, 1e-9, True))
    # The bounds clear a pair unless both points are near the boundary.
    kobayashi_distance([inner[0], near, inner[1]], [inner[2], near, inner[3]])
    assert svd_calls == [(1, 1, 4, 4), (3, 1, 4, 4)]


def test_cayley_transforms_near_singular_match_the_svd_test():
    rng = np.random.default_rng(75)
    outcomes = set()
    for margin in np.geomspace(1e-10, 1e-6, 9):
        r = np.sqrt(1.0 - margin)
        for w in (np.diag([r, 0.3]), _contraction(rng, 3, 3, margin, True)):
            pt = DomainPoint(type_iii_shape(len(w)), w)
            got = _outcome(cayley_to_siegel, pt)
            assert got == _exact(cayley_to_siegel, pt)
            outcomes.add(type(got))
    for t in np.geomspace(1e6, 1e12, 9):
        pt = DomainPoint(siegel_shape(2), np.diag([t + 1j, 1j]))
        got = _outcome(cayley_to_bounded, pt)
        assert got == _exact(cayley_to_bounded, pt)
        outcomes.add(type(got))
    assert outcomes == {bytes, tuple}
