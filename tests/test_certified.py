"""Condition tests cleared by bounds against the SVD-only decisions.

Where the bounds clear a matrix, no SVD runs; on every input here the
results have the bits of the SVD-only path, and the accept/reject
decisions and the messages are the same, at orders up to 126.  The
distance and Cayley kernels are compared with themselves, the one rule
that clears by bounds (``linalg._cleared``) switched off.
"""

from __future__ import annotations

import numpy as np
import pytest

from siegelmaps import (
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    HarnessConfig,
    cayley_to_bounded,
    cayley_to_siegel,
    kobayashi_distance,
    siegel_shape,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps import harness, linalg
from siegelmaps.errors import IllConditioned, SiegelmapsError


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
    """The outcome of a kernel with no matrix cleared by bounds: the one
    rule that clears them switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            linalg,
            "_cleared",
            lambda hi, lo, tol: np.zeros(np.broadcast_shapes(np.shape(hi), np.shape(lo)), dtype=bool),
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


@pytest.mark.parametrize("p, q, symmetric", [(2, 2, True), (4, 4, True), (3, 2, False), (2, 3, False), (40, 40, True)])
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
    near = DomainPoint(shape, _contraction(rng, 4, 4, 1.5e-10, True))
    # The bounds clear a pair unless both points are near the boundary.
    # Here 1 - ||X|| ||Y|| is about 1.5e-10, below psd_margin (1 + ||X|| ||Y||),
    # so the pair takes the SVD, and I - X*X, of condition number near
    # 1 / 1.5e-10, passes it.
    kobayashi_distance([inner[0], near, inner[1]], [inner[2], near, inner[3]])
    assert svd_calls == [(1, 1, 4, 4), (3, 1, 4, 4)]


def test_the_g126_isometry_suite_takes_one_svd_per_pair(svd_calls):
    # lambda_III(9, 5) at g = 126: each pair of images is one 126 x 126
    # block, and the bounds clear every pair's I - X*Y, so the one SVD per
    # pair is the distance's own.
    spec = EmbeddingSpec(9, (FactorSpec(FactorKind.LAMBDA_III, 9, 5),), 126)
    assert harness._suite_isometry(spec, HarnessConfig(seed=3, samples=8)).passed
    assert svd_calls == [(1, 1, 126, 126)] * 8
    svd_calls.clear()
    # A pair of order 126 that the bounds cannot clear, where
    # I - X*Y = diag(1 - r^2, 1 + r^2, 1, ...), still takes one denominator
    # SVD, of that pair alone, and is refused by it.
    rng = np.random.default_rng(76)
    shape = type_iii_shape(126)
    inner = [DomainPoint(shape, _contraction(rng, 126, 126, 0.3, True)) for _ in range(2)]
    x, y = np.zeros((126, 126)), np.zeros((126, 126))
    x[0, 0] = x[1, 1] = y[0, 0] = np.sqrt(1.0 - 1.01e-10)
    y[1, 1] = -x[1, 1]
    with pytest.raises(IllConditioned) as raised:
        kobayashi_distance([inner[0], DomainPoint(shape, x)], [inner[1], DomainPoint(shape, y)])
    assert str(raised.value) == "pair 1: transvection denominator near singular: condition number exceeds 1.000e+10"
    assert svd_calls == [(1, 1, 126, 126)]


def test_cayley_transforms_near_singular_match_the_svd_test():
    rng = np.random.default_rng(75)
    outcomes = set()
    # Order 40 too, where the bounds' rounding terms are larger.
    for diagonal, dense in ((2, 3), (40, 40)):
        for margin in np.geomspace(1e-10, 1e-6, 9):
            r = np.sqrt(1.0 - margin)
            for w in (np.diag(np.r_[r, np.full(diagonal - 1, 0.3)]), _contraction(rng, dense, dense, margin, True)):
                pt = DomainPoint(type_iii_shape(len(w)), w)
                got = _outcome(cayley_to_siegel, pt)
                assert got == _exact(cayley_to_siegel, pt)
                outcomes.add((len(w) >= 40, type(got)))
    for g in (2, 40):
        for t in np.geomspace(1e6, 1e12, 9):
            pt = DomainPoint(siegel_shape(g), np.diag(np.r_[t + 1j, np.full(g - 1, 1j)]))
            got = _outcome(cayley_to_bounded, pt)
            assert got == _exact(cayley_to_bounded, pt)
            outcomes.add((g >= 40, type(got)))
    # Images and refusals at both orders.
    assert outcomes == {(large, kind) for large in (False, True) for kind in (bytes, tuple)}
