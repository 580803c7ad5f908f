"""The distance and membership kernels against the ones they replaced.

``checked_grams.py`` keeps the kernels as they were when every Gram they
formed went through the Hermitian check of ``hermitian_eigenvalues`` and
each side of a pair was grouped apart.  Wherever those return, the
package's kernels return the same bits; wherever they raise a package
error other than ``NotHermitian``, the package raises the same class with
the same message.  A symmetric point with large entries, where the
rounding of its Gram tripped the old check, is now classified by its
margin, and one whose Gram overflows has margin -inf.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import checked_grams as ref
from bulk_images import embedded_images
from hermitian_check import hermitian_eigenvalues
from siegelmaps import (
    DEFAULT_TOLERANCE,
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    MembershipStatus,
    ball_point,
    cayley_to_bounded,
    cayley_to_siegel,
    isometry_sandwich,
    kobayashi_distance,
    membership,
    retract_direct_sum,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps.domains import _block_margins, _contraction_grams, _diagonal_blocks
from siegelmaps.embeddings import _embed_blocks
from siegelmaps.errors import MembershipViolation, SiegelmapsError
from siegelmaps.sampling import generator, sample_ball_coords, sample_type_iii
from test_block_groups import CHECKS, G60_SPEC, K, LAYOUTS, N3_SPEC, _pair

TOL = DEFAULT_TOLERANCE
AMBIENT_GENERA = (2, 6, 12, 20, 35)
POOL = 24
CL = FactorKind.CONNECTING_LAMBDA
# A spec of exact cost g for the retraction of the large points.
SPECS = {3: EmbeddingSpec(2, (FactorSpec(CL, 2, 1),), 3), 12: EmbeddingSpec(3, (FactorSpec(CL, 3, 2),) * 2, 12)}


def _outcome(fn, *args, **kwargs):
    """The result's bytes, or the class and message of the package error
    the call raises."""
    try:
        result = fn(*args, **kwargs)
    except SiegelmapsError as exc:
        return type(exc), str(exc)
    return np.asarray(result, dtype=np.float64).tobytes()


def _reference(xs, ys, symmetric=True, check_inputs=True):
    """The old kernel's distances of the pairs of matrices (xs[i], ys[i])."""
    if xs[0].shape[0] == xs[0].shape[1]:
        groups = ref._diagonal_blocks([list(xs)], [list(ys)])
    else:
        groups = [(np.stack(xs)[:, np.newaxis], np.stack(ys)[:, np.newaxis])]
    return ref._matrix_distances(groups, len(xs), TOL, symmetric, check_inputs)


def _pool(seed, g):
    rng = generator(seed, 5000 + g)
    return [sample_type_iii(rng, g) for _ in range(POOL)]


@pytest.mark.parametrize("seed", [3, 17])
def test_ambient_pools_have_the_old_bits_in_both_orders(seed):
    for g in AMBIENT_GENERA:
        pool = _pool(seed, g)
        prev = pool[-1:] + pool[:-1]
        for a, b in zip(prev, pool):
            for x, y in ((a, b), (b, a)):
                got = kobayashi_distance(x, y)
                assert isinstance(got, float)
                assert np.float64(got).tobytes() == _reference([x.z], [y.z]).tobytes()
        for xs, ys in ((prev, pool), (pool, prev)):
            got = kobayashi_distance(xs, ys).tobytes()
            assert got == _reference([x.z for x in xs], [y.z for y in ys]).tobytes()
        for x in pool:
            assert np.float64(membership(x).margin).tobytes() == ref._contraction_margins(x.z, TOL).tobytes()


def _axis_rows(n, count, k):
    """Points on the k-th coordinate axis, which split some factor blocks
    of the g = 60 spec into smaller diagonal blocks."""
    return np.eye(n, dtype=complex)[k] * np.linspace(0.1, 0.9, count)[:, np.newaxis]


@pytest.mark.parametrize(
    "spec, rows",
    [
        (G60_SPEC, (sample_ball_coords(generator(61, 1), 5, 6), sample_ball_coords(generator(61, 2), 5, 6))),
        (G60_SPEC, (_axis_rows(5, 6, 0), _axis_rows(5, 6, 4))),
        (N3_SPEC, (_axis_rows(3, 5, 0), _axis_rows(3, 5, 0)[::-1])),
    ],
    ids=["g60-random", "g60-axes", "N3-padded-axis"],
)
def test_image_pairs_and_their_blocks_have_the_old_bits(spec, rows):
    xs, ys = rows
    ex, ey = embedded_images(spec, xs), embedded_images(spec, ys)
    expected = _reference([e.z for e in ex], [e.z for e in ey])
    assert kobayashi_distance(ex, ey).tobytes() == expected.tobytes()
    assert kobayashi_distance(ey, ex).tobytes() == _reference([e.z for e in ey], [e.z for e in ex]).tobytes()
    # The factor-block path of the isometry suite.
    bx, by = _embed_blocks(spec, xs), _embed_blocks(spec, ys)
    old = ref._matrix_distances(ref._diagonal_blocks(bx, by), len(xs), TOL, symmetric=True)
    _, target, _ = isometry_sandwich(spec, [ball_point(x) for x in xs], [ball_point(y) for y in ys])
    assert target.tobytes() == old.tobytes() == expected.tobytes()
    # The membership suite's margins over the images' diagonal blocks.
    groups = _diagonal_blocks([block[np.newaxis] for block in bx])
    margins = _block_margins([_contraction_grams(group[0]) for group in groups], len(xs))
    old_groups = [group for (group,) in ref._diagonal_blocks(bx)]
    assert margins.tobytes() == ref._block_margins(old_groups, len(xs), TOL).tobytes()


def _contractions(rng, count, p, q):
    """Random p x q matrices with top singular values spread in (0, 0.99)."""
    raw = rng.standard_normal((count, p, q)) + 1j * rng.standard_normal((count, p, q))
    top = np.linalg.svd(raw, compute_uv=False)[:, 0]
    return raw * (rng.uniform(0.0, 0.99, count) / top)[:, np.newaxis, np.newaxis]


@pytest.mark.parametrize("p, q", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (5, 5), (7, 12)])
def test_rectangular_type_i_pairs_have_the_old_bits(p, q):
    rng = np.random.default_rng(100 * p + q)
    xs, ys = _contractions(rng, 6, p, q), _contractions(rng, 6, p, q)
    px = [DomainPoint(type_i_shape(p, q), x) for x in xs]
    py = [DomainPoint(type_i_shape(p, q), y) for y in ys]
    assert kobayashi_distance(px, py).tobytes() == _reference(xs, ys, symmetric=False).tobytes()
    for x, y, a, b in zip(xs, ys, px, py):
        assert np.float64(kobayashi_distance(a, b)).tobytes() == _reference([x], [y], symmetric=False).tobytes()
        assert np.float64(membership(a).margin).tobytes() == ref._contraction_margins(x, TOL).tobytes()


@pytest.mark.parametrize("g", [1, 3, 8])
def test_siegel_pairs_have_the_old_bits(g):
    rng = generator(29, g)
    xs = [cayley_to_siegel(sample_type_iii(rng, g)) for _ in range(5)]
    ys = [cayley_to_siegel(sample_type_iii(rng, g)) for _ in range(5)]
    bounded = [[cayley_to_bounded(s).z for s in side] for side in (xs, ys)]
    expected = _reference(*bounded, check_inputs=False)
    assert kobayashi_distance(xs, ys).tobytes() == expected.tobytes()
    assert np.float64(kobayashi_distance(xs[0], ys[0])).tobytes() == expected[:1].tobytes()
    for s in xs + ys:
        imag = (s.z - s.z.conj().T) / 2j
        assert np.float64(membership(s).margin).tobytes() == hermitian_eigenvalues(imag)[:1].tobytes()


def test_mixed_stacks_keep_their_bits_checks_and_messages():
    # Block-diagonal pairs that fail each of the kernel's checks in turn, in
    # stacks of one to six pairs, both orders: the same distances, or the
    # same error class, message and pair label.
    rng = np.random.default_rng(93)
    outcomes = set()
    for trial in range(120):
        layout = LAYOUTS[trial % len(LAYOUTS)]
        kinds = rng.choice(["plain", "plain", "near", "asymmetric", "ill"], size=int(rng.integers(1, 7)))
        pairs = [_pair(rng, layout, kind) for kind in kinds]
        for first, second in ((0, 1), (1, 0)):
            xs, ys = [pair[first] for pair in pairs], [pair[second] for pair in pairs]
            px, py = ([DomainPoint(type_iii_shape(K), z) for z in side] for side in (xs, ys))
            got = _outcome(kobayashi_distance, px, py)
            assert got == _outcome(_reference, xs, ys)
            outcomes.add(next(check for check in CHECKS if check in got[1]) if isinstance(got, tuple) else "distance")
    assert outcomes == {"distance", *CHECKS}, outcomes


def _large(rng, g, scale):
    """An exactly symmetric g x g point of norm ``scale``."""
    z = sample_type_iii(rng, g).z
    return DomainPoint(type_iii_shape(g), z * (scale / np.linalg.svd(z, compute_uv=False)[0]))


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e10])
@pytest.mark.parametrize("g", [3, 12])
def test_large_symmetric_points_are_outside_not_rejected_as_non_hermitian(g, scale):
    rng = generator(41, g)
    big, small = _large(rng, g, scale), sample_type_iii(rng, g)
    assert np.array_equal(big.z, big.z.T)
    result = membership(big)
    assert result.status is MembershipStatus.OUTSIDE and result.reason is None
    assert result.margin < -1.0
    detail = f"must be an interior point: margin {result.margin:.3e}"
    calls = {
        f"Cayley input {detail}": lambda: cayley_to_siegel(big),
        f"distance argument {detail}": lambda: kobayashi_distance(small, big),
        f"transvection base {detail}": lambda: kobayashi_distance(big, small),
        f"direct-sum retraction input {detail}": lambda: retract_direct_sum(big, SPECS[g], verify=True),
    }
    for message, call in calls.items():
        with pytest.raises(MembershipViolation) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize("scale", [1e150, 1e155, 1e200, 1e300])
@pytest.mark.parametrize("g", [3, 12])
def test_points_too_large_to_square_have_margin_minus_inf(g, scale):
    # A symmetric point of norm 1e155 or more has a diagonal entry of Z*Z of
    # at least 1e310 / g, past the largest double: its Gram is not finite,
    # and its margin is -inf with no eigensolve and no warning.  At 1e150
    # the Gram is finite and the margin is that of the symmetrized Gram's
    # eigensolve, as before.
    rng = generator(42, g)
    big, small = _large(rng, g, scale), sample_type_iii(rng, g)
    assert np.array_equal(big.z, big.z.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = membership(big)
        assert result.status is MembershipStatus.OUTSIDE and result.reason is None
        if scale == 1e150:
            gram = np.eye(g) - big.z.conj().T @ big.z
            expected = np.linalg.eigvalsh((gram + gram.conj().T) * 0.5)[0]
            assert np.float64(result.margin).tobytes() == expected.tobytes()
            assert -np.inf < result.margin < -1e299
        else:
            assert result.margin == -np.inf
        calls = {
            "Cayley input": lambda: cayley_to_siegel(big),
            "distance argument": lambda: kobayashi_distance(small, big),
            "transvection base": lambda: kobayashi_distance(big, small),
            "direct-sum retraction input": lambda: retract_direct_sum(big, SPECS[g], verify=True),
        }
        for what, call in calls.items():
            with pytest.raises(MembershipViolation) as raised:
                call()
            assert str(raised.value) == f"{what} must be an interior point: margin {result.margin:.3e}"
            if scale > 1e150:
                assert str(raised.value).endswith("margin -inf")
