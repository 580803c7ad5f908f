"""Diagonal blocks grouped by exact size.

The grouped distance kernel is compared with the padded kernel it
replaced (``padded_distance.py``), and the factor-block path of the suites
and of acceptance criterion 3 with ``kobayashi_distance`` on the whole
g x g images.
"""

from __future__ import annotations

import numpy as np
import pytest

from bulk_images import embedded_images, target_distances
from padded_distance import padded_distances
from siegelmaps import (
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    ball_point,
    direct_sum_embed,
    enumerate_specs,
    isometry_sandwich,
    kobayashi_distance,
    type_iii_shape,
)
from siegelmaps import domains
from siegelmaps.errors import SiegelmapsError
from siegelmaps.sampling import generator, sample_ball_coords, sample_ball_point
from test_acceptance import SAMPLES_PER_SPEC, SEED, SWEEP_BUDGET

CL = FactorKind.CONNECTING_LAMBDA
G60_SPEC = EmbeddingSpec(
    5, (FactorSpec(FactorKind.LAMBDA_III, 5, 3),) + tuple(FactorSpec(CL, 5, m) for m in (2, 3, 4)), 60
)
# Padded (cost 5, 14 and 6) and with the standard factors.
N1_SPEC = EmbeddingSpec(
    1, (FactorSpec(FactorKind.STANDARD_I, 1, 1), FactorSpec(FactorKind.STANDARD_III, 1, 1), FactorSpec(CL, 1, 1)), 8
)
N3_SPEC = EmbeddingSpec(3, (FactorSpec(FactorKind.STANDARD_I, 3, 1), FactorSpec(CL, 3, 2), FactorSpec(CL, 3, 3)), 17)
N2_SPEC = EmbeddingSpec(2, (FactorSpec(FactorKind.STANDARD_I, 2, 1), FactorSpec(CL, 2, 2)), 9)

K = 10
# Diagonal ranges of the test points, with zero indices between and after
# them: blocks of sizes 1, 1, 2 and 3; 1, 1, 1 and 1; and 1, 1 and 3.
LAYOUTS = (((0, 1), (1, 2), (2, 4), (5, 8)), ((0, 1), (1, 2), (3, 4), (6, 7)), ((0, 1), (1, 2), (4, 7)))


# A phrase of each check's message.
CHECKS = (
    "not symmetric",
    "distance argument must be an interior point: margin",
    "transvection base",
    "condition number",
)


def _outcome(fn, *args):
    """The result, or the class and message of the package error raised."""
    try:
        return fn(*args)
    except SiegelmapsError as exc:
        return type(exc), str(exc)


def _contraction(rng, k, margin):
    """A symmetric k x k matrix u D u^t with top singular value sqrt(1 - margin)."""
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    values = np.sqrt(1.0 - margin) * np.concatenate([[1.0], rng.uniform(0.0, 1.0, k - 1)])
    return (u * values) @ u.T


def _pair(rng, layout, kind):
    """Two block-diagonal K x K points on a layout, of one of the kinds
    that fail the kernel's checks, or ``plain``."""
    pair = [np.zeros((K, K), dtype=complex) for _ in range(2)]
    for z in pair:
        for start, stop in layout:
            z[start:stop, start:stop] = _contraction(rng, stop - start, rng.uniform(0.02, 0.9))
    side = pair[rng.integers(2)]
    start, stop = layout[rng.integers(len(layout))]
    if kind == "near":
        # A margin on one side, either just below psd_margin or between 1e-6
        # and 1e-4.  (Nearer the sphere, 1 - tanh d falls below the rounding
        # error and whether the transvected point's norm rounds to 1 is
        # left to chance.)
        margin = 10 ** rng.choice([rng.uniform(-10.5, -10.02), rng.uniform(-6.0, -4.0)])
        side[start:stop, start:stop] = _contraction(rng, stop - start, margin)
    elif kind == "asymmetric":
        side[stop - 1, start] += 10 ** rng.uniform(-9.3, -7.0) * np.exp(2j * np.pi * rng.random())
    elif kind == "ill":
        # I - X*Y = diag(1.01e-10, 2 - 1.01e-10) on the two 1 x 1 blocks:
        # a condition number near 2e10.
        r = np.sqrt(1.0 - 1.01e-10)
        (a, _), (b, _) = layout[:2]
        pair[0][a, a] = pair[0][b, b] = pair[1][a, a] = r
        pair[1][b, b] = -r
    return pair


def test_grouped_kernel_equals_the_padded_kernel():
    # Both arithmetics are the same blockwise, on blocks of other orders:
    # |d - d_padded| (1 - tanh(d)^2) measured at most 2.5 eps (seeds 0-29).  Every error
    # has the same class, message and pair label.
    rng = np.random.default_rng(91)
    eps = np.finfo(float).eps
    outcomes = set()
    for trial in range(240):
        layout = LAYOUTS[trial % len(LAYOUTS)]
        kinds = rng.choice(["plain", "plain", "plain", "near", "asymmetric", "ill"], size=int(rng.integers(1, 7)))
        pairs = [_pair(rng, layout, kind) for kind in kinds]
        xs, ys = ([DomainPoint(type_iii_shape(K), pair[side]) for pair in pairs] for side in (0, 1))
        assert len(domains._diagonal_blocks([np.stack([x.z for x in xs])[np.newaxis]])) == len({stop - start for start, stop in layout})
        got = _outcome(kobayashi_distance, xs, ys)
        expected = _outcome(padded_distances, [x.z for x in xs], [y.z for y in ys])
        if isinstance(expected, tuple):
            assert got == expected
            outcomes.add(next(check for check in CHECKS if check in expected[1]))
            continue
        assert isinstance(got, np.ndarray)
        assert np.all(np.abs(got - expected) <= 4.0 * eps / (1.0 - np.tanh(expected) ** 2))
        outcomes.add("distance")
    # Every check fires somewhere, and distances come back.
    assert outcomes == {"distance", *CHECKS}, outcomes


def _images(spec, points):
    return [direct_sum_embed(spec, z) for z in points]


def _axis_pairs(n, count, axis):
    rng = generator(92, axis)
    unit = np.eye(n)[axis]
    return [ball_point(unit * 0.9 * rng.random()) for _ in range(count)], [
        ball_point(unit * 0.9 * rng.random()) for _ in range(count)
    ]


def _random_pairs(n, count):
    rng = generator(93, n)
    return [sample_ball_point(rng, n) for _ in range(count)], [sample_ball_point(rng, n) for _ in range(count)]


@pytest.mark.parametrize(
    "spec, pairs, split",
    [
        (G60_SPEC, _axis_pairs(5, 6, 0), True),
        (G60_SPEC, _axis_pairs(5, 6, 4), True),
        (G60_SPEC, _random_pairs(5, 6), False),
        (N3_SPEC, _axis_pairs(3, 5, 0), True),
        (N3_SPEC, _random_pairs(3, 5), False),
        (N2_SPEC, _axis_pairs(2, 5, 1), True),
        (N1_SPEC, _random_pairs(1, 5), False),
    ],
    ids=["g60-e1", "g60-e5", "g60-random", "N3-padded-e1", "N3-padded-random", "N2-padded-e2", "N1-padded-random"],
)
def test_factor_block_path_equals_kobayashi_distance_on_the_images(spec, pairs, split):
    xs, ys = pairs
    ex, ey = _images(spec, xs), _images(spec, ys)
    groups = domains._diagonal_blocks([np.stack([e.z for e in ex + ey])[np.newaxis]])
    sizes = sorted(size for blocks in groups for size in [blocks.shape[-1]] * blocks.shape[2])
    # Axis points: structural zeros cut some factor block.
    assert (sizes != sorted(f.block_size for f in spec.factors)) is split
    _, target, _ = isometry_sandwich(spec, xs, ys)
    assert target.tobytes() == kobayashi_distance(ex, ey).tobytes()
    for x, y, a, b, d in zip(xs, ys, ex, ey, target):
        (alone,) = isometry_sandwich(spec, [x], [y])[1]
        assert alone == kobayashi_distance(a, b) == d


def test_criterion_3_target_distances_equal_kobayashi_distance_on_the_images():
    # Every 7th spec of acceptance criterion 3, with its draws: the target
    # distances taken on the factor blocks have the bits of
    # kobayashi_distance on the whole images of the same pairs.
    drawn = [(n, index, spec) for n in (1, 2, 3) for index, spec in enumerate(enumerate_specs(n, SWEEP_BUDGET)[0])]
    for n, index, spec in drawn[::7]:
        rows = sample_ball_coords(generator(SEED, 2000 + index), n, 2 * SAMPLES_PER_SPEC)
        xs, ys = rows[0::2], rows[1::2]
        expected = kobayashi_distance(embedded_images(spec, xs), embedded_images(spec, ys))
        assert target_distances(spec, xs, ys).tobytes() == expected.tobytes(), spec
