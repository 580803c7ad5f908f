"""Retractions: left-inverse laws, membership closure, distance behavior."""

from __future__ import annotations

from math import inf

import numpy as np
import pytest

from siegelmaps import (
    BallPoint,
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    ball_point,
    direct_sum_embed,
    enumerate_specs,
    factor_form,
    isometry_sandwich,
    kobayashi_distance,
    membership,
    retract_direct_sum,
    singular_values,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps.embeddings import _budget_catalog, _embed_blocks, block_layout
from siegelmaps.errors import IllConditioned, MembershipViolation, ShapeMismatch, SpecMismatch
from siegelmaps.linalg import DEFAULT_TOLERANCE
from siegelmaps.retractions import _retract_blocks, _retract_copies
from siegelmaps.sampling import (
    generator,
    sample_ball_point,
    sample_type_iii,
)

from copy_loops import copy_flats
from norms import max_abs
from oracle_blocks import factor_block, wedge_block
from test_block_groups import G60_SPEC


def _single(factor: FactorSpec) -> EmbeddingSpec:
    return EmbeddingSpec(factor.p, (factor,), factor.block_size)


def _retract_block(block: np.ndarray, factor: FactorSpec):
    """Retract one factor's symmetric block through its compiled left inverse."""
    return retract_direct_sum(DomainPoint(type_iii_shape(factor.block_size), block), _single(factor))


def test_first_row_inverts_standard_embedding():
    rng = generator(41, 0)
    factor = FactorSpec(FactorKind.STANDARD_I, 2, 1)
    for _ in range(20):
        z = sample_ball_point(rng, 2)
        image = direct_sum_embed(_single(factor), z)
        z1, z2 = z.coords
        assert max_abs(image.z - np.array([[0, 0, z1], [0, 0, z2], [z1, z2, 0]])) <= 1e-15
        assert max_abs(_retract_block(image.z, factor).coords - z.coords) <= 1e-15


def test_first_row_zero_and_norm_bound():
    factor = FactorSpec(FactorKind.STANDARD_I, 2, 1)
    assert _retract_block(np.zeros((3, 3)), factor).norm == 0.0
    rng = generator(42, 0)
    for _ in range(25):
        y = sample_type_iii(rng, 3)
        # row norm bound: rows of an interior point are shorter than 1
        assert _retract_block(y.z, factor).norm < 1.0


def test_offdiagonal_inverts_connecting_embedding():
    rng = generator(45, 0)
    for _ in range(25):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, p + 1))
        z = sample_ball_point(rng, p)
        factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, p, m)
        back = _retract_block(factor_block(factor, z), factor)
        assert max_abs(back.coords - z.coords) <= 1e-12


def test_offdiagonal_zero_and_margin():
    factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 1)
    assert _retract_block(np.zeros((4, 4)), factor).norm == 0.0
    rng = generator(46, 0)
    for _ in range(50):
        y = sample_type_iii(rng, 4)
        # the retracted point is no closer to the sphere than y to the boundary
        assert _retract_block(y.z, factor).norm <= singular_values(y.z)[0] + 1e-12


def test_wedge_retraction_inverts_embedding():
    rng = generator(47, 0)
    for p in range(1, 5):
        for m in range(1, p + 1):
            factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, p, m)
            _, pseudo = factor_form(factor)
            for _ in range(10):
                z = sample_ball_point(rng, p)
                back = pseudo @ factor_block(factor, z).reshape(-1)
                assert max_abs(back - z.coords) <= 1e-12


def test_wedge_retraction_symmetric_case():
    rng = generator(48, 0)
    factor = FactorSpec(FactorKind.LAMBDA_III, 5, 3)
    for _ in range(10):
        z = sample_ball_point(rng, 5)
        back = _retract_block(wedge_block(z, 3, symmetric=True), factor)
        assert max_abs(back.coords - z.coords) <= 1e-12


def test_wedge_retraction_zero_and_membership():
    factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2)
    assert _retract_block(np.zeros((6, 6)), factor).norm == 0.0
    rng = generator(49, 0)
    for _ in range(30):
        y = sample_type_iii(rng, 6, radius_cap=0.95)
        assert _retract_block(y.z, factor).norm < 1.0


def test_averaging_evaluator_agrees_with_least_squares_on_axis():
    for p, m, symmetric in [(2, 1, False), (3, 2, False), (4, 3, False), (5, 3, True)]:
        kind = FactorKind.LAMBDA_III if symmetric else FactorKind.CONNECTING_LAMBDA
        factor = FactorSpec(kind, p, m)
        for t in (-0.95, -0.4, 0.2, 0.7, 0.95):
            coords = np.zeros(p, dtype=complex)
            coords[0] = t
            primary = _retract_block(factor_block(factor, ball_point(coords)), factor)
            assert max_abs(primary.coords - coords) <= 1e-12


def test_direct_sum_retraction_identity_small_sweep():
    rng = generator(50, 0)
    for n in (1, 2, 3, 4):
        specs, _ = enumerate_specs(n, 7)
        for spec in specs:
            for _ in range(5):
                z = sample_ball_point(rng, n)
                image = direct_sum_embed(spec, z)
                back = retract_direct_sum(image, spec)
                assert max_abs(back.coords - z.coords) <= 1e-12


def test_direct_sum_retraction_zero():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    zero = DomainPoint(type_iii_shape(3), np.zeros((3, 3)))
    assert retract_direct_sum(zero, spec).norm == 0.0


def test_direct_sum_retraction_halves_when_one_block_zeroed():
    factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1)
    spec = EmbeddingSpec(2, (factor, factor), 6)
    z = ball_point([0.3, 0.4])
    image = direct_sum_embed(spec, z)
    doctored = image.z.copy()
    doctored[3:, 3:] = 0.0
    back = retract_direct_sum(DomainPoint(type_iii_shape(6), doctored), spec)
    assert max_abs(back.coords - z.coords / 2.0) <= 1e-12


def test_direct_sum_retraction_rejects_wrong_shape():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    wrong = DomainPoint(type_iii_shape(4), np.zeros((4, 4)))
    with pytest.raises(SpecMismatch):
        retract_direct_sum(wrong, spec)


def test_retractions_reject_non_interior_input():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    boundary = DomainPoint(type_iii_shape(3), np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(MembershipViolation):
        retract_direct_sum(boundary, spec)
    with pytest.raises(SpecMismatch):
        retract_direct_sum(DomainPoint(type_i_shape(3, 3), np.zeros((3, 3))), spec)


@pytest.mark.parametrize("value", [np.zeros((3, 3)), [np.zeros((3, 3))], ball_point([0.1, 0.2])])
def test_retraction_takes_one_type_iii_point(value):
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    with pytest.raises(SpecMismatch, match=f"^expected a type III DomainPoint of size 3, got {type(value).__name__}$"):
        retract_direct_sum(value, spec)


def test_factor_forms_are_left_inverses():
    # P_f A_f = I for every factor up to N = 6: beyond the acceptance sweep
    # (N <= 4), this reaches the N = 5 lambda_III factor and the N = 6
    # wedge blocks.
    rng = generator(51, 0)
    for n in range(1, 7):
        for factor in _budget_catalog(n, inf):
            matrix, pseudo = factor_form(factor)
            assert matrix.shape == (factor.block_size**2, n)
            assert not matrix.flags.writeable and not pseudo.flags.writeable
            assert max_abs(pseudo @ matrix - np.eye(n)) <= DEFAULT_TOLERANCE.eq_tol
            for _ in range(3):
                z = sample_ball_point(rng, n)
                image = direct_sum_embed(_single(factor), z)
                assert max_abs(retract_direct_sum(image, _single(factor)).coords - z.coords) <= 1e-12


def test_membership_closure_near_boundary():
    # deterministic directions at radius 0.95
    rng = generator(52, 0)
    spec = EmbeddingSpec(3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2),), 9)
    for _ in range(20):
        direction = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = ball_point(direction / np.linalg.norm(direction) * 0.95)
        image = direct_sum_embed(spec, z)
        assert membership(image).status.value == "interior"
        back = retract_direct_sum(image, spec)
        assert back.norm < 1.0


def test_retraction_is_distance_decreasing_off_image():
    rng = generator(53, 0)
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    for _ in range(20):
        a = sample_type_iii(rng, 3)
        b = sample_type_iii(rng, 3)
        d_ambient = kobayashi_distance(a, b)
        d_back = kobayashi_distance(retract_direct_sum(a, spec), retract_direct_sum(b, spec))
        assert d_back <= d_ambient + 1e-8


def test_every_component_retraction_is_distance_decreasing():
    rng = generator(54, 0)
    for factor in _budget_catalog(1, inf) + _budget_catalog(2, inf):
        for _ in range(8):
            a = sample_type_iii(rng, factor.block_size)
            b = sample_type_iii(rng, factor.block_size)
            d_ambient = kobayashi_distance(a, b)
            d_back = kobayashi_distance(_retract_block(a.z, factor), _retract_block(b.z, factor))
            assert d_back <= d_ambient + 1e-8


def test_embed_retract_idempotent_on_image():
    rng = generator(55, 0)
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 2),), 3)
    for _ in range(10):
        z = sample_ball_point(rng, 2)
        image = direct_sum_embed(spec, z)
        again = direct_sum_embed(spec, retract_direct_sum(image, spec))
        assert max_abs(again.z - image.z) <= 1e-12


def _max_gap(source, target, retracted) -> float:
    """The largest deviation of the target and retracted distances from the
    source distances of pairs."""
    return float(max(np.abs(source - target).max(), np.abs(source - retracted).max()))


def test_isometry_sandwich_identical_points():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    z = ball_point([0.25, -0.1j])
    for distances in isometry_sandwich(spec, [z], [z]):
        assert distances[0] == pytest.approx(0.0, abs=1e-12)


def test_isometry_sandwich_axis_pair():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    sandwich = isometry_sandwich(spec, [ball_point([0.0, 0.0])], [ball_point([0.5, 0.0])])
    expected = np.arctanh(0.5)
    for distances in sandwich:
        assert distances[0] == pytest.approx(expected, abs=1e-12)
    assert _max_gap(*sandwich) <= 1e-12


def test_isometry_sandwich_seeded_pairs():
    rng = generator(56, 0)
    for n in (1, 2, 3):
        specs, _ = enumerate_specs(n, 6)
        for spec in specs[:6]:
            for _ in range(5):
                x = sample_ball_point(rng, n)
                y = sample_ball_point(rng, n)
                assert _max_gap(*isometry_sandwich(spec, [x], [y])) <= 1e-8


def test_isometry_sandwich_on_sequences_equals_its_pairs():
    rng = generator(57, 0)
    for n in (1, 2, 3):
        specs, _ = enumerate_specs(n, 6)
        for spec in specs[:4]:
            xs = [sample_ball_point(rng, n) for _ in range(5)]
            ys = [sample_ball_point(rng, n) for _ in range(5)]
            stacked = isometry_sandwich(spec, xs, ys)
            pairs = [isometry_sandwich(spec, [x], [y]) for x, y in zip(xs, ys)]
            for k, values in enumerate(stacked):
                assert values.tolist() == [pair[k][0] for pair in pairs]
    with pytest.raises(ShapeMismatch):
        isometry_sandwich(spec, xs, ys[:-1])
    with pytest.raises(ShapeMismatch):
        isometry_sandwich(spec, [], [])


@pytest.mark.parametrize("count, bad", [(20, 11), (17, 16)])
def test_isometry_sandwich_names_the_pair_of_the_call(count, bad):
    # The g = 60 spec measures 8 pairs per slice: pair 11 is the fourth of
    # its slice, and pair 16 of 17 is alone in its slice.  The error names
    # the pair by its index in the call, as kobayashi_distance does.
    r = 1.0 - 3e-10
    xs, ys = [ball_point(0.1 * np.ones(5))] * count, [ball_point(-0.1 * np.ones(5))] * count
    xs[bad], ys[bad] = ball_point(r * np.eye(5)[0]), ball_point(-r * np.eye(5)[0])
    expected = f"pair {bad}: transvected point has norm 1.000000 >= 1"
    with pytest.raises(IllConditioned) as raised:
        isometry_sandwich(G60_SPEC, xs, ys)
    assert str(raised.value) == expected
    images = [[direct_sum_embed(G60_SPEC, z) for z in side] for side in (xs, ys)]
    with pytest.raises(IllConditioned) as raised:
        kobayashi_distance(*images)
    assert str(raised.value) == expected


def test_block_layout_covers_budget_prefix():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),) * 2, 7)
    layout = block_layout(spec)
    assert layout[0][1:] == (0, 3)
    assert layout[1][1:] == (3, 6)


# --- stacked retraction

G60_SPEC = EmbeddingSpec(
    5,
    (FactorSpec(FactorKind.LAMBDA_III, 5, 3),)
    + tuple(FactorSpec(FactorKind.CONNECTING_LAMBDA, 5, m) for m in (2, 3, 4)),
    60,
)


def test_one_point_retract_equals_the_kernel_on_its_blocks():
    # retract_direct_sum has the bits of the stacked core on the point's
    # diagonal blocks, on every spec the acceptance sweep runs, and those of
    # _retract_blocks on the one block per distinct factor of an image.
    specs = [spec for n in range(1, 5) for spec in enumerate_specs(n, 12)[0]] + [G60_SPEC]
    for index, spec in enumerate(specs):
        rng = generator(56, index)
        coords = np.stack([sample_ball_point(rng, spec.source_dim).coords for _ in range(3)])
        images = [direct_sum_embed(spec, BallPoint(row)) for row in coords]
        # Off-image points too, where the copies of a factor disagree.
        points = images + [sample_type_iii(rng, spec.target_g) for _ in range(2)]
        blocks = [np.stack([pt.z[start:stop, start:stop] for pt in points]) for _, start, stop in block_layout(spec)]
        for pt, member in zip(points, _retract_copies(spec, copy_flats(spec, blocks))):
            assert retract_direct_sum(pt, spec).coords.tobytes() == member.tobytes()
        backs = _retract_blocks(spec, _embed_blocks(spec, coords))
        for image, member in zip(images, backs):
            assert retract_direct_sum(image, spec).coords.tobytes() == member.tobytes()


def test_stacked_retract_names_the_failing_member():
    # The suites retract their stacks of image blocks with _retract_blocks:
    # a block that retracts outside the ball is named by its member.
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    far = np.zeros((2, 3, 3), dtype=complex)
    far[1, 0, 1:] = far[1, 1:, 0] = 3.0
    with pytest.raises(IllConditioned, match=r"^matrix 1: connecting_lambda block retracts to norm 4\.242641 >= 1$"):
        _retract_blocks(spec, [far])
