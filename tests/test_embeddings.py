"""Embedding constructions: blocks, direct sums, linearity, enumeration."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest

from siegelmaps import (
    DEFAULT_TOLERANCE,
    DomainKind,
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    ball_point,
    direct_sum_embed,
    enumerate_specs,
    kobayashi_distance,
    linearize,
    membership,
    retract_direct_sum,
    singular_values,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps import embeddings, retractions
from siegelmaps.cli import main
from siegelmaps.embeddings import _budget_catalog, _copy_plan, _factor_blocks, block_layout, factor_form
from siegelmaps.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    MembershipViolation,
    NonlinearityDetected,
    SpecMismatch,
)
from siegelmaps.exterior import signature
from siegelmaps.harness import run_suite
from siegelmaps.report import HarnessConfig
from siegelmaps.sampling import generator, sample_ball_coords, sample_ball_point, sample_phases
from siegelmaps.serialize import spec_to_json

from list_count import list_spec_count, sorted_recursion_specs
from lu_wedge import lu_wedge_coefficients
from norms import max_abs
from oracle_blocks import factor_block, wedge_block
from probe_forms import clear_package_caches, probe_form
from wedge_reference import conjugation_unit, wedge_basis
from standard_blocks import standard_blocks, standard_form
from whole_image_oracle import whole_image_linearize, whole_image_residuals

# The paper's N = 5 lambda_III case plus the connecting wedge blocks, g = 60.
G60_SPEC = EmbeddingSpec(
    5,
    (FactorSpec(FactorKind.LAMBDA_III, 5, 3),)
    + tuple(FactorSpec(FactorKind.CONNECTING_LAMBDA, 5, m) for m in (2, 3, 4)),
    60,
)

# Padded (cost 5 and 6) and with the standard factors.
N1_PADDED_SPEC = EmbeddingSpec(
    1,
    (
        FactorSpec(FactorKind.STANDARD_I, 1, 1),
        FactorSpec(FactorKind.STANDARD_III, 1, 1),
        FactorSpec(FactorKind.CONNECTING_LAMBDA, 1, 1),
    ),
    8,
)
N2_PADDED_SPEC = EmbeddingSpec(
    2, (FactorSpec(FactorKind.STANDARD_I, 2, 1), FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 2)), 9
)


def _zero_point(n):
    return ball_point(np.zeros(n, dtype=complex))


def test_connecting_embed_zero():
    factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1)
    assert max_abs(factor_block(factor, _zero_point(2))) == 0.0


def test_connecting_embed_block_display():
    block = factor_block(FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1), ball_point([0.3, 0.4]))
    expected = np.array(
        [
            [0.0, 0.3, 0.4],
            [0.3, 0.0, 0.0],
            [0.4, 0.0, 0.0],
        ],
        dtype=complex,
    )
    assert np.array_equal(block, expected)


def test_connecting_embed_singular_values_and_isometry():
    block = factor_block(FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1), ball_point([0.3, 0.4]))
    # oracle: eigenvalues of M*M for the explicit symmetric matrix
    oracle = np.linalg.eigvalsh(block.conj().T @ block)[::-1]
    assert np.allclose(singular_values(block) ** 2, oracle, atol=1e-12)
    assert np.allclose(singular_values(block), [0.5, 0.5, 0.0], atol=1e-12)
    origin = DomainPoint(type_iii_shape(3), np.zeros((3, 3)))
    image = DomainPoint(type_iii_shape(3), block)
    assert kobayashi_distance(origin, image) == pytest.approx(np.arctanh(0.5), abs=1e-12)


def test_wedge_embed_fixes_origin():
    for p in range(1, 5):
        for m in range(1, p + 1):
            assert max_abs(wedge_block(_zero_point(p), m)) == 0.0


def test_wedge_embed_frozen_two_dimensional_case():
    # hand-derived by expanding the minors: the negative block is
    # [[0.91, -0.12], [-0.12, 0.84]] and the positive row (0.4, -0.3),
    # giving exactly (0.4, -0.3) after normalization
    image = wedge_block(ball_point([0.3, 0.4]), 2)
    assert image.shape == (1, 2)
    assert np.allclose(image, [[0.4, -0.3]], atol=1e-14)
    assert np.allclose(singular_values(image), [0.5], atol=1e-14)


def test_wedge_embed_axis_pattern_entrywise():
    # independent combinatorial prediction of the axis image: one entry
    # (-1)^(m-1) t at (row {1} u T, column T) per (m-1)-subset T of 2..p
    t = 0.37
    for p in range(1, 5):
        for m in range(1, p + 1):
            coords = np.zeros(p, dtype=complex)
            coords[0] = t
            image = wedge_block(ball_point(coords), m)
            basis = wedge_basis(p, m)
            expected = np.zeros((len(basis.positives), len(basis.negatives)), dtype=complex)
            for sub in combinations(range(2, p + 1), m - 1):
                row = basis.positives.index(tuple(sorted((1,) + sub)))
                col = basis.negatives.index(sub + (p + 1,))
                expected[row, col] = (-1) ** (m - 1) * t
            assert max_abs(image - expected) <= 1e-12
            assert np.count_nonzero(np.abs(image) > 1e-12) == comb(p - 1, m - 1)


def test_wedge_embed_symmetric_axis_pattern():
    # balanced case: rows are re-expressed through the conjugation basis,
    # dividing by the unit a(N) of the row's negative index
    t, p, m = 0.41, 5, 3
    coords = np.zeros(p, dtype=complex)
    coords[0] = t
    image = wedge_block(ball_point(coords), m, symmetric=True)
    basis = wedge_basis(p, m)
    expected = np.zeros((len(basis.negatives),) * 2, dtype=complex)
    for sub in combinations(range(2, p + 1), m - 1):
        full = tuple(sorted((1,) + sub))
        row_index_set = tuple(i for i in range(1, p + 1) if i not in full)
        row = basis.negatives.index(row_index_set + (p + 1,))
        col = basis.negatives.index(sub + (p + 1,))
        unit = conjugation_unit(row_index_set + (p + 1,), p)
        expected[row, col] = (-1) ** (m - 1) * t / unit
    assert max_abs(image - expected) <= 1e-12


def test_wedge_embed_symmetric_output_is_symmetric():
    rng = generator(32, 0)
    for _ in range(20):
        z = sample_ball_point(rng, 5)
        image = wedge_block(z, 3, symmetric=True)
        assert image.shape == (10, 10)
        assert max_abs(image - image.T) <= 1e-12
        assert singular_values(image)[0] == pytest.approx(z.norm, abs=1e-12)


def test_wedge_embed_membership_closure():
    rng = generator(33, 0)
    for p in range(1, 5):
        for m in range(1, p + 1):
            for _ in range(10):
                z = sample_ball_point(rng, p)
                image = wedge_block(z, m)
                assert membership(DomainPoint(type_i_shape(*image.shape), image)).status.value == "interior"


def test_wedge_embed_diagonal_phase_equivariance():
    # induced phases are per-multi-index products of coordinate phases
    rng = generator(34, 0)
    for _ in range(50):
        p = int(rng.integers(1, 5))
        m = int(rng.integers(1, p + 1))
        z = sample_ball_point(rng, p)
        theta = sample_phases(rng, p)
        base = wedge_block(z, m)
        moved = wedge_block(ball_point(theta * z.coords), m)
        basis = wedge_basis(p, m)
        rows = np.array([np.prod([theta[i - 1] for i in M]) for M in basis.positives])
        cols = np.array([np.prod([theta[i - 1] for i in M if i <= p]) for M in basis.negatives])
        expected = rows[:, None] * base * np.conj(cols)[None, :]
        assert max_abs(moved - expected) <= 1e-11


def test_wedge_embed_rejects_bad_degrees():
    with pytest.raises(DegreeOutOfRange):
        FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 3)
    with pytest.raises(DegreeOutOfRange):
        FactorSpec(FactorKind.LAMBDA_III, 2, 1)


def test_factor_spec_validation():
    with pytest.raises(DegreeOutOfRange):
        FactorSpec(FactorKind.LAMBDA_III, 3, 2)
    with pytest.raises(DegreeOutOfRange):
        FactorSpec(FactorKind.STANDARD_I, 3, 2)
    with pytest.raises(DegreeOutOfRange):
        FactorSpec(FactorKind.STANDARD_III, 2, 1)
    assert FactorSpec(FactorKind.LAMBDA_III, 5, 3).block_size == 10
    assert FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1).block_size == 3
    assert FactorSpec(FactorKind.STANDARD_I, 4, 1).block_size == 5


def test_embedding_spec_canonical_order_and_budget():
    f1 = FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 2)
    f2 = FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1)
    spec = EmbeddingSpec(2, (f1, f2), 6)
    assert spec.factors == (f2, f1)
    assert spec.cost == 6
    with pytest.raises(BudgetExceeded):
        EmbeddingSpec(2, (f1, f2), 5)
    with pytest.raises(SpecMismatch):
        EmbeddingSpec(3, (f1,), 9)


def test_direct_sum_zero_point():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    assert max_abs(direct_sum_embed(spec, _zero_point(2)).z) == 0.0


def test_direct_sum_image_is_frozen_and_kept_without_a_copy():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 4)
    image = direct_sum_embed(spec, ball_point([0.3, 0.4]))
    assert not image.z.flags.writeable and image.z.flags.owndata
    assert DomainPoint(image.shape, image.z).z is image.z


def test_direct_sum_single_connecting_factor_matches_block_display():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    image = direct_sum_embed(spec, ball_point([0.3, 0.4]))
    expected = np.array(
        [
            [0.0, 0.3, 0.4],
            [0.3, 0.0, 0.0],
            [0.4, 0.0, 0.0],
        ],
        dtype=complex,
    )
    assert max_abs(image.z - expected) <= 1e-14


def test_direct_sum_two_factors_block_diagonal_and_isometric():
    factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1)
    spec = EmbeddingSpec(2, (factor, factor), 6)
    z = ball_point([0.3, 0.4])
    image = direct_sum_embed(spec, z)
    assert image.shape == type_iii_shape(6)
    single = direct_sum_embed(EmbeddingSpec(2, (factor,), 3), z).z
    assert max_abs(image.z[:3, :3] - single) == 0.0
    assert max_abs(image.z[3:, 3:] - single) == 0.0
    assert max_abs(image.z[:3, 3:]) == 0.0
    origin = DomainPoint(type_iii_shape(6), np.zeros((6, 6)))
    assert kobayashi_distance(origin, image) == pytest.approx(np.arctanh(z.norm), abs=1e-12)


def test_direct_sum_pads_slack_with_zeros():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 5)
    image = direct_sum_embed(spec, ball_point([0.2, 0.1]))
    assert image.shape == type_iii_shape(5)
    assert max_abs(image.z[3:, :]) == 0.0 and max_abs(image.z[:, 3:]) == 0.0


def test_direct_sum_membership_closure_small_sweep():
    rng = generator(35, 0)
    for n in (1, 2, 3):
        specs, _ = enumerate_specs(n, 8)
        for spec in specs:
            for _ in range(5):
                z = sample_ball_point(rng, n)
                assert membership(direct_sum_embed(spec, z)).status.value == "interior"


def test_linearize_connecting_factor_pattern_columns():
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    matrix = linearize(spec)
    assert matrix.shape == (9, 2)
    assert max_abs(matrix @ np.zeros(2)) == 0.0
    # the 3 x 3 block [[0, z^t], [z, 0]] flattened row major: z_k at (0, k+1) and (k+1, 0)
    expected = np.zeros((9, 2), dtype=complex)
    expected[[1, 3], 0] = 1.0
    expected[[2, 6], 1] = 1.0
    assert max_abs(matrix - expected) <= 1e-12


def test_linearize_applies_like_direct_evaluation():
    rng = generator(36, 0)
    spec = EmbeddingSpec(
        3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2), FactorSpec(FactorKind.STANDARD_I, 3, 1)), 11
    )
    matrix = linearize(spec)
    assert matrix.shape == (6 * 6 + 4 * 4, 3)
    for _ in range(10):
        z = sample_ball_point(rng, 3)
        image = direct_sum_embed(spec, z).z
        blocks = np.concatenate([image[start:stop, start:stop].reshape(-1) for _, start, stop in block_layout(spec)])
        assert max_abs(matrix @ z.coords - blocks) <= 1e-12


def test_linearize_rank_equals_source_dimension():
    rng = generator(37, 0)
    for n in (1, 2, 3, 4):
        specs, _ = enumerate_specs(n, 7)
        for spec in specs:
            sv = singular_values(linearize(spec))
            assert int(np.sum(sv > 1e-9 * max(1.0, sv[0]))) == n


def test_nonlinearity_detector_fires_on_corrupted_matrix(monkeypatch):
    # A wedge factor and both standard ones: the oracle builds the standard
    # blocks from wedge blocks, never from the compiled form it checks.
    specs = (
        EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3),
        EmbeddingSpec(2, (FactorSpec(FactorKind.STANDARD_I, 2, 1),), 3),
        EmbeddingSpec(1, (FactorSpec(FactorKind.STANDARD_III, 1, 1),), 1),
    )
    exact = embeddings.factor_form

    def corrupted(factor):
        matrix = exact(factor)[0].copy()
        # The first nonzero entry of the first column.
        matrix[np.flatnonzero(matrix[:, 0])[0], 0] += 0.05
        return matrix, np.linalg.pinv(matrix)

    monkeypatch.setattr(embeddings, "factor_form", corrupted)
    for spec in specs:
        with pytest.raises(NonlinearityDetected):
            linearize(spec)


@pytest.mark.parametrize("n", range(1, 10))
def test_standard_factors_are_bit_identical_to_their_direct_constructions(n):
    # The standard blocks come from the degree-1 wedge blocks, moved by a
    # fixed automorphism of III_g; they keep every bit of the direct
    # constructions, signs of zeros included, alone and in one stack with
    # the wedge factors of the same models.
    standard = [FactorSpec(FactorKind.STANDARD_I, n, 1)]
    standard += [FactorSpec(FactorKind.STANDARD_III, 1, 1)] if n == 1 else []
    coords = sample_ball_coords(generator(160, n), n, 30)
    coords[0] = 0.0
    coords[1] = -coords[1].real
    factors = standard + [FactorSpec(FactorKind.CONNECTING_LAMBDA, n, 1)]
    factors += [FactorSpec(FactorKind.LAMBDA_III, 1, 1)] if n == 1 else []
    together = _factor_blocks(factors, coords, DEFAULT_TOLERANCE)
    for factor, stacked in zip(standard, together):
        reference = standard_blocks(factor, coords)
        (alone,) = _factor_blocks((factor,), coords, DEFAULT_TOLERANCE)
        assert alone.tobytes() == reference.tobytes()
        assert stacked.tobytes() == reference.tobytes()
        for compiled, expected in zip(embeddings.factor_form(factor), standard_form(factor)):
            assert compiled.tobytes() == expected.tobytes()


def test_nonlinearity_detector_fires_off_the_blocks(monkeypatch):
    # The oracle is zero outside its diagonal blocks; an embedding that
    # writes between blocks or into the padding must be caught there too,
    # on the one-point map that embed runs.
    spec = EmbeddingSpec(
        2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1), FactorSpec(FactorKind.STANDARD_I, 2, 1)), 7
    )
    config = HarnessConfig(seed=0, samples=8, suites=("linearity",))
    linearize(spec)
    assert run_suite("linearity", spec, config).passed
    exact = embeddings.direct_sum_embed
    for row, col in ((0, 3), (2, 6), (6, 6)):

        def corrupted(spec, z, tol=DEFAULT_TOLERANCE, row=row, col=col):
            image = exact(spec, z, tol).z.copy()
            image[row, col] += 0.05 * z.coords[1]
            image[col, row] = image[row, col]
            return DomainPoint(type_iii_shape(spec.target_g), image)

        monkeypatch.setattr(embeddings, "direct_sum_embed", corrupted)
        with pytest.raises(NonlinearityDetected, match="deviates from its factor blocks"):
            linearize(spec)
        result = run_suite("linearity", spec, config)
        assert not result.passed and result.detail.startswith("embedding deviates from its factor blocks by ")


def test_linearity_suite_catches_a_bad_compiled_map(monkeypatch):
    # The suite must compare the compiled map with the factor constructions,
    # not with itself: a compiled form off by a relative 1e-6 has to fail.
    spec = EmbeddingSpec(3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2),), 6)
    config = HarnessConfig(seed=0, samples=5, suites=("linearity",))
    assert run_suite("linearity", spec, config).passed
    exact = embeddings.factor_form

    def perturbed(factor):
        matrix = exact(factor)[0].copy()
        matrix[:, 0] *= 1.0 + 1e-6
        return matrix, np.linalg.pinv(matrix)

    monkeypatch.setattr(embeddings, "factor_form", perturbed)
    assert not run_suite("linearity", spec, config).passed


def test_linearize_names_the_point_the_whole_image_oracle_names(monkeypatch):
    # The block oracle must report a bad compiled map at the same check
    # point, with the same deviation, as the comparison of whole images.
    exact = embeddings.factor_form

    def corrupted(factor):
        matrix = exact(factor)[0].copy()
        matrix[1, 0] += 0.05
        return matrix, np.linalg.pinv(matrix)

    monkeypatch.setattr(embeddings, "factor_form", corrupted)
    for spec in (EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3), N2_PADDED_SPEC):
        for seed in (0, 1):
            with pytest.raises(NonlinearityDetected) as reference:
                whole_image_linearize(spec, seed=seed)
            with pytest.raises(NonlinearityDetected) as blocks:
                linearize(spec, seed=seed)
            assert str(blocks.value) == str(reference.value)


def _block_oracle_specs():
    singles = [EmbeddingSpec(n, (f,), f.block_size + 2) for n in range(1, 7) for f in _budget_catalog(n, inf)]
    return singles + [G60_SPEC, N1_PADDED_SPEC, N2_PADDED_SPEC]


def _spec_id(spec) -> str:
    return "+".join(f"{f.kind.value}({f.p},{f.m})" for f in spec.factors) + f"@{spec.target_g}"


@pytest.mark.parametrize("spec", _block_oracle_specs(), ids=_spec_id)
def test_block_oracle_equals_the_whole_image_oracle(spec):
    # The compiled blocks and the constructions are both zero off the
    # blocks, so comparing blocks gives the whole images' residuals, bit
    # for bit, without building them.
    rng = generator(45, spec.cost)
    points = [sample_ball_point(rng, spec.source_dim) for _ in range(40)]
    (coords,) = embeddings._ball_coords(spec.source_dim, DEFAULT_TOLERANCE, points)
    blocks = embeddings._oracle_residuals(spec, coords, DEFAULT_TOLERANCE)
    assert blocks.tobytes() == whole_image_residuals(spec, points).tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_oracle_equals_per_point_factor_block(n):
    # One wedge kernel call over the whole stack gives every block with the
    # bits of the same point evaluated on its own.
    rng = generator(40, n)
    points = [sample_ball_point(rng, n) for _ in range(20)]
    coords = np.stack([z.coords for z in points])
    catalog = _budget_catalog(n, inf)
    for factor, stacked in zip(catalog, _factor_blocks(catalog, coords, DEFAULT_TOLERANCE)):
        assert np.array_equal(stacked, np.stack([factor_block(factor, z) for z in points]))


@pytest.mark.parametrize("n", [5, 9])
def test_models_of_a_degree_share_one_solve(n, monkeypatch):
    # lambda_III and connecting_lambda of degree (n + 1) / 2 share their
    # negative block Y: one solve for both, each block with the bits of its
    # model solved alone.
    solves = []
    counted = embeddings.solve_right

    def counting(a, b, tol):
        solves.append(a.shape)
        return counted(a, b, tol)

    m = (n + 1) // 2
    models = [(m, True), (m, False), (m, True)]
    rng = generator(46, n)
    coords = np.stack([sample_ball_point(rng, n).coords for _ in range(4)])
    alone = [embeddings._wedge_blocks(coords, [model], DEFAULT_TOLERANCE)[0] for model in models]
    monkeypatch.setattr(embeddings, "solve_right", counting)
    shared = embeddings._wedge_blocks(coords, models, DEFAULT_TOLERANCE)
    r = comb(n, m)
    assert solves == [(4, 2 * r, comb(n, m - 1))]
    assert [block.tobytes() for block in shared] == [block.tobytes() for block in alone]


def test_enumerate_specs_empty_below_minimum():
    specs, minimal_g = enumerate_specs(2, 2)
    assert specs == ()
    assert minimal_g == 3


def test_enumerate_specs_two_routes_at_three():
    specs, minimal_g = enumerate_specs(2, 3)
    assert minimal_g == 3
    kinds = {(s.factors[0].kind, s.factors[0].m) for s in specs if len(s.factors) == 1}
    assert (FactorKind.CONNECTING_LAMBDA, 1) in kinds
    assert (FactorKind.CONNECTING_LAMBDA, 2) in kinds


def test_enumerate_specs_balanced_factor_for_dimension_five():
    specs, minimal_g = enumerate_specs(5, 10)
    assert minimal_g == 6
    singles = [s for s in specs if len(s.factors) == 1]
    assert any(
        s.factors[0].kind is FactorKind.LAMBDA_III and s.factors[0].m == 3 and s.cost == 10
        for s in singles
    )


def test_enumerate_specs_one_dimensional_inclusion():
    specs, minimal_g = enumerate_specs(1, 1)
    assert minimal_g == 1
    assert specs
    assert all(s.cost <= 1 for s in specs)
    kinds = {s.factors[0].kind for s in specs}
    assert FactorKind.LAMBDA_III in kinds or FactorKind.STANDARD_III in kinds


def test_enumerate_specs_deduplicates_multisets():
    specs, _ = enumerate_specs(2, 6)
    seen = set()
    for s in specs:
        key = tuple((f.kind.value, f.m) for f in s.factors)
        assert key == tuple(sorted(key))
        assert (key, s.target_g) not in seen
        seen.add((key, s.target_g))


def test_specs_hash_once_at_construction_and_still_key_the_caches(monkeypatch):
    cl1, cl2 = FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 1), FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2)
    first = EmbeddingSpec(3, (cl2, cl1, cl2), 20)
    second = EmbeddingSpec(3, (cl2, cl2, FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 1)), 20)
    assert first == second and first is not second and hash(first) == hash(second)
    assert first != EmbeddingSpec(3, (cl2, cl1, cl2), 21)
    assert first.cost == sum(f.block_size for f in first.factors) == 16
    for cache in (block_layout, _copy_plan, factor_form):
        cache.cache_clear()
    calls = []
    factor_hash = FactorSpec.__hash__
    monkeypatch.setattr(FactorSpec, "__hash__", lambda self: calls.append(self) or factor_hash(self))
    # A spec's hash was taken at construction: hashing it hashes no factor.
    hash(first)
    assert calls == []
    for spec in (first, second):
        block_layout(spec)
        _copy_plan(spec)
        for factor in spec.factors:
            factor_form(factor)
    # The plan reads the layout through its cache too.
    assert block_layout.cache_info()[:2] == (2, 1)
    assert _copy_plan.cache_info()[:2] == (1, 1)
    assert factor_form.cache_info()[:2] == (4, 2)
    copy = pickle.loads(pickle.dumps(first))
    assert copy == first and hash(copy) == hash(first) and copy.cost == first.cost


def test_a_pickled_spec_hashes_as_a_new_one_in_another_process():
    # String hashes, and so the stored hashes, differ between processes.
    spec = EmbeddingSpec(3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2),) * 2, 12)
    child = (
        "import pickle, sys\n"
        "from siegelmaps import EmbeddingSpec, FactorKind, FactorSpec\n"
        "spec = pickle.loads(sys.stdin.buffer.read())\n"
        "new = EmbeddingSpec(3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2),) * 2, 12)\n"
        "assert spec == new and hash(spec) == hash(new) and hash(spec.factors[0]) == hash(new.factors[0])\n"
        "assert spec in {new: 1} and spec.factors[0] in {new.factors[0]}\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": str(Path(embeddings.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", child], input=pickle.dumps(spec), env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()


def test_enumerate_output_keeps_its_bytes(tmp_path):
    # sha256 of the enumerate files at budget 12, as written before specs
    # kept their hash and cost.
    expected = {
        1: "471a9b233f8e2a0eabc8f98e2821508a15d7d5320300bb3047de7323746727eb",
        2: "1d5421623c683064af44fa8dd0bf86507ea62cdfa39cde7f2de3cdfa11236879",
        3: "918b8bfca63db20c05587bcf7496c44c17da30165f11b626f406ccb4c2b0020e",
        4: "420111848593a5027a79209f6b545637ccec351b9a0493c6550b386a43569b62",
        5: "5b23a57637200a58a4a2f0ac1961685a18b41bdf76c626f91ac422a07c503050",
    }
    out = tmp_path / "specs.json"
    for n, digest in expected.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["enumerate", "--source-dim", str(n), "--max-g", "12", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _spec_count(source_dim: int, g_max: int, limit: int) -> tuple[int, bool]:
    return embeddings._spec_tables(source_dim, g_max, limit)[2:]


def test_spec_count_equals_the_enumeration():
    for n in range(1, 6):
        for g_max in range(1, 13):
            assert _spec_count(n, g_max, 10**6) == (len(enumerate_specs(n, g_max)[0]), True)
    # N = 1 has block sizes 2, 1, 2, 1: a coin-change count.
    assert _spec_count(1, 40, 10**6) == (37190, True)
    assert _spec_count(1, 100, 10**6) == (1194725, True)
    assert _spec_count(1, 2100, 10**12) == (203938064225, True)
    # Past the limit the cheapest factors alone decide: the two of size 1
    # make C(g + 2, 2) - 1 specs.
    assert _spec_count(1, 2100, 10**6) == (2208150, False)
    assert _spec_count(1, 10**18, 10**6) == ((10**18 + 2) * (10**18 + 1) // 2 - 1, False)
    with pytest.raises(DimensionMismatch, match="source dimension and budget must be positive"):
        _spec_count(2, 0, 10**6)


def test_spec_count_equals_the_list_count():
    # Counted over the reachable totals, as the list over every total
    # counted it; exact counts within the limit and the refusals' bounds.
    exact = 0
    for n in range(1, 14):
        for g_max in range(1, 61):
            count = _spec_count(n, g_max, 10**6)
            assert count == list_spec_count(n, g_max, 10**6), (n, g_max)
            exact += count[1] and count[0] <= 10**6
    assert exact > 600
    # A budget far beyond the catalog's blocks: the totals reached are the
    # multiples of the one fitting block size, N + 1.
    assert _spec_count(1000001, 10**7, 10**6) == (219, True)


def test_enumeration_equals_the_sorted_recursion():
    # The walk over the spec tables meets the specs in the order the sorted
    # recursion put them in, and as many as the list count counts.  Sorted
    # by cost, a smaller budget's specs are the cheap head of budget 30's.
    for n in range(1, 7):
        reference = sorted_recursion_specs(n, 30)
        for g_max in range(1, 31):
            specs = enumerate_specs(n, g_max)[0]
            assert specs == tuple(s for s in reference if s.cost <= g_max), (n, g_max)
            assert len(specs) == list_spec_count(n, g_max, 10**6)[0], (n, g_max)


def test_factor_catalog_is_canonical():
    catalog = _budget_catalog(5, inf)
    assert all(f.p == 5 for f in catalog)
    assert catalog == tuple(sorted(catalog, key=lambda f: (f.kind.value, f.m)))
    assert any(f.kind is FactorKind.LAMBDA_III for f in catalog)


def test_budget_catalog_is_the_fitting_part_of_the_catalog():
    for n in range(1, 14):
        catalog = _budget_catalog(n, inf)
        # The admissible kinds: every degree connected, the balanced symmetric
        # block for N = 1 mod 4, standard_I, and standard_III for N = 1.
        expected = [FactorSpec(FactorKind.CONNECTING_LAMBDA, n, m) for m in range(1, n + 1)]
        expected += [FactorSpec(FactorKind.LAMBDA_III, n, (n + 1) // 2)] if n % 4 == 1 else []
        expected += [FactorSpec(FactorKind.STANDARD_I, n, 1)]
        expected += [FactorSpec(FactorKind.STANDARD_III, 1, 1)] if n == 1 else []
        assert catalog == tuple(sorted(expected, key=lambda f: (f.kind.value, f.m)))
        for g_max in list(range(1, 41)) + [60, 100, 130, 1000]:
            assert embeddings._budget_catalog(n, g_max) == tuple(f for f in catalog if f.block_size <= g_max)


def test_budget_check_stops_a_block_size_at_the_budget(monkeypatch):
    # C(10^6 + 1, 5 * 10^5) would take seconds to compute and cannot be
    # printed: the check builds each block size from partial products and
    # stops past the larger of the budget and 2^63, so it prints the total
    # of blocks that small and names no cost for a larger one.
    budgets = []
    sized = embeddings._block_size_within

    def recording(factor, budget):
        budgets.append(budget)
        return sized(factor, budget)

    monkeypatch.setattr(embeddings, "_block_size_within", recording)
    huge = FactorSpec(FactorKind.CONNECTING_LAMBDA, 10**6, 5 * 10**5)
    with pytest.raises(BudgetExceeded, match="^factors cost more than the genus budget of 5$"):
        EmbeddingSpec(10**6, (huge,), 5)
    assert budgets == [1 << 63]
    cl = [FactorSpec(FactorKind.CONNECTING_LAMBDA, 4, m) for m in (1, 2)]
    with pytest.raises(BudgetExceeded, match="^factor costs total 15 but the genus budget is 14$"):
        EmbeddingSpec(4, tuple(cl), 14)
    monkeypatch.undo()
    for n in range(1, 9):
        for f in _budget_catalog(n, inf):
            size = f.block_size
            r, s = signature(n, f.m)
            assert size == (r if f.wedge_model[1] else r + s)
            assert embeddings._block_size_within(f, size) == size
            assert embeddings._block_size_within(f, size - 1) is None
            assert EmbeddingSpec(n, (f, f), 2 * size).cost == 2 * size


@pytest.mark.parametrize("n", [30_000, 1_000_001])
def test_enumeration_past_the_budget_computes_a_handful_of_binomials(n, monkeypatch):
    # A catalog block's size is a binomial, and the balanced one of
    # N = 1,000,001 takes seconds; only the degrees that can fit are
    # visited, and each block is sized once, only up to the budget.
    budgets = []
    sized = embeddings._block_size_within

    def recording(factor, budget):
        budgets.append(budget)
        return sized(factor, budget)

    monkeypatch.setattr(embeddings, "_block_size_within", recording)
    assert _spec_count(n, 5, 10**6) == (0, True)
    assert enumerate_specs(n, 5) == ((), n + 1)
    assert len(budgets) <= 6
    assert all(budget == 5 for budget in budgets)


def test_direct_sum_image_is_type_iii_everywhere():
    rng = generator(39, 0)
    for spec in enumerate_specs(2, 6)[0][:10]:
        z = sample_ball_point(rng, 2)
        image = direct_sum_embed(spec, z)
        assert image.shape.kind is DomainKind.TYPE_III
        assert max_abs(image.z - image.z.T) <= 1e-12


# --- the Laplace-recursion wedge kernel against LU determinants


def _points_at_norm(rng, count: int, n: int, norm: float) -> np.ndarray:
    directions = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return directions * (norm / np.linalg.norm(directions, axis=1, keepdims=True))


@pytest.mark.parametrize("p", range(1, 10))
def test_laplace_minors_match_lu_determinants(p):
    rng = np.random.default_rng(600 + p)
    for cap in (0.5, 0.999, 1.0 - 1e-6):
        coords = _points_at_norm(rng, 4, p, cap)
        for m in range(1, p + 1):
            laplace = embeddings._wedge_coefficients(coords, m)
            assert laplace.shape == (4, comb(p + 1, m), comb(p, m - 1))
            assert max_abs(laplace - lu_wedge_coefficients(coords, m)) <= 1e-15


def test_laplace_kernel_calls_no_lapack_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    coords = _points_at_norm(np.random.default_rng(610), 3, 5, 0.9)
    for m in range(1, 6):
        embeddings._wedge_coefficients(coords, m)
    linearize(G60_SPEC)


# All 58 admissible factors with N <= 9.
ALL_FACTORS = [factor for n in range(1, 10) for factor in _budget_catalog(n, inf)]


def test_factor_forms_match_the_probe_built_forms(monkeypatch):
    # The forms are read off the wedge basis; the construction evaluated at
    # the probes, by the Laplace kernel and by LU determinants, gives the
    # same values.  The bits differ only in lambda_III(5, 3) and (9, 5), on
    # -i entries whose zero real part the construction's solve signs -0.
    assert len(ALL_FACTORS) == 58
    laplace = [probe_form(factor) for factor in ALL_FACTORS]
    monkeypatch.setattr(embeddings, "_wedge_coefficients", lu_wedge_coefficients)
    lu = [probe_form(factor) for factor in ALL_FACTORS]
    signed_zeros = set()
    for factor, *references in zip(ALL_FACTORS, laplace, lu):
        matrix, pseudo = factor_form(factor)
        for reference, reference_pseudo in references:
            assert np.array_equal(matrix, reference), factor
            assert pseudo.tobytes() == reference_pseudo.tobytes(), factor
            differ = (matrix.view(np.uint64) != reference.view(np.uint64)).reshape(*matrix.shape, 2)
            if differ.any():
                signed_zeros.add((factor.kind, factor.p, factor.m))
                assert not differ[..., 1].any()
                entries = matrix[differ[..., 0]]
                assert (entries == -1j).all() and not np.signbit(entries.real).any()
    assert signed_zeros == {(FactorKind.LAMBDA_III, 5, 3), (FactorKind.LAMBDA_III, 9, 5)}


def _tripotent_rank(factor) -> int:
    if factor.kind is FactorKind.CONNECTING_LAMBDA:
        return 2 * comb(factor.p - 1, factor.m - 1)
    if factor.kind is FactorKind.LAMBDA_III:
        return comb(factor.p - 1, factor.m - 1)
    return 2 if factor.kind is FactorKind.STANDARD_I else 1


@pytest.mark.parametrize("factor", ALL_FACTORS, ids=lambda f: f"{f.kind.value}-{f.p}-{f.m}")
def test_factor_forms_are_signed_partial_monomial_maps(factor):
    # Every entry is 0, +-1 or +-i; an image entry holds at most one source
    # coordinate, and each coordinate fills exactly c entries, c the
    # tripotent rank, so A* A = c I exactly.
    matrix, _ = factor_form(factor)
    assert set(matrix.reshape(-1).tolist()) <= {0, 1, -1, 1j, -1j}
    nonzero = matrix != 0
    assert (nonzero.sum(axis=1) <= 1).all()
    c = _tripotent_rank(factor)
    assert (nonzero.sum(axis=0) == c).all()
    assert np.array_equal(matrix.conj().T @ matrix, c * np.eye(factor.p))


def _triple_residual(matrix: np.ndarray, b: int) -> float:
    """Largest entry of E_i E_j* E_k + E_k E_j* E_i - d_jk E_i - d_ij E_k
    over all (i, j, k), for the blocks E_i of a form's columns."""
    blocks = matrix.T.reshape(-1, b, b)
    worst = 0.0
    for j, block in enumerate(blocks):
        left = blocks @ block.conj().T
        # products[i, k] = E_i E_j* E_k
        products = left[:, np.newaxis] @ blocks[np.newaxis, :]
        residual = products + products.swapaxes(0, 1)
        residual[:, j] -= blocks
        residual[j, :] -= blocks
        worst = max(worst, float(np.abs(residual).max()))
    return worst


def test_factor_images_are_sub_triples():
    # The basis blocks E_i of each form satisfy the triple identity
    # E_i E_j* E_k + E_k E_j* E_i = d_jk E_i + d_ij E_k exactly, so the image
    # of each factor is a sub-triple of the Jordan triple of symmetric
    # matrices, {x y z} = (x y* z + z y* x) / 2, and hence totally geodesic
    # in III_g (Loos, Bounded Symmetric Domains and Jordan Pairs, 1977).  A
    # form scaled by 1 + 1e-6 misses it by about 4e-6.
    factors = [factor for factor in ALL_FACTORS if factor.p <= 8]
    assert len(factors) == 47
    for factor in factors:
        matrix, _ = factor_form(factor)
        assert _triple_residual(matrix, factor.block_size) == 0.0, factor
        assert _triple_residual(matrix * (1 + 1e-6), factor.block_size) > 1e-6, factor


def test_the_production_path_never_calls_the_oracle(monkeypatch):
    # The compiled forms, the one-point embedding and the retraction run
    # with the wedge kernel gone, on every spec of the acceptance sweep.
    def refuse(*args, **kwargs):
        raise AssertionError("the wedge oracle was called")

    monkeypatch.setattr(embeddings, "_wedge_coefficients", refuse)
    clear_package_caches()
    specs = [spec for n in range(1, 5) for spec in enumerate_specs(n, 12)[0]] + [G60_SPEC]
    for index, spec in enumerate(specs):
        for factor in spec.factors:
            factor_form(factor)
        z = sample_ball_point(generator(640, index), spec.source_dim)
        image = direct_sum_embed(spec, z)
        assert np.abs(retract_direct_sum(image, spec).coords - z.coords).max() <= 1e-12
    with pytest.raises(AssertionError, match="oracle"):
        linearize(G60_SPEC)


@pytest.mark.parametrize("seed", [0, 3])
def test_verify_writes_the_report_bytes_of_the_probe_built_forms(seed, tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_json(G60_SPEC)), encoding="utf-8")

    def report(name: str) -> bytes:
        path = tmp_path / f"{name}.json"
        assert main(["verify", "--spec", str(spec), "--seed", str(seed), "--report", str(path)]) == 0
        return path.read_bytes()

    clear_package_caches()
    table = report("table")
    probed = lru_cache(maxsize=None)(probe_form)
    monkeypatch.setattr(embeddings, "factor_form", probed)
    monkeypatch.setattr(retractions, "factor_form", probed)
    assert report("probe") == table


def _oracle_error(spec, points, kernel, monkeypatch) -> float:
    monkeypatch.setattr(embeddings, "_wedge_coefficients", kernel)
    (coords,) = embeddings._ball_coords(spec.source_dim, DEFAULT_TOLERANCE, points)
    return float(embeddings._oracle_residuals(spec, coords, DEFAULT_TOLERANCE).max())


@pytest.mark.parametrize("n", range(2, 7))
def test_oracle_error_within_twice_the_lu_kernel(n, monkeypatch):
    laplace_kernel = embeddings._wedge_coefficients
    rng = generator(620, n)
    points = [sample_ball_point(rng, n) for _ in range(100)]
    specs = [EmbeddingSpec(n, (factor,), factor.block_size) for factor in _budget_catalog(n, inf)]
    if n == 5:
        specs.append(G60_SPEC)
    laplace = max(_oracle_error(spec, points, laplace_kernel, monkeypatch) for spec in specs)
    lu = max(_oracle_error(spec, points, lu_wedge_coefficients, monkeypatch) for spec in specs)
    assert 0.0 < laplace <= 2.0 * lu


# --- the one-point map and the suites' stacked kernel


def test_one_point_embed_holds_the_kernel_blocks():
    # direct_sum_embed holds the bits of _embed_blocks on its diagonal
    # blocks and zeros elsewhere, on every spec the acceptance sweep runs:
    # each distinct factor's block on every copy of that factor.
    specs = [spec for n in range(1, 5) for spec in enumerate_specs(n, 12)[0]] + [G60_SPEC]
    for index, spec in enumerate(specs):
        rng = generator(630, index)
        points = [sample_ball_point(rng, spec.source_dim) for _ in range(3)]
        blocks = embeddings._embed_blocks(spec, np.stack([z.coords for z in points]))
        assert len(blocks) == len(set(spec.factors))
        by_factor = dict(zip(dict.fromkeys(spec.factors), blocks))
        for i, z in enumerate(points):
            image = direct_sum_embed(spec, z).z.copy()
            for factor, start, stop in block_layout(spec):
                assert image[start:stop, start:stop].tobytes() == by_factor[factor][i].tobytes()
                image[start:stop, start:stop] = 0.0
            assert not image.any()


def test_stacked_embed_names_the_failing_member():
    # The suites check their samples once, as a stack, before embedding
    # them with _embed_blocks: an error names the sample by its index.
    inside = ball_point([0.1, 0.2])
    with pytest.raises(MembershipViolation, match="embedding input 2 has norm 1.000000"):
        embeddings._ball_coords(2, DEFAULT_TOLERANCE, [inside, inside, ball_point([1.0 - 1e-12, 0.0])])
    with pytest.raises(SpecMismatch, match="embedding input 1: spec expects ball dimension 2, got 3"):
        embeddings._ball_coords(2, DEFAULT_TOLERANCE, [inside, ball_point([0.1, 0.0, 0.0])])


@pytest.mark.parametrize(
    "value", [np.array([0.1, 0.2]), [0.1, 0.2], DomainPoint(type_iii_shape(3), np.zeros((3, 3)))]
)
def test_embed_takes_one_ball_point(value):
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 3)
    with pytest.raises(SpecMismatch, match=f"^expected a BallPoint, got {type(value).__name__}$"):
        direct_sum_embed(spec, value)
