"""Harness suites: the stacked evaluation against per-sample loops."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from siegelmaps import (
    BallPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    direct_sum_embed,
    kobayashi_distance,
    linearize,
    membership,
    retract_direct_sum,
    singular_values,
)
from siegelmaps import embeddings, exterior, harness
from siegelmaps.embeddings import block_layout
from siegelmaps.linalg import Tolerance
from siegelmaps.report import HarnessConfig, SuiteResult
from siegelmaps.sampling import generator, sample_ball_coords, sample_ball_point, sample_phases

from norms import max_abs
from oracle_blocks import factor_block, wedge_block
from wedge_reference import complement, conjugation_unit, wedge_basis

N2_SPEC = EmbeddingSpec(
    2,
    (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1), FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 2)),
    6,
)
# Padded (cost 5) and with both standard factors.
N1_PADDED_SPEC = EmbeddingSpec(
    1,
    (
        FactorSpec(FactorKind.STANDARD_I, 1, 1),
        FactorSpec(FactorKind.STANDARD_III, 1, 1),
        FactorSpec(FactorKind.CONNECTING_LAMBDA, 1, 1),
    ),
    8,
)
G60_SPEC = EmbeddingSpec(
    5,
    (FactorSpec(FactorKind.LAMBDA_III, 5, 3),)
    + tuple(FactorSpec(FactorKind.CONNECTING_LAMBDA, 5, m) for m in (2, 3, 4)),
    60,
)


# Reference implementations: the suites as per-sample loops, one wedge
# evaluation per sample and factor.


def _rng(config: HarnessConfig, name: str):
    return generator(config.seed, harness._STREAMS[name])


def _reference_induced_phases(p, m, symmetric, theta):
    """Row and column phases of the wedge block under z -> theta * z, one
    Python product per basis multi-index."""
    basis = wedge_basis(p, m)

    def content_product(indices) -> complex:
        out = 1.0 + 0.0j
        for i in indices:
            if i <= p:
                out *= theta[i - 1]
        return out

    col_phases = np.array([content_product(neg) for neg in basis.negatives])
    if symmetric:
        full = np.prod(theta)
        row_phases = np.array([full / content_product(neg) for neg in basis.negatives])
    else:
        row_phases = np.array([content_product(pos) for pos in basis.positives])
    return row_phases, col_phases


def _loop_retraction(spec, config):
    rng, tol = _rng(config, "retraction"), config.tol
    worst, worst_input = -1.0, None
    for _ in range(config.samples):
        z = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        back = retract_direct_sum(direct_sum_embed(spec, z, tol), spec, tol, verify=False)
        residual = max_abs(back.coords - z.coords)
        if residual > worst:
            worst, worst_input = residual, z
    return SuiteResult(
        "retraction", worst <= 10.0 * tol.eq_tol, config.samples, worst, harness._ball_json(worst_input.coords)
    )


def _loop_symmetry(spec, config):
    rng, tol = _rng(config, "symmetry"), config.tol
    worst, worst_input = -1.0, None
    degrees = sorted({(f.p, f.m) for f in spec.factors if f.kind is FactorKind.LAMBDA_III})
    for _ in range(config.samples):
        z = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        image = direct_sum_embed(spec, z, tol)
        residual = max_abs(image.z - image.z.T)
        for _p, m in degrees:
            block = wedge_block(z, m, True, tol)
            residual = max(residual, max_abs(block - block.T))
        if residual > worst:
            worst, worst_input = residual, z
    return SuiteResult(
        "symmetry", worst <= 10.0 * tol.eq_tol, config.samples, worst, harness._ball_json(worst_input.coords)
    )


def _loop_linearity(spec, config):
    rng, tol = _rng(config, "linearity"), config.tol
    sv = singular_values(linearize(spec, tol, seed=config.seed))
    rank = int(np.sum(sv > tol.eq_tol * max(1.0, float(sv[0]))))
    g = spec.target_g
    worst, worst_input = -1.0, None
    for _ in range(config.samples):
        z = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        reference = np.zeros((g, g), dtype=np.complex128)
        for factor, start, stop in block_layout(spec):
            reference[start:stop, start:stop] = factor_block(factor, z, tol)
        residual = max_abs(reference - direct_sum_embed(spec, z, tol).z)
        if residual > worst:
            worst, worst_input = residual, z
    return SuiteResult(
        "linearity",
        worst <= tol.eq_tol and rank == spec.source_dim,
        config.samples,
        worst,
        harness._ball_json(worst_input.coords),
        detail=f"rank={rank}, expected={spec.source_dim}",
    )


def _loop_equivariance(spec, config):
    rng, tol = _rng(config, "equivariance"), config.tol
    factors = sorted(
        {
            (f.p, f.m, f.kind is FactorKind.LAMBDA_III)
            for f in spec.factors
            if f.kind in (FactorKind.CONNECTING_LAMBDA, FactorKind.LAMBDA_III)
        }
    )
    worst, worst_input = -1.0, None
    for _ in range(config.samples):
        z = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        theta = sample_phases(rng, spec.source_dim)
        rotated = BallPoint(theta * z.coords)
        residual = 0.0
        for p, m, symmetric in factors:
            base = wedge_block(z, m, symmetric, tol)
            moved = wedge_block(rotated, m, symmetric, tol)
            rows, cols = _reference_induced_phases(p, m, symmetric, theta)
            expected = rows[:, np.newaxis] * base * np.conj(cols)[np.newaxis, :]
            residual = max(residual, max_abs(moved - expected))
        if residual > worst:
            worst, worst_input = residual, z
    return SuiteResult(
        "equivariance", worst <= 10.0 * tol.eq_tol, config.samples, worst, harness._ball_json(worst_input.coords)
    )


def _loop_membership(spec, config):
    rng, tol = _rng(config, "membership"), config.tol
    violations, min_margin, worst_input = 0, np.inf, None
    for _ in range(config.samples):
        z = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        image = direct_sum_embed(spec, z, tol)
        result = membership(image, tol)
        back_margin = 1.0 - retract_direct_sum(image, spec, tol, verify=False).norm ** 2
        margin = min(result.margin, back_margin)
        if not result or back_margin <= tol.psd_margin:
            violations += 1
        if margin < min_margin:
            min_margin, worst_input = margin, z
    return SuiteResult(
        "membership",
        violations == 0,
        config.samples,
        max(0.0, tol.psd_margin - float(min_margin)),
        harness._ball_json(worst_input.coords),
        detail=f"violations={violations}, min_margin={min_margin!r}",
    )


def _loop_isometry(spec, config):
    rng, tol = _rng(config, "isometry"), config.tol
    worst, worst_input = -1.0, None
    for _ in range(config.samples):
        x = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        y = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        ex, ey = direct_sum_embed(spec, x, tol), direct_sum_embed(spec, y, tol)
        rx, ry = (retract_direct_sum(e, spec, tol, verify=False) for e in (ex, ey))
        source = kobayashi_distance(x, y, tol)
        gap = max(abs(source - kobayashi_distance(ex, ey, tol)), abs(source - kobayashi_distance(rx, ry, tol)))
        if gap > worst:
            worst, worst_input = gap, {"x": harness._ball_json(x.coords), "y": harness._ball_json(y.coords)}
    return SuiteResult("isometry", worst <= 10.0 * tol.eq_tol, config.samples, worst, worst_input)


_LOOPS = {
    "retraction": _loop_retraction,
    "symmetry": _loop_symmetry,
    "linearity": _loop_linearity,
    "equivariance": _loop_equivariance,
    "membership": _loop_membership,
    "isometry": _loop_isometry,
}


@pytest.mark.parametrize("suite", sorted(_LOOPS))
@pytest.mark.parametrize(
    "spec, seed, samples",
    [(N2_SPEC, 3, 20), (N2_SPEC, 11, 1), (G60_SPEC, 0, 8), (G60_SPEC, 5, 40)]
    + [(N1_PADDED_SPEC, 2, 12), (N1_PADDED_SPEC, 9, 1)],
    ids=["N2-s20", "N2-s1", "g60-s8", "g60-s40"] + ["N1-padded-s12", "N1-padded-s1"],
)
def test_stacked_suite_equals_per_sample_loop(suite, spec, seed, samples):
    # At g = 60, 40 samples span several slices of the stacked evaluation
    # (8 samples do too for the membership and isometry suites).
    config = HarnessConfig(seed=seed, samples=samples)
    stacked = harness.run_suite(suite, spec, config)
    loop = _LOOPS[suite](spec, config)
    if suite == "membership":
        # The suite measures the images' diagonal blocks, membership() the
        # whole image: the smallest eigenvalue agrees to round-off.
        stacked_margin, loop_margin = (float(r.detail.split("min_margin=")[1]) for r in (stacked, loop))
        assert stacked_margin == pytest.approx(loop_margin, abs=1e-14)
        loop = dataclasses.replace(loop, detail=stacked.detail)
    assert stacked == loop
    assert stacked.passed


@pytest.mark.parametrize("n", range(1, 7))
def test_ball_coords_are_the_per_point_draws_bit_for_bit(n):
    # Per row: two standard_normal(n), a normalisation, one random(), in
    # that order, written out here as one point at a time.
    for seed, stream, cap in ((0, 0, 0.95), (4, 3, 0.5), (2**64 - 1, 0x11E4, 0.999)):
        rng, reference = generator(seed, stream), generator(seed, stream)
        coords = sample_ball_coords(rng, n, 9, cap)
        assert coords.shape == (9, n)
        for row in coords:
            direction = reference.standard_normal(n) + 1j * reference.standard_normal(n)
            direction /= np.linalg.norm(direction)
            assert row.tobytes() == (direction * (cap * reference.random())).tobytes()
        # The generator is left where the per-point draws leave it.
        assert rng.random() == reference.random()
        assert sample_ball_point(generator(seed, stream), n, cap).coords.tobytes() == coords[0].tobytes()


def test_ties_on_the_largest_residual_name_the_earliest_sample():
    # On the 1 x 1 corner every retraction, symmetry and linearity residual
    # is exactly 0.0, so each suite's worst input is the first draw of its
    # stream, not the last.
    spec = EmbeddingSpec(1, (FactorSpec(FactorKind.STANDARD_III, 1, 1),), 1)
    config = HarnessConfig(seed=4, samples=6)
    for name in ("retraction", "symmetry", "linearity"):
        result = harness.run_suite(name, spec, config)
        assert result.passed and result.max_residual == 0.0, name
        draws = sample_ball_coords(_rng(config, name), 1, config.samples, config.radius_cap)
        assert result.worst_input == harness._ball_json(draws[0]) != harness._ball_json(draws[-1]), name


def test_verification_builds_ball_points_only_for_isometry_and_the_padding_probe(monkeypatch):
    # The suites carry their samples as coordinate rows: on the g = 60 spec
    # at 8 samples, the 8 isometry pairs and the padding probe are the only
    # ball points built, 17, where one per sample and suite would be 65.
    built = []
    counted = BallPoint.__post_init__

    def counting(self):
        built.append(self)
        counted(self)

    monkeypatch.setattr(BallPoint, "__post_init__", counting)
    assert harness.run_verification(G60_SPEC, HarnessConfig(samples=8)).passed
    assert len(built) <= 17


def test_signature_suite_counts_each_degree_with_one_call(monkeypatch):
    calls = []
    counted = exterior._basis_rows

    def counting(p, m):
        calls.append((p, m))
        return counted(p, m)

    monkeypatch.setattr(harness, "_basis_rows", counting)
    result = harness.run_suite("signature", N2_SPEC, HarnessConfig(samples=1))
    assert result.passed and result.samples == 21
    assert calls == [(p, m) for p in range(1, 7) for m in range(1, p + 1)]


def test_induced_phases_equal_the_content_product_loop():
    rng = generator(70, 0)
    for p in range(1, 8):
        for m in range(1, p + 1):
            for symmetric in {False, exterior.balanced_symmetric(p, m)}:
                thetas = np.stack([sample_phases(rng, p) for _ in range(6)])
                stacked = harness._induced_phases(p, m, symmetric, thetas)
                for j, theta in enumerate(thetas):
                    reference = _reference_induced_phases(p, m, symmetric, theta)
                    single = harness._induced_phases(p, m, symmetric, theta)
                    for ref, one, many in zip(reference, single, stacked):
                        assert ref.tobytes() == one.tobytes() == many[j].tobytes()


@pytest.mark.parametrize("spec", [N2_SPEC, G60_SPEC], ids=["N2", "g60"])
def test_sample_near_the_sphere_fails_naming_the_embedding_input(spec):
    # A psd_margin of 0.4 puts most sampled radii up to the 0.99 cap within
    # the margin of the sphere: the embedding must refuse them, and the
    # failed suite's note must say so.
    config = HarnessConfig(samples=8, radius_cap=0.99, tol=Tolerance(eq_tol=0.5, psd_margin=0.4))
    for name in ("retraction", "membership", "symmetry", "isometry"):
        result = harness.run_suite(name, spec, config)
        assert not result.passed and result.max_residual is None
        assert result.detail.startswith("raised MembershipViolation: embedding input "), (name, result.detail)
        assert ", too close to the sphere" in result.detail


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("name", ["retraction", "membership", "isometry", "symmetry", "linearity", "equivariance"])
def test_sample_near_the_sphere_is_named_by_its_index_in_the_suite(name, seed):
    # At 60 samples the g = 60 suites evaluate several slices; the first
    # failing draw must be named by its index in the suite's stream (for
    # isometry, its pair), not in its slice.  At seed 5 the isometry suite's
    # first failing pair, 22, lies beyond its first slice of 8 pairs.
    config = HarnessConfig(seed=seed, samples=60, radius_cap=0.99, tol=Tolerance(eq_tol=0.5, psd_margin=0.05))
    rng = generator(config.seed, harness._STREAMS[name])
    for index in range(config.samples):
        draws = [sample_ball_point(rng, 5, config.radius_cap) for _ in range(2 if name == "isometry" else 1)]
        if name == "equivariance":
            sample_phases(rng, 5)
        near = [z for z in draws if z.norm >= 1.0 - config.tol.psd_margin]
        if near:
            break
    assert index > 0
    result = harness.run_suite(name, G60_SPEC, config)
    assert result.detail == (
        f"raised MembershipViolation: embedding input {index} has norm {near[0].norm:.6f}, too close to the sphere"
    )


def test_conjugation_notes_equal_the_reference_units():
    unit = conjugation_unit
    for p in range(1, 10):
        factors = tuple(FactorSpec(FactorKind.CONNECTING_LAMBDA, p, m) for m in range(1, p + 1))
        spec = EmbeddingSpec(p, factors, sum(f.block_size for f in factors))
        notes = harness._conjugation_notes(spec)
        for m in range(1, p + 1):
            basis = wedge_basis(p, m).ordered
            units = {harness._format_unit(unit(M, p)) for M in basis}
            # e_M picks up conj(a(M)) * a(M^c) under the conjugation applied twice.
            squares = {harness._format_unit(np.conj(unit(M, p)) * unit(complement(M, p), p)) for M in basis}
            assert notes[f"p={p},m={m}"] == {"units": sorted(units), "squared": sorted(squares)}


def test_verification_of_the_g60_spec_makes_at_most_five_svd_calls(monkeypatch):
    # The condition tests are certified from bounds: what is left is the
    # linearity suite's rank and the isometry suite's distances themselves.
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = harness.run_verification(G60_SPEC, HarnessConfig(samples=8, seed=1))
    assert report.passed
    assert len(calls) <= 5, calls


def test_property_suites_carry_factor_blocks_and_measure_one_group_at_a_time(monkeypatch):
    # No suite builds a g x g image per point: the linearity suite compares
    # factor blocks, and embeds one probe through direct_sum_embed to check
    # its padding.  The isometry suite's 8 pairs fit one slice, measured by
    # one pass of the distance kernel per block size (one block of 10, two
    # of 15, one of 20), with one Cholesky call each: the base blocks'
    # I - XX* and I - X*X, and both sides' Grams shifted by the interior
    # certificate, which proves every block interior with no eigensolve.
    embeds, choleskys = [], []
    counted_embed, counted_cholesky = embeddings.direct_sum_embed, np.linalg.cholesky

    def counting_embed(spec, z, tol=Tolerance()):
        embeds.append(z)
        return counted_embed(spec, z, tol)

    def counting_cholesky(a):
        choleskys.append(a.shape)
        return counted_cholesky(a)

    monkeypatch.setattr(embeddings, "direct_sum_embed", counting_embed)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    config = HarnessConfig(samples=8, seed=1)
    for name in ("retraction", "membership", "isometry", "symmetry"):
        assert harness.run_suite(name, G60_SPEC, config).passed
    assert embeds == []
    assert choleskys == [(4, 8, n, s, s) for n, s in ((1, 10), (2, 15), (1, 20))]
    assert harness.run_verification(G60_SPEC, config).passed
    assert len(embeds) == 1 and isinstance(embeds[0], BallPoint)
    # Nothing in those four suites grows with g: at g = 2**40 they pass.
    huge = dataclasses.replace(G60_SPEC, target_g=2**40)
    for name in ("retraction", "membership", "isometry", "symmetry"):
        assert harness.run_suite(name, huge, config).passed


def test_linearity_suite_embeds_one_probe_far_beyond_the_cost(monkeypatch):
    # At target_g 2048 a cost-3 spec's images are 2048 x 2048; the suite
    # builds one of them, the probe's, however many points it checks.
    embeds = []
    counted = embeddings.direct_sum_embed

    def counting_embed(spec, z, tol=Tolerance()):
        embeds.append(z)
        return counted(spec, z, tol)

    monkeypatch.setattr(embeddings, "direct_sum_embed", counting_embed)
    spec = EmbeddingSpec(2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1),), 2048)
    assert harness.run_suite("linearity", spec, HarnessConfig(samples=2, seed=0)).passed
    assert len(embeds) == 1 and isinstance(embeds[0], BallPoint)


@pytest.mark.parametrize("where", ["last", "between", "on"])
def test_padding_probe_fires_far_beyond_the_cost(monkeypatch, where):
    # The probe's image is checked in place: an entry written at (g-1, g-1),
    # between the two factor blocks, or on a block (where the compiled
    # blocks the oracle compares are right) fails the suite.
    spec = EmbeddingSpec(
        2, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1), FactorSpec(FactorKind.STANDARD_I, 2, 1)), 2048
    )
    row, col = {"last": (2047, 2047), "between": (0, 3), "on": (1, 1)}[where]
    exact = embeddings.direct_sum_embed

    def corrupted(spec, z, tol=Tolerance()):
        image = exact(spec, z, tol)
        image.z.setflags(write=True)
        image.z[row, col] += 0.05 * z.coords[1]
        image.z[col, row] = image.z[row, col]
        return image

    monkeypatch.setattr(embeddings, "direct_sum_embed", corrupted)
    result = harness.run_suite("linearity", spec, HarnessConfig(samples=2, seed=0))
    assert not result.passed and result.max_residual is None
    assert result.detail.startswith("embedding deviates from its factor blocks by ")
