"""Harness suites: the stacked evaluation against per-sample loops."""

from __future__ import annotations

import numpy as np
import pytest

from siegelmaps import (
    BallPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    direct_sum_embed,
    exterior_power_embed,
    linearize,
    singular_values,
)
from siegelmaps import exterior, harness
from siegelmaps.embeddings import block_layout, factor_block
from siegelmaps.linalg import max_abs
from siegelmaps.report import HarnessConfig, SuiteResult
from siegelmaps.sampling import generator, sample_ball_point, sample_phases

N2_SPEC = EmbeddingSpec(
    2,
    (FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 1), FactorSpec(FactorKind.CONNECTING_LAMBDA, 2, 2)),
    6,
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


def _loop_symmetry(spec, config):
    rng, tol = _rng(config, "symmetry"), config.tol
    worst, worst_input = -1.0, None
    degrees = sorted({(f.p, f.m) for f in spec.factors if f.kind is FactorKind.LAMBDA_III})
    for _ in range(config.samples):
        z = sample_ball_point(rng, spec.source_dim, config.radius_cap)
        image = direct_sum_embed(spec, z, tol)
        residual = max_abs(image.z - image.z.T)
        for _p, m in degrees:
            block = exterior_power_embed(z, m, symmetric=True, tol=tol)
            residual = max(residual, max_abs(block.z - block.z.T))
        if residual > worst:
            worst, worst_input = residual, z
    return SuiteResult("symmetry", worst <= 10.0 * tol.eq_tol, config.samples, worst, harness._ball_json(worst_input))


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
        harness._ball_json(worst_input),
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
            base = exterior_power_embed(z, m, symmetric=symmetric, tol=tol).z
            moved = exterior_power_embed(rotated, m, symmetric=symmetric, tol=tol).z
            rows, cols = harness._induced_phases(p, m, symmetric, theta)
            expected = rows[:, np.newaxis] * base * np.conj(cols)[np.newaxis, :]
            residual = max(residual, max_abs(moved - expected))
        if residual > worst:
            worst, worst_input = residual, z
    return SuiteResult(
        "equivariance", worst <= 10.0 * tol.eq_tol, config.samples, worst, harness._ball_json(worst_input)
    )


_LOOPS = {"symmetry": _loop_symmetry, "linearity": _loop_linearity, "equivariance": _loop_equivariance}


@pytest.mark.parametrize("suite", sorted(_LOOPS))
@pytest.mark.parametrize(
    "spec, seed, samples",
    [(N2_SPEC, 3, 20), (N2_SPEC, 11, 1), (G60_SPEC, 0, 8), (G60_SPEC, 5, 40)],
    ids=["N2-s20", "N2-s1", "g60-s8", "g60-s40"],
)
def test_stacked_suite_equals_per_sample_loop(suite, spec, seed, samples):
    # At g = 60, 40 samples span several slices of the stacked evaluation.
    config = HarnessConfig(seed=seed, samples=samples)
    stacked = harness.run_suite(suite, spec, config)
    assert stacked == _LOOPS[suite](spec, config)
    assert stacked.passed


def test_signature_suite_counts_each_degree_with_one_call(monkeypatch):
    calls = []
    counted = exterior.induced_form

    def counting(p, m, x, y):
        calls.append((p, m))
        return counted(p, m, x, y)

    monkeypatch.setattr(harness, "induced_form", counting)
    result = harness.run_suite("signature", N2_SPEC, HarnessConfig(samples=1))
    assert result.passed and result.samples == 21
    assert calls == [(p, m) for p in range(1, 7) for m in range(1, p + 1)]
