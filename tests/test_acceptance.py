"""Acceptance criteria, one test per criterion.

Each test prints a pass/fail line (visible with ``pytest -s``) and asserts
its criterion at the stated tolerance.  The embedding sweep shared by the
retraction, membership, and linearity criteria enumerates every
admissible spec with source dimension 1..4 and cost at most 12 and draws
100 seeded samples per spec.
"""

from __future__ import annotations

import time
from math import comb

import numpy as np
import pytest

from siegelmaps import (
    DEFAULT_TOLERANCE,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    HarnessConfig,
    ball_point,
    cayley_to_bounded,
    cayley_to_siegel,
    direct_sum_embed,
    enumerate_specs,
    kobayashi_distance,
    linearize,
    membership,
    retract_direct_sum,
    run_verification,
    signature,
    singular_values,
)
from siegelmaps.cli import main
from siegelmaps.domains import _ball_distances
from siegelmaps.embeddings import _embed_blocks
from siegelmaps.errors import NonlinearityDetected
from siegelmaps.retractions import _retract_blocks
from siegelmaps.sampling import (
    generator,
    sample_ball_coords,
    sample_ball_point,
    sample_type_iii,
)

import cyclic_covers
from bulk_images import embedded_images, target_distances
from norms import max_abs
from oracle_blocks import wedge_block
from samplers import sample_siegel
from wedge_reference import induced_form, wedge_basis

SEED = 20260810
SWEEP_BUDGET = 12
SAMPLES_PER_SPEC = 100
RETRACTION_TOL = 1e-8
ISOMETRY_TOL = 1e-7
SYMMETRY_TOL = 1e-8
CAYLEY_TOL = 1e-8
RUNTIME_TARGET_SECONDS = 60.0


def _report(line: str) -> None:
    print(line)


# --- independent enumeration oracle (criterion 8), written against the
# --- block-size arithmetic alone, not against the package catalog
def _oracle_factor_costs(n: int) -> list[int]:
    costs = [comb(n + 1, m) for m in range(1, n + 1)]  # paired wedge blocks
    if n % 4 == 1:
        costs.append(comb(n, (n + 1) // 2))  # balanced symmetric block
    costs.append(n + 1)  # first-row block plus its transpose pairing
    if n == 1:
        costs.append(1)  # scalar corner
    return costs


def _oracle_minimal_genus(n: int, budget: int = 40) -> int:
    costs = _oracle_factor_costs(n)
    achievable = np.zeros(budget + 1, dtype=bool)
    achievable[0] = True
    for cost in costs:
        for total in range(cost, budget + 1):
            if achievable[total - cost]:
                achievable[total] = True
    nonempty = [t for t in range(1, budget + 1) if achievable[t]]
    return min(nonempty)


@pytest.fixture(scope="session")
def sweep():
    """Shared embed/retract sweep over all admissible specs, N in 1..4.

    Each spec's samples are embedded and retracted as one stack through the
    suites' block kernels, whose members have the bits of the one-point
    maps."""
    per_n = {}
    total_elapsed = 0.0
    for n in (1, 2, 3, 4):
        specs, _ = enumerate_specs(n, SWEEP_BUDGET)
        worst = -1.0
        membership_violations = 0
        min_margin = np.inf
        for index, spec in enumerate(specs):
            rng = generator(SEED, 1000 + index)
            start = time.perf_counter()
            points = [sample_ball_point(rng, n) for _ in range(SAMPLES_PER_SPEC)]
            coords = np.stack([z.coords for z in points])
            backs = _retract_blocks(spec, _embed_blocks(spec, coords))
            residuals = np.abs(backs - coords).max(axis=1)
            total_elapsed += time.perf_counter() - start
            worst = max(worst, float(residuals.max()))
            # criterion 2 bookkeeping, outside the timed section
            for image, back in zip(embedded_images(spec, coords), backs):
                result = membership(image)
                back_margin = 1.0 - float(np.linalg.norm(back)) ** 2
                if not result or back_margin <= 1e-10:
                    membership_violations += 1
                min_margin = min(min_margin, result.margin, back_margin)
        per_n[n] = {
            "specs": specs,
            "worst": worst,
            "violations": membership_violations,
            "min_margin": float(min_margin),
        }
    return {"per_n": per_n, "elapsed": total_elapsed}


def test_criterion_1_retraction_identity(sweep):
    worst = max(data["worst"] for data in sweep["per_n"].values())
    count = sum(len(data["specs"]) for data in sweep["per_n"].values())
    elapsed = sweep["elapsed"]
    ok = worst <= RETRACTION_TOL and elapsed < RUNTIME_TARGET_SECONDS
    _report(
        f"criterion 1 (retraction identity): {'PASS' if ok else 'FAIL'} "
        f"max residual {worst:.3e} over {count} specs x {SAMPLES_PER_SPEC} samples "
        f"in {elapsed:.1f}s"
    )
    assert worst <= RETRACTION_TOL
    assert elapsed < RUNTIME_TARGET_SECONDS


def test_criterion_2_membership_closure(sweep):
    violations = sum(data["violations"] for data in sweep["per_n"].values())
    min_margin = min(data["min_margin"] for data in sweep["per_n"].values())
    ok = violations == 0
    _report(
        f"criterion 2 (membership closure): {'PASS' if ok else 'FAIL'} "
        f"{violations} violations, smallest margin {min_margin:.3e}"
    )
    assert violations == 0


def test_criterion_3_isometry_sandwich():
    # A spec's pairs are the rows of one draw, x and y alternating, so the
    # pairs are those drawn one point at a time.  The ball distances are
    # taken on the coordinate arrays, the target distances on the images'
    # factor blocks, one stacked call per kind; each member has the bits of
    # its pair alone, and the target distances those of kobayashi_distance
    # on the whole images.
    worst = -1.0
    count = 0
    for n in (1, 2, 3):
        specs, _ = enumerate_specs(n, SWEEP_BUDGET)
        count += len(specs)
        for index, spec in enumerate(specs):
            rows = sample_ball_coords(generator(SEED, 2000 + index), n, 2 * SAMPLES_PER_SPEC)
            xs, ys = rows[0::2], rows[1::2]
            gaps = np.abs(_ball_distances(xs, ys, DEFAULT_TOLERANCE) - target_distances(spec, xs, ys))
            worst = max(worst, float(gaps.max()))
    ok = worst <= ISOMETRY_TOL
    _report(
        f"criterion 3 (isometry sandwich): {'PASS' if ok else 'FAIL'} "
        f"max |d_ball - d_target| = {worst:.3e} over {count} specs"
    )
    assert worst <= ISOMETRY_TOL


def test_criterion_4_signature_table():
    mismatches = []
    balanced = []
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
            if (plus, minus) != signature(p, m):
                mismatches.append((p, m))
            if plus == minus and p % 4 == 1:
                balanced.append((p, m))
    ok = not mismatches and balanced == [(1, 1), (5, 3)]
    _report(
        f"criterion 4 (signature table): {'PASS' if ok else 'FAIL'} "
        f"exhaustive p <= 6, balanced type III cases {balanced}"
    )
    assert not mismatches
    assert balanced == [(1, 1), (5, 3)]


def test_criterion_5_linearity(sweep):
    failures = 0
    rank_defects = 0
    count = 0
    for n, data in sweep["per_n"].items():
        for spec in data["specs"]:
            count += 1
            try:
                matrix = linearize(spec, seed=SEED)
            except NonlinearityDetected:
                failures += 1
                continue
            sv = singular_values(matrix)
            rank = int(np.sum(sv > 1e-9 * max(1.0, float(sv[0]))))
            if rank != n:
                rank_defects += 1
    ok = failures == 0 and rank_defects == 0
    _report(
        f"criterion 5 (linearity): {'PASS' if ok else 'FAIL'} "
        f"{failures} nonlinearity detections, {rank_defects} rank defects over {count} specs"
    )
    assert failures == 0
    assert rank_defects == 0


def test_compiled_form_matches_oracle_at_g60():
    # The paper's N = 5 case, beyond the N <= 4 sweep: lambda_III(m=3) plus
    # the connecting wedge blocks m = 2, 3, 4 at g = 60.
    factors = [FactorSpec(FactorKind.LAMBDA_III, 5, 3)]
    factors += [FactorSpec(FactorKind.CONNECTING_LAMBDA, 5, m) for m in (2, 3, 4)]
    spec = EmbeddingSpec(5, tuple(factors), 60)
    linearize(spec, seed=SEED)  # raises NonlinearityDetected on disagreement
    rng = generator(SEED, 5000)
    worst = -1.0
    for _ in range(SAMPLES_PER_SPEC):
        z = sample_ball_point(rng, 5)
        back = retract_direct_sum(direct_sum_embed(spec, z), spec, verify=False)
        worst = max(worst, max_abs(back.coords - z.coords))
    _report(f"compiled form at N=5, g=60: {'PASS' if worst <= RETRACTION_TOL else 'FAIL'} retraction residual {worst:.3e}")
    assert worst <= RETRACTION_TOL


def test_criterion_6_type_iii_symmetry():
    rng = generator(SEED, 3000)
    worst = -1.0
    for _ in range(50):
        z = sample_ball_point(rng, 5)
        image = wedge_block(z, 3, symmetric=True)
        worst = max(worst, max_abs(image - image.T))
    ok = worst <= SYMMETRY_TOL
    _report(
        f"criterion 6 (type III coordinate symmetry, p=5 m=3): "
        f"{'PASS' if ok else 'FAIL'} max asymmetry {worst:.3e}"
    )
    assert worst <= SYMMETRY_TOL


def test_criterion_7_cayley_round_trip():
    rng = generator(SEED, 4000)
    worst = -1.0
    for g in (1, 2, 3, 5):
        for _ in range(100):
            bounded = sample_type_iii(rng, g)
            back = cayley_to_bounded(cayley_to_siegel(bounded))
            worst = max(worst, max_abs(back.z - bounded.z))
            upper = sample_siegel(rng, g)
            back_upper = cayley_to_siegel(cayley_to_bounded(upper))
            worst = max(worst, max_abs(back_upper.z - upper.z) / max(1.0, max_abs(upper.z)))
    ok = worst <= CAYLEY_TOL
    _report(
        f"criterion 7 (Cayley round trip): {'PASS' if ok else 'FAIL'} "
        f"max residual {worst:.3e} over 200 points x g in (1,2,3,5)"
    )
    assert worst <= CAYLEY_TOL


def test_criterion_8_enumeration_oracle():
    observed = {}
    expected = {}
    for n in range(1, 6):
        _, minimal_g = enumerate_specs(n, SWEEP_BUDGET)
        observed[n] = minimal_g
        expected[n] = _oracle_minimal_genus(n)
    ok = observed == expected and observed[2] == 3 and observed[5] == 6
    _report(
        f"criterion 8 (enumeration oracle): {'PASS' if ok else 'FAIL'} "
        f"minimal genus {observed}"
    )
    assert observed == expected
    assert observed[2] == 3
    assert observed[5] == 6


def test_criterion_9_determinism(tmp_path):
    import json

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "source_dim": 2,
                "target_g": 3,
                "factors": [{"kind": "connecting_lambda", "m": 1}],
            }
        ),
        encoding="utf-8",
    )
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    args = ["verify", "--spec", str(spec_path), "--seed", str(SEED % 2**32)]
    assert main(args + ["--report", str(first)]) == 0
    assert main(args + ["--report", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    _report(f"criterion 9 (determinism): {'PASS' if ok else 'FAIL'} byte-identical reports")
    assert ok


# --- Moonen's special families of cyclic covers of P^1 (criterion 10): the
# --- classes (m; a) satisfying (*) for m <= 12 and N <= 8 branch points,
# --- each with its genus and its ball as the standard factor that embeds it
# --- and the ball's dimension, None for (2; 1^6), which is all of A_2.
MOONEN_FAMILIES = [
    (2, (1, 1, 1, 1), 1, ("standard_III", 1)),
    (2, (1, 1, 1, 1, 1, 1), 2, None),
    (3, (1, 1, 2, 2), 2, ("standard_I", 1)),
    (3, (1, 1, 1, 1, 2), 3, ("standard_I", 2)),
    (3, (1, 1, 1, 1, 1, 1), 4, ("standard_I", 3)),
    (4, (1, 1, 1, 1), 3, ("standard_III", 1)),
    (4, (1, 2, 2, 3), 2, ("standard_I", 1)),
    (4, (1, 1, 2, 2, 2), 3, ("standard_I", 2)),
    (5, (1, 1, 1, 2), 4, ("standard_I", 1)),
    (5, (1, 1, 1, 1, 1), 6, ("standard_I", 2)),
    (6, (1, 1, 1, 3), 4, ("standard_III", 1)),
    (6, (1, 1, 2, 2), 4, ("standard_I", 1)),
    (6, (1, 3, 4, 4), 3, ("standard_I", 1)),
    (6, (2, 3, 3, 4), 2, ("standard_I", 1)),
    (6, (2, 2, 2, 3, 3), 4, ("standard_I", 2)),
    (7, (1, 1, 1, 4), 6, ("standard_I", 1)),
    (8, (1, 1, 2, 4), 5, ("standard_I", 1)),
    (9, (1, 1, 1, 6), 7, ("standard_I", 1)),
    (10, (1, 2, 2, 5), 6, ("standard_I", 1)),
    (12, (1, 1, 4, 6), 7, ("standard_I", 1)),
]


def test_criterion_10_moonen_cyclic_covers():
    # Chevalley-Weil against Riemann-Hurwitz on every class in the range,
    # then Moonen's twenty families, of which nineteen are balls: each ball's
    # spec fits in the family's genus, passes verify there, and enumerate's
    # minimal genus for its source dimension is at most that genus.
    found, classes = [], 0
    for m, a in cyclic_covers.classes(12, 8):
        classes += 1
        g = cyclic_covers.genus(m, a)
        assert sum(cyclic_covers.eigenspace_dims(m, a).values()) == g, (m, a)
        if cyclic_covers.special(m, a):
            found.append((m, a, g, cyclic_covers.ball(m, a)))
    assert found == MOONEN_FAMILIES
    config = HarnessConfig(samples=50, seed=SEED % 2**32)
    balls = 0
    for m, a, g, ball in MOONEN_FAMILIES:
        if ball is None:
            continue
        kind, n = ball
        spec = EmbeddingSpec(n, (FactorSpec(FactorKind(kind), n, 1),), g)
        assert spec.cost <= g
        assert run_verification(spec, config).passed, (m, a)
        assert enumerate_specs(n, g)[1] <= g, (m, a)
        balls += 1
    ok = balls == 19
    _report(
        f"criterion 10 (Moonen's cyclic covers): {'PASS' if ok else 'FAIL'} "
        f"{len(found)} special families among {classes} classes, {balls} balls verified"
    )
    assert ok


def test_infinitesimal_origin_consistency():
    # integrated and infinitesimal metrics agree to first order at 0
    z = ball_point([1e-6, 0.0])
    assert kobayashi_distance(ball_point([0.0, 0.0]), z) == pytest.approx(1e-6, rel=1e-6)


def test_zero_point_embeds_to_zero_matrix_everywhere(sweep):
    for n, data in sweep["per_n"].items():
        zero = ball_point(np.zeros(n, dtype=complex))
        for spec in data["specs"][:5]:
            assert max_abs(direct_sum_embed(spec, zero).z) == 0.0
