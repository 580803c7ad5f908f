"""The copy plan: each distinct factor applied once per point.

The one-point maps and the suites' stacked kernels are held to the
per-copy loops they replaced (``copy_loops.py``), bit for bit, on specs
with many copies of a factor; a point whose copies do not all retract
into the ball fails with the loops' message.  The stacked kernels carry
one block per distinct factor; copies that disagree, off the image, are
handed to the retraction core one stack per copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from bulk_images import copy_blocks
from copy_loops import copy_flats, embed_blocks_per_copy, embed_per_copy, retract_blocks_per_copy, retract_per_copy
from probe_forms import clear_package_caches
from siegelmaps import (
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    ball_point,
    direct_sum_embed,
    factor_form,
    isometry_sandwich,
    retract_direct_sum,
    type_iii_shape,
)
from siegelmaps import embeddings, retractions
from siegelmaps.embeddings import _copy_plan, _embed_blocks, block_layout
from siegelmaps.errors import IllConditioned
from siegelmaps.retractions import _retract_blocks, _retract_copies, _sum_from_zero
from siegelmaps.sampling import generator, sample_ball_point, sample_type_iii

CL = FactorKind.CONNECTING_LAMBDA
SI = FactorKind.STANDARD_I
SPECS = {
    # 40 copies of one 1 x 1 block, nothing else.
    "N1-40-standard_III": EmbeddingSpec(1, (FactorSpec(FactorKind.STANDARD_III, 1, 1),) * 40, 40),
    # Ten 3 x 3 blocks, padded by two.
    "N2-10-connecting": EmbeddingSpec(2, (FactorSpec(CL, 2, 1),) * 10, 32),
    # One copy of a factor, then three, two and two copies of others, padded
    # by two.
    "N3-mixed": EmbeddingSpec(
        3,
        (FactorSpec(CL, 3, 1),)
        + (FactorSpec(CL, 3, 2),) * 3
        + (FactorSpec(CL, 3, 3),) * 2
        + (FactorSpec(SI, 3, 1),) * 2,
        40,
    ),
}


def _points(n: int) -> list:
    """Random points, the origin, and points on each axis, real and
    imaginary, of both signs: the last carry signed zeros."""
    rng = generator(700, n)
    axes = [sign * scale * np.eye(n)[k] for k in range(n) for sign in (1, -1) for scale in (0.5, 0.5j)]
    return [sample_ball_point(rng, n) for _ in range(5)] + [ball_point(np.zeros(n))] + [ball_point(a) for a in axes]


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_one_point_maps_equal_the_per_copy_loops(spec):
    for z in _points(spec.source_dim):
        image = direct_sum_embed(spec, z)
        assert image.z.tobytes() == embed_per_copy(spec, z).tobytes()
        assert retract_direct_sum(image, spec).coords.tobytes() == retract_per_copy(image.z, spec).tobytes()
    # Off the image, where the copies' blocks disagree.
    rng = generator(701, spec.source_dim)
    for _ in range(3):
        point = sample_type_iii(rng, spec.target_g)
        assert retract_direct_sum(point, spec).coords.tobytes() == retract_per_copy(point.z, spec).tobytes()


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_stacked_kernels_equal_the_per_copy_loops(spec):
    coords = np.stack([z.coords for z in _points(spec.source_dim)])
    blocks = _embed_blocks(spec, coords)
    reference = embed_blocks_per_copy(spec, coords)
    # One read-only block per distinct factor, equal to each of its copies.
    assert all(not b.flags.writeable for b in blocks)
    assert [b.tobytes() for b in copy_blocks(spec, coords)] == [b.tobytes() for b in reference]
    assert _retract_blocks(spec, blocks).tobytes() == retract_blocks_per_copy(spec, reference).tobytes()
    # Off the image, the copies of a factor disagree: the core retracts each.
    rng = generator(702, spec.source_dim)
    points = [sample_type_iii(rng, spec.target_g) for _ in range(3)]
    off = [np.stack([p.z[start:stop, start:stop] for p in points]) for _, start, stop in block_layout(spec)]
    assert _retract_copies(spec, copy_flats(spec, off)).tobytes() == retract_blocks_per_copy(spec, off).tobytes()


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_the_verify_path_carries_one_block_per_distinct_factor(spec, monkeypatch):
    distinct = tuple(dict.fromkeys(spec.factors))
    coords = np.stack([z.coords for z in _points(spec.source_dim)[:5]])
    assert len(_embed_blocks(spec, coords)) == len(_copy_plan(spec)) == len(distinct)
    # The oracle builds references for the distinct factors only.
    built = []
    construct = embeddings._factor_blocks

    def counting_factor_blocks(factors, rows, tol):
        built.append(tuple(factors))
        return construct(factors, rows, tol)

    monkeypatch.setattr(embeddings, "_factor_blocks", counting_factor_blocks)
    embeddings.linearize(spec)
    assert built and all(len(set(factors)) == len(factors) for factors in built)
    assert built[-1] == distinct
    # The distance kernel sees one block per distinct factor and pair: the
    # random points have no zero coordinate, so no block splits.
    measured = []
    distances = retractions._matrix_distances

    def counting_distances(groups, count, tol, symmetric, check_inputs=True):
        measured.append(sum(group.shape[2] for group in groups))
        return distances(groups, count, tol, symmetric, check_inputs)

    monkeypatch.setattr(retractions, "_matrix_distances", counting_distances)
    points = _points(spec.source_dim)[:5]
    isometry_sandwich(spec, points, points[::-1])
    assert measured == [len(distinct)]


class _CountingPseudo:
    """A factor's P_f that records how many matrix-vector products each
    product with it takes."""

    def __init__(self, pseudo: np.ndarray, products: list) -> None:
        self.pseudo, self.products = pseudo, products

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        self.products.append(int(np.prod(other.shape[:-2])))
        return self.pseudo @ other


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_copies_that_are_one_array_are_retracted_once(spec, monkeypatch):
    coords = np.stack([z.coords for z in _points(spec.source_dim)])
    blocks = _embed_blocks(spec, coords)
    reference = embed_blocks_per_copy(spec, coords)
    expected = retract_blocks_per_copy(spec, reference).tobytes()
    products = []
    monkeypatch.setattr(
        retractions, "factor_form", lambda factor: (factor_form(factor)[0], _CountingPseudo(factor_form(factor)[1], products))
    )
    assert _retract_blocks(spec, blocks).tobytes() == expected
    # One product per distinct factor and point, not one per copy.
    assert products == [len(coords)] * len(set(spec.factors))
    # Copies given as separate arrays are each retracted, with the same bits.
    products.clear()
    assert _retract_copies(spec, copy_flats(spec, reference)).tobytes() == expected
    assert sum(products) == len(coords) * len(spec.factors)


def test_the_sum_of_the_copies_has_the_bits_of_a_running_total():
    # BLAS matrix-vector products may or may not return -0.0; either way
    # the sum is that of adding each copy in turn to a zero total.
    rng = np.random.default_rng(704)
    values = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 0.1, -0.3])
    for rows in (1, 2, 3, 9, 40):
        for _ in range(200):
            shape = (rows, 2, 3)
            coords = rng.choice(values, shape) + 1j * rng.choice(values, shape)
            coords[:, 0, 0] = complex(-0.0, -0.0)
            total = np.zeros(shape[1:], dtype=np.complex128)
            for row in coords:
                total += row
            assert _sum_from_zero(coords).tobytes() == total.tobytes()


def _message(call) -> str:
    with pytest.raises(IllConditioned) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
def test_a_copy_outside_the_ball_is_named_as_by_the_loops(spec):
    # The third copy of a factor retracts outside the ball, and so, farther
    # out, does the last block: the first failing block in layout order is
    # named, with the loop's norm.
    layout = block_layout(spec)
    k = next(k for k in range(2, len(layout)) if layout[k - 2][0] == layout[k][0])
    z = direct_sum_embed(spec, sample_ball_point(generator(703, 0), spec.source_dim)).z.copy()
    # Adding c A_f e_1 to a block adds c e_1 to what it retracts to.
    for (factor, start, stop), c in ((layout[k], 3.0), (layout[-1], 7.0)):
        z[start:stop, start:stop] += c * factor_form(factor)[0][:, 0].reshape(stop - start, stop - start)
    factor = layout[k][0]
    doctored = DomainPoint(type_iii_shape(spec.target_g), z)
    message = _message(lambda: retract_direct_sum(doctored, spec, verify=False))
    assert message == _message(lambda: retract_per_copy(z, spec))
    assert message.startswith(f"{factor.kind.value} block retracts to norm ")
    # Stacked, as member 1 of three: the same block and the same member.
    clean = direct_sum_embed(spec, sample_ball_point(generator(703, 1), spec.source_dim)).z
    blocks = [np.stack([clean[s:t, s:t], z[s:t, s:t], z[s:t, s:t]]) for _, s, t in layout]
    stacked = _message(lambda: _retract_copies(spec, copy_flats(spec, blocks)))
    assert stacked == _message(lambda: retract_blocks_per_copy(spec, blocks))
    assert stacked == "matrix 1: " + message


def test_clearing_the_package_caches_rebuilds_the_plan():
    spec = SPECS["N3-mixed"]
    z = _points(3)[0]
    first = direct_sum_embed(spec, z).z.tobytes()
    assert _copy_plan.cache_info().currsize >= 1
    clear_package_caches()
    assert _copy_plan.cache_info().currsize == 0
    assert embeddings._copy_offsets.cache_info().currsize == 0
    assert direct_sum_embed(spec, z).z.tobytes() == first
    assert _copy_plan.cache_info().misses == 1
    # One entry per distinct factor, in layout order, indexing every copy;
    # the spec itself holds nothing of it.
    plan = _copy_plan(spec)
    assert [factor for factor, _ in plan] == list(dict.fromkeys(spec.factors))
    assert [len(index) for _, index in plan] == [spec.factors.count(factor) for factor, _ in plan]
    assert set(vars(spec)) == {"source_dim", "factors", "target_g", "cost", "_hash"}
