"""Property suites driven by seeded sampling.

Each suite draws its samples from an independent, counter-based stream
derived from the configured seed, evaluates one family of claims about an
embedding spec, and reports the worst residual together with the sample
that produced it (serialized so it can be replayed through the CLI).
Suites run in canonical order and reduce deterministically: ties on the
maximum residual keep the earliest sample (:func:`_earliest_max`; the
isometry suite keeps the first of its largest gaps, and the membership
suite the earliest minimum margin).  The six sampled suites draw all
their samples first, in stream order, as (samples, N) coordinate rows
(:func:`~siegelmaps.sampling.sample_ball_coords`), check each row once,
so that a sample on or outside the sphere is named by its index in the
suite (for isometry, its pair), and evaluate them on slices of up to
1 MiB of factor blocks (``embeddings._STACK_ENTRIES``; 256 KiB in
isometry's distance kernel).  Only the isometry suite wraps its rows in
ball points, for the public
:func:`~siegelmaps.retractions.isometry_sandwich`.  The
retraction, membership, symmetry and isometry suites carry each image as
one block ``A_f z`` per distinct factor
(:func:`~siegelmaps.embeddings._embed_blocks`), never as a zero-padded
g x g matrix: the retraction counts a block once per copy, and a repeat
would change no other suite's largest residual or smallest margin.  They
slice by block entries: one stacked embed and retract per slice, one
wedge kernel call per slice for the distinct factors, one eigensolve per
block size and slice for the image margins, and for
:func:`~siegelmaps.retractions.isometry_sandwich` one distance kernel pass
per block size and slice and one ball distance call over all pairs for
each ball side.  The linearity suite compares the distinct factors'
constructions with the compiled blocks too, at linearize's check
points and its samples in one stack, and checks the padding of the
one-point :func:`~siegelmaps.embeddings.direct_sum_embed` once, on a
probe.  A suite that raises a package error becomes a failed result that
names the error.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .domains import (
    BallPoint,
    DomainPoint,
    _asymmetries,
    _block_margins,
    _contraction_grams,
    _diagonal_blocks,
    type_i_shape,
)
from .embeddings import (
    _STACK_ENTRIES,
    EmbeddingSpec,
    FactorKind,
    _block_entries,
    _embed_blocks,
    _interior_rows,
    _linearization,
    _point_slices,
    _wedge_blocks,
)
from .errors import NonlinearityDetected, SiegelmapsError
from .exterior import _basis_rows, _subset_units, signature
from .linalg import singular_values
from .report import SUITE_NAMES, HarnessConfig, Report, SuiteResult
from .retractions import _retract_blocks, isometry_sandwich
from .sampling import _ball_draws, _scaled_rows, generator, sample_ball_coords, sample_phases
from .serialize import point_to_json

__all__ = ["run_suite", "run_verification"]

# Stable stream offsets per suite; keeps samples independent across suites.
_STREAMS = {name: i + 1 for i, name in enumerate(SUITE_NAMES)}

_SIGNATURE_TABLE_MAX_P = 6


def _ball_json(row: np.ndarray) -> dict:
    """A sample's coordinate row as the type I column the CLI reads."""
    return point_to_json(DomainPoint(type_i_shape(len(row), 1), row.reshape(-1, 1)))


def _draw(name: str, spec: EmbeddingSpec, config: HarnessConfig) -> np.ndarray:
    """A suite's samples, drawn from its own stream as (samples, N)
    coordinate rows, not yet checked."""
    rng = generator(config.seed, _STREAMS[name])
    return sample_ball_coords(rng, spec.source_dim, config.samples, config.radius_cap)


def _earliest_max(name: str, residuals, coords, bound: float, passed: bool = True, detail=None) -> SuiteResult:
    """A suite's result: its largest residual, the earliest sample that
    attains it as the worst input (``argmax`` keeps the first), and a pass
    if ``passed`` holds and the largest residual is within ``bound``."""
    i = int(np.argmax(residuals))
    worst = float(residuals[i])
    return SuiteResult(name, passed and worst <= bound, len(residuals), worst, _ball_json(coords[i]), detail)


def _format_unit(value: complex) -> str:
    value = complex(value)
    table = {(1, 0): "1", (-1, 0): "-1", (0, 1): "i", (0, -1): "-i"}
    key = (round(value.real), round(value.imag))
    if key in table and abs(value - complex(*key)) < 1e-12:
        return table[key]
    return repr(value)


def _suite_retraction(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    tol = config.tol
    coords = _interior_rows(_draw("retraction", spec, config), tol)
    residuals = np.empty(config.samples)
    for part in _point_slices(config.samples, _block_entries(spec), _STACK_ENTRIES):
        back = _retract_blocks(spec, _embed_blocks(spec, coords[part]))
        residuals[part] = np.abs(back - coords[part]).max(axis=1)
    return _earliest_max("retraction", residuals, coords, 10.0 * tol.eq_tol)


def _suite_membership(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    tol = config.tol
    coords = _interior_rows(_draw("membership", spec, config), tol)
    margins, inside = [], []
    for part in _point_slices(config.samples, _block_entries(spec), _STACK_ENTRIES):
        blocks = _embed_blocks(spec, coords[part])
        # The test of membership() on the images' exact diagonal blocks, one
        # eigensolve per block size for the slice.
        groups = _diagonal_blocks([block[np.newaxis] for block in blocks])
        image_margins = _block_margins([_contraction_grams(group[0]) for group in groups], len(blocks[0]))
        symmetric = reduce(np.maximum, [_asymmetries(block) for block in blocks]) <= tol.eq_tol
        backs = _retract_blocks(spec, blocks)
        for back, image_margin, image_symmetric in zip(backs, image_margins.tolist(), symmetric):
            # The norm of BallPoint, with its bits.
            back_margin = 1.0 - float(np.linalg.norm(back)) ** 2
            margins.append(min(image_margin, back_margin))
            inside.append(image_symmetric and image_margin > tol.psd_margin and back_margin > tol.psd_margin)
    min_margin = min(margins)
    residual = max(0.0, tol.psd_margin - float(min_margin))
    return SuiteResult(
        "membership",
        all(inside),
        config.samples,
        residual,
        _ball_json(coords[margins.index(min_margin)]),
        detail=f"violations={inside.count(False)}, min_margin={min_margin!r}",
    )


def _suite_isometry(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    rng = generator(config.seed, _STREAMS["isometry"])
    tol = config.tol
    # Each pair is drawn as two consecutive rows, x then y.
    rows = sample_ball_coords(rng, spec.source_dim, 2 * config.samples, config.radius_cap)
    xs, ys = [BallPoint(row) for row in rows[0::2]], [BallPoint(row) for row in rows[1::2]]
    source, target, retracted = isometry_sandwich(spec, xs, ys, tol)
    gaps = np.maximum(np.abs(source - target), np.abs(source - retracted)).tolist()
    worst = max(gaps)
    i = gaps.index(worst)
    worst_input = {"x": _ball_json(xs[i].coords), "y": _ball_json(ys[i].coords)}
    return SuiteResult("isometry", worst <= 10.0 * tol.eq_tol, config.samples, worst, worst_input)


def _suite_signature(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    checked = 0
    mismatches = []
    for p in range(1, _SIGNATURE_TABLE_MAX_P + 1):
        for m in range(1, p + 1):
            # The induced pairing is +1 exactly on the members without row p.
            positives, negatives, _ = _basis_rows(p, m)
            plus, minus = len(positives), len(negatives)
            checked += 1
            if (plus, minus) != signature(p, m):
                mismatches.append((p, m, plus, minus))
    return SuiteResult(
        "signature",
        not mismatches,
        checked,
        0.0 if not mismatches else 1.0,
        detail=None if not mismatches else f"mismatches={mismatches}",
    )


def _suite_symmetry(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    tol = config.tol
    # Not standard_III's wedge block: 1 x 1, so symmetric by its shape.
    models = sorted({f.wedge_model for f in spec.factors if f.kind is FactorKind.LAMBDA_III})
    coords = _interior_rows(_draw("symmetry", spec, config), tol)
    residuals = np.empty(config.samples)
    for part in _point_slices(config.samples, _block_entries(spec), _STACK_ENTRIES):
        # The images' entries off their factor blocks are zero, so the
        # largest |Z - Z^t| over the blocks is that over the whole image.
        blocks = _embed_blocks(spec, coords[part])
        residuals[part] = reduce(np.maximum, [_asymmetries(block) for block in blocks])
        for wedge in _wedge_blocks(coords[part], models, tol):
            np.maximum(residuals[part], _asymmetries(wedge), out=residuals[part])
    return _earliest_max("symmetry", residuals, coords, 10.0 * tol.eq_tol)


def _suite_linearity(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    tol = config.tol
    coords = _draw("linearity", spec, config)
    try:
        # linearize, and the samples' images of the compiled map against the
        # factor constructions in the same stack: checking the compiled map
        # against its own matrices would check nothing.
        matrix, residuals = _linearization(spec, tol, config.seed, coords)
    except NonlinearityDetected as exc:
        return SuiteResult("linearity", False, 0, None, detail=str(exc))
    sv = singular_values(matrix)
    rank = int(np.sum(sv > tol.eq_tol * max(1.0, float(sv[0]))))
    detail = f"rank={rank}, expected={spec.source_dim}"
    return _earliest_max("linearity", residuals, coords, tol.eq_tol, rank == spec.source_dim, detail)


def _content_products(theta: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per row of an index table, the product of the phases it indexes,
    multiplied from 1 left to right, for a (..., p) phase stack.  Each
    product is spelled out in real arithmetic, (a + bi)(c + di) =
    (ac - bd) + (ad + bc)i, which has the bits of a scalar complex product;
    numpy's complex array multiply may round differently."""
    shape = theta.shape[:-1] + (len(table),)
    real, imag = np.ones(shape), np.zeros(shape)
    for column in table.T:
        c, d = theta[..., column].real, theta[..., column].imag
        real, imag = real * c - imag * d, real * d + imag * c
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = real, imag
    return out


def _induced_phases(p: int, m: int, symmetric: bool, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row and per-column phases matching a diagonal phase action on z,
    for a (p,) phase vector or for each row of a (B, p) stack."""
    positives, negatives, _ = _basis_rows(p, m)
    col_phases = _content_products(theta, negatives)
    if symmetric:
        row_phases = np.prod(theta, axis=-1, keepdims=True) / col_phases
    else:
        row_phases = _content_products(theta, positives)
    return row_phases, col_phases


def _suite_equivariance(spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    rng = generator(config.seed, _STREAMS["equivariance"])
    tol = config.tol
    # The wedge kinds only: the standard factors' degree-1 models would
    # change the report bytes, which waits for report schema v2.
    wedge_kinds = (FactorKind.CONNECTING_LAMBDA, FactorKind.LAMBDA_III)
    models = sorted({f.wedge_model for f in spec.factors if f.kind in wedge_kinds})
    if not models:
        return SuiteResult("equivariance", True, 0, 0.0, detail="no wedge factors in spec")
    n = spec.source_dim
    normals, radii = np.empty((config.samples, 2 * n)), np.empty(config.samples)
    phases = np.empty((config.samples, n), dtype=np.complex128)
    for i in range(config.samples):
        # Each sample's phases are drawn right after its row.
        normals[i], radii[i] = _ball_draws(rng, n)
        phases[i] = sample_phases(rng, n)
    base_coords = _interior_rows(_scaled_rows(normals, radii, config.radius_cap), tol)
    # Row by row, with the bits of a one-point product.
    moved_coords = _interior_rows(np.array([t * row for row, t in zip(base_coords, phases)]), tol)
    residuals = np.zeros(config.samples)
    for part in _point_slices(config.samples, 2 * _block_entries(spec), _STACK_ENTRIES):
        # Base and rotated points of the slice in one stack.
        stack = np.concatenate([base_coords[part], moved_coords[part]])
        count = len(stack) // 2
        for (m, symmetric), blocks in zip(models, _wedge_blocks(stack, models, tol)):
            row_phases, col_phases = _induced_phases(spec.source_dim, m, symmetric, phases[part])
            expected = row_phases[:, :, np.newaxis] * blocks[:count] * np.conj(col_phases)[:, np.newaxis, :]
            np.maximum(residuals[part], np.abs(blocks[count:] - expected).max(axis=(1, 2)), out=residuals[part])
    return _earliest_max("equivariance", residuals, base_coords, 10.0 * tol.eq_tol)


_SUITE_RUNNERS = {
    "retraction": _suite_retraction,
    "membership": _suite_membership,
    "isometry": _suite_isometry,
    "signature": _suite_signature,
    "symmetry": _suite_symmetry,
    "linearity": _suite_linearity,
    "equivariance": _suite_equivariance,
}


def run_suite(name: str, spec: EmbeddingSpec, config: HarnessConfig) -> SuiteResult:
    """Run one suite; a package error it raises becomes a failed result
    with no residual, naming the error."""
    try:
        return _SUITE_RUNNERS[name](spec, config)
    except SiegelmapsError as exc:
        return SuiteResult(name, False, 0, None, detail=f"raised {type(exc).__name__}: {exc}")


def _conjugation_notes(spec: EmbeddingSpec) -> dict:
    """Measured conjugation units for every wedge degree the spec uses.

    The basis conjugation multiplies e_M by a unit in {i, -i}; applying it
    twice multiplies by the recorded square unit.  The values are reported
    as measured, never normalized away.
    """
    notes = {}
    degrees = sorted({(f.p, f.m) for f in spec.factors if f.kind is not FactorKind.STANDARD_III})
    for p, m in degrees:
        units = _subset_units(p, m)
        # The complements of the lexicographic m-subsets are the
        # (p+1-m)-subsets in reverse order; the square is conj(a(M)) * a(M^c).
        squares = np.conj(units) * _subset_units(p, p + 1 - m)[::-1]
        notes[f"p={p},m={m}"] = {
            key: sorted({_format_unit(value) for value in set(values.tolist())})
            for key, values in (("units", units), ("squared", squares))
        }
    return notes


def run_verification(spec: EmbeddingSpec, config: HarnessConfig) -> Report:
    """Run the configured suites against a spec and assemble the report."""
    results = tuple(run_suite(name, spec, config) for name in config.suites)
    return Report(spec, config, results, {"conjugation": _conjugation_notes(spec)})
