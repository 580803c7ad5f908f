"""The closed-form condition test of the wedge oracle's normalization solve.

The negative block Y of the degree-m wedge construction is I - dG(z z*)
on the (m-1)-th exterior power of C^p, so its singular values are 1 and
1 - |z|^2.  ``embeddings._negative_block_bounds`` turns that into proven
bounds hi and lo on the computed block, and a row with
lo > psd_margin * hi provably passes the exact condition test: the oracle
solves only its X rows, with no SVD.  Rows the bounds do not clear take one
SVD of their blocks.  Either way every block, residual, report byte and
message must be those of the SVD-only solve ``svd_solve_right``; the
fallback is forced here by making the bounds NaN.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import comb

import numpy as np
import pytest

from siegelmaps import DEFAULT_TOLERANCE, EmbeddingSpec, FactorKind, FactorSpec, embeddings, harness
from siegelmaps.cli import main
from siegelmaps.embeddings import _negative_block_bounds, _wedge_blocks, _wedge_coefficients
from siegelmaps.errors import NormalizationSingular
from siegelmaps.exterior import balanced_symmetric, signature
from siegelmaps.sampling import generator, sample_ball_coords
from siegelmaps.serialize import spec_to_json
from svd_solve import svd_solve_right
from test_block_groups import G60_SPEC
from test_certified import svd_calls  # noqa: F401 - a fixture

# The spec whose blocks, of order 126, are the largest the bounds clear.
G126_SPEC = EmbeddingSpec(9, (FactorSpec(FactorKind.LAMBDA_III, 9, 5),), 126)


def _no_bounds(coords, m, s):
    """NaN bounds, which clear no row."""
    return np.nan, np.full(len(coords), np.nan)


def _cleared(coords: np.ndarray, m: int, s: int) -> np.ndarray:
    hi, lo = _negative_block_bounds(coords, m, s)
    return lo > DEFAULT_TOLERANCE.psd_margin * hi


def _rows_at(coords: np.ndarray, gap: float) -> np.ndarray:
    """The rows scaled to 1 - |z|^2 = gap."""
    norms = np.linalg.norm(coords, axis=1, keepdims=True)
    return coords * (np.sqrt(1.0 - gap) / norms)


def _models(p: int, m: int) -> list[tuple[int, bool]]:
    return [(m, False), (m, True)] if balanced_symmetric(p, m) else [(m, False)]


def _reference(coords: np.ndarray, m: int, models) -> list[bytes]:
    """The bytes of each model's blocks, solved by ``svd_solve_right``."""
    p = coords.shape[1]
    r, _ = signature(p, m)
    coefficients = _wedge_coefficients(coords, m)
    x_rows = [coefficients[:, :r, :]]
    if (m, True) in models:
        x_rows.append(coefficients[:, r - 1 :: -1, :] / embeddings._conjugation_units(p, m)[:, np.newaxis])
    solved = svd_solve_right(np.concatenate(x_rows, axis=1), coefficients[:, r:, :], DEFAULT_TOLERANCE)
    return [np.ascontiguousarray(solved[:, i * r : (i + 1) * r]).tobytes() for i in range(len(models))]


def _blocks(coords: np.ndarray, models) -> list[bytes]:
    return [block.tobytes() for block in _wedge_blocks(coords, models, DEFAULT_TOLERANCE)]


def test_negative_blocks_have_singular_values_one_and_one_minus_the_squared_norm():
    # For every p <= 9 and every degree, at radii up to 1 - 1e-6: every
    # singular value of the computed block is within d of 1 or of
    # 1 - |z|^2, the largest within d of 1 and, for m > 1, the smallest
    # within d of 1 - |z|^2; and the bounds hold.
    rng = generator(251, 0)
    for p in range(1, 10):
        coords = sample_ball_coords(rng, p, 12, 0.999)
        coords[:4] = _rows_at(coords[:4], 2e-6)
        squares = np.sum(np.abs(coords) ** 2, axis=1)
        for m in range(1, p + 1):
            r, s = signature(p, m)
            hi, lo = _negative_block_bounds(coords, m, s)
            slack = hi - 1.0
            assert 0.0 < slack < 1e-9
            values = np.linalg.svd(_wedge_coefficients(coords, m)[:, r:, :], compute_uv=False)
            near = np.minimum(np.abs(values - 1.0), np.abs(values - (1.0 - squares)[:, np.newaxis]))
            assert near.max() <= slack, (p, m)
            assert np.abs(values[:, 0] - 1.0).max() <= slack, (p, m)
            if m > 1:
                assert np.abs(values[:, -1] - (1.0 - squares)).max() <= slack, (p, m)
            assert (values[:, 0] <= hi).all() and (values[:, -1] >= lo).all(), (p, m)


@pytest.mark.parametrize("p, m", [(2, 2), (5, 3), (5, 2), (9, 5)])
def test_rows_near_the_sphere_take_the_fallback_with_its_bits(p, m, svd_calls):
    # At 1 - |z|^2 = 1e-9 the rows pass the ball check, and the bounds clear
    # them, also at (9, 5), where s = 126: the X rows are solved with no
    # SVD.  Made to take the SVD fallback, with NaN bounds, the stack and the
    # stack of its first two rows give the same bits, those of
    # svd_solve_right.
    coords = sample_ball_coords(generator(252, p), p, 5)
    coords[2:4] = _rows_at(coords[2:4], 1e-9)
    embeddings._interior_rows(coords, DEFAULT_TOLERANCE)
    _, s = signature(p, m)
    assert _cleared(coords, m, s).all()
    models = _models(p, m)
    for rows in (coords, coords[:2]):
        svd_calls.clear()
        blocks = _blocks(rows, models)
        assert svd_calls == []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "_negative_block_bounds", _no_bounds)
            assert _blocks(rows, models) == blocks
        assert svd_calls == [(len(rows), s, s)]
        assert blocks == _reference(rows, m, models)


def test_rows_at_the_edge_of_the_ball_check_clear_for_every_degree_up_to_p_9(svd_calls):
    # Rows at |z| = (1 - psd_margin)(1 - 4 eps), just inside the ball check,
    # for every p <= 9 and every degree m: the bounds clear them and no SVD
    # runs, except at (9, 7) and (9, 8), where d is about 1.1e-10 and
    # 1.25e-10 and the rows take the SVD fallback.  Every block has the bits
    # of svd_solve_right.
    tol = DEFAULT_TOLERANCE
    radius = (1.0 - tol.psd_margin) * (1.0 - 4.0 * np.finfo(float).eps)
    fallbacks = []
    for p in range(1, 10):
        coords = sample_ball_coords(generator(255, p), p, 3)
        coords *= radius / np.linalg.norm(coords, axis=1, keepdims=True)
        embeddings._interior_rows(coords, tol)
        for m in range(1, p + 1):
            _, s = signature(p, m)
            models = _models(p, m)
            cleared = _cleared(coords, m, s)
            svd_calls.clear()
            blocks = _blocks(coords, models)
            if svd_calls:
                fallbacks.append((p, m))
                assert svd_calls == [(3, s, s)] and not cleared.any()
            else:
                assert cleared.all()
            assert blocks == _reference(coords, m, models), (p, m)
    assert fallbacks == [(9, 7), (9, 8)]


def test_an_ill_conditioned_member_keeps_its_message():
    # The caller validates the points; a row at 1 - |z|^2 = 1e-12 is not
    # inside the ball check, and its block's condition number, 1e12,
    # fails the SVD condition test, naming the member.
    coords = sample_ball_coords(generator(253, 0), 5, 3)
    coords[1:2] = _rows_at(coords[1:2], 1e-12)
    with pytest.raises(NormalizationSingular) as raised:
        _wedge_blocks(coords, [(3, False)], DEFAULT_TOLERANCE)
    assert str(raised.value) == "negative block not invertible: matrix 1: condition number exceeds 1.000e+10"


def _verify(spec_path, report_path, *options: str) -> tuple[int, str, bytes]:
    argv = ["verify", "--spec", str(spec_path), "--report", str(report_path), *options]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue(), report_path.read_bytes()


@pytest.mark.parametrize("seed", [0, 3])
def test_verify_reports_do_not_depend_on_the_certificate(seed, tmp_path):
    # The paper's N = 5 spec at g = 60 and lambda_III(9, 5) at g = 126: the
    # same exit code, stdout and report bytes with the closed-form test as
    # with every row through the SVD fallback.
    options = ("--samples", "8", "--seed", str(seed))
    for spec in (G60_SPEC, G126_SPEC):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json(spec)))
        cleared = _verify(spec_path, tmp_path / "cleared.json", *options)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "_negative_block_bounds", _no_bounds)
            assert _verify(spec_path, tmp_path / "fallback.json", *options) == cleared
        assert cleared[0] == 0


def test_a_sample_at_a_radius_cap_near_one_clears_with_the_fallback_bytes(tmp_path, monkeypatch):
    # --radius-cap sqrt(1 - 1e-9), with the first sample of each suite put
    # at the cap: the bounds clear the stacks holding it, and the run's exit
    # code, stdout and report bytes are those of every row through the SVD
    # fallback.
    draw = harness._draw

    def first_at_the_cap(name, spec, config):
        coords = draw(name, spec, config)
        coords[:1] *= config.radius_cap / np.linalg.norm(coords[0])
        return coords

    bounds = embeddings._negative_block_bounds
    near = []

    def recording(coords, m, s):
        hi, lo = bounds(coords, m, s)
        if (1.0 - np.sum(np.abs(coords) ** 2, axis=1)).min() < 2e-9:
            near.append((len(coords), bool((lo > DEFAULT_TOLERANCE.psd_margin * hi).all())))
        return hi, lo

    monkeypatch.setattr(harness, "_draw", first_at_the_cap)
    monkeypatch.setattr(embeddings, "_negative_block_bounds", recording)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(G60_SPEC)))
    options = ("--samples", "20", "--seed", "4", "--radius-cap", repr(float(np.sqrt(1.0 - 1e-9))))
    cleared = _verify(spec_path, tmp_path / "cleared.json", *options)
    # The row is in symmetry's first slice, of degree 3 only, and in the
    # slice of linearity's stack that holds it after the check points, of
    # degrees 2, 3 and 4; the equivariance suite draws its own rows.
    entries = embeddings._block_entries(G60_SPEC)

    def slice_holding(count, i):
        slices = embeddings._point_slices(count, entries, embeddings._STACK_ENTRIES)
        (width,) = [len(range(count)[part]) for part in slices if i in range(count)[part]]
        return width

    checks = embeddings._CHECK_POINTS
    assert near == [(slice_holding(20, 0), True)] + [(slice_holding(checks + 20, checks), True)] * 3
    monkeypatch.setattr(embeddings, "_negative_block_bounds", _no_bounds)
    assert _verify(spec_path, tmp_path / "fallback.json", *options) == cleared


def test_the_g60_oracle_solves_only_the_x_rows(monkeypatch):
    # Each degree's solve takes its r or 2r X rows as right-hand sides, and
    # no SVD runs.
    shapes, svds = [], []
    solve, svd = np.linalg.solve, np.linalg.svd

    def recording_solve(a, b):
        shapes.append((a.shape[-1], b.shape[-1]))
        return solve(a, b)

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    coords = sample_ball_coords(generator(254, 0), 5, 40)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    embeddings._oracle_residuals(G60_SPEC, coords, DEFAULT_TOLERANCE)
    assert svds == []
    # Degrees 2 and 4 hold one model, degree 3 both.
    assert sorted(set(shapes)) == [(5, 10), (10, 5), (10, 20)]
    assert {(s, width) for s, width in shapes} == {
        (comb(5, m - 1), (2 if m == 3 else 1) * comb(5, m)) for m in (2, 3, 4)
    }
