"""The closed-form certificate of the wedge oracle's normalization solve.

The negative block Y of the degree-m wedge construction is I - dG(z z*)
on the (m-1)-th exterior power of C^p, so its singular values are 1 and
1 - |z|^2.  ``embeddings._negative_block_bounds`` turns that into proven
bounds on the computed block, and where they clear a stack the oracle
solves only its X rows, with no condition certificate.  Everywhere else it
takes ``solve_right`` as before.  Either way every block, residual, report
byte and message must be the one ``solve_right`` gives, which is forced
here by making the certificate clear nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
from math import comb

import numpy as np
import pytest

from siegelmaps import DEFAULT_TOLERANCE, embeddings, harness
from siegelmaps.cli import main
from siegelmaps.embeddings import _negative_block_bounds, _wedge_blocks, _wedge_coefficients
from siegelmaps.errors import NormalizationSingular
from siegelmaps.exterior import balanced_symmetric, signature
from siegelmaps.linalg import _certified, solve_right
from siegelmaps.sampling import generator, sample_ball_coords
from siegelmaps.serialize import spec_to_json
from test_block_groups import G60_SPEC


def _clears_nothing(hi, lo, order, tol):
    return np.zeros(np.shape(lo), dtype=bool)


def _rows_at(coords: np.ndarray, gap: float) -> np.ndarray:
    """The rows scaled to 1 - |z|^2 = gap."""
    norms = np.linalg.norm(coords, axis=1, keepdims=True)
    return coords * (np.sqrt(1.0 - gap) / norms)


def _models(p: int, m: int) -> list[tuple[int, bool]]:
    return [(m, False), (m, True)] if balanced_symmetric(p, m) else [(m, False)]


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
def test_rows_near_the_sphere_take_the_fallback_with_its_bits(p, m, monkeypatch):
    # At 1 - |z|^2 = 1e-9 the rows pass the ball check, but their bounds
    # do not clear: a stack holding them goes through solve_right, with its
    # bits.  The stack of the first two rows alone clears and solves its X
    # rows alone, with the same bits; (9, 5), with s = 126, never clears.
    tol = DEFAULT_TOLERANCE
    rng = generator(252, p)
    coords = sample_ball_coords(rng, p, 5)
    coords[2:4] = _rows_at(coords[2:4], 1e-9)
    embeddings._interior_rows(coords, tol)
    r, s = signature(p, m)
    assert not _certified(*_negative_block_bounds(coords, m, s), s, tol)[2:4].any()
    calls = []
    solved = embeddings.solve_right

    def counting(a, b, tol):
        calls.append(a.shape)
        return solved(a, b, tol)

    monkeypatch.setattr(embeddings, "solve_right", counting)
    models = _models(p, m)
    for rows in (coords, coords[:2]):
        calls.clear()
        blocks = _wedge_blocks(rows, models, tol)
        coefficients = _wedge_coefficients(rows, m)
        x_rows = [coefficients[:, :r, :]]
        if (m, True) in models:
            x_rows.append(coefficients[:, r - 1 :: -1, :] / embeddings._conjugation_units(p, m)[:, np.newaxis])
        reference = solve_right(np.concatenate(x_rows, axis=1), coefficients[:, r:, :], tol)
        assert [block.tobytes() for block in blocks] == [
            np.ascontiguousarray(reference[:, i * r : (i + 1) * r]).tobytes() for i in range(len(models))
        ]
        cleared = s <= 38 and len(rows) == 2
        assert calls == ([] if cleared else [(len(rows), len(models) * r, s)])


def test_an_ill_conditioned_member_keeps_its_message():
    # The caller validates the points; a row at 1 - |z|^2 = 1e-12 is not
    # inside the ball check, and its block's condition number, 1e12,
    # fails solve_right's test, naming the member.
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
def test_verify_reports_do_not_depend_on_the_certificate(seed, tmp_path, monkeypatch):
    # The paper's N = 5 spec at g = 60: the same exit code, stdout and
    # report bytes with the certificate as with every solve through
    # solve_right.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(G60_SPEC)))
    options = ("--samples", "8", "--seed", str(seed))
    cleared = _verify(spec_path, tmp_path / "cleared.json", *options)
    monkeypatch.setattr(embeddings, "_certified", _clears_nothing)
    assert _verify(spec_path, tmp_path / "fallback.json", *options) == cleared
    assert cleared[0] == 0


def test_a_sample_at_a_radius_cap_near_one_takes_the_fallback(tmp_path, monkeypatch):
    # --radius-cap sqrt(1 - 1e-9), with the first sample of each suite put
    # at the cap: the stacks holding it take solve_right, the others clear,
    # and the run's exit code, stdout and report bytes are those of every
    # stack through solve_right.
    draw = harness._draw

    def first_at_the_cap(name, spec, config):
        coords = draw(name, spec, config)
        coords[:1] *= config.radius_cap / np.linalg.norm(coords[0])
        return coords

    monkeypatch.setattr(harness, "_draw", first_at_the_cap)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(G60_SPEC)))
    options = ("--samples", "20", "--seed", "4", "--radius-cap", repr(float(np.sqrt(1.0 - 1e-9))))
    calls = []
    solved = embeddings.solve_right

    def counting(a, b, tol):
        calls.append(len(a))
        return solved(a, b, tol)

    monkeypatch.setattr(embeddings, "solve_right", counting)
    cleared = _verify(spec_path, tmp_path / "cleared.json", *options)
    # The row is in symmetry's first slice, of degree 3 only, and in the
    # slice of linearity's stack after its 50 check points, of degrees 2,
    # 3 and 4; the equivariance suite draws its own rows.
    assert calls == [17] * 4
    monkeypatch.setattr(embeddings, "_certified", _clears_nothing)
    assert _verify(spec_path, tmp_path / "fallback.json", *options) == cleared


def test_the_g60_oracle_solves_only_the_x_rows(monkeypatch):
    # Each degree's solve takes its r or 2r X rows as right-hand sides,
    # where solve_right also took an identity block of s columns, and no
    # SVD runs.
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
