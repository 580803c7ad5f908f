"""The one-point round trip: embed, classify, retract.

``membership`` is held byte for byte to the version it replaced
(``membership_reference.py``) on every image of the acceptance sweep, on
dense points of III_g and their Siegel images, on rectangular type I
points and on asymmetric, boundary and overflowing points.  Inputs too
large to square or to subtract end in the same errors as before, without a
``RuntimeWarning``.  A lone diagonal piece that forms one block is grouped
as the general path groups it.
"""

from __future__ import annotations

import json
import re
import warnings

import numpy as np
import pytest

import membership_reference
from siegelmaps import (
    DEFAULT_TOLERANCE,
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    ball_point,
    cayley,
    cayley_to_siegel,
    direct_sum_embed,
    enumerate_specs,
    kobayashi_distance,
    membership,
    retract_direct_sum,
    siegel_shape,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps import domains
from siegelmaps.cli import main
from siegelmaps.embeddings import _embed_blocks
from siegelmaps.errors import DimensionMismatch, IllConditioned, MembershipViolation
from siegelmaps.sampling import generator, sample_ball_point, sample_type_iii
from test_interior_certificate import _symmetric_point

TOL = DEFAULT_TOLERANCE
GENERA = (2, 6, 12, 20, 35)
SWEEP_SPECS = [spec for n in range(1, 5) for spec in enumerate_specs(n, 12)[0]]


def _sweep_images() -> list[DomainPoint]:
    """The images the sweep benchmark classifies: two samples per spec."""
    images = []
    for index, spec in enumerate(SWEEP_SPECS):
        rng = generator(1, 1000 + index)
        images += [direct_sum_embed(spec, sample_ball_point(rng, spec.source_dim)) for _ in range(2)]
    return images


def _ambient_points() -> list[DomainPoint]:
    """Dense points of III_g at each ambient genus, and their Siegel images."""
    points = []
    for g in GENERA:
        rng = generator(1, 5000 + g)
        pool = [sample_type_iii(rng, g) for _ in range(24)]
        points += pool + [cayley_to_siegel(x) for x in pool]
    return points


def _rectangular_points() -> list[DomainPoint]:
    rng = generator(81, 0)
    points = []
    for p, q in ((1, 4), (3, 1), (2, 5), (6, 3)):
        z = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        z /= np.linalg.svd(z, compute_uv=False)[0]
        for scale in (0.5, 1.0 - 1e-12, 1.0, 2.0, 1e155, 1e300):
            points.append(DomainPoint(type_i_shape(p, q), z * scale))
    return points


def _edge_points() -> list[DomainPoint]:
    """Asymmetric points, points around the boundary, and points whose
    Grams or Z - Z^t overflow, of both square kinds."""
    rng = generator(82, 0)
    points = []
    for g in (1, 3, 7):
        for margin in (2e-10, 1e-10, 1e-10 * (1 - 1e-6), 0.0, -1e-10, -2e-10):
            points.append(_symmetric_point(rng, g, margin))
        z = sample_type_iii(rng, g).z
        for scale in (1e6, 1.2e154, 1e155, 1e200, 1e300):
            points.append(DomainPoint(type_iii_shape(g), z * scale))
            points.append(DomainPoint(siegel_shape(g), 1j * z * scale))
        if g > 1:
            for defect in (0.5e-9, 1e-9, 2e-9, 0.3, 1.5e308):
                crooked = z.copy()
                crooked[0, -1] += defect
                crooked[-1, 0] -= 1.5e308 if defect == 1.5e308 else 0.0
                points += [DomainPoint(type_iii_shape(g), crooked), DomainPoint(siegel_shape(g), crooked + 2j * np.eye(g))]
    return points


@pytest.mark.parametrize(
    "points", [_sweep_images, _ambient_points, _rectangular_points, _edge_points], ids=lambda f: f.__name__[1:]
)
def test_membership_keeps_the_bits_of_the_reference(points):
    for pt in points():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            old = membership_reference.membership(pt, TOL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = membership(pt, TOL)
        assert (new.status, repr(new.margin), new.reason) == (old.status, repr(old.margin), old.reason)


def _crooked(g: int, kind) -> DomainPoint:
    """A point whose Z - Z^t overflows: +-1.5e308 across the diagonal."""
    z = np.zeros((g, g), dtype=complex)
    z[0, -1], z[-1, 0] = 1.5e308, -1.5e308
    return DomainPoint(kind(g), z + (2j * np.eye(g) if kind is siegel_shape else 0.0))


def test_points_too_large_to_subtract_or_square_raise_without_warnings():
    spec = EmbeddingSpec(1, (FactorSpec(FactorKind.STANDARD_III, 1, 1),) * 3, 3)
    asymmetric = "must be an interior point: matrix is not symmetric: max|Z - Z^t| = inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for direction, kind in (("to-siegel", type_iii_shape), ("to-bounded", siegel_shape)):
            crooked = _crooked(3, kind)
            assert membership(crooked).reason == "matrix is not symmetric: max|Z - Z^t| = inf"
            with pytest.raises(MembershipViolation, match="^" + re.escape("Cayley input " + asymmetric)):
                cayley(crooked, direction)
        siegel = _crooked(3, siegel_shape)
        with pytest.raises(MembershipViolation, match="^" + re.escape("distance argument " + asymmetric)):
            kobayashi_distance(siegel, siegel)
        for entry in (1e200, 1e160, 1e154):
            with pytest.raises(MembershipViolation, match=r"^ball point has norm inf >= 1$"):
                ball_point([entry, entry])
        for entry in (np.inf, np.nan):
            with pytest.raises(DimensionMismatch, match="^ball coordinates must be finite$"):
                ball_point([0.1, entry])
        for entry in (1e160, 1e200, 1e300):
            big = DomainPoint(type_iii_shape(3), np.diag([entry, 0.1, 0.1]).astype(complex))
            with pytest.raises(IllConditioned, match=r"^standard_III block retracts to norm inf >= 1$"):
                retract_direct_sum(big, spec, verify=False)


def _point_file(path, z: np.ndarray, kind: str) -> str:
    z = np.atleast_2d(z)
    payload = {"kind": kind, "p": z.shape[0], "q": z.shape[1], "re": z.real.tolist(), "im": z.imag.tolist()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_commands_on_points_too_large_to_square_print_one_error_and_no_warning(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"source_dim": 2, "target_g": 3, "factors": [{"kind": "connecting_lambda", "m": 1}]}),
        encoding="utf-8",
    )
    ball = _point_file(tmp_path / "ball.json", np.array([[1e200], [1e200]]), "I")
    crooked = _point_file(tmp_path / "crooked.json", _crooked(3, type_iii_shape).z, "III")
    runs = (
        (["embed", "--spec", str(spec), "--point", ball], "error: ball point has norm inf >= 1\n"),
        (
            ["cayley", "--point", crooked, "--direction", "to-siegel"],
            "error: Cayley input must be an interior point: matrix is not symmetric: max|Z - Z^t| = inf\n",
        ),
    )
    for argv, message in runs:
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


def _grouped(pieces) -> list[np.ndarray]:
    """The general path of ``domains._diagonal_blocks``: the blocks of every
    piece grouped by size, sorted, and stacked per size."""
    pieces = [np.asarray(piece) for piece in pieces]
    sizes = {}
    for j, piece in enumerate(pieces):
        for start, stop in domains._block_ranges(piece):
            sizes.setdefault(stop - start, []).append((j, start, stop))
    return [domains._group_of(pieces, sizes[s]) for s in sorted(sizes)]


def test_diagonal_blocks_equal_the_general_grouping():
    rng = generator(83, 0)
    padded = EmbeddingSpec(3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2),) * 2, 15)
    mixed = EmbeddingSpec(
        3, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 1), FactorSpec(FactorKind.CONNECTING_LAMBDA, 3, 2)), 10
    )
    images = {
        spec: np.stack([direct_sum_embed(spec, sample_ball_point(rng, 3)).z for _ in range(4)]) for spec in (padded, mixed)
    }
    # A block-diagonal stack whose first block is zero in every member.
    zero_block = images[mixed].copy()
    zero_block[:, :4, :4] = 0.0
    # Connected blocks with a zero corner: one block, found by the scan.
    tridiagonal = np.stack([np.diag(np.full(4, 0.3)) + np.diag(np.full(3, 0.2), 1) + np.diag(np.full(3, 0.2), -1)] * 2)
    dense = np.stack([sample_type_iii(rng, g).z for g in (5,) * 6]).reshape(2, 3, 5, 5)
    coords = np.stack([sample_ball_point(rng, 3).coords for _ in range(4)])
    cases = {
        "dense pairs": [dense],
        "dense, one side": [dense[:1]],
        "block-diagonal pairs": [images[mixed].reshape(2, 2, 10, 10)],
        "zero-padded": [images[padded][np.newaxis]],
        "an all-zero block": [zero_block[np.newaxis]],
        "connected, zero corner": [tridiagonal.reshape(1, 2, 4, 4)],
        "factor pieces": list(zip(_embed_blocks(mixed, coords[:2]), _embed_blocks(mixed, coords[2:]))),
    }
    for name, pieces in cases.items():
        new, old = domains._diagonal_blocks(pieces), _grouped(pieces)
        assert len(new) == len(old), name
        for a, b in zip(new, old):
            assert a.shape == b.shape and a.dtype == b.dtype and a.flags.c_contiguous, name
            assert a.tobytes() == b.tobytes(), name
