"""The certified interior test against the eigensolve path it stands in for.

``domains._interior_certificate`` shifts the positivity matrix that the
margin eigensolve sees and lets one Cholesky factorization prove the point
interior.  Wherever it does not, the eigensolve decides.  So every
operation that only needs its input interior (the checked retraction, both
Cayley transforms and the Kobayashi distance) must return the bytes and
raise the messages of the eigensolve path, forced here by making the
certificate fail, on points placed around ``psd_margin`` and around the
shift, far inside and outside.  The eigensolve still serves the margins
that ``membership`` and the membership suite report.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from siegelmaps import (
    BallPoint,
    DEFAULT_TOLERANCE,
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    HarnessConfig,
    cayley_to_bounded,
    cayley_to_siegel,
    harness,
    kobayashi_distance,
    membership,
    retract_direct_sum,
    siegel_shape,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps import domains
from siegelmaps.errors import SiegelmapsError
from siegelmaps.sampling import generator, sample_type_iii
from test_block_groups import G60_SPEC

TOL = DEFAULT_TOLERANCE
GENERA = (2, 6, 12, 20, 35)


def _spec(g: int) -> EmbeddingSpec:
    return EmbeddingSpec(1, (FactorSpec(FactorKind.CONNECTING_LAMBDA, 1, 1),), g)


def _shift_of(matrix: np.ndarray, order: int | None = None) -> float:
    """The shift 2b of the certificate for a Hermitian matrix, at its own
    order or at the larger order a distance kernel passes."""
    return 2.0 * domains._interior_certificate(matrix, order or matrix.shape[-1], TOL)[1]


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _orthogonal(rng, n: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _margins(shift: float, scale: float = 1.0) -> dict[str, float]:
    """Smallest eigenvalues of the positivity matrix around ``psd_margin``
    and around the certificate's shift, inside and outside."""
    return {
        "below psd_margin": TOL.psd_margin * (1 - 1e-3),
        "above psd_margin": TOL.psd_margin * (1 + 1e-3),
        "below the shift": shift * (1 - 1e-3),
        "above the shift": shift * (1 + 1e-3),
        "1e-4": 1e-4 * scale,
        "outside": -0.02 * scale,
    }


def _symmetric_point(rng, g: int, margin: float) -> DomainPoint:
    """Z = U diag(s) U^t with 1 - s_max^2 = margin, the rest of s below 0.9."""
    s = 0.9 * rng.random(g)
    s[0] = np.sqrt(1.0 - margin)
    u = _unitary(rng, g)
    z = (u * s) @ u.T
    return DomainPoint(type_iii_shape(g), 0.5 * (z + z.T))


def _siegel_points(rng, g: int, scale: float = 1.0) -> dict[str, DomainPoint]:
    """Points X + iY, X real symmetric, with lambda_min(Y) at each of
    :func:`_margins` and the other eigenvalues of Y between scale / 2 and
    scale.  The shift is that of Y, whose largest diagonal entry the
    smallest eigenvalue hardly moves."""
    points = {}
    for name in _margins(0.0):
        x = rng.standard_normal((g, g))
        o = _orthogonal(rng, g)
        mu = scale * (0.5 + 0.5 * rng.random(g))
        mu[0] = 0.0
        mu[0] = _margins(_shift_of((o * mu) @ o.T), scale)[name]
        y = (o * mu) @ o.T
        points[name] = DomainPoint(siegel_shape(g), 0.5 * (x + x.T) + 0.5j * (y + y.T))
    return points


def _outcome(fn, *args, **kwargs):
    """The result's bytes, or the class and message of the package error
    the call raises."""
    try:
        result = fn(*args, **kwargs)
    except SiegelmapsError as exc:
        return type(exc), str(exc)
    if isinstance(result, DomainPoint):
        return result.z.tobytes()
    if isinstance(result, BallPoint):
        return result.coords.tobytes()
    return np.asarray(result, dtype=np.float64).tobytes()


def _outcomes(calls) -> list:
    return [_outcome(*call) for call in calls]


def _both_paths(monkeypatch, eigensolves, calls) -> tuple[list, list, int]:
    """The outcomes of the calls with the certificate, the outcomes with
    every certificate failing so that the eigensolve decides, and the
    number of eigensolves the certified run made."""
    eigensolves.clear()
    certified = _outcomes(calls)
    made = len(eigensolves)
    with monkeypatch.context() as patch:
        patch.setattr(domains, "_interior_certificate", lambda *args, **kwargs: None)
        forced = _outcomes(calls)
    return certified, forced, made


@pytest.fixture
def eigensolves(monkeypatch):
    """The shapes of the eigvalsh calls made so far."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("g", GENERA)
def test_checks_around_the_thresholds_match_the_eigensolve_path(g, monkeypatch, eigensolves):
    rng = generator(71, g)
    other = sample_type_iii(rng, g)
    siegel_other = cayley_to_siegel(other)
    siegel = _siegel_points(rng, g)
    for name, margin in _margins(_shift_of(np.eye(g))).items():
        z, s = _symmetric_point(rng, g, margin), siegel[name]
        # The checks that measure these margins.
        checks = [
            (retract_direct_sum, z, _spec(g), TOL, True),
            (cayley_to_siegel, z),
            (cayley_to_bounded, s),
            (kobayashi_distance, z, other),
            (kobayashi_distance, other, z),
        ]
        certified, forced, made = _both_paths(monkeypatch, eigensolves, checks)
        assert certified == forced, name
        if name in ("below psd_margin", "outside"):
            assert all(outcome[0].__name__ == "MembershipViolation" for outcome in certified), name
        if name in ("above the shift", "1e-4"):
            # Every check is certified, with no eigensolve and no error.
            assert made == 0 and not any(isinstance(outcome, tuple) for outcome in certified), name
        if name == "below the shift":
            assert made > 0, name
        # Siegel distances also measure the margins of the Cayley images.
        distances = [(kobayashi_distance, s, siegel_other), (kobayashi_distance, siegel_other, s)]
        certified, forced, _ = _both_paths(monkeypatch, eigensolves, distances)
        assert certified == forced, name


@pytest.mark.parametrize("p, q", [(3, 2), (2, 5), (12, 7)])
def test_rectangular_type_i_pairs_match_the_eigensolve_path(p, q, monkeypatch, eigensolves):
    rng = generator(72, p * q)
    n = min(p, q)
    fixed = _unitary(rng, p)[:, :n] @ np.diag(0.5 * rng.random(n)) @ _unitary(rng, q)[:n].conj()
    other = DomainPoint(type_i_shape(p, q), fixed)
    calls = []
    for margin in _margins(_shift_of(np.eye(n), max(p, q))).values():
        s = 0.9 * rng.random(n)
        s[-1] = np.sqrt(1.0 - margin)
        z = DomainPoint(type_i_shape(p, q), _unitary(rng, p)[:, :n] @ np.diag(s) @ _unitary(rng, q)[:n].conj())
        calls += [(kobayashi_distance, z, other), (kobayashi_distance, other, z)]
    certified, forced, _ = _both_paths(monkeypatch, eigensolves, calls)
    assert certified == forced


@pytest.mark.parametrize("g", [2, 12, 35])
def test_siegel_points_with_large_imaginary_parts_scale_the_shift(g, monkeypatch, eigensolves):
    # With Im Z near 1e6 the eigensolve's error is near 1e6 g^3 eps, so a
    # shift fixed at the scale of psd_margin would certify points the
    # eigensolve cannot tell from the boundary.  The shift grows with the
    # largest diagonal entry, and every decision stays the eigensolve's.
    rng = generator(73, g)
    anchor = _siegel_points(rng, g, scale=1e6)["1e-4"]
    for name, s in _siegel_points(rng, g, scale=1e6).items():
        calls = [(cayley_to_bounded, s), (kobayashi_distance, s, anchor), (kobayashi_distance, anchor, s)]
        certified, forced, made = _both_paths(monkeypatch, eigensolves, calls)
        assert certified == forced, name
        if name in ("above the shift", "1e-4"):
            assert made == 0, name
        if name in ("above psd_margin", "below the shift"):
            assert made > 0, name


def test_asymmetric_points_keep_their_messages(monkeypatch, eigensolves):
    rng = generator(74, 0)
    calls = []
    for g in (2, 12):
        z = sample_type_iii(rng, g).z.copy()
        z[0, -1] += 1e-7
        asymmetric = DomainPoint(type_iii_shape(g), z)
        s = cayley_to_siegel(sample_type_iii(rng, g)).z.copy()
        s[-1, 0] += 1e-7
        siegel = DomainPoint(siegel_shape(g), s)
        other = sample_type_iii(rng, g)
        calls += [
            (retract_direct_sum, asymmetric, _spec(g), TOL, True),
            (cayley_to_siegel, asymmetric),
            (cayley_to_bounded, siegel),
            (kobayashi_distance, asymmetric, other),
            (kobayashi_distance, other, asymmetric),
            (kobayashi_distance, siegel, cayley_to_siegel(other)),
            (kobayashi_distance, cayley_to_siegel(other), siegel),
        ]
    certified, forced, _ = _both_paths(monkeypatch, eigensolves, calls)
    assert certified == forced
    assert all(isinstance(outcome, tuple) and "not symmetric" in outcome[1] for outcome in certified)


@pytest.mark.parametrize("scale", [1e150, 1e155, 1e200, 1e300])
def test_points_whose_grams_overflow_match_the_eigensolve_path_without_warnings(scale, monkeypatch, eigensolves):
    rng = generator(75, 0)
    calls = []
    for g in (3, 12):
        z = sample_type_iii(rng, g).z
        big = DomainPoint(type_iii_shape(g), z * (scale / np.linalg.svd(z, compute_uv=False)[0]))
        other = sample_type_iii(rng, g)
        calls += [
            (retract_direct_sum, big, _spec(g), TOL, True),
            (cayley_to_siegel, big),
            (kobayashi_distance, big, other),
            (kobayashi_distance, other, big),
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certified, forced, _ = _both_paths(monkeypatch, eigensolves, calls)
    assert certified == forced
    assert all(isinstance(outcome, tuple) for outcome in certified)
    if scale > 1e150:
        assert all(outcome[1].endswith("margin -inf") for outcome in certified)


def test_an_ambient_op_makes_one_eigensolve_and_the_isometry_suite_none(eigensolves):
    # An op of the ambient workload: membership, a Cayley round trip, the
    # distance both ways and the checked retraction.  Only membership's
    # margin, which it returns, takes an eigensolve; the three interior
    # checks and both distances' margins are certified.
    rng = generator(76, 0)
    for g in (12, 35):
        prev, x = sample_type_iii(rng, g), sample_type_iii(rng, g)
        eigensolves.clear()
        assert membership(x)
        cayley_to_bounded(cayley_to_siegel(x))
        kobayashi_distance(prev, x)
        kobayashi_distance(x, prev)
        retract_direct_sum(x, _spec(g), verify=True)
        assert len(eigensolves) == 1
    config = HarnessConfig(samples=8, seed=1)
    eigensolves.clear()
    assert harness.run_suite("isometry", G60_SPEC, config).passed
    assert eigensolves == []
    # The membership suite reports its smallest margin, so it keeps one
    # eigensolve per block size: one block of 10, two of 15, one of 20.
    assert harness.run_suite("membership", G60_SPEC, config).passed
    assert eigensolves == [(8, 1, 10, 10), (8, 2, 15, 15), (8, 1, 20, 20)]
