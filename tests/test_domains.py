"""Domain models: membership, Cayley transform, transvections, distances."""

from __future__ import annotations

import numpy as np
import pytest

from siegelmaps import (
    DomainKind,
    DomainPoint,
    EmbeddingSpec,
    FactorKind,
    FactorSpec,
    MembershipStatus,
    ball_point,
    cayley,
    cayley_to_bounded,
    cayley_to_siegel,
    direct_sum_embed,
    kobayashi_distance,
    membership,
    siegel_shape,
    singular_values,
    type_i_shape,
    type_iii_shape,
)
from siegelmaps.errors import (
    IllConditioned,
    MembershipViolation,
    ShapeMismatch,
    SingularCayley,
)
from siegelmaps.sampling import generator, sample_ball_point, sample_type_iii

from norms import max_abs
from samplers import sample_siegel, sample_type_i
from svd_solve import svd_solve_right
from transvection import as_type_i, transvection_to_origin

ARCTANH_HALF = 0.5493061443340549


def test_membership_origin_type_iii():
    pt = DomainPoint(type_iii_shape(3), np.zeros((3, 3)))
    result = membership(pt)
    assert result.status is MembershipStatus.INTERIOR
    assert result.margin == pytest.approx(1.0)


def test_membership_boundary_unit_column():
    pt = DomainPoint(type_i_shape(2, 1), np.array([[1.0], [0.0]]))
    assert membership(pt).status is MembershipStatus.BOUNDARY


def test_membership_margin_of_scaled_identity():
    z = 0.9 * np.eye(2, dtype=complex)
    result = membership(DomainPoint(type_iii_shape(2), z))
    # defining matrix I - conj(z) z = 0.19 I, eigenvalues computed directly
    assert result.status is MembershipStatus.INTERIOR
    assert result.margin == pytest.approx(0.19, abs=1e-12)


def test_membership_outside():
    pt = DomainPoint(type_i_shape(2, 2), 1.5 * np.eye(2, dtype=complex))
    assert membership(pt).status is MembershipStatus.OUTSIDE


def test_membership_flags_asymmetric_square_kinds():
    z = np.array([[0.0, 0.2], [0.0, 0.0]])
    result = membership(DomainPoint(type_iii_shape(2), z))
    assert result.status is MembershipStatus.OUTSIDE
    assert "symmetric" in result.reason


def test_membership_siegel_uses_imaginary_part():
    z = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0 + 0.5j]])
    result = membership(DomainPoint(siegel_shape(2), z))
    assert result.status is MembershipStatus.INTERIOR
    assert result.margin == pytest.approx(0.5)


def test_membership_transpose_invariant_margins():
    rng = generator(11, 0)
    for _ in range(20):
        pt = sample_type_i(rng, 3, 2)
        flipped = DomainPoint(type_i_shape(2, 3), pt.z.T)
        assert membership(pt).margin == pytest.approx(membership(flipped).margin, abs=1e-12)


def test_cayley_center_maps_to_origin():
    for g in (1, 2, 4):
        center = DomainPoint(siegel_shape(g), 1j * np.eye(g))
        image = cayley_to_bounded(center)
        assert max_abs(image.z) <= 1e-15


def test_cayley_round_trip_seeded():
    rng = generator(12, 0)
    for g in (1, 2, 3, 5):
        for _ in range(20):
            pt = sample_type_iii(rng, g)
            back = cayley_to_bounded(cayley_to_siegel(pt))
            assert max_abs(back.z - pt.z) <= 1e-11
            sg = sample_siegel(rng, g)
            back_sg = cayley_to_siegel(cayley_to_bounded(sg))
            assert max_abs(back_sg.z - sg.z) <= 1e-9 * max(1.0, max_abs(sg.z))


def test_cayley_transforms_make_one_svd_call_with_solve_right_bits(monkeypatch):
    # Interior samples are cleared by the certified condition test and make
    # no SVD call.  Near-singular denominators are not: their one SVD serves
    # both the SingularCayley test and the condition test.  Either way the
    # image has the bits of the SVD-only solve.
    rng = generator(13, 0)
    points = [sample_type_iii(rng, g) for g in (1, 3, 6)] + [sample_siegel(rng, g) for g in (1, 3, 6)]
    r = np.sqrt(1.0 - 1e-9)
    near_singular = [
        DomainPoint(type_iii_shape(2), np.diag([r, 0.0])),
        DomainPoint(siegel_shape(2), np.diag([1e9 + 1j, 1j])),
    ]
    expected = []
    for pt in points + near_singular:
        eye = np.eye(pt.shape.p)
        if pt.shape.kind is DomainKind.SIEGEL:
            expected.append(svd_solve_right(pt.z - 1j * eye, pt.z + 1j * eye))
        else:
            expected.append(1j * svd_solve_right(eye + pt.z, eye - pt.z))
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for pt, reference, count in zip(points + near_singular, expected, [0] * len(points) + [1] * len(near_singular)):
        calls.clear()
        image = cayley(pt, "to-bounded" if pt.shape.kind is DomainKind.SIEGEL else "to-siegel")
        assert len(calls) == count
        assert image.z.tobytes() == reference.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e154, 1e208, 1e300])
def test_cayley_to_bounded_on_a_point_whose_norm_overflows(scale):
    # ||Z||_F overflows, so the singular-value bound is inf: it certifies
    # nothing, and the SVD path answers with the bits of the SVD-only solve,
    # with no warning.
    z = scale * np.array([[1 + 1.5j, 2 - 1j], [2 - 1j, 1 + 1.5j]])
    pt = DomainPoint(siegel_shape(2), z)
    assert membership(pt).status is MembershipStatus.INTERIOR
    image = cayley_to_bounded(pt)
    eye = np.eye(2)
    assert image.z.tobytes() == svd_solve_right(z - 1j * eye, z + 1j * eye).tobytes()
    assert max_abs(image.z - eye) <= 1e-12


def test_cayley_explicit_diagonal_point():
    z = np.diag([1.0 + 1.0j, 1.0j])
    pt = DomainPoint(siegel_shape(2), z)
    image = cayley_to_bounded(pt)
    # direct formula evaluation: (Z - iI)(Z + iI)^{-1}, diagonal case
    expected = np.diag([1.0 / (1.0 + 2.0j), 0.0])
    assert np.allclose(image.z, expected, atol=1e-12)
    assert membership(image).status is MembershipStatus.INTERIOR


def test_cayley_rejects_wrong_kind():
    pt = DomainPoint(type_iii_shape(2), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        cayley_to_bounded(pt)
    with pytest.raises(ShapeMismatch):
        cayley_to_siegel(DomainPoint(siegel_shape(2), 1j * np.eye(2)))


def test_cayley_rejects_non_interior():
    pt = DomainPoint(siegel_shape(2), np.zeros((2, 2)))
    with pytest.raises(MembershipViolation):
        cayley_to_bounded(pt)


def test_cayley_dispatch_directions():
    pt = DomainPoint(siegel_shape(2), 1j * np.eye(2))
    bounded = cayley(pt, "to-bounded")
    assert max_abs(cayley(bounded, "to-siegel").z - pt.z) <= 1e-12
    with pytest.raises(ValueError):
        cayley(pt, "sideways")


def test_transvection_at_origin_is_identity():
    rng = generator(13, 0)
    origin = DomainPoint(type_i_shape(2, 2), np.zeros((2, 2)))
    handle = transvection_to_origin(origin)
    for _ in range(10):
        pt = sample_type_i(rng, 2, 2)
        assert max_abs(handle.apply(pt).z - pt.z) <= 1e-12


def test_transvection_moves_base_to_origin():
    rng = generator(14, 0)
    for _ in range(20):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pt = sample_type_i(rng, p, q)
        handle = transvection_to_origin(pt)
        assert max_abs(handle.apply(pt).z) <= 1e-12


def test_transvection_preserves_membership():
    rng = generator(15, 0)
    base = sample_type_i(rng, 3, 2)
    handle = transvection_to_origin(base)
    for _ in range(25):
        pt = sample_type_i(rng, 3, 2)
        assert membership(handle.apply(pt)).status is MembershipStatus.INTERIOR


def test_transvection_preserves_distance():
    # oracle for invariance: the closed-form distance itself
    rng = generator(16, 0)
    for _ in range(10):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = sample_type_i(rng, p, q)
        x = sample_type_i(rng, p, q)
        y = sample_type_i(rng, p, q)
        handle = transvection_to_origin(a)
        d_before = kobayashi_distance(x, y)
        d_after = kobayashi_distance(handle.apply(x), handle.apply(y))
        assert d_after == pytest.approx(d_before, abs=1e-9)


def test_transvection_rejects_boundary_base():
    pt = DomainPoint(type_i_shape(2, 1), np.array([[1.0], [0.0]]))
    with pytest.raises((MembershipViolation, IllConditioned)):
        transvection_to_origin(pt)


def test_distance_zero_at_equal_points():
    z = ball_point([0.2, 0.1j])
    assert kobayashi_distance(z, z) == pytest.approx(0.0, abs=1e-12)


def test_distance_poincare_on_disk():
    assert kobayashi_distance(ball_point([0.0]), ball_point([0.5])) == pytest.approx(ARCTANH_HALF, abs=1e-12)


def test_distance_diagonal_type_i():
    x = DomainPoint(type_i_shape(2, 2), np.zeros((2, 2)))
    y = DomainPoint(type_i_shape(2, 2), np.diag([0.5, 0.3]).astype(complex))
    assert kobayashi_distance(x, y) == pytest.approx(np.arctanh(0.5), abs=1e-12)


def test_distance_symmetry():
    rng = generator(17, 0)
    for _ in range(15):
        x = sample_type_i(rng, 3, 2)
        y = sample_type_i(rng, 3, 2)
        assert kobayashi_distance(x, y) == pytest.approx(kobayashi_distance(y, x), abs=1e-10)


def test_distance_triangle_inequality():
    rng = generator(18, 0)
    for _ in range(15):
        x = sample_type_i(rng, 2, 2)
        y = sample_type_i(rng, 2, 2)
        w = sample_type_i(rng, 2, 2)
        dxy = kobayashi_distance(x, y)
        dxw = kobayashi_distance(x, w)
        dwy = kobayashi_distance(w, y)
        assert dxy <= dxw + dwy + 1e-8


def test_distance_decreases_under_column_deletion():
    rng = generator(19, 0)
    for _ in range(15):
        x = sample_type_i(rng, 3, 3)
        y = sample_type_i(rng, 3, 3)
        kept = DomainPoint(type_i_shape(3, 2), x.z[:, :2])
        kept_y = DomainPoint(type_i_shape(3, 2), y.z[:, :2])
        assert kobayashi_distance(kept, kept_y) <= kobayashi_distance(x, y) + 1e-8


_LAPACK = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv",
    "lstsq", "pinv", "qr", "slogdet", "solve", "svd", "svdvals",
)


def _g60_image_pair():
    spec = EmbeddingSpec(
        5,
        (FactorSpec(FactorKind.LAMBDA_III, 5, 3),)
        + tuple(FactorSpec(FactorKind.CONNECTING_LAMBDA, 5, m) for m in (2, 3, 4)),
        60,
    )
    rng = generator(22, 0)
    return tuple(direct_sum_embed(spec, sample_ball_point(rng, 5)) for _ in range(2))


def test_kobayashi_distance_makes_no_eigh_call_and_factors_blocks_of_at_most_20(monkeypatch):
    # The g = 60 image splits into the exact diagonal blocks 15/20/15/10 of
    # its factors, so no LAPACK kernel sees more than 20 x 20.
    x, y = _g60_image_pair()
    expected = kobayashi_distance(x, y)
    orders = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            orders.extend(max(a.shape[-2:]) for a in args if isinstance(a, np.ndarray) and a.ndim >= 2)
            return fn(*args, **kwargs)

        return wrapped

    for name in _LAPACK:
        if hasattr(np.linalg, name):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    eigh_calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: eigh_calls.append(args))
    assert kobayashi_distance(x, y) == expected
    assert eigh_calls == []
    assert orders and max(orders) == 20


def _oracle_tanh(x, y):
    """Largest singular value of y moved by the transvection taking x to 0."""
    if isinstance(x, DomainPoint) and x.shape.kind is DomainKind.SIEGEL:
        x, y = cayley_to_bounded(x), cayley_to_bounded(y)
    if isinstance(x, DomainPoint) and x.shape.kind is DomainKind.TYPE_III:
        x, y = (DomainPoint(type_i_shape(pt.shape.p, pt.shape.p), pt.z) for pt in (x, y))
    moved = transvection_to_origin(x).apply(as_type_i(y))
    return float(singular_values(moved.z)[0])


def _at_radius(z: np.ndarray, radius: float) -> np.ndarray:
    return z * (radius / np.linalg.svd(z.reshape(z.shape[0], -1), compute_uv=False)[0])


def _pair(kind: str, rng, cap: float):
    """Two points of a kind, x at norm ``cap`` and y at a random norm below it."""
    raw = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    radii = (cap, cap * (0.5 + 0.5 * rng.random()))
    if kind == "ball":
        return tuple(ball_point(_at_radius(r[:, :1], radius).reshape(-1)) for r, radius in zip(raw, radii))
    if kind == "type_i":
        return tuple(DomainPoint(type_i_shape(4, 3), _at_radius(r[:, :3], radius)) for r, radius in zip(raw, radii))
    bounded = tuple(DomainPoint(type_iii_shape(4), _at_radius(r + r.T, radius)) for r, radius in zip(raw, radii))
    if kind == "type_iii":
        return bounded
    return tuple(cayley_to_siegel(pt) for pt in bounded)


# Both computations lose accuracy like eps / (1 - |x|^2) near the sphere.
# Measured over these cases: |tanh d - oracle| * (1 - cap^2) <= 3.0e-16,
# i.e. <= 1.6e-15 at cap 0.9, 1.1e-13 at 0.999, 1.1e-10 at 1 - 1e-6.
# Against 40-digit references at 1 - 1e-6, the closed form on the ball is
# within 2.5e-16 and the Cholesky kernel within 2.1e-11, the oracle
# within 1.1e-10.
def _oracle_bound(cap: float) -> float:
    return 2e-15 / (1.0 - cap**2)


@pytest.mark.parametrize("cap", [0.9, 0.999, 1 - 1e-6], ids=["0.9", "0.999", "1-1e-6"])
@pytest.mark.parametrize("kind", ["ball", "type_i", "type_iii", "siegel"])
def test_distance_matches_transvection_oracle(kind, cap):
    rng = generator(23, 0)
    for _ in range(10):
        x, y = _pair(kind, rng, cap)
        assert abs(np.tanh(kobayashi_distance(x, y)) - _oracle_tanh(x, y)) <= _oracle_bound(cap)


def test_distance_on_block_diagonal_pairs_with_padding_and_a_zero_block():
    # Blocks [0, 3) and [4, 7), a zero block at 3 and zero padding [7, 9):
    # equal to the dense oracle, and to the largest per-block distance.
    rng = generator(24, 0)
    for _ in range(10):
        x, y = (np.zeros((9, 9), dtype=complex) for _ in range(2))
        parts = []
        for start, stop in ((0, 3), (4, 7)):
            a, b = (sample_type_iii(rng, stop - start, 0.99) for _ in range(2))
            x[start:stop, start:stop], y[start:stop, start:stop] = a.z, b.z
            parts.append(kobayashi_distance(a, b))
        px, py = DomainPoint(type_iii_shape(9), x), DomainPoint(type_iii_shape(9), y)
        d = kobayashi_distance(px, py)
        assert abs(np.tanh(d) - _oracle_tanh(px, py)) <= _oracle_bound(0.99)
        assert d == pytest.approx(max(parts), abs=1e-13)
    # Square type I points need not be symmetric: an entry below the
    # diagonal alone joins its row and column into one block.
    for _ in range(10):
        lower = []
        for entries in (((0, 0), (2, 0), (2, 2), (3, 3)), ((1, 1), (2, 0), (3, 3))):
            z = np.zeros((4, 4), dtype=complex)
            for entry in entries:
                z[entry] = complex(*rng.standard_normal(2))
            lower.append(DomainPoint(type_i_shape(4, 4), _at_radius(z, 0.99 * rng.random())))
        assert abs(np.tanh(kobayashi_distance(*lower)) - _oracle_tanh(*lower)) <= _oracle_bound(0.99)
    origin = DomainPoint(type_iii_shape(9), np.zeros((9, 9)))
    assert kobayashi_distance(origin, origin) == 0.0
    assert kobayashi_distance(origin, py) == pytest.approx(np.arctanh(singular_values(py.z)[0]), abs=1e-14)
    assert kobayashi_distance(py, origin) == pytest.approx(np.arctanh(singular_values(py.z)[0]), abs=1e-14)


def test_stacked_distance_members_equal_their_batch_of_one():
    rng = generator(25, 0)
    images = _g60_image_pair() + _g60_image_pair()[::-1]
    dense = [sample_type_iii(rng, 7) for _ in range(6)]
    rectangular = [sample_type_i(rng, 3, 5) for _ in range(6)]
    balls = [sample_ball_point(rng, 4) for _ in range(8)]
    for points in (images, dense, rectangular, balls):
        xs, ys = points[: len(points) // 2], points[len(points) // 2 :]
        stacked = kobayashi_distance(xs, ys)
        assert isinstance(stacked, np.ndarray)
        assert stacked.tolist() == [kobayashi_distance(x, y) for x, y in zip(xs, ys)]


def test_distance_exception_classes():
    inside = DomainPoint(type_iii_shape(2), np.diag([0.5, 0.2]).astype(complex))
    outside = DomainPoint(type_iii_shape(2), np.diag([1.5, 0.2]).astype(complex))
    asymmetric = DomainPoint(type_iii_shape(2), np.array([[0.1, 0.3], [0.0, 0.1]], dtype=complex))
    with pytest.raises(MembershipViolation, match="^transvection base must be an interior point: margin"):
        kobayashi_distance(outside, inside)
    with pytest.raises(MembershipViolation, match="^distance argument must be an interior point: margin"):
        kobayashi_distance(inside, outside)
    for pair in ((asymmetric, inside), (inside, asymmetric)):
        with pytest.raises(MembershipViolation, match="not symmetric"):
            kobayashi_distance(*pair)
    with pytest.raises(MembershipViolation, match="^distance argument must be an interior point: margin"):
        kobayashi_distance(ball_point([0.0]), ball_point([0.999999999999]))
    with pytest.raises(ShapeMismatch):
        kobayashi_distance(ball_point([0.1, 0.0]), inside)
    with pytest.raises(ShapeMismatch):
        kobayashi_distance(ball_point([0.1, 0.0]), ball_point([0.1]))
    with pytest.raises(ShapeMismatch):
        kobayashi_distance(inside, DomainPoint(type_i_shape(2, 2), inside.z))
    # I - X*Y = diag(1.5e-10, 2 - 1.5e-10): each diagonal block alone is
    # well conditioned, the whole matrix is not, and the whole is checked.
    r = np.sqrt(1.0 - 1.5e-10)
    for shape in (type_iii_shape(2), type_i_shape(2, 2)):
        x, y = DomainPoint(shape, np.diag([r, r])), DomainPoint(shape, np.diag([r, -r]))
        with pytest.raises(IllConditioned, match="^transvection denominator near singular: condition number exceeds"):
            kobayashi_distance(x, y)
    # A stack names its first failing pair.
    with pytest.raises(MembershipViolation, match="^pair 1: transvection base"):
        kobayashi_distance([inside, outside], [inside, inside])
    with pytest.raises(MembershipViolation, match="^pair 1: distance argument"):
        kobayashi_distance([inside, inside], [inside, outside])
    with pytest.raises(ShapeMismatch):
        kobayashi_distance([inside, inside], [inside])
    with pytest.raises(ShapeMismatch):
        kobayashi_distance([], [])
    with pytest.raises(ShapeMismatch):
        kobayashi_distance([inside, ball_point([0.1, 0.0])], [inside, inside])


def test_distance_rejects_non_interior_or_asymmetric_first_argument():
    inside = DomainPoint(type_iii_shape(2), np.diag([0.5, 0.2]).astype(complex))
    outside = DomainPoint(type_iii_shape(2), np.diag([1.5, 0.2]).astype(complex))
    asymmetric = DomainPoint(type_iii_shape(2), np.array([[0.1, 0.3], [0.0, 0.1]], dtype=complex))
    with pytest.raises(MembershipViolation, match="margin"):
        kobayashi_distance(outside, inside)
    with pytest.raises(MembershipViolation, match="not symmetric"):
        kobayashi_distance(asymmetric, inside)
    with pytest.raises(MembershipViolation, match="margin"):
        kobayashi_distance(ball_point([0.999999999999]), ball_point([0.0]))


def test_distance_rejects_shape_mismatch():
    x = DomainPoint(type_i_shape(2, 2), np.zeros((2, 2)))
    y = DomainPoint(type_i_shape(2, 1), np.zeros((2, 1)))
    with pytest.raises(ShapeMismatch):
        kobayashi_distance(x, y)


def test_distance_on_siegel_points_via_cayley():
    rng = generator(20, 0)
    x = sample_siegel(rng, 2)
    y = sample_siegel(rng, 2)
    direct = kobayashi_distance(x, y)
    through = kobayashi_distance(cayley_to_bounded(x), cayley_to_bounded(y))
    assert direct == pytest.approx(through, abs=1e-10)


def test_ball_point_rejects_norm_one():
    with pytest.raises(MembershipViolation):
        ball_point([1.0, 0.0])


def test_ball_point_norm_is_measured_once(monkeypatch):
    z = ball_point([0.3, 0.4j, -0.2 + 0.1j])
    assert z.norm == float(np.linalg.norm(z.coords))
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append(args))
    assert z.norm == z.norm < 1.0
    assert calls == []


def test_siegel_cayley_singular_guard():
    # bounded point with eigenvalue pinned at 1 - eps along the real axis
    z = np.diag([1.0 - 1e-14, 0.0]).astype(complex)
    pt = DomainPoint(type_iii_shape(2), z)
    with pytest.raises((SingularCayley, MembershipViolation)):
        cayley_to_siegel(pt)
