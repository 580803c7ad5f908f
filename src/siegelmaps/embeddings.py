"""Holomorphic totally geodesic embeddings of the ball into matrix domains.

Every factor is built from one kernel, the degree-m wedge representation
of the ball, landing in I_{r,s} with (r, s) the signature of the induced
pairing.  A ``connecting_lambda`` block places it as the off-diagonal
blocks of a symmetric (r+s) x (r+s) matrix; a ``lambda_III`` block is its
symmetric model III_r in the balanced case r = s.  The standard factors
are automorphic images of degree-1 wedge blocks, moved by a fixed
automorphism of III_g that fixes 0: ``standard_I`` is the
``connecting_lambda(1)`` block with its indices rotated by one (the ball
along the first row of a 1 x p type I matrix, connected), and
``standard_III`` is i times the ``lambda_III(1, 1)`` block (a 1 x 1
corner).  A factor is one such block, of size r or r + s; an embedding is
a diagonal direct sum of factors under a genus budget, with unused
diagonal slack padded by zeros.  All embeddings fix the origin, are
linear in the source coordinates, and carry each interior point to an
interior point.

Because every block is linear, each factor is compiled once into a fixed
matrix ``A_f`` together with its left inverse ``P_f = A_f^+``
(:func:`factor_form`); these are the only compiled form of an embedding,
and :func:`direct_sum_embed` and the retractions apply only them.  Each
spec has one copy plan (:func:`_copy_plan`), the one place that knows
of copies: for each distinct factor, the flat indices of its copies'
blocks.  :func:`direct_sum_embed` applies each distinct factor once and
writes all its copies through the plan; the verify suites embed stacks
of samples with :func:`_embed_blocks`, one block per distinct factor.
Both have the bits of applying each copy in turn.  The constructions
below are kept as the oracle: :func:`linearize` and the linearity suite
evaluate them for the distinct factors at seeded and sampled points, in
one stack, and compare them with the compiled blocks ``A_f z``.  Both
are zero off the blocks, so no g x g image is built per point; the
padding of :func:`direct_sum_embed` is checked once, on a probe point
with every coordinate nonzero, whose image must be zero off the blocks
and equal them on them.  The oracle evaluates a stack of points at once:
a vectorized Laplace recursion for the wedge minors of each degree (see
:func:`_wedge_coefficients`) and one stacked solve per degree, shared by
its models; a stacked block has the bits of the same point evaluated
alone.

Exterior-power construction, in coordinates: the source point z spans the
negative line through ``v = sum_i e_i z_i + e_{p+1}``; the positive
complement V+ is spanned by ``b_i = e_i + conj(z_i) e_{p+1}``.  A basis of
the negative subspace of the degree-m power is built by wedging m-1
vectors of V+ with v, expanded over the wedge basis, split into the
positive coefficient block X and negative block Y, and column-normalized
to X Y^{-1}.  In the balanced symmetric case the positive rows are first
re-expressed through the semi-linear conjugation, which makes the
normalized matrix symmetric: X is replaced by its rows in reverse order,
row i divided by the unit a(M) of negative multi-index i.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import comb, inf
from operator import itemgetter

import numpy as np

from .domains import BallPoint, DomainPoint, type_iii_shape
from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    MembershipViolation,
    NonlinearityDetected,
    NormalizationSingular,
    SingularSystem,
    SpecMismatch,
)
from .exterior import _basis_rows, balanced_symmetric, conjugation_unit, signature, wedge_basis
from .linalg import DEFAULT_TOLERANCE, Tolerance, solve_right
from .sampling import generator, sample_ball_coords

__all__ = [
    "EmbeddingSpec",
    "FactorKind",
    "FactorSpec",
    "LINEARIZATION_PROBE",
    "block_layout",
    "direct_sum_embed",
    "enumerate_specs",
    "factor_form",
    "linearize",
]

# Probe radius for linearization columns: well inside every domain.
LINEARIZATION_PROBE = 0.25

# Seeded interior points at which linearize evaluates the oracle.
_CHECK_POINTS = 50

# Entries (256 KiB of complex128) of the largest arrays the oracle builds
# for a stack of points: the products of the Laplace recursion's widest
# step, and the factor blocks of the constructions and of the compiled map
# that it compares.  No g x g image is built per point: the padding is
# checked once, on a probe.  Longer stacks are taken a slice of points at a
# time, so these arrays do not grow with the number of points while the
# per-call cost is still shared by many of them.
_STACK_ENTRIES = 1 << 14


class FactorKind(str, enum.Enum):
    STANDARD_I = "standard_I"
    STANDARD_III = "standard_III"
    CONNECTING_LAMBDA = "connecting_lambda"
    LAMBDA_III = "lambda_III"


@dataclass(frozen=True, order=True)
class FactorSpec:
    """One diagonal factor of an embedding into a symmetric-matrix domain.

    ``p`` is the source ball dimension and ``m`` the wedge degree.  The
    derived signature (r, s) fixes the block size: a symmetric wedge model
    (``lambda_III``, ``standard_III``) costs r diagonal entries, a
    connecting one (``connecting_lambda``, ``standard_I``) r + s.
    The hash is taken once, at construction: specs key the package's caches.
    """

    kind: FactorKind
    p: int
    m: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise DimensionMismatch(f"source dimension must be positive, got {self.p}")
        if not 1 <= self.m <= self.p:
            raise DegreeOutOfRange(f"degree m={self.m} outside 1..{self.p}")
        if self.kind is FactorKind.LAMBDA_III and not balanced_symmetric(self.p, self.m):
            raise DegreeOutOfRange(
                f"symmetric wedge factor needs p = 1 mod 4 and m = (p+1)/2, got p={self.p}, m={self.m}"
            )
        if self.kind is FactorKind.STANDARD_I and self.m != 1:
            raise DegreeOutOfRange("standard type I factors use the degree-1 representation")
        if self.kind is FactorKind.STANDARD_III and (self.p != 1 or self.m != 1):
            raise DegreeOutOfRange("standard type III factors exist only for one-dimensional sources")
        object.__setattr__(self, "_hash", hash((self.kind, self.p, self.m)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The stored hash follows the process's string hash seed, so a
        # pickled spec is rebuilt, and hashed again, by the constructor.
        return type(self), (self.kind, self.p, self.m)

    @property
    def wedge_model(self) -> tuple[int, bool]:
        """``(m, symmetric)`` of the wedge block the factor is built from.
        The standard factors are automorphic images of degree-1 blocks:
        ``standard_I`` of the connecting ``(1, False)`` block,
        ``standard_III`` of the symmetric ``(1, True)`` block."""
        return self.m, self.kind in (FactorKind.LAMBDA_III, FactorKind.STANDARD_III)

    @cached_property
    def block_size(self) -> int:
        return _block_size_within(self, inf)


@dataclass(frozen=True)
class EmbeddingSpec:
    """A validated direct-sum decomposition of an embedding B^N -> III_g.

    Factors are canonicalized (sorted by kind then degree) so equal
    multisets compare equal and serialized output is stable.  The sum of
    factor costs, ``cost``, must fit in ``target_g``; slack is padded with
    zeros.  The cost and the hash are taken once, at construction.
    """

    source_dim: int
    factors: tuple[FactorSpec, ...]
    target_g: int
    cost: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = tuple(sorted(self.factors, key=lambda f: (f.kind.value, f.m)))
        if not factors:
            raise SpecMismatch("embedding needs at least one factor")
        object.__setattr__(self, "factors", factors)
        if self.source_dim < 1:
            raise DimensionMismatch(f"source dimension must be positive, got {self.source_dim}")
        for f in factors:
            if f.p != self.source_dim:
                raise SpecMismatch(
                    f"factor {f.kind.value} has source dimension {f.p}, spec has {self.source_dim}"
                )
        # Blocks sized only up to the larger of the budget and 2^63, which a
        # block past it passes within 63 partial products: cheap, printable.
        sizes = [_block_size_within(f, max(self.target_g, 1 << 63)) for f in factors]
        if None in sizes:
            raise BudgetExceeded(f"factors cost more than the genus budget of {self.target_g}")
        cost = sum(sizes)
        if cost > self.target_g:
            raise BudgetExceeded(f"factor costs total {cost} but the genus budget is {self.target_g}")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "_hash", hash((self.source_dim, factors, self.target_g)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt by the constructor, as FactorSpec is.
        return type(self), (self.source_dim, self.factors, self.target_g)


def _block_size_within(factor: FactorSpec, budget: float) -> int | None:
    """A factor's block size if it is at most ``budget``, else None: r + s
    = C(p + 1, m) for a connecting model and r = C(p, m) for a symmetric
    one, built from partial products C(n - k + i, i) that rise with i, so
    a block of C(40001, 20000), some 12,000 digits, stops in a few steps."""
    n = factor.p if factor.wedge_model[1] else factor.p + 1
    k = min(factor.m, n - factor.m)
    size = 1
    for i in range(1, k + 1):
        if size > budget:
            return None
        size = size * (n - k + i) // i
    return size if size <= budget else None


@lru_cache(maxsize=None)
def block_layout(spec: EmbeddingSpec) -> tuple[tuple[FactorSpec, int, int], ...]:
    """Diagonal (start, stop) ranges of each factor block in the target."""
    layout = []
    offset = 0
    for f in spec.factors:
        layout.append((f, offset, offset + f.block_size))
        offset += f.block_size
    return tuple(layout)


@lru_cache(maxsize=None)
def _copy_plan(spec: EmbeddingSpec) -> tuple[tuple[FactorSpec, np.ndarray], ...]:
    """The copy plan of a spec, for applying each distinct factor once per
    point: for each distinct factor, in :func:`block_layout` order, the
    factor and the read-only (k, b * b) flat indices of its k copies'
    blocks, row c holding copy c's entries row major, in the leading
    cost x cost square of the image (the whole image unless it is padded).
    Equal factors are adjacent in the canonical order, so a factor's copies
    are consecutive blocks, and the copies in plan order are the blocks in
    layout order.  No index depends on ``target_g``, so the stacked kernels,
    which never build an image, read the plan at any genus."""
    layout = block_layout(spec)
    cost = layout[-1][2]
    plan = []
    for factor, copies in itertools.groupby(layout, key=itemgetter(0)):
        starts = [start for _, start, _ in copies]
        index = starts[0] * (cost + 1) + _copy_offsets(factor.block_size, len(starts), cost)
        index.setflags(write=False)
        plan.append((factor, index))
    return tuple(plan)


@lru_cache(maxsize=None)
def _copy_offsets(size: int, count: int, cost: int) -> np.ndarray:
    """The (count, size * size) flat offsets, row major in a cost x cost
    square, of the entries of ``count`` consecutive size x size diagonal
    blocks from the first entry of the first.  Cached apart from the plans,
    which share it across specs of one cost."""
    entries = np.arange(size)
    starts = (size * np.arange(count))[:, np.newaxis, np.newaxis]
    return ((starts + entries[:, np.newaxis]) * cost + starts + entries).reshape(count, size * size)


def _require_interior_ball(norm: float, tol: Tolerance, what: str) -> None:
    if norm >= 1.0 - tol.psd_margin:
        raise MembershipViolation(f"{what} has norm {norm:.6f}, too close to the sphere")


def _connecting_matrix(z: np.ndarray) -> np.ndarray:
    """[[0, Z^t], [Z, 0]] for a p x q matrix Z, or for each of a stack: a
    symmetric matrix with the nonzero singular values of Z, so it keeps the
    distance to the origin."""
    p, q = z.shape[-2:]
    out = np.zeros(z.shape[:-2] + (p + q, p + q), dtype=np.complex128)
    out[..., :q, q:] = z.swapaxes(-1, -2)
    out[..., q:, :q] = z
    return out


@lru_cache(maxsize=None)
def _conjugation_units(p: int, m: int) -> np.ndarray:
    """The units a(M) of the negative multi-indices, in basis order, which
    divide the positive rows reversed in the balanced symmetric model.
    Reversed, because complementing the m-subsets of the 2m = p + 1 rows
    reverses their lexicographic order: the complement of negative i is
    positive r - 1 - i."""
    return np.array([conjugation_unit(M, p) for M in wedge_basis(p, m).negatives], dtype=np.complex128)


@lru_cache(maxsize=None)
def _laplace_plan(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expansion of the k x k minors of an n-row column stack along its
    k-th column.  For each k-subset R of the rows, in lexicographic order,
    and each position t in R: the row R_t, the lexicographic position of
    the (k-1)-subset R minus R_t, and the cofactor sign (-1)^(t+k-1)."""
    lower = {rows: i for i, rows in enumerate(itertools.combinations(range(n), k - 1))}
    subsets = list(itertools.combinations(range(n), k))
    rows = np.array(subsets, dtype=np.intp).reshape(len(subsets), k)
    minors = np.array(
        [[lower[subset[:t] + subset[t + 1 :]] for t in range(k)] for subset in subsets], dtype=np.intp
    ).reshape(len(subsets), k)
    signs = np.array([(-1.0) ** (t + k - 1) for t in range(k)])
    return rows, minors, signs


def _point_slices(count: int, entries_per_point: int) -> list[slice]:
    """Consecutive slices of a stack of ``count`` points, each holding at
    most ``_STACK_ENTRIES`` entries at ``entries_per_point``, and at least
    one point."""
    step = max(1, _STACK_ENTRIES // entries_per_point)
    return [slice(start, start + step) for start in range(0, count, step)]


def _block_entries(spec: EmbeddingSpec) -> int:
    """Entries of a spec's factor blocks at one point."""
    return sum(f.block_size**2 for f in spec.factors)


def _wedge_coefficients(coords: np.ndarray, m: int) -> np.ndarray:
    """Wedge coordinates of the negative-subspace basis at every row of a
    (B, p) coordinate stack, shape (B, C(p+1, m), s), in basis order.

    Each of the s basis vectors wedges the positive vectors b_i of one
    degree-(m-1) subset, left to right, with v.  Its coordinates are the
    m x m minors of that (p+1) x m column stack, built by the Laplace
    recursion: the k x k minors of the first k columns, for every k-subset
    of rows, are the expansion along column k of the (k-1) x (k-1) minors
    of the first k - 1 columns."""
    count, p = coords.shape
    _, sub_idx, order = _basis_rows(p, m)
    # Entries, per point, of the products of the recursion's widest step.
    largest = max(len(sub_idx) * comb(p + 1, k) * k for k in range(1, m + 1))
    # Row i of plus is b_i = e_i + conj(z_i) e_{p+1}.
    plus = np.zeros((count, p, p + 1), dtype=np.complex128)
    plus[:, :, :p] = np.eye(p)
    plus[:, :, p] = np.conj(coords)
    v = np.concatenate([coords, np.ones((count, 1), dtype=np.complex128)], axis=1)[:, np.newaxis, :]
    coeffs = np.empty((count, len(order), len(sub_idx)), dtype=np.complex128)
    for part in _point_slices(count, largest):
        # Column k of every stack as a (b, s, p + 1) or, for v, (b, 1, p + 1) array.
        columns = [plus[part][:, sub_idx[:, k], :] for k in range(m - 1)] + [v[part]]
        minors = columns[0]
        for k, column in enumerate(columns[1:], 2):
            rows, lower, signs = _laplace_plan(p + 1, k)
            terms = column[..., rows] * minors[..., lower]
            terms *= signs
            minors = terms.sum(axis=-1)
        coeffs[part] = minors[..., order].swapaxes(1, 2)
    return coeffs


def _wedge_blocks(coords: np.ndarray, models, tol: Tolerance) -> list[np.ndarray]:
    """Normalized wedge blocks X Y^{-1} at every row of a (B, p) coordinate
    stack, one (B, r, s) array per ``(m, symmetric)`` model.  The models of
    a degree share its minors and its negative block Y, so a degree takes
    one kernel call and one stacked solve, with the X rows of its two
    models stacked when the models ask for both.  A symmetric model's X
    rows are the positive rows reversed, divided by the units
    (:func:`_conjugation_units`).  Each block has the bits of the same point
    and model evaluated alone: LAPACK solves each right-hand column by the
    same steps.  The caller validates the degrees and the points."""
    p = coords.shape[1]
    solved: dict[tuple[int, bool], np.ndarray] = {}
    for m in dict.fromkeys(m for m, _ in models):
        coefficients = _wedge_coefficients(coords, m)
        r, _ = signature(p, m)
        kinds = [symmetric for symmetric in (False, True) if (m, symmetric) in models]
        x_blocks = []
        for symmetric in kinds:
            x_block = coefficients[:, :r, :]
            if symmetric:
                x_block = x_block[:, ::-1, :] / _conjugation_units(p, m)[:, np.newaxis]
            x_blocks.append(x_block)
        # A degree with one model, as in every factor_form call, takes no concatenate.
        rows = x_blocks[0] if len(x_blocks) == 1 else np.concatenate(x_blocks, axis=1)
        try:
            normalized = solve_right(rows, coefficients[:, r:, :], tol)
        except SingularSystem as exc:
            raise NormalizationSingular(f"negative block not invertible: {exc}") from exc
        for i, symmetric in enumerate(kinds):
            solved[m, symmetric] = np.ascontiguousarray(normalized[:, i * r : (i + 1) * r])
    return [solved[model] for model in models]


def _interior_rows(coords: np.ndarray, tol: Tolerance) -> np.ndarray:
    """A (B, N) coordinate stack, its rows checked in turn as
    :func:`_ball_coords` checks a ball point, naming row i: by the row's own
    norm, as :class:`BallPoint` measures it (a norm along an axis of the
    stack can round differently)."""
    for i, row in enumerate(coords):
        _require_interior_ball(float(np.linalg.norm(row)), tol, f"embedding input {i}")
    return coords


def _ball_coords(n: int, tol: Tolerance, *sequences) -> list[np.ndarray]:
    """The (B, n) coordinates of each of equal-length sequences of B ball
    points, every member checked once: member i of each sequence before
    member i + 1.  An input of another dimension, or on or outside the
    sphere, raises, naming its index i: a sample or a pair of samples."""
    for i, members in enumerate(zip(*sequences)):
        for point in members:
            if point.n != n:
                raise SpecMismatch(f"embedding input {i}: spec expects ball dimension {n}, got {point.n}")
            _require_interior_ball(point.norm, tol, f"embedding input {i}")
    return [
        np.array([point.coords for point in points], dtype=np.complex128).reshape(len(points), n)
        for points in sequences
    ]


def _factor_blocks(factors, coords: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """The constructions of factors of one source dimension at every row of
    a (B, p) coordinate stack: one (B, b, b) array of symmetric blocks per
    factor, with one wedge kernel call for all of them.  A standard factor
    moves its degree-1 block by a fixed automorphism of III_g: the p x 1
    block of ``standard_I`` is transposed, which rotates the connected
    block's indices by one, and that of ``standard_III`` is multiplied by i."""
    blocks = []
    for factor, wedge in zip(factors, _wedge_blocks(coords, [f.wedge_model for f in factors], tol)):
        if factor.kind is FactorKind.STANDARD_I:
            wedge = wedge.swapaxes(1, 2)
        elif factor.kind is FactorKind.STANDARD_III:
            wedge = 1j * wedge
        blocks.append(wedge if factor.wedge_model[1] else _connecting_matrix(wedge))
    return blocks


@lru_cache(maxsize=None)
def factor_form(factor: FactorSpec) -> tuple[np.ndarray, np.ndarray]:
    """A factor's block as a fixed linear map ``A`` and its left inverse ``P``.

    Column k of ``A`` is the block of the probe ``LINEARIZATION_PROBE * e_k``
    divided by the probe radius, flattened row major, so ``A @ z`` is the
    flattened block of z.  ``P`` is the pseudoinverse of ``A``; the columns
    of ``A`` are orthogonal of equal norm, so ``P`` is well conditioned and
    ``P @ A`` is the identity.  Both arrays are read-only.
    """
    probes = LINEARIZATION_PROBE * np.eye(factor.p, dtype=np.complex128)
    (blocks,) = _factor_blocks((factor,), probes, DEFAULT_TOLERANCE)
    matrix = np.ascontiguousarray(blocks.reshape(factor.p, -1).T)
    matrix /= LINEARIZATION_PROBE
    pseudo = np.linalg.pinv(matrix)
    matrix.setflags(write=False)
    pseudo.setflags(write=False)
    return matrix, pseudo


def _embed_blocks(spec: EmbeddingSpec, coords: np.ndarray) -> list[np.ndarray]:
    """The diagonal blocks ``A_f z`` of the images of B ball points, given
    as their (B, N) coordinates checked by :func:`_ball_coords`: one
    read-only (B, b, b) array per distinct factor (:func:`_copy_plan`),
    each member with the bits :func:`direct_sum_embed` places on every copy
    of the factor on its zero g x g matrix, computed without it."""
    blocks = []
    for factor, _ in _copy_plan(spec):
        matrix, _ = factor_form(factor)
        # One matrix-vector product per member, the same as A_f @ z: the
        # matrix product C @ A_f^T rounds the signs of zeros differently.
        size = factor.block_size
        block = (matrix @ coords[..., np.newaxis])[..., 0].reshape(-1, size, size)
        block.setflags(write=False)
        blocks.append(block)
    return blocks


def direct_sum_embed(spec: EmbeddingSpec, z: BallPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> DomainPoint:
    """Evaluate the embedding at a ball point: each factor's compiled block
    ``A_f z`` on the diagonal of a read-only type III :class:`DomainPoint`,
    zero padding.  Any input but a :class:`BallPoint` of the spec's
    dimension, inside the sphere, raises."""
    if not isinstance(z, BallPoint):
        raise SpecMismatch(f"expected a BallPoint, got {type(z).__name__}")
    if z.n != spec.source_dim:
        raise SpecMismatch(f"spec expects ball dimension {spec.source_dim}, got {z.n}")
    _require_interior_ball(z.norm, tol, "embedding input")
    # Its own loop, not a batch of one through _embed_blocks: the stacked
    # kernel's set-up is a large share of a one-point call.  The image comes
    # first, so a genus too big to allocate fails in numpy before any work.
    g, cost = spec.target_g, spec.cost
    out = np.zeros((g, g), dtype=np.complex128)
    square = out if cost == g else np.zeros((cost, cost), dtype=np.complex128)
    flat = square.reshape(-1)
    for factor, index in _copy_plan(spec):
        matrix, _ = factor_form(factor)
        # One product per distinct factor, written into all its copies.
        flat[index] = matrix @ z.coords
    if square is not out:
        out[:cost, :cost] = square
    # Frozen, so the point keeps it without a copy.
    out.setflags(write=False)
    return DomainPoint(type_iii_shape(g), out)


def _oracle_residuals(spec: EmbeddingSpec, coords: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Per row of a (B, N) coordinate stack checked by :func:`_ball_coords`,
    ``max|reference - image|`` over the factor blocks: the compiled blocks
    ``A_f z`` of :func:`_embed_blocks` against the constructions of the
    distinct factors, the oracle the compiled map is checked against.  Both
    are zero off the blocks of the g x g target, and copies repeat a block,
    so this is the largest deviation over the whole target, with its bits,
    and no g x g array is built; the padding of :func:`direct_sum_embed` is
    checked apart, once, on a probe (:func:`_check_padding`).  The points
    are evaluated a slice at a time."""
    residuals = np.empty(len(coords))
    for part in _point_slices(len(coords), _block_entries(spec)):
        references = _factor_blocks([factor for factor, _ in _copy_plan(spec)], coords[part], tol)
        images = _embed_blocks(spec, coords[part])
        residuals[part] = reduce(
            np.maximum, [np.abs(image - reference).max(axis=(1, 2)) for image, reference in zip(images, references)]
        )
    return residuals


def _check_padding(spec: EmbeddingSpec, tol: Tolerance) -> None:
    """Check that :func:`direct_sum_embed` places the compiled blocks and
    nothing else: its image of a probe point, of norm
    ``LINEARIZATION_PROBE`` with every coordinate nonzero (each of its own
    modulus and phase), must be zero off the factor blocks and equal
    :func:`_embed_blocks` on each copy's range of them, exactly.  The
    padding does not depend on the point, so one probe checks it for every
    point.  The image is read in place: no copy and no ``abs`` of the g x g
    array unless the check fails."""
    k = np.arange(1, spec.source_dim + 1)
    direction = k * np.exp(1j * k)
    probe = BallPoint(direction * (LINEARIZATION_PROBE / np.linalg.norm(direction)))
    image = direct_sum_embed(spec, probe, tol).z
    layout = block_layout(spec)
    # Each distinct factor's block, once per copy, in layout order.
    distinct = zip(_copy_plan(spec), _embed_blocks(spec, probe.coords[np.newaxis, :]))
    blocks = [block for (_, index), (block,) in distinct for _ in index]
    if not image[spec.cost :].any() and all(
        not image[start:stop, :start].any()
        and not image[start:stop, stop:].any()
        and np.array_equal(image[start:stop, start:stop], block)
        for (_, start, stop), block in zip(layout, blocks)
    ):
        return
    reference = np.zeros_like(image)
    for (_, start, stop), block in zip(layout, blocks):
        reference[start:stop, start:stop] = block
    worst = float(np.abs(image - reference).max())
    raise NonlinearityDetected(
        f"embedding deviates from its factor blocks by {worst:.3e} "
        f"at the probe z={np.array2string(probe.coords, precision=6)}"
    )


def _linearization(spec: EmbeddingSpec, tol: Tolerance, seed: int, samples) -> tuple[np.ndarray, np.ndarray]:
    """:func:`linearize`, and the oracle residuals of the (B, N) sample rows
    ``samples`` from the same stack: the ``_CHECK_POINTS`` seeded check
    points and the samples take one pass of the factor constructions.
    Each stack's rows are checked with their own indices, the check points
    first, and the padding once on a probe; a deviation at a check point
    raises before any residual of the samples is returned."""
    check_coords = _interior_rows(sample_ball_coords(generator(seed, 0x11E4), spec.source_dim, _CHECK_POINTS), tol)
    sample_coords = _interior_rows(samples, tol)
    _check_padding(spec, tol)
    residuals = _oracle_residuals(spec, np.concatenate([check_coords, sample_coords]), tol)
    i = int(np.argmax(residuals[:_CHECK_POINTS]))
    worst = float(residuals[i])
    if worst > tol.eq_tol:
        raise NonlinearityDetected(
            f"embedding deviates from its linearization by {worst:.3e} > {tol.eq_tol:.3e} "
            f"at z={np.array2string(check_coords[i], precision=6)}"
        )
    matrix = np.concatenate([factor_form(factor)[0] for factor, _, _ in block_layout(spec)])
    matrix.setflags(write=False)
    return matrix, residuals[_CHECK_POINTS:]


def linearize(spec: EmbeddingSpec, tol: Tolerance = DEFAULT_TOLERANCE, seed: int = 0) -> np.ndarray:
    """The compiled embedding, checked against the factor constructions.

    Returns the factors' matrices ``A_f`` stacked in :func:`block_layout`
    order, shape ``(sum b_f**2, N)``: its rows are the flattened diagonal
    blocks of the image.  The constructions are first evaluated on
    ``_CHECK_POINTS`` seeded interior points and compared with the
    compiled blocks, and :func:`direct_sum_embed` is checked to place
    those blocks on zeros, raising :class:`NonlinearityDetected` on
    disagreement beyond ``eq_tol`` (on the blocks) or on any entry off
    them.
    """
    return _linearization(spec, tol, seed, np.empty((0, spec.source_dim), dtype=np.complex128))[0]


def _budget_catalog(source_dim: int, g_max: float) -> tuple[FactorSpec, ...]:
    """The admissible factors of a source dimension whose blocks fit in
    ``g_max`` (all of them at ``math.inf``), sorted by kind then degree,
    once the source dimension and the budget are checked.

    Degree m's connecting block has size C(N+1, m), which rises from both
    ends of 1..N toward the middle: the walk goes up from m = 1, stops at
    the first block that does not fit, and takes each fitting degree's
    mirror N + 1 - m with it.  Each block is sized once, and only up to
    the budget (:func:`_block_size_within`): at N = 10^6 the symmetric
    block's whole binomial would take seconds."""
    if source_dim < 1 or g_max < 1:
        raise DimensionMismatch("source dimension and budget must be positive")
    n = source_dim
    factors = []
    for m in range(1, (n + 1) // 2 + 1):
        factor = FactorSpec(FactorKind.CONNECTING_LAMBDA, n, m)
        if _block_size_within(factor, g_max) is None:
            break
        factors.append(factor)
        if 2 * m < n + 1:
            factors.append(FactorSpec(FactorKind.CONNECTING_LAMBDA, n, n + 1 - m))
    others = [FactorSpec(FactorKind.LAMBDA_III, n, (n + 1) // 2)] if n % 4 == 1 else []
    others.append(FactorSpec(FactorKind.STANDARD_I, n, 1))
    if n == 1:
        others.append(FactorSpec(FactorKind.STANDARD_III, 1, 1))
    factors += [f for f in others if _block_size_within(f, g_max) is not None]
    return tuple(sorted(factors, key=lambda f: (f.kind.value, f.m)))


def _spec_count(source_dim: int, g_max: int, limit: int) -> tuple[int, bool]:
    """How many specs :func:`enumerate_specs` returns, counted without
    building them, and whether the count is exact.

    The specs are the nonempty multisets of catalog factors of total block
    size at most ``g_max``: a coin-change count over the block sizes, kept
    only at the totals the factors can reach, so its cost grows with their
    number, not with ``g_max``.  Where the c factors of the least block size
    b alone make more than ``limit`` specs, C(g_max // b + c, c) - 1 of
    them, that lower bound is returned instead, so a budget far beyond the
    limit is refused in constant time."""
    sizes = [f.block_size for f in _budget_catalog(source_dim, g_max)]
    if not sizes:
        return 0, True
    least = min(sizes)
    bound = comb(g_max // least + sizes.count(least), sizes.count(least)) - 1
    if bound > limit:
        return bound, False
    # ways[t]: the multisets of the factors seen so far with total t, at
    # every reachable t.  A factor of size b adds the totals t + j b to each
    # residue class mod b from its least reachable total, and the new count
    # at t is the old one plus the new one at t - b.
    ways = {0: 1}
    for size in sizes:
        firsts: dict[int, int] = {}
        for total in sorted(ways):
            firsts.setdefault(total % size, total)
        extended = {}
        for first in firsts.values():
            running = 0
            for total in range(first, g_max + 1, size):
                running += ways.get(total, 0)
                extended[total] = running
        ways = extended
    return sum(ways.values()) - 1, True


def enumerate_specs(source_dim: int, g_max: int) -> tuple[tuple[EmbeddingSpec, ...], int]:
    """All factor multisets within the genus budget, plus the minimal genus.

    Specs are deduplicated up to factor reordering (multisets are
    generated directly) and each carries ``target_g`` equal to its exact
    cost.  ``minimal_g`` is the smallest cost over all nonempty multisets,
    reported even when the budget admits none.
    """
    catalog = _budget_catalog(source_dim, g_max)
    # An empty catalog means N > 1 (standard_III costs 1 at N = 1), and past
    # N = 1 no factor costs less than standard_I, whose block is N + 1.
    minimal_g = min((f.block_size for f in catalog), default=source_dim + 1)
    specs: list[EmbeddingSpec] = []

    def extend(start: int, chosen: list[FactorSpec], budget: int) -> None:
        for i in range(start, len(catalog)):
            f = catalog[i]
            if f.block_size > budget:
                continue
            chosen.append(f)
            specs.append(EmbeddingSpec(source_dim, tuple(chosen), sum(c.block_size for c in chosen)))
            extend(i, chosen, budget - f.block_size)
            chosen.pop()

    extend(0, [], g_max)
    specs.sort(key=lambda s: (s.cost, tuple((f.kind.value, f.m) for f in s.factors)))
    return tuple(specs), minimal_g
