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

Because every block is linear, each factor is compiled once, from the
signed index tables of the wedge basis, into a fixed matrix ``A_f`` and
its left inverse ``P_f = A_f^+`` (:func:`factor_form`): the only compiled
form of an embedding, which :func:`direct_sum_embed` and the retractions
apply.  Each spec has one copy plan (:func:`_copy_plan`), the one place
that knows of copies: for each distinct factor, the flat indices of its
copies' blocks.  :func:`direct_sum_embed` applies each distinct factor
once and writes all its copies through the plan; the verify suites embed
stacks of samples with :func:`_embed_blocks`, one block per distinct
factor, with the bits of applying each copy in turn.  The constructions
below are only the oracle the compiled blocks ``A_f z`` are checked
against: :func:`linearize` and the linearity suite evaluate them for the
distinct factors at seeded and sampled points, in one stack.  Both are
zero off the blocks, so no g x g image is built per point; the padding of
:func:`direct_sum_embed` is checked once, on a probe point with every
coordinate nonzero.  The oracle evaluates a stack of points at once: a
vectorized Laplace recursion for the wedge minors of each degree
(:func:`_wedge_coefficients`) and one stacked solve per degree, shared by
its models; a stacked block has the bits of the same point alone.  The
two are sized apart: the recursion runs in cache-sized blocks of points
(``_RECURSION_ENTRIES``), while the solves and compares take whole slices
of up to ``_STACK_ENTRIES`` block entries, so the 58 points of the g = 60
linearity suite take one solve per degree.  The negative block Y of that
solve is I - dG(z z*) on the (m-1)-th exterior power of C^p, with
singular values 1 and 1 - |z|^2, so its condition is known before the
solve: bounds 1 + d and 1 - |z|^2 - d on the computed block, d proven
from the rounding of the recursion and of |z|^2
(:func:`_negative_block_bounds`), prove the condition test at every order,
and the solve takes only the X rows.  Rows the bounds do not clear take
one SVD for the test, with the same bits and messages.

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
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import comb, inf

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
from .exterior import _basis_rows, _subset_units, _subsets, balanced_symmetric, signature
from .linalg import (
    _EPS,
    DEFAULT_TOLERANCE,
    Tolerance,
    _solve_conditioned,
    _squared_norms,
)
from .sampling import generator, sample_ball_coords

__all__ = [
    "EmbeddingSpec",
    "FactorKind",
    "FactorSpec",
    "block_layout",
    "direct_sum_embed",
    "enumerate_specs",
    "factor_form",
    "linearize",
]

# Seeded interior points at which linearize evaluates the oracle.
_CHECK_POINTS = 50

# Three budgets, in complex128 entries, for three kinds of array (cache
# blocking: Goto & van de Geijn, ACM TOMS 34(3), 2008), each passed to
# _point_slices by its caller.  _wedge_coefficients runs blocks of points
# whose widest Laplace step holds about _RECURSION_ENTRIES (128 KiB), so the
# gathered products stay in cache.  The stacks the oracle and the harness
# suites carry through the solves, embeds, eigensolves and compares are
# taken whole up to _STACK_ENTRIES entries of factor blocks (1 MiB), so
# each call is shared by many points while memory does not grow with their
# number.  On the g = 60 spec, at 950 block entries and a widest step of 600
# per point, the linearity suite's 58 points take one slice, one solve per
# degree and recursion blocks of 13 points, in 3.64 ms (best of 150
# interleaved runs, one BLAS thread, Python 3.11.7, numpy 2.4.6, a 2-core
# Xeon): one budget of 2^14 for both took 4.05 ms and one of 2^16 5.24 ms,
# and recursion budgets of 2^12 and 2^14 were 4-12% slower than 2^13.
# isometry_sandwich's slices keep _DISTANCE_ENTRIES (256 KiB): its distance
# kernel holds about six arrays of a slice's size and gains nothing from
# longer stacks.  On that spec at 200 samples the isometry suite took
# 70.8 ms at 2^14 and 72.0 ms at 2^16 (best of 30 interleaved runs), its
# traced peak 2.1 against 8.2 MiB.  No g x g image is built per point: the
# padding is checked once, on a probe.
_RECURSION_ENTRIES = 1 << 13
_STACK_ENTRIES = 1 << 16
_DISTANCE_ENTRIES = 1 << 14


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
    layout order: the plan groups the factors as they come, with a running
    offset.  No index depends on ``target_g``, so the stacked kernels,
    which never build an image, read the plan at any genus."""
    cost = spec.cost
    plan, start = [], 0
    for factor, copies in itertools.groupby(spec.factors):
        count, size = len(tuple(copies)), factor.block_size
        index = start * (cost + 1) + _copy_offsets(size, count, cost)
        index.setflags(write=False)
        plan.append((factor, index))
        start += count * size
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
    positive r - 1 - i.  The negatives are the lexicographic m-subsets
    that hold the last row, p."""
    return _subset_units(p, m)[_subsets(p, m)[:, -1] == p]


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


@lru_cache(maxsize=None)
def _signed_rows(n: int, k: int) -> np.ndarray:
    """The rows of :func:`_laplace_plan`, each moved by n where its cofactor
    sign is negative: indices into a column followed by its negation, so a
    gather through them carries the signs."""
    rows, _, signs = _laplace_plan(n, k)
    return rows + n * (signs < 0)


def _point_slices(count: int, entries_per_point: int, budget: int) -> list[slice]:
    """Consecutive slices of a stack of ``count`` points, each holding at
    most ``budget`` entries at ``entries_per_point``, and at least one
    point."""
    step = max(1, budget // entries_per_point)
    return [slice(start, start + step) for start in range(0, count, step)]


def _block_entries(spec: EmbeddingSpec) -> int:
    """Entries of a spec's factor blocks at one point, as the stacks hold
    them: one block per distinct factor (:func:`_copy_plan`)."""
    return sum(factor.block_size**2 for factor, _ in _copy_plan(spec))


def _wedge_coefficients(coords: np.ndarray, m: int) -> np.ndarray:
    """Wedge coordinates of the negative-subspace basis at every row of a
    (B, p) coordinate stack, shape (B, C(p+1, m), s), in basis order.

    Each of the s basis vectors wedges the positive vectors b_i of one
    degree-(m-1) subset, left to right, with v.  Its coordinates are the
    m x m minors of that (p+1) x m column stack, built by the Laplace
    recursion: the k x k minors of the first k columns, for every k-subset
    of rows, are the expansion along column k of the (k-1) x (k-1) minors
    of the first k - 1 columns.  The cofactor signs are gathered with the
    column entries (:func:`_signed_rows`): a negation is exact, so each
    product has the bits of the product times its sign.  The points go in
    blocks of about ``_RECURSION_ENTRIES`` entries of the widest step."""
    count, p = coords.shape
    _, sub_idx, order = _basis_rows(p, m)
    # Entries, per point, of the products of the recursion's widest step.
    largest = max(len(sub_idx) * comb(p + 1, k) * k for k in range(1, m + 1))
    # Row i of plus is b_i = e_i + conj(z_i) e_{p+1}.
    plus = np.zeros((count, p, p + 1), dtype=np.complex128)
    plus[:, :, :p] = np.eye(p)
    plus[:, :, p] = np.conj(coords)
    v = np.concatenate([coords, np.ones((count, 1), dtype=np.complex128)], axis=1)[:, np.newaxis, :]
    # Each vector followed by its negation, for the signed rows.
    plus, v = (np.concatenate([vectors, -vectors], axis=-1) for vectors in (plus, v))
    coeffs = np.empty((count, len(order), len(sub_idx)), dtype=np.complex128)
    for part in _point_slices(count, largest, _RECURSION_ENTRIES):
        # Column k of every stack as a (b, s, 2 (p + 1)) or, for v, (b, 1, 2 (p + 1)) array.
        columns = [plus[part][:, sub_idx[:, k], :] for k in range(m - 1)] + [v[part]]
        minors = columns[0][..., : p + 1]
        for k, column in enumerate(columns[1:], 2):
            _, lower, _ = _laplace_plan(p + 1, k)
            terms = column[..., _signed_rows(p + 1, k)] * minors[..., lower]
            minors = terms.sum(axis=-1)
        coeffs[part] = minors[..., order].swapaxes(1, 2)
    return coeffs


def _negative_block_bounds(coords: np.ndarray, m: int, s: int) -> tuple[float, np.ndarray]:
    """Bounds hi and lo, the second per row of a (B, p) coordinate stack, on
    the singular values of the computed s x s negative block Y' of degree m
    (:func:`_wedge_coefficients`): sigma_max(Y') <= hi = 1 + d and, where
    the computed lo = 1 - |z|^2 - d is positive, sigma_min(Y') >= lo, with

        d = (s m^2 2^(m-2) (1 + sqrt m) + 2 (p + 1)) eps.

    In exact arithmetic Y = I - dG(z z*), with dG the derivation that
    z z* induces on the (m-1)-th exterior power of C^p: b_I ^ v takes the
    term e_I ^ e_{p+1} from v and, from b_i and v, -conj(z_i) z_j times the
    wedge with e_j in the place of e_i.  z z* has eigenvalues |z|^2 and 0,
    so Y is Hermitian with singular values 1 and 1 - |z|^2 (Y = [1] for
    m = 1).  Rounding argument, with u = eps/2:

    * The minors.  Level k of the Laplace recursion forms each k x k minor
      of the first k columns as a signed sum of k products c_t M'_t of an
      entry of column k and a computed (k-1) x (k-1) minor; level 1 is the
      first column itself, exact.  Every entry has modulus at most 1 (0, 1,
      z_j or conj(z_j), and |z| < 1 where lo > 0, see below).  Over the k
      rows of a minor, the entries of a column b_i sum in modulus to at
      most 1 + |z_i| <= 2 and those of v to at most 1 + sqrt(m) |z|.  So A_k,
      the recursion run on moduli, is at most 2^(k-1) for k < m and
      A_m <= 2^(m-2) (1 + sqrt m).  A complex product rounds by at most
      sqrt(2) g_2 of its modulus, a sum of k terms by sqrt(2) g_(k-1) of
      their moduli, and the signs are exact (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., 2002, Lemma 3.5 and
      sec. 4.2), so by induction on k, |M'_k - M_k| <= e_k A_k with
      e_k <= e_(k-1) + sqrt(2) (k + 1) u (1 + O(k u)): e_m <= 0.36 (m^2 +
      3m) eps, at most m^2 eps.  Each entry of Y' is within
      m^2 2^(m-2) (1 + sqrt m) eps of Y's, and ||Y' - Y||_2 <= ||Y' - Y||_F
      is at most s times that.
    * Weyl's inequality.  Each singular value of Y' is within ||Y' - Y||_2
      of Y's, so in [1 - |z|^2, 1] widened by that much.
    * The norm.  |z|^2 is summed from 2p squares, with a relative error at
      most g_2p; lo's two subtractions round by about 2u.  Both lie within
      the 2 (p + 1) eps of d, so lo bounds sigma_min(Y') from below.  If
      |z| >= 1, the computed |z|^2 is at least 1 - g_2p and lo < 0, which
      bounds nothing and clears nothing.

    The bounds bound the computed block itself, so they can clear its
    condition test (:func:`_wedge_blocks`)."""
    p = coords.shape[1]
    squares = _squared_norms(coords)
    slack = (s * m**2 * 2.0 ** (m - 2) * (1.0 + np.sqrt(m)) + 2.0 * (p + 1)) * _EPS
    return 1.0 + slack, 1.0 - squares - slack


def _wedge_blocks(coords: np.ndarray, models, tol: Tolerance) -> list[np.ndarray]:
    """Normalized wedge blocks X Y^{-1} at every row of a (B, p) coordinate
    stack, one (B, r, s) array per ``(m, symmetric)`` model.  The models of
    a degree share its minors and its negative block Y, so a degree takes
    one kernel call and one stacked solve, with the X rows of its two
    models stacked when the models ask for both.  A symmetric model's X
    rows are the positive rows reversed, divided by the units
    (:func:`_conjugation_units`).

    Y's singular values are 1 and 1 - |z|^2, known before any solve
    (:func:`_negative_block_bounds`), and a row is cleared where
    lo > psd_margin * hi.  Then sigma_min(Y') >= lo > m hi >= m sigma_max(Y')
    for the computed block Y', m = psd_margin, so it provably passes the
    exact condition test (hi's 2 (p + 1) eps, which only lo needs, covers
    the rounding of m hi).  The rows not cleared, at the ball check's edge
    for (p, m) = (9, 7) and (9, 8) and more often from p = 10 up, take one
    SVD of their Y.  The X rows are solved alone and residual-checked
    (:func:`~siegelmaps.linalg._solve_conditioned`); each block has the
    bits of the same point and model evaluated alone.  The caller
    validates the degrees and the points.
    """
    p = coords.shape[1]
    solved: dict[tuple[int, bool], np.ndarray] = {}
    for m in dict.fromkeys(m for m, _ in models):
        coefficients = _wedge_coefficients(coords, m)
        r, s = signature(p, m)
        kinds = [symmetric for symmetric in (False, True) if (m, symmetric) in models]
        x_blocks = []
        for symmetric in kinds:
            x_block = coefficients[:, :r, :]
            if symmetric:
                x_block = x_block[:, ::-1, :] / _conjugation_units(p, m)[:, np.newaxis]
            x_blocks.append(x_block)
        rows = np.concatenate(x_blocks, axis=1)
        negative = coefficients[:, r:, :]
        hi, lo = _negative_block_bounds(coords, m, s)
        try:
            normalized = _solve_conditioned(rows, negative, lo > tol.psd_margin * hi, tol)
        except SingularSystem as exc:
            raise NormalizationSingular(f"negative block not invertible: {exc}") from exc
        for i, symmetric in enumerate(kinds):
            solved[m, symmetric] = np.ascontiguousarray(normalized[:, i * r : (i + 1) * r])
    return [solved[model] for model in models]


def _interior_rows(coords: np.ndarray, tol: Tolerance) -> np.ndarray:
    """A (B, N) coordinate stack, its rows checked as :func:`_ball_coords`
    checks a ball point, naming the first row i on or outside the sphere:
    by each row's norm with the bits of :class:`BallPoint`'s
    ``np.linalg.norm`` (:func:`~siegelmaps.linalg._squared_norms`;
    ``np.linalg.norm`` along an axis of the stack can round differently).
    A row whose norm is NaN passes, as in that check."""
    norms = np.sqrt(_squared_norms(coords))
    outside = norms >= 1.0 - tol.psd_margin
    if outside.any():
        i = int(np.argmax(outside))
        _require_interior_ball(float(norms[i]), tol, f"embedding input {i}")
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


def _placed_blocks(factor: FactorSpec, wedge: np.ndarray) -> np.ndarray:
    """A factor's (B, b, b) symmetric blocks from its model's (B, r, s) wedge
    blocks.  A standard factor moves its degree-1 block by a fixed automorphism
    of III_g: ``standard_I`` transposes its p x 1 block, which rotates the
    connected block's indices by one, and ``standard_III`` multiplies it by i."""
    if factor.kind is FactorKind.STANDARD_I:
        wedge = wedge.swapaxes(1, 2)
    elif factor.kind is FactorKind.STANDARD_III:
        wedge = 1j * wedge
    return wedge if factor.wedge_model[1] else _connecting_matrix(wedge)


def _factor_blocks(factors, coords: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """The constructions of factors of one source dimension at every row of
    a (B, p) coordinate stack: one (B, b, b) array of symmetric blocks per
    factor, with one wedge kernel call for all of them."""
    wedges = _wedge_blocks(coords, [f.wedge_model for f in factors], tol)
    return [_placed_blocks(factor, wedge) for factor, wedge in zip(factors, wedges)]


@lru_cache(maxsize=None)
def factor_form(factor: FactorSpec) -> tuple[np.ndarray, np.ndarray]:
    """A factor's block as a fixed linear map ``A`` and its left inverse ``P``.

    Column k of ``A`` is the flattened block of e_k, row major, read off the
    wedge basis with no evaluation: the linear X Y^{-1} is its derivative at
    0, the linear part of X, so the wedge block of e_k holds the Laplace sign
    (-1)^(t+m-1) of each positive R with k at position t, in the column of R
    minus k (:func:`_laplace_plan`), placed as the factor places its blocks.
    ``P = A^+``; the columns of ``A`` are orthogonal of equal norm, so ``P``
    is well conditioned and ``P @ A`` is the identity.  Both are read-only.
    """
    p, (m, symmetric) = factor.p, factor.wedge_model
    rows, minors, signs = _laplace_plan(p, m)
    positives = np.arange(len(rows))[:, np.newaxis]
    wedge = np.zeros((p, len(rows), signature(p, m)[1]), dtype=np.complex128)
    if symmetric:
        # The positive rows reversed, divided by their units +-i; zero parts +0.
        units = _conjugation_units(p, m).imag[::-1, np.newaxis]
        wedge.imag[rows, positives[::-1], minors] = -signs * units
    else:
        wedge.real[rows, positives, minors] = signs
    matrix = np.ascontiguousarray(_placed_blocks(factor, wedge).reshape(p, -1).T)
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
        # One product per distinct factor, put into all its copies: the
        # index holds them row after row, and put repeats the product.
        flat.put(index, matrix @ z.coords)
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
    for part in _point_slices(len(coords), _block_entries(spec), _STACK_ENTRIES):
        references = _factor_blocks([factor for factor, _ in _copy_plan(spec)], coords[part], tol)
        images = _embed_blocks(spec, coords[part])
        residuals[part] = reduce(
            np.maximum, [np.abs(image - reference).max(axis=(1, 2)) for image, reference in zip(images, references)]
        )
    return residuals


def _check_padding(spec: EmbeddingSpec, tol: Tolerance) -> None:
    """Check that :func:`direct_sum_embed` places the compiled blocks and
    nothing else: its image of a probe point, of norm 0.25, well inside the
    ball, with every coordinate nonzero (each of its own modulus and phase),
    must be zero off the factor blocks and equal
    :func:`_embed_blocks` on each copy's range of them, exactly.  The
    padding does not depend on the point, so one probe checks it for every
    point.  The image is read in place: no copy and no ``abs`` of the g x g
    array unless the check fails."""
    k = np.arange(1, spec.source_dim + 1)
    direction = k * np.exp(1j * k)
    probe = BallPoint(direction * (0.25 / np.linalg.norm(direction)))
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


def _spec_tables(source_dim: int, g_max: int, limit: float) -> tuple[tuple, list[dict[int, int]], int, bool]:
    """The budget catalog; ``tables[i][t]``, the multisets of its blocks from
    position i on with total t, kept only at reachable t, so they grow with
    those totals, not with ``g_max``; and how many specs they make, with
    whether that count is exact.  Where the c factors of the least block
    size b alone make more than ``limit`` specs, C(g_max // b + c, c) - 1,
    that lower bound is returned with no tables, in constant time.  Block
    size b extends each residue class mod b from its least total; the count
    at t adds the next table's at t - b."""
    catalog = _budget_catalog(source_dim, g_max)
    sizes = [f.block_size for f in catalog]
    least = min(sizes, default=1)
    bound = comb(g_max // least + sizes.count(least), sizes.count(least)) - 1
    if bound > limit:
        return catalog, [], bound, False
    tables = [{0: 1}]
    for size in reversed(sizes):
        extended = {}
        for first in {total % size: total for total in sorted(tables[0], reverse=True)}.values():
            running = 0
            for total in range(first, g_max + 1, size):
                running += tables[0].get(total, 0)
                extended[total] = running
        tables.insert(0, extended)
    return catalog, tables, sum(tables[0].values()) - 1, True


def _spec_walk(source_dim: int, catalog: tuple, tables: list[dict[int, int]]) -> tuple[Iterator[EmbeddingSpec], int]:
    """The specs of :func:`enumerate_specs` from the catalog and tables of
    :func:`_spec_tables`, built as they are iterated, and the minimal genus:
    from each reachable cost, least first, a depth-first walk over
    nondecreasing catalog positions, lowest first (lexicographic order),
    entering position i only if ``tables[i]`` reaches the cost left."""
    sizes = [f.block_size for f in catalog]

    def walk() -> Iterator[EmbeddingSpec]:
        stack = [(0, cost, cost, ()) for cost in sorted(tables[0], reverse=True)[:-1]]
        while stack:
            start, cost, left, chosen = stack.pop()
            if not left:
                yield EmbeddingSpec(source_dim, chosen, cost)
            for i in reversed(range(start, len(catalog))):
                if left - sizes[i] in tables[i]:
                    stack.append((i, cost, left - sizes[i], chosen + (catalog[i],)))

    # An empty catalog has N > 1, where no block is smaller than standard_I's N + 1.
    return walk(), min(sizes, default=source_dim + 1)


def enumerate_specs(source_dim: int, g_max: int) -> tuple[tuple[EmbeddingSpec, ...], int]:
    """All factor multisets within the genus budget, by cost and then by
    factors, each with ``target_g`` its exact cost, and the minimal genus:
    the least cost of a nonempty multiset, even if the budget admits none.
    Multisets are generated directly, so no spec repeats up to factor order."""
    walk, minimal_g = _spec_walk(source_dim, *_spec_tables(source_dim, g_max, inf)[:2])
    return tuple(walk), minimal_g
