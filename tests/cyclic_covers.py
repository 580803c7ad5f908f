"""Families of cyclic covers of the projective line, and Moonen's condition.

A family of m-fold cyclic covers ``y^m = prod_{i <= N} (x - x_i)^{a_i}`` of
P^1, with ``0 < a_i < m``, ``sum a_i = 0 (mod m)`` and ``gcd(m, a) = 1``, is
a class of ``(m, a)`` up to permuting the ``a_i`` and multiplying them all
by a unit mod m.  Its fibres have genus g, by Riemann-Hurwitz,

    2g - 2 = -2m + sum_i (m - gcd(a_i, m)),

and by Chevalley-Weil the n-th eigenspace of H^{1,0} has dimension

    d_n = -1 + sum_i <-n a_i / m>,   <x> the fractional part of x,

so that H^1_n has signature (d_n, d_{m-n}).  The family's image in A_g is a
special subvariety, a totally geodesic ball quotient where the signatures
make it one, exactly when Moonen's condition (*) holds:

    N - 3 = sum_{0 < n < m/2} d_n d_{m-n} + [m even] d_{m/2} (d_{m/2} + 1) / 2

(Moonen, *Special subvarieties arising from families of cyclic covers of
the projective line*, Doc. Math. 15 (2010); Deligne-Mostow, Publ. IHES 63
(1986)).  Every formula is evaluated exactly, with ``fractions``.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd


def classes(m_max: int, n_max: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every class (m, a) with 2 <= m <= m_max and 4 <= N <= n_max branch
    points, each once, as the least sorted representative of its class."""
    for m in range(2, m_max + 1):
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        for n in range(4, n_max + 1):
            seen = set()
            for a in combinations_with_replacement(range(1, m), n):
                if sum(a) % m or gcd(m, *a) != 1:
                    continue
                least = min(tuple(sorted(u * x % m for x in a)) for u in units)
                if least not in seen:
                    seen.add(least)
                    yield m, least


def genus(m: int, a: tuple[int, ...]) -> int:
    """The genus of the fibres, by Riemann-Hurwitz."""
    return (-2 * m + sum(m - gcd(x, m) for x in a)) // 2 + 1


def eigenspace_dims(m: int, a: tuple[int, ...]) -> dict[int, int]:
    """d_n = dim H^{1,0}_n for n = 1 .. m - 1, by Chevalley-Weil: the
    fractional part of -n a_i / m is (-n a_i mod m) / m."""
    dims = {}
    for n in range(1, m):
        d = Fraction(sum(-n * x % m for x in a), m) - 1
        assert d.denominator == 1, (m, a, n)
        dims[n] = int(d)
    return dims


def _moonen_terms(m: int, a: tuple[int, ...]) -> dict[int, int]:
    """The nonzero terms of the right side of (*), keyed by the eigenspace
    n <= m/2 each comes from: d_n d_{m-n}, or d (d + 1) / 2 at n = m/2."""
    d = eigenspace_dims(m, a)
    terms = {n: d[n] * d[m - n] for n in range(1, (m + 1) // 2)}
    if m % 2 == 0:
        terms[m // 2] = d[m // 2] * (d[m // 2] + 1) // 2
    return {n: term for n, term in terms.items() if term}


def special(m: int, a: tuple[int, ...]) -> bool:
    """Whether the family satisfies Moonen's condition (*)."""
    return len(a) - 3 == sum(_moonen_terms(m, a).values())


def ball(m: int, a: tuple[int, ...]) -> tuple[str, int] | None:
    """The ball B^r that a special family's period domain is, as the
    standard factor that embeds it and r, or None where it is not a ball.

    A single term of (*) with signature (r, 1) or (1, r) is the ball of
    U(r, 1), which ``standard_I`` embeds at source dimension r; a single
    self-conjugate term with d_{m/2} = 1 is the upper half plane, III_1,
    which ``standard_III`` embeds at source dimension 1."""
    terms = _moonen_terms(m, a)
    if len(terms) != 1:
        return None
    ((n, term),) = terms.items()
    d = eigenspace_dims(m, a)
    if 2 * n == m:
        return ("standard_III", 1) if d[n] == 1 else None
    return ("standard_I", term) if min(d[n], d[m - n]) == 1 else None
