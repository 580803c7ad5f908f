"""The spec count as ``embeddings._spec_count`` took it over a list of
every total from 0 to the budget: the reference its count over the
reachable totals is held to.  Its time and memory grow with the budget."""

from __future__ import annotations

from math import comb

from siegelmaps.embeddings import _budget_catalog


def list_spec_count(source_dim: int, g_max: int, limit: int) -> tuple[int, bool]:
    sizes = [f.block_size for f in _budget_catalog(source_dim, g_max)]
    if not sizes:
        return 0, True
    least = min(sizes)
    bound = comb(g_max // least + sizes.count(least), sizes.count(least)) - 1
    if bound > limit:
        return bound, False
    # ways[t]: the multisets of the factors seen so far with total t.
    ways = [1] + [0] * g_max
    for size in sizes:
        for total in range(size, g_max + 1):
            ways[total] += ways[total - size]
    return sum(ways) - 1, True
