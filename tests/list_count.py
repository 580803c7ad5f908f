"""References for the spec tables of ``embeddings``: the spec count as
``_spec_count`` took it over a list of every total from 0 to the budget,
and the specs as ``enumerate_specs`` listed them by a recursion over the
catalog followed by a sort.  Their time and memory grow with the budget."""

from __future__ import annotations

from math import comb

from siegelmaps.embeddings import EmbeddingSpec, _budget_catalog


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


def sorted_recursion_specs(source_dim: int, g_max: int) -> tuple[EmbeddingSpec, ...]:
    catalog = _budget_catalog(source_dim, g_max)
    specs = []

    def extend(start, chosen, budget):
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
    return tuple(specs)
