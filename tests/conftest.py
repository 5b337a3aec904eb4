"""Shared strategies and independent oracles for the test suite."""

from itertools import combinations, permutations

import hypothesis.strategies as st

from pathdom.graphs import Graph, from_edge_mask


@st.composite
def graphs(draw, min_n=0, max_n=6):
    """Uniform labeled graph: vertex count plus an edge bitmask."""
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return from_edge_mask(n, mask)


@st.composite
def graphs_with_pair(draw, min_n=2, max_n=5):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    u = draw(st.integers(0, g.n - 1))
    v = draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
    return g, min(u, v), max(u, v)


def naive_gamma(g: Graph) -> int:
    """Independent route: try all subsets in ascending size order."""
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for comb in combinations(range(g.n), size):
            dom = 0
            for v in comb:
                dom |= g.closed[v]
            if dom == full:
                return size
    raise AssertionError("full vertex set always dominates")


def naive_independent_gamma(g: Graph) -> int:
    """Independent route: the smallest independent dominating subset."""
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for comb in combinations(range(g.n), size):
            if not g.is_independent_set(comb):
                continue
            dom = 0
            for v in comb:
                dom |= g.closed[v]
            if dom == full:
                return size
    raise AssertionError("a maximal independent set always dominates")


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search; fine for the tiny fixtures that need it."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(
        h.degree(v) for v in range(h.n)
    ):
        return False
    gedges = g.edges()
    for p in permutations(range(g.n)):
        if all(h.has_edge(p[u], p[v]) for u, v in gedges):
            return True
    return False
