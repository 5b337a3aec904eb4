"""Shared strategies and independent oracles for the test suite."""

from itertools import combinations, permutations
from typing import Iterable

import hypothesis.strategies as st
import pytest

from pathdom import domination
from pathdom.graphs import Graph, bits, from_edge_mask, mask_of


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
    if sorted(m.bit_count() for m in g.nbr) != sorted(m.bit_count() for m in h.nbr):
        return False
    gedges = g.edges()
    for p in permutations(range(g.n)):
        if all(h.has_edge(p[u], p[v]) for u, v in gedges):
            return True
    return False


def from_masks(n: int, masks: Iterable[int]) -> Graph:
    """Build a graph from neighborhood bitmasks, validating the invariants
    that the package's own constructors guarantee by construction."""
    masks = tuple(masks)
    if len(masks) != n:
        raise ValueError(f"expected {n} masks, got {len(masks)}")
    full = (1 << n) - 1
    for v, m in enumerate(masks):
        if m & ~full:
            raise ValueError(f"mask of vertex {v} mentions vertices outside 0..{n - 1}")
        if m >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        for u in bits(m):
            if not masks[u] >> v & 1:
                raise ValueError(f"adjacency is not symmetric between {u} and {v}")
    return Graph._from_trusted_masks(n, masks)


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    m = mask_of(vertices)
    return all(g.closed[v] & m == m for v in bits(m))


def delete_vertices(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Test oracle: the induced subgraph on V(g) minus the given set, rebuilt
    and relabeled, to compare the kernel's in-place ``delete=`` against.

    Survivors are relabeled 0..n-|s|-1 in ascending original order; the
    returned map sends each surviving original label to its new label.
    """
    drop = mask_of(vertices)
    if drop & ~((1 << g.n) - 1):
        raise ValueError("vertex to delete is out of range")
    keep = [v for v in range(g.n) if not drop >> v & 1]
    relabel = {old: new for new, old in enumerate(keep)}
    masks = []
    for old in keep:
        m = 0
        for w in bits(g.nbr[old] & ~drop):
            m |= 1 << relabel[w]
        masks.append(m)
    return from_masks(len(keep), masks), relabel


def reference_solve(
    closed: tuple[int, ...],
    n: int,
    include: int = 0,
    drop: int = 0,
    conflict: tuple[int, ...] | None = None,
):
    """Test oracle: the search kernel before its bit loops were inlined
    and before its room-2 shortcut, kept verbatim so that the kernel's
    sizes and witnesses can be compared exactly.

    Minimum dominating set of the graph minus ``drop`` that contains
    ``include``, as (size, mask).

    Dropped vertices are neither candidates nor need to be dominated.
    With ``conflict``, choosing a vertex c also rules out every vertex of
    ``conflict[c]`` (``conflict=nbr`` asks for an independent set).
    """
    full = (1 << n) - 1 & ~drop
    dominated = 0
    for v in bits(include):
        dominated |= closed[v]
    allowed = full & ~include
    undom = full & ~dominated

    # greedy incumbent: repeatedly take the allowed vertex covering the most
    mask, avail = include, allowed
    while undom:
        pick, pickcov = -1, 0
        for c in bits(avail):
            cov = (closed[c] & undom).bit_count()
            if cov > pickcov:
                pick, pickcov = c, cov
        mask |= 1 << pick
        undom &= ~closed[pick]
        avail &= ~(1 << pick)
        if conflict:
            avail &= ~conflict[pick]
    best = [mask.bit_count(), mask]

    def rec(size: int, mask: int, dominated: int, allowed: int) -> None:
        undom = full & ~dominated
        if not undom:
            if size < best[0]:
                best[0], best[1] = size, mask
            return
        # admissible bound: every added vertex covers at most maxcov new ones
        maxcov = 0
        for c in bits(allowed):
            cov = (closed[c] & undom).bit_count()
            if cov > maxcov:
                maxcov = cov
        if not maxcov:
            return
        need = (undom.bit_count() + maxcov - 1) // maxcov
        if size + need >= best[0]:
            return
        # branch vertex: undominated with fewest candidate dominators
        w, wcount = -1, n + 1
        for x in bits(undom):
            cnt = (closed[x] & allowed).bit_count()
            if cnt < wcount:
                w, wcount = x, cnt
        rem = allowed
        for c in bits(closed[w] & allowed):
            cbit = 1 << c
            rem &= ~cbit
            rec(size + 1, mask | cbit, dominated | closed[c],
                rem & ~conflict[c] if conflict else rem)

    rec(include.bit_count(), include, dominated, allowed)
    return best[0], best[1]


@pytest.fixture
def kernel_solves(monkeypatch):
    """One entry per search kernel call made in the test, which starts and
    ends on empty caches."""
    calls = []
    solve = domination._solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(domination, "_solve", counted)
    domination.clear_caches()
    yield calls
    domination.clear_caches()
