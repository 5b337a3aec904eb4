"""Path insertion between vertex pairs and the domination response to it.

``add_path(g, u, v, k)`` glues a path with k internal vertices between u
and v (k=0 is plain edge addition).  The path addition number of a pair
is the least k >= 1 whose insertion raises the domination number; theory
bounds it by 3 for adjacent pairs and 5 for nonadjacent ones, so the
ascending scan is capped one above that and a cap hit is treated as a
solver bug, never a valid outcome.  The scan knows gamma(G), so for each
k it asks a decision, whether G_{u,v,k} still has a dominating set of at
most gamma(G) vertices, and that search stops at the first such set; an
exact gamma(G_{u,v,k}) already memoised answers it without a search.
``domination_after_path`` stays an exact query.

A verify run asks about the same G_{u,v,k} several times: its exact value,
the scan, a profile.  ``add_path`` builds each one once and then returns
the same object, so the kernel's memo finds it by identity.  Its memo is
bounded by ``domination.CACHE_SIZE`` and emptied by
``domination.clear_caches``.
"""

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .domination import CACHE_SIZE, domination_number, domination_number_at_most
from .graphs import Graph

__all__ = [
    "INFINITE",
    "SolverInconsistencyError",
    "PaProfile",
    "add_path",
    "domination_after_path",
    "path_addition_number",
    "path_addition_profile",
    "SumBoundsCheck",
    "check_sum_bounds",
]

INFINITE = math.inf

_SCAN_CAP = 6


class SolverInconsistencyError(RuntimeError):
    """The ascending scan ran past its theoretical maximum: internal bug."""


def add_path(g: Graph, u: int, v: int, k: int) -> Graph:
    """Graph obtained by gluing a path with k internal vertices between u and v.

    Internal vertices are labeled n..n+k-1 in path order from u to v.
    k=0 adds the edge uv (idempotent when the edge is already present).
    Any existing edge uv stays.  The same arguments return the same graph
    object until ``clear_caches``.
    """
    return _add_path(g, u, v, k)


# private, like the caches of ``domination``: a tracer that rebinds
# ``add_path`` leaves this memo to ``clear_caches``
@lru_cache(maxsize=CACHE_SIZE)
def _add_path(g: Graph, u: int, v: int, k: int) -> Graph:
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("endpoints out of range")
    if u == v:
        raise ValueError("path addition needs two distinct endpoints")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 and g.has_edge(u, v):
        return g
    # only the endpoints' rows change and the path's rows are new, so the
    # base graph's rows are copied rather than rebuilt
    masks, closed = list(g.nbr), list(g.closed)
    ubit, vbit = (1 << v, 1 << u) if k == 0 else (1 << n, 1 << n + k - 1)
    masks[u] |= ubit
    closed[u] |= ubit
    masks[v] |= vbit
    closed[v] |= vbit
    last = n + k - 1
    for x in range(n, n + k):
        row = (1 << u if x == n else 1 << x - 1) | (1 << v if x == last else 1 << x + 1)
        masks.append(row)
        closed.append(row | 1 << x)
    return Graph._from_trusted_masks(n + k, tuple(masks), tuple(closed))


def domination_after_path(g: Graph, u: int, v: int, k: int) -> int:
    return domination_number(add_path(g, u, v, k))


def path_addition_number(g: Graph, u: int, v: int) -> int:
    """Least k >= 1 such that inserting k internal path vertices between
    u and v raises the domination number."""
    if g.n < 2:
        raise ValueError("path addition numbers need at least 2 vertices")
    gamma = domination_number(g)
    for k in range(1, _SCAN_CAP + 1):
        if not domination_number_at_most(add_path(g, u, v, k), gamma):
            return k
    raise SolverInconsistencyError(
        f"domination number never rose for pair ({u}, {v}) up to k={_SCAN_CAP}"
    )


class PaProfile(NamedTuple):
    """Path addition numbers for every vertex pair plus the four aggregates.

    ``pairs`` maps (u, v) with u < v to the pair's value.  Aggregates are
    min/max over adjacent and nonadjacent pairs; an empty pair class gets
    INFINITE by convention (edgeless graphs for the adjacent pair class,
    complete graphs for the nonadjacent one).
    """

    pairs: dict[tuple[int, int], int]
    min_adjacent: float
    max_adjacent: float
    min_nonadjacent: float
    max_nonadjacent: float


def path_addition_profile(g: Graph) -> PaProfile:
    if g.n < 2:
        raise ValueError("profiles need at least 2 vertices")
    pairs: dict[tuple[int, int], int] = {}
    adjacent, nonadjacent = [], []
    for u, v in combinations(range(g.n), 2):
        pa = path_addition_number(g, u, v)
        pairs[(u, v)] = pa
        (adjacent if g.has_edge(u, v) else nonadjacent).append(pa)
    return PaProfile(
        pairs=pairs,
        min_adjacent=min(adjacent, default=INFINITE),
        max_adjacent=max(adjacent, default=INFINITE),
        min_nonadjacent=min(nonadjacent, default=INFINITE),
        max_nonadjacent=max(nonadjacent, default=INFINITE),
    )


class SumBoundsCheck(NamedTuple):
    """Each field says whether the corresponding aggregate sum sits inside
    its documented window."""

    min_adj_plus_max_nonadj: bool  # within [2, 8]
    min_adj_plus_min_nonadj: bool  # within [2, 7]
    max_adj_plus_max_nonadj: bool  # within [3, 8]
    max_adj_plus_min_nonadj: bool  # within [3, 7]


def check_sum_bounds(g: Graph) -> SumBoundsCheck:
    """Validate the four aggregate-sum windows on a connected, noncomplete
    graph with edges (the hypotheses are checked and violations named)."""
    if g.is_edgeless():
        raise ValueError("sum bounds require a graph with edges")
    if not g.is_connected():
        raise ValueError("sum bounds require a connected graph")
    if g.is_complete():
        raise ValueError("sum bounds require a noncomplete graph")
    prof = path_addition_profile(g)
    return SumBoundsCheck(
        2 <= prof.min_adjacent + prof.max_nonadjacent <= 8,
        2 <= prof.min_adjacent + prof.min_nonadjacent <= 7,
        3 <= prof.max_adjacent + prof.max_nonadjacent <= 8,
        3 <= prof.max_adjacent + prof.min_nonadjacent <= 7,
    )
