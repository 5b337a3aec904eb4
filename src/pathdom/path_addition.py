"""Path insertion between vertex pairs and the domination response to it.

``add_path(g, u, v, k)`` glues a path with k internal vertices between u
and v (k=0 is plain edge addition).  The path addition number of a pair
is the least k >= 1 whose insertion raises the domination number; theory
bounds it by 3 for adjacent pairs and 5 for nonadjacent ones, so the
ascending scan is capped one above that and a cap hit is treated as a
solver bug, never a valid outcome.
"""

import math
from itertools import combinations
from typing import NamedTuple

from .domination import domination_number
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
    Any existing edge uv stays.
    """
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("endpoints out of range")
    if u == v:
        raise ValueError("path addition needs two distinct endpoints")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        if g.has_edge(u, v):
            return g
        masks = list(g.nbr)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        return Graph._from_trusted_masks(n, tuple(masks))
    masks = list(g.nbr) + [0] * k
    chain = [u] + list(range(n, n + k)) + [v]
    for a, b in zip(chain, chain[1:]):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return Graph._from_trusted_masks(n + k, tuple(masks))


def domination_after_path(g: Graph, u: int, v: int, k: int) -> int:
    return domination_number(add_path(g, u, v, k))


def path_addition_number(g: Graph, u: int, v: int) -> int:
    """Least k >= 1 such that inserting k internal path vertices between
    u and v raises the domination number."""
    if g.n < 2:
        raise ValueError("path addition numbers need at least 2 vertices")
    gamma = domination_number(g)
    for k in range(1, _SCAN_CAP + 1):
        if domination_after_path(g, u, v, k) > gamma:
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
