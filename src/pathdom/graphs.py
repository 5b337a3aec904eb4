"""Immutable simple graphs backed by per-vertex neighborhood bitmasks.

Vertices are dense 0-indexed integers 0..n-1.  Every neighborhood is a
Python int used as a bit vector, which keeps set algebra (unions,
intersections, popcounts) cheap for the desk-scale graphs this library
targets (up to a few dozen vertices).
"""

from itertools import combinations
from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "bits",
    "mask_of",
    "set_of",
    "from_edge_mask",
    "edge_mask",
    "subdivide_edge",
    "enumerate_labeled_graphs",
]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class Graph:
    """A simple undirected graph; immutable, hashable, picklable.

    ``nbr[v]`` is the open-neighborhood bitmask of ``v`` and
    ``closed[v] = nbr[v] | 1 << v``.  Instances must never be mutated
    after construction; all operations in this package return new graphs.
    """

    __slots__ = ("n", "nbr", "closed", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop edge ({u}, {u}) is not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.nbr = tuple(masks)
        self.closed = tuple(m | (1 << v) for v, m in enumerate(self.nbr))
        self._hash = hash((n, self.nbr))

    @classmethod
    def _from_trusted_masks(
        cls, n: int, masks: tuple[int, ...], closed: tuple[int, ...] | None = None
    ) -> "Graph":
        # internal fast path: caller guarantees symmetry and irreflexivity,
        # and that ``closed``, when given, is masks[v] | 1 << v row by row
        g = object.__new__(cls)
        g.n = n
        g.nbr = masks
        g.closed = closed or tuple(m | (1 << v) for v, m in enumerate(masks))
        g._hash = hash((n, masks))
        return g

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> frozenset[int]:
        return set_of(self.nbr[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.nbr[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            m = self.nbr[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(m))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.nbr) // 2

    def non_edges(self) -> list[tuple[int, int]]:
        """All nonadjacent pairs (u, v) with u < v, in lexicographic order."""
        return [
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if not self.nbr[u] >> v & 1
        ]

    # -- structural predicates ----------------------------------------------

    def is_edgeless(self) -> bool:
        return all(m == 0 for m in self.nbr)

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.closed[v] == full for v in range(self.n))

    def is_connected(self) -> bool:
        """True when every vertex is reachable from vertex 0 (vacuously for n = 0)."""
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.nbr[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        m = mask_of(vertices)
        return all(self.nbr[v] & m == 0 for v in bits(m))

    def is_vertex_cover(self, vertices: Iterable[int]) -> bool:
        """True when every edge has at least one endpoint in the given set."""
        m = mask_of(vertices)
        return all(self.nbr[v] & ~m == 0 for v in bits(~m & (1 << self.n) - 1))

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.nbr == other.nbr
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Graph._from_trusted_masks, (self.n, self.nbr))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


# -- colex edge masks (shared with the graph6 codec) -------------------------


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph on n vertices whose edge set is given by a colex-indexed bitmask."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    npairs = n * (n - 1) // 2
    if mask < 0 or mask >> npairs:
        raise ValueError(f"edge mask out of range for n={n}")
    # vertex v's lower row is the v bits after the first v(v-1)/2, and each
    # of its edges also goes into the other endpoint's row
    masks = [0] * n
    start = 0
    for v in range(1, n):
        row = mask >> start & ((1 << v) - 1)
        start += v
        masks[v] = row
        vbit = 1 << v
        while row:
            low = row & -row
            masks[low.bit_length() - 1] |= vbit
            row ^= low
    return Graph._from_trusted_masks(n, tuple(masks))


def edge_mask(g: Graph) -> int:
    """Inverse of from_edge_mask: vertex v's lower row, shifted into place."""
    mask = 0
    start = 0
    for v in range(1, g.n):
        mask |= (g.nbr[v] & ((1 << v) - 1)) << start
        start += v
    return mask


# -- derived graphs -----------------------------------------------------------


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace the edge uv by a length-2 path through a new vertex labeled n."""
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    n = g.n
    w = n
    masks = list(g.nbr) + [0]
    masks[u] &= ~(1 << v)
    masks[v] &= ~(1 << u)
    masks[u] |= 1 << w
    masks[v] |= 1 << w
    masks[w] = (1 << u) | (1 << v)
    return Graph._from_trusted_masks(n + 1, tuple(masks))


def enumerate_labeled_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, edge-mask ascending.

    Lazy: each graph is built when it is drawn, so taking the first graph
    costs one graph at any n.  How far an exhaustive corpus may go is the
    verify runner's limit, not this generator's.
    """
    for mask in range(1 << (n * (n - 1) // 2)):
        g = from_edge_mask(n, mask)
        if connected_only and not g.is_connected():
            continue
        yield g
