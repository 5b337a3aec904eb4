"""Exact domination-number computation and per-vertex classification.

The core solver is a branch-and-bound over adjacency bitmasks: it
branches on the undominated vertex with the fewest remaining candidate
dominators (ties to the smallest label) and seeds the incumbent with a
greedy cover.  Two lower bounds prune.  The coverage bound: when at
most r more vertices can be added and still improve, some allowed vertex
must cover at least undominated / r, and its scan stops at the first
that does.  The packing bound (after van Rooij and Bodlaender, "Exact
algorithms for dominating set", Discrete Appl. Math. 159, 2011):
undominated vertices whose candidate dominators are pairwise disjoint
each need their own new vertex; they are counted in the same pass that
picks the branch vertex, which stops as soon as the count rules the node
out.  The pass takes the narrow vertices (closed rows of at most two
bits: pendant and isolated vertices) first, then the rest, each in label
order.  A wider vertex counted first blocks them: in a corona a
label-order packing counts each base vertex before its pendant and
misses the count that closes the node.
A node with room for one more vertex only (the incumbent is two above
its size) is settled without branching: the vertices that complete the
set are the common candidate dominators of its undominated vertices, and
the lowest of them is the child the search would reach first.  This node
rule is written once, as ``_branch_vertex`` (both bounds and the branch
vertex) and ``_completions``, and both searches here run it.  The greedy
pick stops at the first vertex whose coverage reaches the most any vertex
could cover, since no later one can strictly beat it.
Results are exact and deterministic, including the witness sets.  With
the branching order fixed, the recorded set is the
first in search order that beats the greedy size, then the first after
it that beats that one, and so on; a node is cut only when it cannot
beat the incumbent, so any admissible bound, however computed, yields
the same witnesses.  The same search answers
constrained queries (forced vertices), vertex deletions without
relabeling, and independent domination.

A decision query asks only whether a dominating set of at most t vertices
exists, and it returns no witness.  The kernel takes t as a target.  A
greedy set that small answers yes at once; otherwise the incumbent is
seeded at t + 1, so the first set recorded answers yes, and the search
stops there.  Only the two places that record a set change, so a node is
expanded as in an exact search, and a decision never searches more nodes
than the exact query would.  Only exact queries record the improving
sequence above, so only they carry a witness, and theirs are unchanged.
``domination_number_at_most`` asks the decision, with the same forced and
deleted vertices as ``constrained_domination_number``.  Every caller that
already knows the number it compares with asks it: the path addition scan,
and every one- and two-vertex deletion question.  ``classify_vertices``
asks whether gamma(G - v) <= gamma - 1, which is v being critical, since
deleting one vertex lowers gamma by at most one; it asks only where the
relation below leaves it open (v good, and every neighbour of v dominated
by another vertex of a minimum set that contains v).  The oracle's rules
and the verify checks ask theirs the same way.

Which vertices lie in some minimum dominating set, and which pairs share
one, come from a second search, ``_relation``: for every vertex x, the
union of the minimum dominating sets that contain x.  It searches the
dominating sets of size gamma with the kernel's branching, which reaches
each of them once: a set is reached only through the first candidate of
the branch vertex that it contains, since the earlier candidates are
ruled out for the rest of that branch.  Its nodes run the kernel's node
rule, narrow-first packing included, against the fixed target gamma, and
its completion step takes every last vertex at once.  What a node finds
below depends only on its undominated vertices, the allowed vertices that
still dominate one of them, and its room, so each such state is searched
once, cut or not: branches that dominate the same vertices meet again, and
a graph of k disjoint pendant pairs takes about 2k nodes for its 2^k
minimum sets.  Sharing a set is symmetric, so each row is then completed
from the others.  The state memo lives as long as one search; it holds at
most ``_RELATION_STATES`` states and is emptied when full, which costs
time but no answer, since it only caches subtrees.  The search is not a
mode of ``_solve``: its target, returned union and state memo would each
be a branch in the kernel.
``shares_minimum_set``, ``all_minimum_sets_cliques``, ``good`` and
``strong_equality`` all read its rows.

Every exact kernel answer, a (size, witness) pair, is memoised once, in
``_search``; every relation in ``_relation``; and every report of
``classify_vertices`` in ``_classify``.  An exact hit is one dict lookup.  A
decision reads the exact answer to its query (graph, forced and deleted
vertices) if one is held, and otherwise searches; its verdict is not
stored, since a repeated decision is rare and its search cheap.  The three
caches are private, so a tracer that rebinds the public functions leaves
them to ``clear_caches``, and ``CACHE_SIZE`` bounds each.  ``clear_caches``
also empties ``path_addition``'s memo of path-added graphs.
"""

from functools import lru_cache
from typing import Iterable, NamedTuple

from .graphs import Graph, bits, mask_of, set_of

__all__ = [
    "DominationReport",
    "is_dominating",
    "domination_number",
    "domination_number_at_most",
    "minimum_dominating_set",
    "constrained_domination_number",
    "shares_minimum_set",
    "independent_domination_number",
    "private_neighbors",
    "classify_vertices",
    "all_minimum_sets_cliques",
    "clear_caches",
]


class DominationReport(NamedTuple):
    """Everything the characterization layer needs to know about one graph.

    good[v] / bad[v] say whether v belongs to some / no minimum dominating
    set; critical[v] says deleting v drops the domination number by one,
    and critical_vertices collects those v.  strong_equality means every
    minimum dominating set is independent (so the independent domination
    number is witnessed by all of them).
    """

    gamma: int
    witness: frozenset[int]
    good: tuple[bool, ...]
    bad: tuple[bool, ...]
    critical: tuple[bool, ...]
    critical_vertices: frozenset[int]
    independent_domination_number: int
    strong_equality: bool


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every vertex of g is in the set or adjacent to a member."""
    m = _checked_mask(g, vertices)
    dom = 0
    for v in bits(m):
        dom |= g.closed[v]
    return dom == (1 << g.n) - 1


def _checked_mask(g: Graph, vertices: Iterable[int]) -> int:
    m = mask_of(vertices)
    if m & ~((1 << g.n) - 1) or m < 0:
        raise ValueError("vertex set is not contained in the graph")
    return m


def _query_masks(g: Graph, include: Iterable[int], delete: Iterable[int]) -> tuple[int, int]:
    """The checked (include, drop) masks of a constrained kernel query."""
    inc = _checked_mask(g, include) if include else 0
    drop = _checked_mask(g, delete) if delete else 0
    if inc & drop:
        raise ValueError("include and delete overlap")
    return inc, drop


class _Found(Exception):
    """A decision search recorded a set of at most its target vertices."""


def _completions(closed: tuple[int, ...], undom: int, allowed: int) -> int:
    """The allowed vertices that complete the set alone: the common
    candidate dominators of the undominated vertices."""
    cand = allowed
    m = undom  # both searches call these on every node, so loops are inlined
    while m and cand:
        b = m & -m
        cand &= closed[b.bit_length() - 1]
        m ^= b
    return cand


def _branch_vertex(closed: tuple[int, ...], narrow: int, undom: int, allowed: int,
                   more: int) -> int:
    """The vertex to branch on (undominated, fewest candidate dominators,
    lowest label on ties), or -1 when a bound shows that ``more`` further
    vertices, the most a node may still add, cannot dominate ``undom``."""
    # coverage bound: one of them must cover |undom| / more
    total = undom.bit_count()
    for c, row in enumerate(closed):
        if (row & undom).bit_count() * more >= total and allowed >> c & 1:
            break
    else:
        return -1
    # the same pass counts undominated vertices whose candidate sets are
    # disjoint from those counted before (a packing bound): each needs its
    # own vertex.  The narrow ones go first, before a wider vertex can use up
    # their candidates
    w, wcount = -1, len(closed) + 1
    packed, used = 0, 0
    for m in (undom & narrow, undom & ~narrow):
        while m:
            b = m & -m
            x = b.bit_length() - 1
            cand = closed[x] & allowed
            if not cand & used:
                packed += 1
                if packed > more:
                    return -1
                used |= cand
            cnt = cand.bit_count()
            if cnt < wcount or cnt == wcount and x < w:
                w, wcount = x, cnt
            m ^= b
    return w


def _solve(
    closed: tuple[int, ...],
    n: int,
    include: int = 0,
    drop: int = 0,
    conflict: tuple[int, ...] | None = None,
    target: int | None = None,
) -> tuple[int, int]:
    """Minimum dominating set of the graph minus ``drop`` that contains
    ``include``, as (size, mask).

    Dropped vertices are neither candidates nor need to be dominated.
    With ``conflict``, choosing a vertex c also rules out every vertex of
    ``conflict[c]`` (``conflict=nbr`` asks for an independent set).  Such a
    set always exists: an undominated vertex is its own candidate, and a
    conflict rules it out only once a neighbour is chosen, dominating it.

    With a ``target`` the answer is a decision: the first set found of at
    most ``target`` vertices, or the greedy set when there is none, so the
    size is at most ``target`` exactly when the minimum is.
    """
    # this is the hot path: scans over every vertex enumerate the rows, and
    # loops over a subset's bits are inlined (b = m & -m; ...; m ^= b)
    full = (1 << n) - 1 & ~drop
    dominated = 0
    m = include
    while m:
        b = m & -m
        dominated |= closed[b.bit_length() - 1]
        m ^= b
    allowed = full & ~include
    undom = full & ~dominated

    # narrow vertices (closed rows of at most two bits: pendant and isolated
    # ones) are packed first below; the widest row caps the greedy pick
    narrow, widest = 0, 0
    for x, row in enumerate(closed):
        k = row.bit_count()
        if k <= 2:
            narrow |= 1 << x
        if k > widest:
            widest = k

    # greedy incumbent: repeatedly take the allowed vertex covering the most;
    # the first to reach the cap cannot be strictly beaten by a later one
    mask, avail = include, allowed
    while undom:
        pick, pickcov = -1, 0
        cap = min(undom.bit_count(), widest)
        for c, row in enumerate(closed):
            cov = (row & undom).bit_count()
            if cov > pickcov and avail >> c & 1:
                pick, pickcov = c, cov
                if cov == cap:
                    break
        mask |= 1 << pick
        undom &= ~closed[pick]
        avail &= ~(1 << pick)
        if conflict:
            avail &= ~conflict[pick]
    best = [mask.bit_count(), mask]
    if target is not None:
        if best[0] <= target:
            return best[0], mask
        best[0] = target + 1  # the first set recorded is at most target

    def rec(size: int, mask: int, dominated: int, allowed: int) -> None:
        undom = full & ~dominated
        if not undom:
            if size < best[0]:
                best[0], best[1] = size, mask
                if target is not None:
                    raise _Found
            return
        more = best[0] - size - 1  # vertices that may still be added and improve
        if more <= 0:
            return
        if more == 1:
            # the lowest completing vertex is DFS's first completing child
            cand = _completions(closed, undom, allowed)
            if cand:
                best[0], best[1] = size + 1, mask | (cand & -cand)
                if target is not None:
                    raise _Found
            return
        w = _branch_vertex(closed, narrow, undom, allowed, more)
        if w < 0:
            return
        rem = allowed
        m = closed[w] & allowed
        while m:
            cbit = m & -m
            c = cbit.bit_length() - 1
            rem &= ~cbit
            rec(size + 1, mask | cbit, dominated | closed[c],
                rem & ~conflict[c] if conflict else rem)
            m ^= cbit

    try:
        rec(include.bit_count(), include, dominated, allowed)
    except _Found:
        pass
    finally:
        # rec reaches itself through its closure: emptying that cell frees
        # the search now, not at the next cyclic garbage collection
        del rec
    # a decision that found no set keeps the greedy one, of more than target
    return best[1].bit_count(), best[1]


# one graph's work makes a few thousand distinct queries at most (2,296 for
# ``profile`` on cycle(45)), so nothing is evicted
CACHE_SIZE = 1 << 13


class _Memo(dict):
    """Every exact kernel answer, at most ``CACHE_SIZE`` of them; the oldest
    go first.  ``_search[g, include, drop, independent]`` is the exact
    (size, mask), solved on a miss.
    """

    def __missing__(self, key: tuple[Graph, int, int, bool]) -> tuple[int, int]:
        g, include, drop, independent = key
        answer = _solve(g.closed, g.n, include, drop, g.nbr if independent else None)
        if len(self) >= CACHE_SIZE:
            # the older half goes at once: removing the oldest one entry at
            # a time rescans the removed slots at the front of the table
            for old in list(self)[:CACHE_SIZE // 2]:
                del self[old]
        self[key] = answer
        return answer


_search = _Memo()

# the relation search's state memo only caches subtrees, so emptying it
# when full keeps every row exact; rook(8) fills 124,420 states unbounded
_RELATION_STATES = 1 << 16


@lru_cache(maxsize=CACHE_SIZE)
def _relation(g: Graph) -> tuple[int, ...]:
    """Row x is the union of the minimum dominating sets that contain x
    (0 when x is in none)."""
    closed, n = g.closed, g.n
    gamma = _search[g, 0, 0, False][0]
    full = (1 << n) - 1
    narrow = mask_of(x for x, row in enumerate(closed) if row.bit_count() <= 2)
    rel = [0] * n
    seen: dict[tuple[int, int, int], int] = {}

    def rec(dominated: int, allowed: int, room: int) -> int:
        # returns the union of the vertices added below in the sets found;
        # the caller charges it to the vertex it added.  A node short of
        # gamma never dominates: nothing smaller than gamma does
        undom = full & ~dominated
        if room == 1:
            return _completions(closed, undom, allowed)
        # what is found below depends on undom, room and reach alone: an
        # allowed vertex outside reach dominates nothing in undom, so it is
        # in no set found below (dropping it would leave one under gamma)
        reach = 0
        m = undom
        while m:
            b = m & -m
            reach |= closed[b.bit_length() - 1]
            m ^= b
        key = (undom, reach & allowed, room)
        found = seen.get(key)
        if found is not None:
            return found
        found = 0
        w = _branch_vertex(closed, narrow, undom, allowed, room)
        if w >= 0:
            rem = allowed
            m = closed[w] & allowed
            while m:
                cbit = m & -m
                c = cbit.bit_length() - 1
                rem &= ~cbit
                sub = rec(dominated | closed[c], rem, room - 1)
                if sub:
                    sub |= cbit
                    rel[c] |= sub
                    found |= sub
                m ^= cbit
        if len(seen) >= _RELATION_STATES:
            seen.clear()
        seen[key] = found
        return found

    union = rec(0, full, gamma) if n else 0  # every vertex of a minimum set
    del rec  # as in _solve: break the closure's cycle through itself
    # each row so far holds only what was added below its vertex: the rest
    # is filled by symmetry, and each good vertex's own bit from the union
    for x in bits(union):
        rel[x] |= 1 << x
    for x in range(n):
        xbit = 1 << x
        for y in bits(rel[x]):
            rel[y] |= xbit
    return tuple(rel)


def domination_number(g: Graph) -> int:
    return _search[g, 0, 0, False][0]


def domination_number_at_most(
    g: Graph, t: int, *, include: Iterable[int] = (), delete: Iterable[int] = ()
) -> bool:
    """True iff g minus ``delete`` has a dominating set of at most t
    vertices that contains ``include`` (labels as in
    ``constrained_domination_number``).

    An exact answer already held decides it; otherwise a search that stops
    at the first set of at most t vertices does, and its verdict is not
    stored.
    """
    inc, drop = _query_masks(g, include, delete)
    return _at_most(g, t, inc, drop)


def _at_most(g: Graph, t: int, inc: int, drop: int) -> bool:
    """``domination_number_at_most`` on checked masks."""
    exact = _search.get((g, inc, drop, False))
    if exact is not None:
        return exact[0] <= t
    return _solve(g.closed, g.n, inc, drop, target=t)[0] <= t


def minimum_dominating_set(g: Graph) -> frozenset[int]:
    """A deterministic witness minimum dominating set."""
    return set_of(_search[g, 0, 0, False][1])


def constrained_domination_number(
    g: Graph, *, include: Iterable[int] = (), delete: Iterable[int] = ()
) -> int:
    """Minimum size of a dominating set of g minus ``delete`` forced to
    contain ``include``.  Labels stay those of g: the deleted vertices are
    simply ignored, never relabeled."""
    inc, drop = _query_masks(g, include, delete)
    return _search[g, inc, drop, False][0]


def shares_minimum_set(g: Graph, u: int, v: int) -> bool:
    """True iff some minimum dominating set contains both u and v (with
    u == v: iff u lies in some minimum dominating set).  Every pair of one
    graph is answered from a single search over its minimum sets."""
    _checked_mask(g, (u, v))
    return bool(_relation(g)[u] >> v & 1)


def independent_domination_number(g: Graph) -> int:
    """Minimum size of an independent dominating set (always exists)."""
    return _search[g, 0, 0, True][0]


def private_neighbors(g: Graph, x: int, group: Iterable[int]) -> frozenset[int]:
    """Vertices dominated by x and by no other member of the group.

    Closed-neighborhood convention: x counts as its own private neighbor
    when no other group member sits in N[x].
    """
    m = _checked_mask(g, group)
    if not m >> x & 1:
        raise ValueError(f"vertex {x} is not in the group")
    others = 0
    for y in bits(m & ~(1 << x)):
        others |= g.closed[y]
    return set_of(g.closed[x] & ~others)


def classify_vertices(g: Graph) -> DominationReport:
    return _classify(g)


@lru_cache(maxsize=CACHE_SIZE)
def _classify(g: Graph) -> DominationReport:
    gamma, witness_mask = _search[g, 0, 0, False]
    rel = _relation(g)
    good = tuple(bool(rel[v] >> v & 1) for v in range(g.n))
    # for a critical v, a dominating set S of g - v of size gamma - 1, plus v,
    # is a minimum dominating set of g that contains v, so S lies in rel[v]
    # and dominates every neighbour of v.  A vertex with a neighbour that no
    # other vertex of rel[v] dominates (every bad vertex: rel[v] is empty)
    # needs no delete-one search.  Since gamma(g - v) >= gamma - 1, the rest
    # are critical exactly when g - v has a dominating set of gamma - 1
    # vertices, a decision
    critical = []
    for v in range(g.n):
        others = 0
        for x in bits(rel[v] & ~(1 << v)):
            others |= g.closed[x]
        critical.append(not g.nbr[v] & ~others and _at_most(g, gamma - 1, 0, 1 << v))
    critical = tuple(critical)
    return DominationReport(
        gamma=gamma,
        witness=set_of(witness_mask),
        good=good,
        bad=tuple(not b for b in good),
        critical=critical,
        critical_vertices=frozenset(v for v in range(g.n) if critical[v]),
        independent_domination_number=independent_domination_number(g),
        strong_equality=not any(row & nbr for row, nbr in zip(rel, g.nbr)),
    )


def all_minimum_sets_cliques(g: Graph) -> bool:
    """True iff every minimum dominating set induces a complete subgraph:
    no nonadjacent pair shares one."""
    return not any(row & ~closed for row, closed in zip(_relation(g), g.closed))


def clear_caches() -> None:
    """Drop all per-graph memoization, the path-added graphs of
    ``path_addition`` included; corpus runs call it once per graph."""
    from .path_addition import _add_path  # that module imports this one

    _search.clear()
    _relation.cache_clear()
    _classify.cache_clear()
    _add_path.cache_clear()
