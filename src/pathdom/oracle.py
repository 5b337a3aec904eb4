"""Closed-form predictions for how path insertion moves the domination number.

Every rule here is stated purely in terms of the base graph (its minimum
dominating sets, critical vertices, and one- or two-vertex deletions);
the path-added graph itself is never solved.  The verification harness
cross-checks each rule against the exact solver, so a wrong rule shows
up as a counterexample rather than a silent disagreement.

Clause labels returned with predictions are stable strings of the form
"adjacent:k2:no-shared-set-no-critical" and are safe to diff across versions.
"""

from typing import NamedTuple

from .domination import (
    all_minimum_sets_cliques,
    classify_vertices,
    domination_number,
    domination_number_at_most,
    shares_minimum_set,
)
from .graphs import Graph
from .path_addition import INFINITE

__all__ = [
    "Prediction",
    "predict_pair",
    "AggregateCharacterization",
    "characterize_aggregates",
    "RegionClass",
    "REGION_TAGS",
    "classify_regions",
    "all_nonadjacent_pa_three",
]


# -- the per-pair rules, each stated once ------------------------------------
#
# Each rule reads a yes/no fact about a one- or two-vertex deletion, and each
# is asked as a decision: is there a dominating set of at most t vertices?
# Deleting a vertex lowers gamma by at most one (a dominating set of h - x
# plus x dominates h), so gamma(g - S) >= gamma - |S|, and an upper bound
# settles the equalities below.


def _k2_keeps(g, u, v, rep) -> bool:
    """Two inserted vertices keep gamma: an endpoint is critical or the
    pair lies in a common minimum dominating set."""
    return rep.critical[u] or rep.critical[v] or shares_minimum_set(g, u, v)


def _k1_rises(g, u, v, rep) -> bool:
    """One inserted vertex between the nonadjacent pair raises gamma: both
    endpoints are bad and neither turns critical once the other is gone.

    A bad vertex x keeps gamma(g - x) = gamma: a minimum set avoids x and
    dominates g - x, and gamma - 1 would make x critical, hence good.  So u
    stays noncritical in g - v exactly when gamma(g - {u, v}) >= gamma, and
    likewise v in g - u: one decision answers both."""
    if not (rep.bad[u] and rep.bad[v]):
        return False
    return not domination_number_at_most(g, rep.gamma - 1, delete=(u, v))


def _drops_two(g, u, v, rep) -> bool:
    """Deleting the pair lowers gamma by two.

    Only a pair of critical vertices can: gamma(g-{u,v}) >= gamma(g-u) - 1
    >= gamma - 2, so equality at the left end forces gamma(g-u) = gamma - 1,
    and likewise gamma(g-v).  Other pairs need no pair-deletion search; for
    a critical pair, whether a set of gamma - 2 vertices dominates g-{u,v}
    decides it."""
    return (rep.critical[u] and rep.critical[v]
            and domination_number_at_most(g, rep.gamma - 2, delete=(u, v)))


def _good_in_without(g, vertex, removed, rep) -> bool:
    """Is ``vertex`` in some minimum dominating set of g - removed, for a
    critical ``removed``?  Then gamma(g - removed) = gamma - 1, so the
    question is whether a set of gamma - 1 vertices containing ``vertex``
    dominates g - removed."""
    return domination_number_at_most(
        g, rep.gamma - 1, include=(vertex,), delete=(removed,)
    )


def _deleted_pairing(g, u, v, rep) -> bool:
    """One endpoint critical while the other stays in some minimum set of
    the graph with that endpoint removed."""
    if rep.critical[u] and _good_in_without(g, v, u, rep):
        return True
    return rep.critical[v] and _good_in_without(g, u, v, rep)


# -- per-pair predictions -----------------------------------------------------


_CLAUSES = {
    (True, 1): "adjacent:k1:bad-endpoints",
    (True, 2): "adjacent:k2:no-shared-set-no-critical",
    (True, 3): "adjacent:k3:always-rises",
    (False, 1): "nonadjacent:k1:bad-pair-no-deleted-critical",
    (False, 2): "nonadjacent:k2:no-shared-set-no-critical",
    (False, 3): "nonadjacent:k3:no-critical-good-pairing",
    (False, 4): "nonadjacent:k4:pair-deletion-keeps-gamma",
    (False, 5): "nonadjacent:k5:forced-rise",
}


class Prediction(NamedTuple):
    """Full per-pair prediction: gamma after each covered k, the pair's
    path addition number, and the clause that fixed it."""

    pair: tuple[int, int]
    adjacent: bool
    gamma_values: dict[int, int | None]
    pa: int
    clause: str


def predict_pair(g: Graph, u: int, v: int) -> Prediction:
    """Predicted domination number after inserting k internal path vertices
    between u and v, for k in 1..3 (adjacent pair) or 1..5 (nonadjacent).

    The nonadjacent k=5 value is pinned only when the k=4 value leaves the
    domination number unchanged; otherwise it is undetermined (None).
    """
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"({u}, {v}) is not a pair of distinct vertices of a graph on {g.n}")
    if u > v:
        u, v = v, u
    gamma = domination_number(g)
    rep = classify_vertices(g)
    adjacent = g.has_edge(u, v)
    k2 = gamma if _k2_keeps(g, u, v, rep) else gamma + 1
    if adjacent:
        k1 = gamma + 1 if rep.bad[u] and rep.bad[v] else gamma
        values = {1: k1, 2: k2, 3: gamma + 1}
    else:
        drops_two = _drops_two(g, u, v, rep)
        # "k=1 rises" needs a bad pair, and a bad pair never drops two: only
        # critical vertices do, and a critical vertex is good.  The two tests
        # never both hold, so their order is free.
        if drops_two:
            k1 = gamma - 1
        else:
            k1 = gamma + 1 if _k1_rises(g, u, v, rep) else gamma
        values = {
            1: k1,
            2: k2,
            3: gamma if _deleted_pairing(g, u, v, rep) else gamma + 1,
            # gamma if the pair deletion drops two, gamma+2 if k=1 rises,
            # gamma+1 otherwise: one above the k=1 value in every case
            4: k1 + 1,
            5: gamma + 1 if drops_two else None,
        }
    # adjacent k=3 always rises, and nonadjacent k=4 or k=5 does
    pa = min(k for k, val in values.items() if val is not None and val > gamma)
    return Prediction(
        pair=(u, v),
        adjacent=adjacent,
        gamma_values=values,
        pa=pa,
        clause=_CLAUSES[adjacent, pa],
    )


# -- aggregates from their closed-form characterizations ----------------------


class AggregateCharacterization(NamedTuple):
    """The four profile aggregates computed from closed forms (never from
    per-pair scans of path-added graphs), plus the rules that fired."""

    min_adjacent: int | float
    max_adjacent: int | float
    min_nonadjacent: int | float
    max_nonadjacent: int | float
    fired: tuple[str, ...]


def characterize_aggregates(g: Graph) -> AggregateCharacterization:
    if g.n < 2:
        raise ValueError("aggregates need at least 2 vertices")
    gamma = domination_number(g)
    rep = classify_vertices(g)
    fired: list[str] = []

    if g.is_edgeless():
        amin = amax = INFINITE
        fired.append("adjacent:empty-class:edgeless")
    else:
        if rep.strong_equality:
            amax = 2
            fired.append("max-adjacent=2:all-minimum-sets-independent")
        else:
            amax = 3
            fired.append("max-adjacent=3:some-minimum-set-dependent")
        amin, rule = _characterize_min_adjacent(g, rep)
        fired.append(rule)

    if g.is_complete():
        nmin = nmax = INFINITE
        fired.append("nonadjacent:empty-class:complete")
    else:
        pairs = g.non_edges()
        nmin, rule = _characterize_min_nonadjacent(g, rep, pairs)
        fired.append(rule)
        nmax, rule = _characterize_max_nonadjacent(g, gamma, rep, pairs)
        fired.append(rule)

    return AggregateCharacterization(amin, amax, nmin, nmax, tuple(fired))


def _characterize_min_adjacent(g, rep):
    edges = g.edges()
    if any(rep.bad[u] and rep.bad[v] for u, v in edges):
        return 1, "min-adjacent=1:adjacent-bad-pair"
    if all(_k2_keeps(g, u, v, rep) for u, v in edges):
        return 3, "min-adjacent=3:every-edge-shares-set-or-touches-critical"
    return 2, "min-adjacent=2:default"


def _characterize_min_nonadjacent(g, rep, pairs):
    if g.is_edgeless():
        return 5, "min-nonadjacent=5:edgeless"
    if any(_k1_rises(g, u, v, rep) for u, v in pairs):
        return 1, "min-nonadjacent=1:bad-pair-no-deleted-critical"
    if not all(_k2_keeps(g, u, v, rep) for u, v in pairs):
        return 2, "min-nonadjacent=2:uncovered-noncritical-pair"
    if not all(_deleted_pairing(g, u, v, rep) for u, v in pairs):
        return 3, "min-nonadjacent=3:pair-without-critical-good-pairing"
    return 4, "min-nonadjacent=4:all-pairs-pair-up"


def _characterize_max_nonadjacent(g, gamma, rep, pairs):
    if gamma == 1:
        return 1, "max-nonadjacent=1:single-vertex-dominates"
    if any(_drops_two(g, u, v, rep) for u, v in pairs):
        return 5, "max-nonadjacent=5:some-pair-deletion-drops-two"
    if all_minimum_sets_cliques(g):
        return 2, "max-nonadjacent=2:all-minimum-sets-cliques"
    if any(_deleted_pairing(g, u, v, rep) for u, v in pairs):
        return 4, "max-nonadjacent=4:some-pair-pairs-up"
    return 3, "max-nonadjacent=3:default"


# -- the epa=3 taxonomy --------------------------------------------------------

REGION_TAGS = ("R0", "R1", "R2", "R3", "R4", "R5", "NotInA")


class RegionClass(NamedTuple):
    """Membership in the min-adjacent=3 taxonomy.

    in_a: every adjacent pair has path addition number 3 (min adjacent = 3)
    in_a1: the critical vertices form a vertex cover
    in_a2: every edge lies in some minimum dominating set
    in_a3: every vertex is critical

    The region tag partitions class A into six cells; graphs outside A get
    "NotInA".
    """

    in_a: bool
    in_a1: bool
    in_a2: bool
    in_a3: bool
    region: str


def classify_regions(g: Graph) -> RegionClass:
    if g.is_edgeless():
        raise ValueError("region taxonomy needs a graph with at least one edge")
    rep = classify_vertices(g)
    in_a = _characterize_min_adjacent(g, rep)[0] == 3
    in_a1 = g.is_vertex_cover(rep.critical_vertices)
    in_a2 = all(shares_minimum_set(g, u, v) for u, v in g.edges())
    in_a3 = all(rep.critical)
    if not in_a:
        region = "NotInA"
    elif in_a3 and in_a2:
        region = "R3"
    elif in_a3:
        region = "R2"
    elif in_a1 and in_a2:
        region = "R4"
    elif in_a1:
        region = "R1"
    elif in_a2:
        region = "R5"
    else:
        region = "R0"
    return RegionClass(in_a=in_a, in_a1=in_a1, in_a2=in_a2, in_a3=in_a3, region=region)


def all_nonadjacent_pa_three(g: Graph) -> bool:
    """Closed form for "every nonadjacent pair has path addition number 3":
    no critical vertices, every vertex in some minimum dominating set, and
    every nonadjacent pair inside a common minimum dominating set."""
    if g.n < 2:
        raise ValueError("needs at least 2 vertices")
    if g.is_complete():
        return False
    rep = classify_vertices(g)
    if rep.critical_vertices or not all(rep.good):
        return False
    return all(shares_minimum_set(g, u, v) for u, v in g.non_edges())
