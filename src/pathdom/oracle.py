"""Closed-form predictions for how path insertion moves the domination number.

Every rule here is stated purely in terms of the base graph (its minimum
dominating sets, critical vertices, and one- or two-vertex deletions);
the path-added graph itself is never solved.  The verification harness
cross-checks each rule against the exact solver, so a wrong rule shows
up as a counterexample rather than a silent disagreement.

Clause labels returned with predictions are stable strings of the form
"adjacent:k2:shared-minimum-set" and are safe to diff across versions.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .domination import (
    all_minimum_sets_cliques,
    classify_vertices,
    constrained_domination_number,
    domination_number,
    shares_minimum_set,
)
from .graphs import Graph
from .path_addition import INFINITE, path_addition_profile

__all__ = [
    "Prediction",
    "predict_adjacent",
    "predict_nonadjacent",
    "predict_pair",
    "predict_path_addition_number",
    "AggregateCharacterization",
    "characterize_aggregates",
    "RegionClass",
    "REGION_TAGS",
    "classify_regions",
    "all_nonadjacent_pa_three",
    "SumBoundsCheck",
    "check_sum_bounds",
]


# -- derived quantities on deleted subgraphs ---------------------------------


def _gamma_without(g: Graph, drop: tuple[int, ...]) -> int:
    return constrained_domination_number(g, delete=drop)


def _good_in_without(g: Graph, vertex: int, removed: int) -> bool:
    """Is ``vertex`` in some minimum dominating set of g - removed?"""
    return constrained_domination_number(
        g, include=(vertex,), delete=(removed,)
    ) == _gamma_without(g, (removed,))


# -- per-pair, per-k predictions ----------------------------------------------


def predict_adjacent(g: Graph, u: int, v: int, k: int) -> int:
    """Predicted domination number after inserting k internal path vertices
    between the adjacent pair u, v (k in 1..3)."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge; use predict_nonadjacent")
    if k not in (1, 2, 3):
        raise ValueError("adjacent predictions cover k in 1..3 only")
    gamma = domination_number(g)
    if k == 3:
        return gamma + 1
    rep = classify_vertices(g)
    if k == 1:
        return gamma if rep.good[u] or rep.good[v] else gamma + 1
    # k == 2
    if rep.critical[u] or rep.critical[v] or shares_minimum_set(g, u, v):
        return gamma
    return gamma + 1


def predict_nonadjacent(g: Graph, u: int, v: int, k: int) -> int | None:
    """Predicted domination number after inserting k internal path vertices
    between the nonadjacent pair u, v (k in 1..5).

    The k=5 value is pinned only when the k=4 prediction leaves the
    domination number unchanged; otherwise it is undetermined (None).
    """
    if g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is an edge; use predict_adjacent")
    if u == v:
        raise ValueError("pair must be distinct")
    if k not in (1, 2, 3, 4, 5):
        raise ValueError("nonadjacent predictions cover k in 1..5 only")
    gamma = domination_number(g)
    rep = classify_vertices(g)
    if k == 1:
        return _predict_nonadjacent_k1(g, u, v, gamma, rep)
    if k == 2:
        if rep.critical[u] or rep.critical[v] or shares_minimum_set(g, u, v):
            return gamma
        return gamma + 1
    if k == 3:
        return gamma if _deleted_pairing(g, u, v, rep) else gamma + 1
    if k == 4:
        if _gamma_without(g, (u, v)) == gamma - 2:
            return gamma
        if _predict_nonadjacent_k1(g, u, v, gamma, rep) == gamma + 1:
            return gamma + 2
        return gamma + 1
    # k == 5
    k4 = predict_nonadjacent(g, u, v, 4)
    return gamma + 1 if k4 == gamma else None


def _predict_nonadjacent_k1(g, u, v, gamma, rep) -> int:
    d_uv = _gamma_without(g, (u, v))
    if d_uv == gamma - 2:
        return gamma - 1
    if rep.bad[u] and rep.bad[v]:
        # u critical in g-v would mean gamma(g-{u,v}) < gamma(g-v)
        if d_uv >= _gamma_without(g, (v,)) and d_uv >= _gamma_without(g, (u,)):
            return gamma + 1
    return gamma


def _deleted_pairing(g, u, v, rep) -> bool:
    """One endpoint critical while the other stays in some minimum set of
    the graph with that endpoint removed."""
    if rep.critical[u] and _good_in_without(g, v, u):
        return True
    return rep.critical[v] and _good_in_without(g, u, v)


@dataclass
class Prediction:
    """Full per-pair prediction: gamma after each covered k, the pair's
    path addition number, and the clause that fixed it."""

    pair: tuple[int, int]
    adjacent: bool
    gamma_values: dict[int, int | None]
    pa: int
    clause: str


def predict_pair(g: Graph, u: int, v: int) -> Prediction:
    if u == v:
        raise ValueError("pair must be distinct")
    if g.n < 2:
        raise ValueError("predictions need at least 2 vertices")
    if u > v:
        u, v = v, u
    gamma = domination_number(g)
    adjacent = g.has_edge(u, v)
    values: dict[int, int | None] = {}
    if adjacent:
        for k in (1, 2, 3):
            values[k] = predict_adjacent(g, u, v, k)
    else:
        for k in (1, 2, 3, 4, 5):
            values[k] = predict_nonadjacent(g, u, v, k)
    pa = 0
    for k, val in values.items():
        if val is not None and val > gamma:
            pa = k
            break
    if not pa:
        # the rules guarantee a rise by k=3 (adjacent) / k=5 (nonadjacent)
        raise RuntimeError(f"prediction rules never rose for pair ({u}, {v})")
    return Prediction(
        pair=(u, v),
        adjacent=adjacent,
        gamma_values=values,
        pa=pa,
        clause=_clause(g, u, v, adjacent, pa),
    )


def predict_path_addition_number(g: Graph, u: int, v: int) -> int:
    """Predicted path addition number of the pair; resolves by k <= 3 for
    adjacent pairs and k <= 5 for nonadjacent ones, without ever solving
    a path-added graph."""
    return predict_pair(g, u, v).pa


def _clause(g, u, v, adjacent, pa) -> str:
    if adjacent:
        if pa == 1:
            return "adjacent:k1:bad-endpoints"
        if pa == 2:
            return "adjacent:k2:no-shared-set-no-critical"
        return "adjacent:k3:always-rises"
    if pa == 1:
        return "nonadjacent:k1:bad-pair-no-deleted-critical"
    if pa == 2:
        return "nonadjacent:k2:no-shared-set-no-critical"
    if pa == 3:
        return "nonadjacent:k3:no-critical-good-pairing"
    if pa == 4:
        return "nonadjacent:k4:pair-deletion-keeps-gamma"
    return "nonadjacent:k5:forced-rise"


# -- aggregates from their closed-form characterizations ----------------------


@dataclass
class AggregateCharacterization:
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
        edges = g.edges()
        if any(rep.bad[u] and rep.bad[v] for u, v in edges):
            amin = 1
            fired.append("min-adjacent=1:adjacent-bad-pair")
        elif all(
            rep.critical[u] or rep.critical[v] or shares_minimum_set(g, u, v)
            for u, v in edges
        ):
            amin = 3
            fired.append("min-adjacent=3:every-edge-shares-set-or-touches-critical")
        else:
            amin = 2
            fired.append("min-adjacent=2:default")

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


def _characterize_min_nonadjacent(g, rep, pairs):
    if g.is_edgeless():
        return 5, "min-nonadjacent=5:edgeless"
    for u, v in pairs:
        if rep.bad[u] and rep.bad[v]:
            d_uv = _gamma_without(g, (u, v))
            if d_uv >= _gamma_without(g, (v,)) and d_uv >= _gamma_without(g, (u,)):
                return 1, "min-nonadjacent=1:bad-pair-no-deleted-critical"
    if any(
        not rep.critical[u] and not rep.critical[v] and not shares_minimum_set(g, u, v)
        for u, v in pairs
    ):
        return 2, "min-nonadjacent=2:uncovered-noncritical-pair"
    if any(not _deleted_pairing(g, u, v, rep) for u, v in pairs):
        return 3, "min-nonadjacent=3:pair-without-critical-good-pairing"
    return 4, "min-nonadjacent=4:all-pairs-pair-up"


def _characterize_max_nonadjacent(g, gamma, rep, pairs):
    if gamma == 1:
        return 1, "max-nonadjacent=1:single-vertex-dominates"
    if any(_gamma_without(g, (u, v)) == gamma - 2 for u, v in pairs):
        return 5, "max-nonadjacent=5:some-pair-deletion-drops-two"
    if all_minimum_sets_cliques(g):
        return 2, "max-nonadjacent=2:all-minimum-sets-cliques"
    if any(_deleted_pairing(g, u, v, rep) for u, v in pairs):
        return 4, "max-nonadjacent=4:some-pair-pairs-up"
    return 3, "max-nonadjacent=3:default"


# -- the epa=3 taxonomy --------------------------------------------------------

REGION_TAGS = ("R0", "R1", "R2", "R3", "R4", "R5", "NotInA")


@dataclass(frozen=True)
class RegionClass:
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
    agg = characterize_aggregates(g)
    in_a = agg.min_adjacent == 3
    rep = classify_vertices(g)
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


# -- sum bounds ----------------------------------------------------------------


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
