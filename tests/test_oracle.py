from collections import Counter
from functools import cache
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings

from pathdom.domination import classify_vertices, clear_caches, domination_number
from pathdom.families import (
    complete,
    complete_bipartite,
    corona,
    crown,
    cycle,
    edgeless,
    path,
    rook,
    star,
)
from pathdom.graphs import Graph, enumerate_labeled_graphs, mask_of
from pathdom.oracle import (
    _deleted_pairing,
    _drops_two,
    _k1_rises,
    all_nonadjacent_pa_three,
    characterize_aggregates,
    classify_regions,
    predict_pair,
)
from pathdom.path_addition import (
    INFINITE,
    check_sum_bounds,
    domination_after_path,
    path_addition_number,
    path_addition_profile,
)

from .conftest import delete_vertices, graphs, graphs_with_pair, naive_gamma, reference_solve


def k3_union_k3():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])



@pytest.mark.parametrize(
    "g, u, v",
    [(path(4), -1, 2), (path(4), 2, -1), (cycle(6), 0, 9), (cycle(6), 6, 0),
     (path(4), 2, 2), (Graph(1), 0, 1)],
    ids=["negative-u", "negative-v", "v-past-n", "u-equals-n", "same-vertex", "one-vertex"],
)
@pytest.mark.parametrize(
    # the oracle and the search route behind `pathdom pa` reject the same pairs
    "route", [predict_pair, path_addition_number], ids=["pair", "pa"],
)
def test_pair_outside_the_graph_is_rejected(route, g, u, v):
    with pytest.raises(ValueError):
        route(g, u, v)


def gamma_after(g, u, v, k):
    return predict_pair(g, u, v).gamma_values[k]


class TestPredictAdjacent:
    def test_p4_middle_k2_stays(self):
        assert gamma_after(path(4), 1, 2, 2) == 2

    def test_c4_k1_stays(self):
        assert gamma_after(cycle(4), 0, 1, 1) == 2

    def test_k2_k2_rises(self):
        assert gamma_after(path(2), 0, 1, 2) == 2  # gamma + 1

    def test_k3_unconditional(self):
        g = cycle(5)
        assert gamma_after(g, 0, 1, 3) == domination_number(g) + 1


class TestPredictNonadjacent:
    def test_star_leaves_k1_rises(self):
        assert gamma_after(star(3), 1, 2, 1) == 2

    def test_c4_antipodal_k3_stays(self):
        assert gamma_after(cycle(4), 0, 2, 3) == 2

    def test_edgeless_k4_stays(self):
        assert gamma_after(edgeless(3), 0, 1, 4) == 3

    def test_edgeless_k1_drops(self):
        assert gamma_after(edgeless(3), 0, 1, 1) == 2

    def test_k5_pinned_after_flat_k4(self):
        assert gamma_after(edgeless(3), 0, 1, 5) == 4

    def test_k5_undetermined_otherwise(self):
        # same-side pair of K_{3,3}: the rise happens at k=2 already
        assert gamma_after(complete_bipartite(3, 3), 0, 1, 5) is None


class TestPredictPair:
    def test_p4_end_edge(self):
        pred = predict_pair(path(4), 0, 1)
        assert pred.pa == 3 and pred.adjacent

    def test_k3(self):
        assert predict_pair(complete(3), 0, 1).pa == 2

    def test_rook_nonadjacent(self):
        assert predict_pair(rook(3), 0, 4).pa == 4

    def test_clause_is_stable_string(self):
        pred = predict_pair(star(3), 1, 2)
        assert pred.pa == 1
        assert pred.clause == "nonadjacent:k1:bad-pair-no-deleted-critical"

    def test_gamma_values_cover_defined_ks(self):
        pred = predict_pair(cycle(4), 0, 2)
        assert set(pred.gamma_values) == {1, 2, 3, 4, 5}
        pred = predict_pair(cycle(4), 0, 1)
        assert set(pred.gamma_values) == {1, 2, 3}


def test_oracle_matches_solver_exhaustive_n4():
    for g in enumerate_labeled_graphs(4):
        gamma = domination_number(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                pred = predict_pair(g, u, v)
                assert pred.adjacent == g.has_edge(u, v)
                values = pred.gamma_values
                for k in (1, 2, 3) if pred.adjacent else (1, 2, 3, 4):
                    assert values[k] == domination_after_path(g, u, v, k)
                if not pred.adjacent and values[4] == gamma:
                    assert values[5] == domination_after_path(g, u, v, 5)
                assert pred.pa == path_addition_number(g, u, v)


@settings(max_examples=30, deadline=None)
@given(graphs_with_pair(min_n=2, max_n=5))
def test_predicted_chain_is_monotone(gup):
    g, u, v = gup
    pred = predict_pair(g, u, v)
    vals = [val for _, val in sorted(pred.gamma_values.items()) if val is not None]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_k1_rules_never_clash(g):
    """The facts that let predict_pair test "k=1 rises" and "drops two" in
    either order: a critical vertex is good, a bad vertex x has
    gamma(g-x) = gamma, and a nonadjacent bad pair keeps
    gamma(g-{u,v}) >= gamma-1."""
    rep = classify_vertices(g)
    gamma = naive_gamma(g)
    for x in range(g.n):
        if rep.critical[x]:
            assert rep.good[x]
        if rep.bad[x]:
            assert naive_gamma(delete_vertices(g, [x])[0]) == gamma
    for u, v in g.non_edges():
        if rep.bad[u] and rep.bad[v]:
            assert naive_gamma(delete_vertices(g, [u, v])[0]) >= gamma - 1


def test_atlas_fires_every_rule():
    """Every clause, every aggregate rule and the recorded region counts on
    the 1,253 graphs of the networkx atlas (n <= 7)."""
    clauses, rules, regions = set(), set(), Counter()
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), list(h.edges()))
        if g.n >= 2:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    clauses.add(predict_pair(g, u, v).clause)
            rules.update(characterize_aggregates(g).fired)
        if not g.is_edgeless():
            regions[classify_regions(g).region] += 1
    assert clauses == {
        "adjacent:k1:bad-endpoints",
        "adjacent:k2:no-shared-set-no-critical",
        "adjacent:k3:always-rises",
        "nonadjacent:k1:bad-pair-no-deleted-critical",
        "nonadjacent:k2:no-shared-set-no-critical",
        "nonadjacent:k3:no-critical-good-pairing",
        "nonadjacent:k4:pair-deletion-keeps-gamma",
        "nonadjacent:k5:forced-rise",
    }
    assert rules == {
        "adjacent:empty-class:edgeless",
        "max-adjacent=2:all-minimum-sets-independent",
        "max-adjacent=3:some-minimum-set-dependent",
        "min-adjacent=1:adjacent-bad-pair",
        "min-adjacent=2:default",
        "min-adjacent=3:every-edge-shares-set-or-touches-critical",
        "nonadjacent:empty-class:complete",
        "min-nonadjacent=1:bad-pair-no-deleted-critical",
        "min-nonadjacent=2:uncovered-noncritical-pair",
        "min-nonadjacent=3:pair-without-critical-good-pairing",
        "min-nonadjacent=4:all-pairs-pair-up",
        "min-nonadjacent=5:edgeless",
        "max-nonadjacent=1:single-vertex-dominates",
        "max-nonadjacent=2:all-minimum-sets-cliques",
        "max-nonadjacent=3:default",
        "max-nonadjacent=4:some-pair-pairs-up",
        "max-nonadjacent=5:some-pair-deletion-drops-two",
    }
    assert regions == {"NotInA": 1193, "R0": 30, "R3": 12, "R4": 7, "R5": 3}


class TestDeletionDecisions:
    """Every deletion fact the rules read is asked as a decision; each equals
    its exact definition, solved by the reference search."""

    def test_atlas_matches_exact_definitions(self):
        for h in nx.graph_atlas_g():  # every graph on at most 7 vertices
            g = Graph(h.number_of_nodes(), list(h.edges()))

            @cache
            def gamma_of(include=(), delete=()):
                return reference_solve(g.closed, g.n, mask_of(include), mask_of(delete))[0]

            # one cache per graph, shared by every query of it, as in a
            # verify run: a bound proven on one query must not answer another
            clear_caches()
            rep = classify_vertices(g)
            gamma = gamma_of()
            bad = [gamma_of(include=(x,)) > gamma for x in range(g.n)]
            critical = [gamma_of(delete=(x,)) == gamma - 1 for x in range(g.n)]
            assert list(rep.critical) == critical

            def stays_good(vertex, removed):  # in a minimum set of g - removed
                return gamma_of(include=(vertex,), delete=(removed,)) == gamma_of(delete=(removed,))

            for u, v in combinations(range(g.n), 2):
                pair = gamma_of(delete=(u, v))
                assert _k1_rises(g, u, v, rep) == (
                    bad[u] and bad[v]
                    and pair >= gamma_of(delete=(v,)) and pair >= gamma_of(delete=(u,)))
                assert _drops_two(g, u, v, rep) == (pair == gamma - 2)
                assert _deleted_pairing(g, u, v, rep) == (
                    critical[u] and stays_good(v, u) or critical[v] and stays_good(u, v))
        clear_caches()


class TestAggregates:
    def test_crown_strong_equality_route(self):
        agg = characterize_aggregates(crown(3))
        assert agg.max_adjacent == 2
        assert "max-adjacent=2:all-minimum-sets-independent" in agg.fired

    def test_star_max_nonadjacent_one(self):
        assert characterize_aggregates(star(3)).max_nonadjacent == 1

    def test_c5(self):
        agg = characterize_aggregates(cycle(5))
        assert (agg.min_adjacent, agg.max_adjacent) == (2, 2)
        assert (agg.min_nonadjacent, agg.max_nonadjacent) == (3, 3)

    def test_conventions(self):
        agg = characterize_aggregates(complete(4))
        assert agg.min_nonadjacent == INFINITE and agg.max_nonadjacent == INFINITE
        agg = characterize_aggregates(edgeless(3))
        assert agg.min_adjacent == INFINITE and agg.max_adjacent == INFINITE
        assert agg.min_nonadjacent == 5

    def test_matches_profile_exhaustive_n4(self):
        for g in enumerate_labeled_graphs(4):
            if g.n < 2:
                continue
            prof = path_addition_profile(g)
            agg = characterize_aggregates(g)
            assert (agg.min_adjacent, agg.max_adjacent,
                    agg.min_nonadjacent, agg.max_nonadjacent) == \
                   (prof.min_adjacent, prof.max_adjacent,
                    prof.min_nonadjacent, prof.max_nonadjacent)


class TestRegions:
    def test_corona_r0(self):
        assert classify_regions(corona(path(2))).region == "R0"
        assert classify_regions(corona(path(3))).region == "R0"
        # same graph under path labels
        assert classify_regions(path(4)).region == "R0"

    def test_c7_plus_shortcut_vertex_r1(self):
        edges = [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 2)]
        rc = classify_regions(Graph(8, edges))
        assert rc.region == "R1"
        assert rc.in_a1 and not rc.in_a2 and not rc.in_a3

    def test_cycles_r3(self):
        assert classify_regions(cycle(4)).region == "R3"
        assert classify_regions(cycle(7)).region == "R3"

    def test_k2n_r4(self):
        assert classify_regions(complete_bipartite(2, 3)).region == "R4"
        assert classify_regions(complete_bipartite(2, 4)).region == "R4"

    def test_knn_r5(self):
        assert classify_regions(complete_bipartite(3, 3)).region == "R5"
        assert classify_regions(complete_bipartite(4, 4)).region == "R5"

    def test_recorded_r2_witness(self):
        # found by seeded random search over 9-vertex graphs: every vertex
        # critical, yet edges (2,3) and (4,6) lie in no minimum set
        from pathdom.formats import parse_graph6

        rc = classify_regions(parse_graph6("Hd@H]Pt"))
        assert rc.region == "R2"
        assert rc.in_a3 and not rc.in_a2

    def test_star_not_in_a(self):
        rc = classify_regions(star(3))
        assert rc.region == "NotInA" and not rc.in_a

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            classify_regions(edgeless(3))

    def test_flag_implications_exhaustive_n4(self):
        for g in enumerate_labeled_graphs(4):
            if g.is_edgeless():
                continue
            rc = classify_regions(g)
            assert not rc.in_a3 or rc.in_a1
            assert not (rc.in_a1 or rc.in_a2) or rc.in_a
            assert (rc.region == "NotInA") == (not rc.in_a)


class TestClassU:
    def test_c5_in(self):
        assert all_nonadjacent_pa_three(cycle(5))

    def test_two_triangles_in(self):
        assert all_nonadjacent_pa_three(k3_union_k3())

    def test_isolated_vertex_out(self):
        assert not all_nonadjacent_pa_three(Graph(3, [(0, 1)]))

    def test_complete_out(self):
        assert not all_nonadjacent_pa_three(complete(4))

    def test_matches_profile_exhaustive_n4(self):
        for g in enumerate_labeled_graphs(4):
            if g.n < 2:
                continue
            prof = path_addition_profile(g)
            assert all_nonadjacent_pa_three(g) == \
                (prof.min_nonadjacent == 3 and prof.max_nonadjacent == 3)


class TestSumBounds:
    def test_c4(self):
        assert all(check_sum_bounds(cycle(4)))

    def test_p4(self):
        assert all(check_sum_bounds(path(4)))

    def test_complete_rejected(self):
        with pytest.raises(ValueError):
            check_sum_bounds(complete(4))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            check_sum_bounds(k3_union_k3())

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            check_sum_bounds(edgeless(3))
