import gc
import random
import sys
from itertools import combinations, combinations_with_replacement, islice, product

import networkx as nx
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pathdom import domination
from pathdom.domination import (
    CACHE_SIZE,
    _classify,
    _relation,
    _search,
    _solve,
    all_minimum_sets_cliques,
    classify_vertices,
    clear_caches,
    constrained_domination_number,
    domination_number,
    domination_number_at_most,
    independent_domination_number,
    is_dominating,
    minimum_dominating_set,
    private_neighbors,
    shares_minimum_set,
)
from pathdom.families import (
    complete,
    complete_bipartite,
    corona,
    crown,
    cycle,
    edgeless,
    join,
    path,
    rook,
    star,
)
from pathdom.families import generate_family, parse_family_spec
from pathdom.formats import parse_graph6
from pathdom.graphs import Graph, bits, enumerate_labeled_graphs, mask_of, set_of
from pathdom import path_addition
from pathdom.oracle import predict_pair
from pathdom.path_addition import (
    _add_path,
    add_path,
    domination_after_path,
    path_addition_number,
)
from pathdom.verify import _brute_minimum_sets, random_graph

from .conftest import (
    delete_vertices,
    graphs,
    is_clique,
    naive_gamma,
    naive_independent_gamma,
    reference_solve,
)


class TestIsDominating:
    def test_c6_antipodal(self):
        assert is_dominating(cycle(6), [0, 3])

    def test_p4_prefix_misses_tail(self):
        assert not is_dominating(path(4), [0, 1])

    def test_whole_vertex_set(self):
        g = Graph(5, [(0, 1)])
        assert is_dominating(g, range(5))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_dominating(path(3), [3])


class TestGamma:
    def test_complete(self):
        assert domination_number(complete(5)) == 1

    def test_p4(self):
        assert domination_number(path(4)) == 2  # == naive below

    def test_rook3(self):
        assert domination_number(rook(3)) == 3

    def test_empty_graph(self):
        assert domination_number(Graph(0)) == 0
        assert minimum_dominating_set(Graph(0)) == frozenset()

    def test_witness_is_minimum_dominating(self):
        for g in (path(7), cycle(9), crown(4), star(5)):
            wit = minimum_dominating_set(g)
            assert is_dominating(g, wit)
            assert len(wit) == domination_number(g)

    def test_exhaustive_vs_naive_n4(self):
        for g in enumerate_labeled_graphs(4):
            assert domination_number(g) == naive_gamma(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=5))
    def test_vs_naive(self, g):
        assert domination_number(g) == naive_gamma(g)


class TestConstrained:
    def test_force_pair(self):
        assert constrained_domination_number(cycle(4), include=[0, 1]) == 2

    def test_force_single_in_complete(self):
        assert constrained_domination_number(complete(3), include=[0]) == 1

    def test_no_constraints_equals_gamma(self):
        g = path(6)
        assert constrained_domination_number(g) == domination_number(g)

    def test_constraints_are_keyword_only(self):
        # a positional set would otherwise be read as some other constraint
        with pytest.raises(TypeError):
            constrained_domination_number(path(3), [0], [1])

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=2, max_n=5), st.data())
    def test_monotone_in_constraints(self, g, data):
        inc = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2, unique=True))
        # forcing more vertices in never shrinks the answer
        sizes = [constrained_domination_number(g, include=inc[:i]) for i in range(len(inc) + 1)]
        assert sizes == sorted(sizes) and sizes[0] == domination_number(g)


class TestEnumeration:
    def test_k3_singletons(self):
        assert _brute_minimum_sets(complete(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]

    def test_c6(self):
        assert [sorted(s) for s in _brute_minimum_sets(cycle(6))] == [
            [0, 3], [1, 4], [2, 5]
        ]

    def test_p4(self):
        assert [sorted(s) for s in _brute_minimum_sets(path(4))] == [
            [0, 2], [0, 3], [1, 2], [1, 3]
        ]


class TestClassify:
    def test_p4(self):
        rep = classify_vertices(path(4))
        assert all(rep.good)
        assert rep.critical_vertices == {0, 3}

    def test_star_center_only_good(self):
        rep = classify_vertices(star(3))
        assert rep.good == (True, False, False, False)
        assert rep.bad == (False, True, True, True)
        assert rep.critical_vertices == frozenset()

    def test_bad_vertices_take_no_deletion_solve(self, kernel_solves):
        # a critical vertex is good, and its neighbours are dominated by the
        # rest of a minimum set that contains it.  The only minimum set of
        # star(5) is its center, which dominates the leaves alone: no vertex
        # is searched with itself deleted, and the two solves are gamma and
        # the independent domination number
        g = star(5)
        rep = classify_vertices(g)
        assert rep.good == (True,) + (False,) * 5
        assert len(kernel_solves) == 2
        # a bad pair's k=1 rule is one pair-deletion decision, not that
        # deletion plus one deletion of each endpoint
        for u, v in combinations(range(1, 6), 2):
            predict_pair(g, u, v)
        assert len(kernel_solves) == 2 + 10

    def test_good_vertices_with_a_lone_neighbour_take_no_deletion_solve(self, kernel_solves):
        # every vertex of cycle(6) is good, and in each of its minimum sets
        # {0, 3}, {1, 4}, {2, 5} a vertex alone dominates both its neighbours
        rep = classify_vertices(cycle(6))
        assert all(rep.good) and not rep.critical_vertices
        assert len(kernel_solves) == 2
        # path(4): the leaves are critical, and the decisions find it
        rep = classify_vertices(path(4))
        assert rep.critical_vertices == {0, 3}
        assert len(kernel_solves) == 2 + 2 + 2

    def test_rook3_all_critical(self):
        rep = classify_vertices(rook(3))
        assert rep.critical_vertices == frozenset(range(9))

    def test_good_xor_bad(self):
        for g in enumerate_labeled_graphs(4):
            rep = classify_vertices(g)
            assert all(a != b for a, b in zip(rep.good, rep.bad))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=5))
    def test_good_matches_set_enumeration(self, g):
        rep = classify_vertices(g)
        union = set().union(*_brute_minimum_sets(g)) if g.n else set()
        assert all(rep.good[v] == (v in union) for v in range(g.n))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=5))
    def test_critical_matches_deletion(self, g):
        rep = classify_vertices(g)
        for v in range(g.n):
            h, _ = delete_vertices(g, [v])
            assert rep.critical[v] == (domination_number(h) == rep.gamma - 1)
            # dropping one vertex can lower gamma by at most one
            assert domination_number(h) >= rep.gamma - 1

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=5))
    def test_strong_equality_two_routes(self, g):
        rep = classify_vertices(g)
        brute = all(g.is_independent_set(s) for s in _brute_minimum_sets(g))
        assert rep.strong_equality == brute

    def test_cycle30_without_set_enumeration(self):
        # one search over its three minimum sets, not a scan of all C(30, 10)
        # subsets
        rep = classify_vertices(cycle(30))
        assert rep.gamma == 10
        assert rep.strong_equality
        assert rep.critical_vertices == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=5))
    def test_independent_number_bounds(self, g):
        rep = classify_vertices(g)
        assert rep.independent_domination_number >= rep.gamma
        if rep.strong_equality:
            assert rep.independent_domination_number == rep.gamma


class TestDeletion:
    def test_delete_all(self):
        assert constrained_domination_number(path(3), delete=[0, 1, 2]) == 0

    def test_include_meets_delete_rejected(self):
        with pytest.raises(ValueError):
            constrained_domination_number(path(3), include=[1], delete=[1])

    @settings(max_examples=80, deadline=None)
    @given(graphs(min_n=1, max_n=6), st.data())
    def test_matches_relabeled_subgraph(self, g, data):
        drop = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3))
        inc = data.draw(
            st.sets(st.integers(0, g.n - 1).filter(lambda v: v not in drop), max_size=2)
        )
        h, relabel = delete_vertices(g, drop)
        assert constrained_domination_number(
            g, include=inc, delete=drop
        ) == constrained_domination_number(h, include=[relabel[v] for v in inc])


class TestIndependentDomination:
    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=6))
    def test_vs_naive(self, g):
        assert independent_domination_number(g) == naive_independent_gamma(g)

    def test_examples(self):
        assert independent_domination_number(star(4)) == 1
        assert independent_domination_number(cycle(5)) == 2
        assert independent_domination_number(complete(6)) == 1

    def test_gap_to_gamma(self):
        # a cross pair dominates K_{3,3} but is never independent, so the
        # best independent dominating set is a whole side
        g = complete_bipartite(3, 3)
        assert domination_number(g) == 2
        assert independent_domination_number(g) == 3


class TestPrivateNeighbors:
    def test_alone_gets_closed_neighborhood(self):
        g = cycle(5)
        assert private_neighbors(g, 2, [2]) == set_of(g.closed[2])

    def test_c4(self):
        assert private_neighbors(cycle(4), 0, [0, 2]) == {0}

    def test_p4(self):
        assert private_neighbors(path(4), 1, [1, 3]) == {0, 1}

    def test_not_member_rejected(self):
        with pytest.raises(ValueError):
            private_neighbors(path(4), 0, [1, 3])


class TestSetShapePredicates:
    def test_cliques(self):
        # joining two parts that each need 3 dominators pins every minimum
        # set to one vertex per part, hence an edge
        g = join(path(7), path(7))
        assert domination_number(g) == 2
        assert all_minimum_sets_cliques(g)
        assert all_minimum_sets_cliques(complete(5))
        assert not all_minimum_sets_cliques(cycle(6))

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=6))
    def test_predicates_match_enumeration(self, g):
        sets = _brute_minimum_sets(g)
        assert all_minimum_sets_cliques(g) == all(is_clique(g, s) for s in sets)

    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=2, max_n=6), st.data())
    def test_shares_minimum_set_matches_enumeration(self, g, data):
        u, v = data.draw(st.sampled_from(list(combinations(range(g.n), 2))))
        brute = any(u in s and v in s for s in _brute_minimum_sets(g))
        assert shares_minimum_set(g, u, v) == brute


class TestKernelContract:
    """Every query the kernel takes has an answer: an undominated vertex is
    its own candidate, and a conflict rules it out only once a neighbour
    is chosen."""

    @settings(max_examples=300, deadline=None)
    @given(graphs(min_n=1, max_n=9), st.data())
    def test_answer_is_a_constrained_dominating_set(self, g, data):
        drop = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3).map(mask_of))
        include = data.draw(st.lists(
            st.integers(0, g.n - 1).filter(lambda v: not drop >> v & 1), max_size=2
        ).map(mask_of))
        keep = (1 << g.n) - 1 & ~drop
        for conflict in (None, g.nbr):
            size, mask = _solve(g.closed, g.n, include, drop, conflict)
            assert mask & include == include and not mask & drop
            dominated = 0
            for v in bits(mask):
                dominated |= g.closed[v]
            assert dominated & keep == keep
            assert mask.bit_count() == size
            if conflict and not include:
                assert g.is_independent_set(bits(mask))


class TestNoGarbage:
    """A search frees its closure when it returns: none is left for the
    cyclic garbage collector."""

    def test_searches_leave_no_cycles(self):
        g = rook(4)
        clear_caches()
        gc.collect()
        for target in (None, 3, 4):
            _solve(g.closed, g.n, target=target)
            assert gc.collect() == 0
        _relation(g)
        assert gc.collect() == 0
        clear_caches()


class TestKernelMatchesReference:
    """The kernel returns the reference search's size and witness mask
    exactly: its shortcuts only cut nodes that cannot beat the incumbent,
    so the sequence of improvements is the same."""

    @settings(max_examples=300, deadline=None)
    @given(graphs(min_n=1, max_n=9), st.data())
    def test_constrained_and_independent(self, g, data):
        def some(k):
            return data.draw(st.lists(st.integers(0, g.n - 1), max_size=k).map(mask_of))

        include, drop = some(2), some(2)
        for conflict in (None, g.nbr):
            assert _solve(g.closed, g.n, include, drop, conflict) == (
                reference_solve(g.closed, g.n, include, drop, conflict)
            )

    # three seeded 10-vertex graphs, sparse families on which the packing
    # bound and the early scan exits fire on most nodes, and pendant-rich
    # graphs, on which the packing that starts with the vertices with at
    # most two candidates comes out ahead of the label-order one.  The
    # sparse random graph has leaves where the greedy cover is not minimum,
    # so a cut of that packing made too early changes a witness there
    @pytest.mark.parametrize("source", [
        1, 2, 3, "cycle(12)", "path(10)", "cartesian_product(path(3),path(4))",
        "corona(path(4))", "corona(cycle(4))", "star(6)",
        pytest.param((0.15, 10), id="sparse-10")])
    def test_every_path_addition(self, source):
        if isinstance(source, str):
            g = generate_family(parse_family_spec(source))
        else:
            p, seed = source if isinstance(source, tuple) else (0.3, source)
            g = random_graph(10, p, random.Random(seed))
        for u, v in combinations(range(g.n), 2):
            for k in range(1, 6):
                h = add_path(g, u, v, k)
                assert _search[h, 0, 0, False] == reference_solve(h.closed, h.n)

    # the narrow-first pass meets the branch vertex out of label order, so
    # only the tie-break keeps it the lowest label among the fewest
    # candidates; without it these two queries return (2, 34) and (4, 101)
    @pytest.mark.parametrize("g6, delete, answer", [
        ("EBa_", {4}, (2, 9)), ("GA?APo", {3}, (4, 163))])
    def test_branch_vertex_ties_go_to_the_lowest_label(self, g6, delete, answer):
        g = parse_graph6(g6)
        drop = mask_of(delete)
        assert _solve(g.closed, g.n, drop=drop) == reference_solve(g.closed, g.n, drop=drop) == answer


def within_nodes(search, limit, call):
    """call(), failing once it opens more than ``limit`` frames of the inner
    ``rec`` of ``search``: its search nodes."""
    rec = next(c for c in search.__code__.co_consts if getattr(c, "co_name", None) == "rec")
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is rec:
            nodes += 1
            if nodes > limit:
                raise RuntimeError(f"more than {limit} {search.__name__} nodes")

    sys.setprofile(count)
    try:
        return call()
    finally:
        sys.setprofile(None)


class TestCoronas:
    """Packing the narrow vertices first closes a corona at the root: the
    label-order packing counts each base vertex before its pendant and
    misses the count, and the search then grows like a Fibonacci sequence
    (121,391 nodes for an independent query on corona(path(24)))."""

    @pytest.mark.parametrize("spec", ["corona(path(24))", "corona(cycle(16))", "corona(path(40))"])
    def test_every_query_closes_at_the_root(self, spec):
        g = generate_family(parse_family_spec(spec))
        gamma = g.n // 2
        base, pendant = 0, g.n - 1  # the pendant of vertex i is n + i
        for query in ({}, {"conflict": g.nbr}, {"target": gamma - 1},
                      {"drop": 1 << base}, {"drop": 1 << pendant}, {"include": 1 << 1}):
            size = within_nodes(_solve, 2, lambda: _solve(g.closed, g.n, **query))[0]
            assert size == (gamma - 1 if query.get("drop") == 1 << pendant else gamma)


class TestDecisions:
    """With a target t the kernel answers whether a dominating set of at
    most t vertices exists, and stops at the first one it finds;
    ``domination_number_at_most`` reads a held exact answer before it
    searches, and the path addition scan asks it of every G_{u,v,k}."""

    @settings(max_examples=300, deadline=None)
    @given(graphs(min_n=1, max_n=9), st.data())
    def test_kernel_decision_matches_reference(self, g, data):
        drop = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3).map(mask_of))
        include = data.draw(st.lists(
            st.integers(0, g.n - 1).filter(lambda v: not drop >> v & 1), max_size=2
        ).map(mask_of))
        keep = (1 << g.n) - 1 & ~drop
        for conflict in (None, g.nbr):
            gamma = reference_solve(g.closed, g.n, include, drop, conflict)[0]
            for t in range(gamma - 2, gamma + 2):
                size, mask = _solve(g.closed, g.n, include, drop, conflict, target=t)
                assert (size <= t) == (gamma <= t)
                # whatever the answer, the set returned is a valid one
                assert mask & include == include and not mask & drop
                assert mask.bit_count() == size
                dominated = 0
                for v in bits(mask):
                    dominated |= g.closed[v]
                assert dominated & keep == keep

    def test_atlas_decisions(self):
        # on 50 of these graphs the greedy set is not minimum, so t = gamma
        # is answered by the search and not by the greedy set alone
        for h in nx.graph_atlas_g():
            g = Graph(h.number_of_nodes(), list(h.edges()))
            gamma = reference_solve(g.closed, g.n)[0]
            clear_caches()
            for t in range(gamma - 2, gamma + 2):
                assert domination_number_at_most(g, t) == (gamma <= t)
        clear_caches()

    @settings(max_examples=100, deadline=None)
    @given(graphs(min_n=0, max_n=8), st.data())
    def test_memoised_bounds_in_any_order(self, g, data):
        # decisions in any order, before and after the exact answer is held
        gamma = reference_solve(g.closed, g.n)[0]
        clear_caches()
        for t in data.draw(st.permutations(range(gamma - 2, gamma + 2))):
            assert domination_number_at_most(g, t) == (gamma <= t)
        assert domination_number(g) == gamma
        for t in range(gamma - 2, gamma + 2):
            assert domination_number_at_most(g, t) == (gamma <= t)
        clear_caches()

    # the sources of TestKernelMatchesReference.test_every_path_addition
    @pytest.mark.parametrize("source", [
        1, 2, 3, "cycle(12)", "path(10)", "cartesian_product(path(3),path(4))",
        "corona(path(4))", "corona(cycle(4))", "star(6)",
        pytest.param((0.15, 10), id="sparse-10")])
    def test_path_addition_number_matches_exact_scan(self, source):
        if isinstance(source, str):
            g = generate_family(parse_family_spec(source))
        else:
            p, seed = source if isinstance(source, tuple) else (0.3, source)
            g = random_graph(10, p, random.Random(seed))
        gamma = domination_number(g)
        for u, v in combinations(range(g.n), 2):
            clear_caches()
            scan = next(k for k in range(1, 7) if domination_after_path(g, u, v, k) > gamma)
            clear_caches()
            assert path_addition_number(g, u, v) == scan
        clear_caches()

    # a decision stores nothing, so nothing takes the exact answer's place:
    # an exact witness asked after the path addition scan and after
    # decisions on either side of gamma is the reference search's witness;
    # graphs from test_every_path_addition
    @pytest.mark.parametrize("g", [
        random_graph(10, 0.3, random.Random(1)), random_graph(10, 0.15, random.Random(10)),
        cycle(12), corona(path(4))], ids=["1", "sparse-10", "cycle(12)", "corona(path(4))"])
    def test_witnesses_survive_earlier_decisions(self, g):
        clear_caches()
        pairs = list(combinations(range(g.n), 2))
        for u, v in pairs:
            path_addition_number(g, u, v)
        for u, v in pairs:
            for k in range(1, 6):
                h = add_path(g, u, v, k)
                size, mask = reference_solve(h.closed, h.n)
                for t in (size + 1, size, size - 1):
                    assert domination_number_at_most(h, t) == (t >= size)
                assert minimum_dominating_set(h) == set_of(mask)
        clear_caches()


def triangle_chain(k: int) -> Graph:
    """Triangles a_i b_i c_i with the b_i on a path, the a_i labelled first:
    all 3^k choices of one vertex per triangle are the minimum sets."""
    edges = [(i, k + i) for i in range(k)] + [(k + i, 2 * k + i) for i in range(k)]
    edges += [(i, 2 * k + i) for i in range(k)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph(3 * k, edges)


class TestRelation:
    """One search per graph answers every "pair shares a minimum dominating
    set" query, ``good`` and ``strong_equality``: it agrees with the
    enumerated minimum sets where those are in reach, and with one
    include-pair solve per pair beyond them."""

    def test_atlas_matches_enumerated_sets(self):
        clear_caches()
        for h in nx.graph_atlas_g():  # every graph on at most 7 vertices
            g = Graph(h.number_of_nodes(), list(h.edges()))
            sets = _brute_minimum_sets(g)
            rep = classify_vertices(g)
            assert rep.good == tuple(any(x in s for s in sets) for x in range(g.n))
            assert rep.strong_equality == all(g.is_independent_set(s) for s in sets)
            assert all_minimum_sets_cliques(g) == all(is_clique(g, s) for s in sets)
            for u, v in product(range(g.n), repeat=2):
                assert shares_minimum_set(g, u, v) == any(u in s and v in s for s in sets)
            clear_caches()

    # beyond brute force; rook(5) has 2 * 5^5 - 5! = 6,130 minimum sets, and
    # rook(7)'s relation search makes 82,608 nodes
    BEYOND_BRUTE_FORCE = [
        "rook(4)", "rook(5)", "corona(path(8))", "generalized_petersen(10,3)",
        "complete_bipartite(6,8)", "rook(7)"]

    @pytest.mark.parametrize("spec", BEYOND_BRUTE_FORCE)
    def test_matches_include_pair_solves(self, spec):
        clear_caches()
        g = generate_family(parse_family_spec(spec))
        gamma = domination_number(g)

        def shares(u, v):
            return constrained_domination_number(g, include=(u, v)) == gamma

        rep = classify_vertices(g)
        assert rep.good == tuple(shares(x, x) for x in range(g.n))
        assert rep.strong_equality == (not any(shares(u, v) for u, v in g.edges()))
        assert all_minimum_sets_cliques(g) == (not any(shares(u, v) for u, v in g.non_edges()))
        for u, v in combinations_with_replacement(range(g.n), 2):
            assert shares_minimum_set(g, u, v) == shares_minimum_set(g, v, u) == shares(u, v)
        clear_caches()

    # the state memo only caches subtrees: emptied whenever it holds 16
    # states, it costs time (rook(7): 13,570 states unbounded) but no row
    @pytest.mark.parametrize("spec", BEYOND_BRUTE_FORCE)
    def test_bounded_state_memo_keeps_every_row(self, spec, monkeypatch):
        monkeypatch.setattr(domination, "_RELATION_STATES", 16)
        self.test_matches_include_pair_solves(spec)

    # 2^20 and 3^12 minimum sets, but branches that dominate the same
    # vertices meet again: 39 and 94 nodes, under two per vertex and edge
    @pytest.mark.parametrize("g, k", [(corona(edgeless(20)), 20), (triangle_chain(12), 12)])
    def test_many_minimum_sets_few_states(self, g, k):
        clear_caches()
        rel = within_nodes(_relation.__wrapped__, 2 * (g.n + g.edge_count), lambda: _relation(g))
        # one vertex per pendant pair or triangle, chosen freely
        for x, y in product(range(g.n), repeat=2):
            assert (rel[x] >> y & 1) == (x == y or x % k != y % k)
        clear_caches()

    def test_rook7_is_answered_by_the_search(self, kernel_solves):
        # any two vertices of rook(7) share a minimum set; the search finds
        # that, and no query but gamma reaches the kernel
        g = rook(7)
        assert all(shares_minimum_set(g, u, v) for u, v in product(range(g.n), repeat=2))
        assert len(kernel_solves) == 1

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            shares_minimum_set(path(3), 0, 3)


class TestMemo:
    """Every exact kernel answer lives in one bounded memo, ``_search``, and
    decisions store nothing; every graph's minimum-set relation lives in
    ``_relation``; and ``classify_vertices`` reads the only other cache,
    ``_classify``."""

    def test_one_query_is_one_entry(self):
        clear_caches()
        g = cycle(7)
        assert domination_number(g) == constrained_domination_number(g) == 3
        assert len(_search) == 1
        clear_caches()

    def test_decisions_store_nothing(self, kernel_solves):
        g = cycle(7)
        assert domination_number_at_most(g, 3) and not domination_number_at_most(g, 2)
        assert domination_number_at_most(g, 2, delete=[0])
        assert len(_search) == 0 and len(kernel_solves) == 3
        # so a repeated decision searches again
        assert domination_number_at_most(g, 2, delete=[0])
        assert len(_search) == 0 and len(kernel_solves) == 4
        # but an exact answer to the same query settles it without a search
        assert constrained_domination_number(g, delete=[0]) == 2
        assert len(kernel_solves) == 5 and list(_search) == [(g, 0, 1, False)]
        assert domination_number_at_most(g, 2, delete=[0])
        assert not domination_number_at_most(g, 1, delete=[0])
        assert len(kernel_solves) == 5

    def test_bounds_are_kept_per_query(self):
        # gamma(C7 - 0) = 2 < gamma(C7) = 3 < 4, the least dominating set
        # that contains 0, 1 and 2: a bound proven on one query answers no other
        clear_caches()
        g = cycle(7)
        assert domination_number_at_most(g, 2, delete=[0])
        assert not domination_number_at_most(g, 2)
        assert not domination_number_at_most(g, 3, include=[0, 1, 2])
        assert domination_number_at_most(g, 3)
        assert not domination_number_at_most(g, 1, delete=[0])
        clear_caches()

    def test_each_path_graph_is_built_once(self):
        clear_caches()
        g = cycle(7)
        h = add_path(g, 0, 3, 2)
        assert add_path(g, 0, 3, 2) is h and add_path(g, 3, 0, 2) is not h
        assert domination_after_path(g, 0, 3, 2) == domination_number(h)
        # the scan builds k = 1 and 3 and reuses k = 2: four graphs in all
        assert path_addition_number(g, 0, 3) == 3
        assert _add_path.cache_info().currsize == 4
        clear_caches()

    def test_overlap_is_rejected_before_the_lookup(self):
        clear_caches()
        with pytest.raises(ValueError, match="include and delete overlap"):
            constrained_domination_number(path(3), include=[0], delete=[0])
        assert len(_search) == 0

    def test_library_loop_stays_bounded(self, kernel_solves):
        for g in enumerate_labeled_graphs(6):  # 32,768 graphs, never cleared
            classify_vertices(g)
            add_path(g, 0, 1, 1)
        assert len(kernel_solves) > CACHE_SIZE >= len(_search)
        # the critical flags' deletion decisions left nothing: every entry is
        # an exact (size, witness) answer under (g, include, drop, independent)
        for key, (size, mask) in _search.items():
            assert len(key) == 4 and isinstance(key[0], Graph) and key[3] in (False, True)
            assert mask.bit_count() == size
        for cached in (_relation, _classify, _add_path):
            info = cached.cache_info()
            assert info.maxsize == CACHE_SIZE
            assert info.misses > CACHE_SIZE >= info.currsize

    def test_decisions_stay_bounded(self, kernel_solves):
        for g in islice(enumerate_labeled_graphs(6), 2 * CACHE_SIZE):
            domination_number_at_most(g, 1)
        assert len(kernel_solves) > CACHE_SIZE >= len(_search)

    def test_clear_caches_empties_every_cache(self):
        classify_vertices(cycle(6))
        domination_number_at_most(cycle(9), 2)
        domination_number_at_most(cycle(9), 2, include=[0], delete=[4])
        path_addition_number(cycle(6), 0, 2)
        clear_caches()
        assert len(_search) == 0
        for cached in (_relation, _classify, _add_path):
            assert cached.cache_info().currsize == 0

    def test_clear_caches_survives_rebound_public_names(self, monkeypatch):
        # a tracer replaces public functions with plain wrappers
        for name in ("classify_vertices", "domination_number"):
            fn = getattr(domination, name)
            monkeypatch.setattr(domination, name, lambda g, fn=fn: fn(g))
        monkeypatch.setattr(path_addition, "add_path",
                            lambda *args, fn=path_addition.add_path: fn(*args))
        domination.classify_vertices(cycle(6))
        path_addition.add_path(cycle(6), 0, 2, 1)
        assert _relation.cache_info().currsize and _add_path.cache_info().currsize
        domination.clear_caches()
        assert len(_search) == 0
        for cached in (_relation, _classify, _add_path):
            assert cached.cache_info().currsize == 0
