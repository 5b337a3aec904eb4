from itertools import islice

import pytest
from hypothesis import given

from pathdom.graphs import (
    Graph,
    edge_mask,
    enumerate_labeled_graphs,
    from_edge_mask,
    subdivide_edge,
)
from pathdom.families import complete, cycle, path

from .conftest import brute_isomorphic, delete_vertices, from_masks, graphs, is_clique


class TestConstruction:
    def test_path4(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edge_count == 3
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_from_masks_validates_symmetry(self):
        with pytest.raises(ValueError):
            from_masks(2, [0b10, 0b00])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])


class TestDeleteVertices:
    """The relabel-and-rebuild reference that the kernel's ``delete=`` is checked against."""

    def test_path_minus_end(self):
        h, relabel = delete_vertices(path(4), [0])
        assert h == path(3)
        assert relabel == {1: 0, 2: 1, 3: 2}

    def test_cycle_minus_antipodal(self):
        h, _ = delete_vertices(cycle(4), [0, 2])
        assert h.n == 2 and h.is_edgeless()

    def test_complete_minus_one(self):
        h, _ = delete_vertices(complete(5), [4])
        assert h == complete(4)

    def test_delete_all(self):
        h, relabel = delete_vertices(cycle(3), [0, 1, 2])
        assert h.n == 0 and relabel == {}


class TestSubdivide:
    def test_triangle_becomes_4cycle(self):
        h = subdivide_edge(complete(3), 0, 1)
        assert brute_isomorphic(h, cycle(4))

    def test_edge_becomes_path3(self):
        assert brute_isomorphic(subdivide_edge(path(2), 0, 1), path(3))

    def test_c4_becomes_c5(self):
        assert brute_isomorphic(subdivide_edge(cycle(4), 1, 2), cycle(5))

    def test_counts(self):
        g = cycle(5)
        h = subdivide_edge(g, 0, 1)
        assert h.n == g.n + 1 and h.edge_count == g.edge_count + 1
        assert not h.has_edge(0, 1)
        assert h.neighbors(g.n) == {0, 1}

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            subdivide_edge(cycle(4), 0, 2)


class TestPredicates:
    def test_c4_antipodal_pair(self):
        g = cycle(4)
        assert g.is_independent_set([0, 2])
        assert g.is_vertex_cover([0, 2])

    def test_k3_pair(self):
        g = complete(3)
        assert is_clique(g, [0, 1])
        assert g.is_vertex_cover([0, 1])

    def test_p4_ends_not_cover(self):
        assert not path(4).is_vertex_cover([0, 3])

    def test_connected(self):
        assert path(5).is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()
        assert Graph(0).is_connected()

    def test_complete_edgeless(self):
        assert complete(4).is_complete()
        assert not cycle(4).is_complete()
        assert Graph(3).is_edgeless()
        assert complete(1).is_complete() and complete(1).is_edgeless()


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64

    def test_connected_count(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3, connected_only=True)) == 4

    def test_all_distinct(self):
        seen = {edge_mask(g) for g in enumerate_labeled_graphs(4)}
        assert len(seen) == 64

    def test_enumeration_is_lazy(self):
        # n = 9 has 2^36 labeled graphs: only the ones drawn are built
        drawn = list(islice(enumerate_labeled_graphs(9), 3))
        assert [edge_mask(g) for g in drawn] == [0, 1, 2]
        assert all(g.n == 9 for g in drawn)


class TestEdgeMask:
    def test_round_trip_exhaustive_n4(self):
        for mask in range(64):
            assert edge_mask(from_edge_mask(4, mask)) == mask

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_edge_mask(3, 8)

    @pytest.mark.parametrize("n, mask", [(-1, 0), (-2, 0), (-2, 2)])
    def test_negative_vertex_count(self, n, mask):
        # (-2)(-3)/2 = 3 pairs would otherwise admit masks below 8
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            from_edge_mask(n, mask)


@given(graphs(max_n=6))
def test_adjacency_invariants(g):
    for v in range(g.n):
        assert not g.nbr[v] >> v & 1  # no loops
        for u in g.neighbors(v):
            assert g.has_edge(u, v) and g.has_edge(v, u)


@given(graphs(min_n=1, max_n=6))
def test_deletion_keeps_invariants(g):
    h, relabel = delete_vertices(g, [0])
    assert h.n == g.n - 1
    assert sorted(relabel.values()) == list(range(h.n))
    for u, v in h.edges():
        assert h.has_edge(v, u)
    # surviving adjacency matches the original through the label map
    inverse = {new: old for old, new in relabel.items()}
    for u, v in h.edges():
        assert g.has_edge(inverse[u], inverse[v])
