import pytest
from hypothesis import given, settings

from pathdom.domination import domination_number
from pathdom.families import complete, complete_bipartite, cycle, edgeless, path, rook, star
from pathdom.formats import jsonable
from pathdom.graphs import Graph
from pathdom.path_addition import (
    INFINITE,
    add_path,
    domination_after_path,
    path_addition_number,
    path_addition_profile,
)

from .conftest import brute_isomorphic, graphs, graphs_with_pair


class TestAddPath:
    def test_k2_one_internal_is_triangle(self):
        assert add_path(path(2), 0, 1, 1) == complete(3)

    def test_k2_two_internal_is_c4(self):
        assert brute_isomorphic(add_path(path(2), 0, 1, 2), cycle(4))

    def test_k0_idempotent_on_edge(self):
        g = cycle(4)
        assert add_path(g, 0, 1, 0) == g

    def test_k0_adds_missing_edge(self):
        g = add_path(cycle(4), 0, 2, 0)
        assert g.has_edge(0, 2) and g.edge_count == 5

    def test_existing_edge_kept_alongside_path(self):
        g = add_path(cycle(4), 0, 1, 2)
        assert g.has_edge(0, 1)
        assert g.edge_count == cycle(4).edge_count + 3

    def test_internal_labels_in_path_order(self):
        g = add_path(path(4), 0, 3, 3)
        assert g.neighbors(4) == {0, 5}
        assert g.neighbors(5) == {4, 6}
        assert g.neighbors(6) == {5, 3}

    def test_edge_count_formula(self):
        g = star(3)
        for k in range(5):
            h = add_path(g, 1, 2, k)
            assert h.edge_count == g.edge_count + k + 1
            assert h.n == g.n + k

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            add_path(path(3), 1, 1, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            add_path(path(3), 0, 3, 1)


class TestGammaAfterPath:
    def test_c4_adjacent_three(self):
        assert domination_after_path(cycle(4), 0, 1, 3) == 3

    def test_k3_two(self):
        assert domination_after_path(complete(3), 0, 1, 2) == 2

    def test_star_leaves_one(self):
        assert domination_after_path(star(3), 1, 2, 1) == 2


class TestPathAdditionNumber:
    def test_scan_cap_is_loud(self, monkeypatch):
        # a solver that never reports a rise must trip the guard, not loop
        import pathdom.path_addition as pa_mod

        monkeypatch.setattr(pa_mod, "domination_after_path",
                            lambda g, u, v, k: 0)
        monkeypatch.setattr(pa_mod, "domination_number", lambda g: 0)
        with pytest.raises(pa_mod.SolverInconsistencyError):
            pa_mod.path_addition_number(path(3), 0, 2)

    def test_star_leaves(self):
        assert path_addition_number(star(3), 1, 2) == 1

    def test_k3(self):
        assert path_addition_number(complete(3), 0, 1) == 2

    def test_p4_middle_edge(self):
        assert path_addition_number(path(4), 1, 2) == 3

    def test_c4_antipodal(self):
        assert path_addition_number(cycle(4), 0, 2) == 4

    def test_one_vertex_rejected(self):
        with pytest.raises(ValueError):
            path_addition_number(Graph(1), 0, 0)


class TestProfile:
    def test_rook3(self):
        prof = path_addition_profile(rook(3))
        assert prof.min_nonadjacent == 4 and prof.max_nonadjacent == 4

    def test_k33(self):
        prof = path_addition_profile(complete_bipartite(3, 3))
        assert prof.max_nonadjacent == 2

    def test_edgeless_conventions(self):
        prof = path_addition_profile(edgeless(3))
        assert prof.min_adjacent == INFINITE and prof.max_adjacent == INFINITE
        assert prof.min_nonadjacent == 5 and prof.max_nonadjacent == 5

    def test_complete_conventions(self):
        prof = path_addition_profile(complete(4))
        assert prof.min_nonadjacent == INFINITE and prof.max_nonadjacent == INFINITE
        assert prof.min_adjacent == 2 and prof.max_adjacent == 2

    def test_pairs_cover_all(self):
        g = path(4)
        prof = path_addition_profile(g)
        assert set(prof.pairs) == {(u, v) for u in range(4) for v in range(u + 1, 4)}

    def test_too_small(self):
        with pytest.raises(ValueError):
            path_addition_profile(Graph(1))

    def test_json_dict_inf_encoding(self):
        d = jsonable(path_addition_profile(edgeless(2)))
        assert d["min_adjacent"] == "inf" and d["pairs"] == {"0-1": 5}


@settings(max_examples=40, deadline=None)
@given(graphs_with_pair(max_n=5))
def test_chain_monotone(gup):
    g, u, v = gup
    gamma = domination_number(g)
    values = [domination_after_path(g, u, v, k) for k in range(6)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    if g.has_edge(u, v):
        assert values[0] == gamma
    else:
        assert gamma - 1 <= values[0] <= gamma


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=5))
def test_profile_windows(g):
    prof = path_addition_profile(g)
    assert prof.min_adjacent <= prof.max_adjacent
    assert prof.min_nonadjacent <= prof.max_nonadjacent
    if not g.is_edgeless():
        assert 1 <= prof.min_adjacent <= 3
        assert 2 <= prof.max_adjacent <= 3
    if not g.is_complete():
        assert 1 <= prof.min_nonadjacent <= prof.max_nonadjacent <= 5
