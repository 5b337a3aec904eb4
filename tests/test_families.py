import pytest

from pathdom.families import (
    FamilySpec,
    cartesian_product,
    circulant,
    complete,
    complete_bipartite,
    corona,
    crown,
    cycle,
    edgeless,
    generalized_petersen,
    generate_family,
    join,
    parse_family_spec,
    path,
    rook,
    star,
)
from pathdom.graphs import set_of

from .conftest import brute_isomorphic


def test_crown3_is_c6():
    assert brute_isomorphic(crown(3), cycle(6))


def test_crown_counts():
    g = crown(4)
    assert g.n == 8 and g.edge_count == 12
    assert all(g.nbr[v].bit_count() == 3 for v in range(8))
    assert not g.has_edge(0, 4)  # the removed matching


def test_circulant_distance_one_is_cycle():
    assert circulant(9, [1]) == cycle(9)


def test_circulant_negation_closure():
    assert circulant(5, [2]) == circulant(5, [3])


def test_circulant_rejects_zero_and_empty():
    with pytest.raises(ValueError):
        circulant(6, [6])
    with pytest.raises(ValueError):
        circulant(6, [])


def test_rook3_shape():
    g = rook(3)
    assert g.n == 9 and g.edge_count == 18
    # closed neighborhood of cell (i, j) is its row plus its column
    assert set_of(g.closed[0]) == {0, 1, 2, 3, 6}


def test_generalized_petersen_shape():
    g = generalized_petersen(8, 3)
    assert g.n == 16 and g.edge_count == 24
    assert all(g.nbr[v].bit_count() == 3 for v in range(16))
    assert g.has_edge(0, 8) and g.has_edge(8, 11)


def test_generalized_petersen_validation():
    with pytest.raises(ValueError):
        generalized_petersen(2, 1)
    with pytest.raises(ValueError):
        generalized_petersen(5, 5)


def test_star_center_zero():
    g = star(3)
    assert g.nbr[0].bit_count() == 3 and all(g.nbr[v].bit_count() == 1 for v in (1, 2, 3))


def test_corona_of_edge_is_p4():
    assert brute_isomorphic(corona(path(2)), path(4))


def test_corona_counts():
    g = corona(cycle(5))
    assert g.n == 10 and g.edge_count == 10
    assert all(g.nbr[v].bit_count() == 1 for v in range(5, 10))


def test_join_is_complete_bipartite_on_edgeless_parts():
    assert join(edgeless(2), edgeless(3)) == complete_bipartite(2, 3)


def test_cartesian_product_rook():
    assert cartesian_product(complete(3), complete(3)) == rook(3)


def test_path_cycle_validation():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        crown(1)


class TestFamilySpec:
    def test_parse_simple(self):
        assert generate_family(parse_family_spec("rook(3)")) == rook(3)
        assert generate_family(parse_family_spec("complete_bipartite(3,3)")) == \
            complete_bipartite(3, 3)

    def test_parse_circulant(self):
        spec = parse_family_spec("circulant(15,1,2)")
        assert spec.params == (15, 1, 2)
        assert generate_family(spec) == circulant(15, [1, 2])

    def test_parse_nested(self):
        assert generate_family(parse_family_spec("corona(path(2))")) == corona(path(2))
        g = generate_family(parse_family_spec("join(complete(3),complete(3))"))
        assert g == join(complete(3), complete(3))

    def test_round_trip_str(self):
        for text in ["rook(3)", "circulant(9,1)", "corona(path(2))"]:
            spec = parse_family_spec(text)
            assert parse_family_spec(str(spec)) == spec

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_family_spec("rook(3) extra")
        with pytest.raises(ValueError):
            parse_family_spec("nosuch(3)")
        with pytest.raises(ValueError):
            generate_family(FamilySpec("rook", (3, 4)))
        with pytest.raises(ValueError):
            parse_family_spec("rook")
