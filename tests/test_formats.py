import networkx as nx
import pytest
from hypothesis import given

from pathdom.families import complete, path
from pathdom.formats import (
    GraphFormatError,
    emit_edge_list,
    emit_graph6,
    iter_entries,
    load_graphs,
    parse_edge_list,
    parse_graph6,
)
from pathdom.graphs import Graph, enumerate_labeled_graphs

from .conftest import graphs


class TestGraph6KnownStrings:
    def test_k4(self):
        # cross-checked against the reference encoder below
        assert parse_graph6("C~") == complete(4)

    def test_p4(self):
        # bits over pairs (0,1)(0,2)(1,2)(0,3)(1,3)(2,3) = 101001
        assert parse_graph6("Ch") == path(4)

    def test_k1(self):
        assert parse_graph6("@") == Graph(1)

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<C~") == complete(4)

    def test_emit_known(self):
        assert emit_graph6(complete(4)) == "C~"
        assert emit_graph6(path(4)) == "Ch"
        assert emit_graph6(Graph(1)) == "@"
        assert emit_graph6(Graph(0)) == "?"


class TestGraph6RoundTrip:
    def test_exhaustive_small(self):
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                s = emit_graph6(g)
                assert parse_graph6(s) == g
                assert emit_graph6(parse_graph6(s)) == s

    def test_large_n_prefix(self):
        g = Graph(63)  # needs the multi-character count encoding
        assert parse_graph6(emit_graph6(g)) == g

    @given(graphs(max_n=12))
    def test_round_trip(self, g):
        s = emit_graph6(g)
        assert parse_graph6(s) == g
        assert emit_graph6(parse_graph6(s)) == s

    def test_padding_bits_are_ignored(self):
        # n=2 has one pair; the five padding bits of "A@" carry a stray 1
        assert parse_graph6("A@") == Graph(2)
        assert parse_graph6("A_") == Graph(2, [(0, 1)])


class TestGraph6AgainstNetworkx:
    """networkx is the independent reference codec."""

    def test_emit_matches_reference(self):
        for g in [path(4), complete(5), Graph(6, [(0, 5), (1, 3), (2, 4)])]:
            ref_graph = nx.Graph()
            ref_graph.add_nodes_from(range(g.n))
            ref_graph.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
            assert emit_graph6(g) == ref

    def test_parse_decodes_reference_atlas(self):
        for ref in nx.graph_atlas_g():  # every graph on at most 7 vertices
            text = nx.to_graph6_bytes(ref, header=False).decode()
            g = parse_graph6(text)
            assert g == Graph(ref.number_of_nodes(), ref.edges)
            assert emit_graph6(g) + "\n" == text

    @given(graphs(min_n=1, max_n=7))
    def test_parse_matches_reference(self, g):
        s = emit_graph6(g)
        ref = nx.from_graph6_bytes(s.encode())
        assert set(ref.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in ref.edges} == set(g.edges())


class TestGraph6Errors:
    def test_empty(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("")

    def test_character_out_of_range(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6("C A")  # strip() would remove a trailing bad character
        assert exc.value.offset == 1

    def test_truncated_body(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("C")  # n=4 needs one adjacency character

    def test_excess_body(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("@@")

    def test_truncated_count(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("~A")

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("C A", "character ' ' outside graph6 range 63..126 (byte 1)"),
        ("C~\u00e9", "character '\u00e9' outside graph6 range 63..126 (byte 2)"),
        ("C~\x7f", "character '\\x7f' outside graph6 range 63..126 (byte 2)"),
        ("~A", "truncated vertex count (byte 2)"),
        ("~", "truncated vertex count (byte 1)"),
        ("~~??", "truncated vertex count (byte 4)"),
        ("C", "expected 1 adjacency characters for n=4, got 0 (byte 1)"),
        ("@@", "expected 0 adjacency characters for n=1, got 1 (byte 1)"),
        ("~?A_", "expected 2120 adjacency characters for n=160, got 0 (byte 4)"),
        ("~~?????C", "expected 1 adjacency characters for n=4, got 0 (byte 8)"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph6(text)
        assert str(exc.value) == message


class TestEdgeList:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        assert parse_edge_list(emit_edge_list(g)) == g

    def test_comments_and_layout(self):
        text = "# a comment\n4 2\n0 1  # inline\n\n2 3\n"
        assert parse_edge_list(text) == Graph(4, [(0, 1), (2, 3)])

    def test_bad_counts(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("3 2\n0 1\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("")

    def test_loop_reported(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 1\n1 1\n")


class TestLoadGraphs:
    def test_autodetect_edgelist(self):
        # the first meaningful line picks the format: "n m" reads as an edge list
        assert load_graphs("# k2 plus a vertex\n3 1\n0 1\n") == [Graph(3, [(0, 1)])]
        assert load_graphs("C~\n") == load_graphs("C~\n", "graph6") == [complete(4)]

    def test_multiline_graph6(self):
        gs = load_graphs("C~\nCh\n")
        assert gs == [complete(4), path(4)]

    def test_single_edgelist(self):
        gs = load_graphs("3 1\n0 2\n")
        assert gs == [Graph(3, [(0, 2)])]


class TestIterEntries:
    def test_graph6_entries_keep_their_line_numbers(self):
        entries = list(iter_entries(["# head", "", "C~", "not!a!graph", "  Ch  "]))
        assert [number for number, _ in entries] == [3, 4, 5]
        assert entries[0][1] == complete(4) and entries[2][1] == path(4)
        assert isinstance(entries[1][1], GraphFormatError)

    def test_edge_list_is_one_entry_numbered_none(self):
        assert list(iter_entries(["# c", "3 1", "0 2"])) == [(None, Graph(3, [(0, 2)]))]
        ((number, err),) = iter_entries(["4 4", "0 1"])
        assert number is None and "header declares 4 edges" in str(err)

    def test_no_graph_data_is_no_entry(self):
        assert list(iter_entries(["", "# nothing"])) == []
        assert list(iter_entries([])) == []

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            list(iter_entries(["C~"], "sparse6"))

    def test_open_file_reads_like_splitlines(self, tmp_path):
        text = "C~\r\n\nCh\x0cC~\n# c\nnot!a!graph\nBw"
        p = tmp_path / "mixed.g6"
        p.write_bytes(text.encode("ascii"))
        with open(p, encoding="ascii") as fh:
            from_file = [(n, str(e)) for n, e in iter_entries(fh)]
        with open(p, encoding="ascii") as fh:
            from_text = [(n, str(e)) for n, e in iter_entries(fh.read().splitlines())]
        assert from_file == from_text and [n for n, _ in from_file] == [1, 3, 4, 6, 7]
