import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trienum import Graph, ParseError, parse_graph

from conftest import cycle_graph


@st.composite
def edge_lists(draw, min_edges=0):
    """A vertex count and distinct edges between distinct vertices, each
    pair in either direction, in any order."""
    n = draw(st.integers(min_value=2, max_value=70))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges, max_size=60))
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


class TestAgainstGraphConstructor:
    """Each parser's graph is the one ``Graph(n, edges)`` builds."""

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_dimacs(self, case):
        n, edges = case
        text = f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
        g, _labels = parse_graph(text, "dimacs")
        assert g == Graph(n, edges) and g.edge_count == len(edges)

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_json(self, case):
        n, edges = case
        g, _labels = parse_graph(json.dumps({"n": n, "edges": edges}), "json")
        assert g == Graph(n, edges) and g.edge_count == len(edges)

    @settings(max_examples=150, deadline=None)
    @given(edge_lists(min_edges=1))  # an edge list without edges is empty input
    def test_edgelist(self, case):
        _n, edges = case
        g, labels = parse_graph("".join(f"v{u} v{v}\n" for u, v in edges), "edgelist")
        ids = {label: i for i, label in enumerate(labels)}
        expected = Graph(len(labels), [(ids[f"v{u}"], ids[f"v{v}"]) for u, v in edges])
        assert g == expected and g.edge_count == len(edges)


class TestDimacs:
    def test_c4(self):
        text = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
        g, labels = parse_graph(text, "dimacs")
        assert g == cycle_graph(4)
        assert labels == ["1", "2", "3", "4"]

    def test_comments_and_blanks_skipped(self):
        text = "c a comment\n\np edge 2 1\ne 1 2\n"
        g, _ = parse_graph(text, "dimacs")
        assert g.edges() == [(0, 1)]

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError, match="line 2.*self-loop"):
            parse_graph("p edge 2 1\ne 1 1\n", "dimacs")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            parse_graph("p edge 2 2\ne 1 2\ne 2 1\n", "dimacs")

    def test_errors_name_the_input_ids(self):
        with pytest.raises(ParseError, match=r"^line 2: self-loop at vertex 3$"):
            parse_graph("p edge 3 1\ne 3 3\n", "dimacs")
        with pytest.raises(ParseError, match=r"^line 3: duplicate edge \(2, 1\)$"):
            parse_graph("p edge 2 2\ne 1 2\ne 2 1\n", "dimacs")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("p edge 2 1\ne 1 5\n", "dimacs")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("p vertex 4\n", "dimacs")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("e 1 2\n", "dimacs")

    def test_negative_edge_count(self):
        with pytest.raises(ParseError, match="^line 1: negative edge count$"):
            parse_graph("p edge 3 -5\ne 1 2\ne 2 3\n", "dimacs")

    def test_edge_count_not_checked_against_edge_lines(self):
        g, _ = parse_graph("p edge 3 7\ne 1 2\ne 2 3\n", "dimacs")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_vertex_count_beyond_maxsize(self):
        with pytest.raises(ParseError, match="line 1.*too large"):
            parse_graph("p edge 10000000000000000000 0\n", "dimacs")

    def test_unknown_line(self):
        with pytest.raises(ParseError, match="unrecognized"):
            parse_graph("p edge 2 1\nq 1 2\n", "dimacs")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem header"),
            ("p edge x 1\n", "line 1: malformed header 'p edge x 1'"),
            ("p edge -1 0\n", "line 1: negative vertex count"),
            ("p edge 2 1\ne 1\n", "line 2: malformed edge line 'e 1'"),
            ("p edge 2 1\ne 1 x\n", "line 2: malformed edge line 'e 1 x'"),
            ("c comments only\n", "missing problem header"),
        ],
    )
    def test_exact_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text, "dimacs")
        assert str(exc.value) == message


class TestEdgelist:
    def test_labels_in_first_appearance_order(self):
        g, labels = parse_graph("a b\nb c\n", "edgelist")
        assert labels == ["a", "b", "c"]
        assert g.edges() == [(0, 1), (1, 2)]

    def test_hash_comments(self):
        g, _ = parse_graph("# heading\nx y\n", "edgelist")
        assert g.edge_count == 1

    def test_hash_only_starts_a_comment_line(self):
        # a # after a label is no comment: it is a token of its own or part
        # of a label
        with pytest.raises(ParseError, match=r"^line 1: expected two labels"):
            parse_graph("a b # note\n", "edgelist")
        g, labels = parse_graph("  # indented\nx #3\n", "edgelist")
        assert labels == ["x", "#3"]
        assert g.edges() == [(0, 1)]

    def test_self_loop(self):
        with pytest.raises(ParseError, match="line 1.*self-loop"):
            parse_graph("a a\n", "edgelist")

    def test_duplicate_either_direction(self):
        with pytest.raises(ParseError, match="line 2.*duplicate"):
            parse_graph("a b\nb a\n", "edgelist")

    def test_errors_name_the_input_labels(self):
        with pytest.raises(ParseError, match=r"^line 2: self-loop at vertex q$"):
            parse_graph("x y\nq q\n", "edgelist")
        with pytest.raises(ParseError, match=r"^line 2: duplicate edge \(y, x\)$"):
            parse_graph("x y\ny x\n", "edgelist")

    def test_wrong_token_count(self):
        with pytest.raises(ParseError, match="two labels"):
            parse_graph("a b c\n", "edgelist")

    def test_comments_only(self):
        with pytest.raises(ParseError, match="^empty input$"):
            parse_graph("# one\n  # two\n", "edgelist")


class TestJson:
    def test_basic(self):
        g, labels = parse_graph('{"n": 3, "edges": [[0, 1], [1, 2]]}', "json")
        assert g == Graph(3, [(0, 1), (1, 2)])
        assert labels == ["0", "1", "2"]

    def test_bad_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_graph("{", "json")

    def test_missing_keys(self):
        with pytest.raises(ParseError, match='"n" and "edges"'):
            parse_graph('{"n": 3}', "json")

    def test_bad_edge_shape(self):
        with pytest.raises(ParseError, match="pair of integers"):
            parse_graph('{"n": 3, "edges": [[0]]}', "json")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph('{"n": 2, "edges": [[0, 2]]}', "json")

    def test_errors_name_the_input_ids(self):
        with pytest.raises(ParseError, match=r"^self-loop at vertex 2$"):
            parse_graph('{"n": 3, "edges": [[2, 2]]}', "json")
        with pytest.raises(ParseError, match=r"^duplicate edge \(1, 0\)$"):
            parse_graph('{"n": 2, "edges": [[0, 1], [1, 0]]}', "json")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": true, "edges": []}', '"n" must be'),
            ('{"n": 3, "edges": [[true, 2]]}', "pair of integers"),
            ('{"n": 3, "edges": [[0, false]]}', "pair of integers"),
            ('{"n": 3, "edges": 5}', '"edges" must be a list'),
            ('{"n": 3, "edges": {"0": 1}}', '"edges" must be a list'),
        ],
    )
    def test_rejects_non_integer_values(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text, "json")

    def test_isolated_vertices_allowed(self):
        g, _ = parse_graph('{"n": 5, "edges": []}', "json")
        assert g.n == 5 and g.edge_count == 0


def test_empty_input():
    for fmt in ("dimacs", "edgelist", "json"):
        with pytest.raises(ParseError, match="empty"):
            parse_graph("  \n", fmt)


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        parse_graph("a b\n", "gml")
