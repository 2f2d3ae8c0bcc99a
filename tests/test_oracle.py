import itertools

import pytest

from trienum import Graph, is_connected

from conftest import all_connected_graphs, complete_graph, cycle_graph, path_graph
from oracle import (
    OracleSizeError,
    brute_is_chordal,
    brute_max_independent_sets,
    brute_min_seps,
    brute_min_triangulations,
)


def _reachable(g, start, avoid):
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in range(g.n):
            if g._adj[x] >> y & 1 and y not in avoid and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _subset_scan_min_seps(g):
    """Definition-literal check: minimality via full subset search."""
    found = set()
    for u, v in itertools.combinations(range(g.n), 2):
        if g.has_edge(u, v):
            continue
        rest = [w for w in range(g.n) if w not in (u, v)]
        for size in range(len(rest) + 1):
            for sel in itertools.combinations(rest, size):
                s = set(sel)
                if v in _reachable(g, u, s):
                    continue
                strict = False
                for k in range(len(sel)):
                    for sub in itertools.combinations(sel, k):
                        if v not in _reachable(g, u, set(sub)):
                            strict = True
                            break
                    if strict:
                        break
                if not strict:
                    found.add(frozenset(sel))
    return found


def _subset_scan_min_triangulations(g):
    """Definition-literal check: all subsets of non-edges, kept when the
    filled graph is chordal and no kept subset is strictly inside."""
    non_edges = [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    ]
    chordal_fills = []
    for size in range(len(non_edges) + 1):
        for fills in itertools.combinations(non_edges, size):
            if brute_is_chordal(g.add_edges(fills)):
                chordal_fills.append(frozenset(fills))
    return {
        f
        for f in chordal_fills
        if not any(other < f for other in chordal_fills)
    }


class TestBruteChordal:
    def test_c4(self):
        assert not brute_is_chordal(cycle_graph(4))

    def test_c4_with_chord(self):
        assert brute_is_chordal(cycle_graph(4).add_edges([(0, 2)]))

    def test_c6(self):
        assert not brute_is_chordal(cycle_graph(6))

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            brute_is_chordal(Graph(11))


class TestBruteMinSeps:
    def test_c4(self):
        assert brute_min_seps(cycle_graph(4)) == {
            frozenset({0, 2}),
            frozenset({1, 3}),
        }

    def test_p4(self):
        assert brute_min_seps(path_graph(4)) == {frozenset({1}), frozenset({2})}

    def test_k4(self):
        assert brute_min_seps(complete_graph(4)) == set()

    def test_matches_subset_scan(self):
        for g in all_connected_graphs(4):
            assert brute_min_seps(g) == _subset_scan_min_seps(g)

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            brute_min_seps(Graph(11))

    def test_chordal_separators_are_cliques_and_few(self):
        for g in all_connected_graphs(5):
            if not brute_is_chordal(g):
                continue
            seps = brute_min_seps(g)
            assert len(seps) < g.n
            for s in seps:
                assert all(
                    g.has_edge(a, b) for a, b in itertools.combinations(sorted(s), 2)
                )


class TestBruteMinTriangulations:
    def test_c4(self):
        assert brute_min_triangulations(cycle_graph(4)) == {
            frozenset({(0, 2)}),
            frozenset({(1, 3)}),
        }

    def test_c5_count(self):
        assert len(brute_min_triangulations(cycle_graph(5))) == 5

    def test_chordal_graph_is_its_own(self):
        g = path_graph(5)
        assert brute_min_triangulations(g) == {frozenset()}

    def test_matches_subset_scan(self):
        for g in all_connected_graphs(5):
            assert brute_min_triangulations(g) == _subset_scan_min_triangulations(g)

    def test_results_internally_consistent(self):
        for g in all_connected_graphs(5):
            for fill in brute_min_triangulations(g):
                h = g.add_edges(fill)
                assert brute_is_chordal(h)
                for edge in fill:
                    pruned = [e for e in fill if e != edge]
                    assert not brute_is_chordal(g.add_edges(pruned))

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            brute_min_triangulations(Graph(8))  # 28 non-edges


class TestBruteMaxIndependentSets:
    def test_p3(self):
        assert brute_max_independent_sets(path_graph(3)) == {
            frozenset({0, 2}),
            frozenset({1}),
        }

    def test_c5(self):
        sets = brute_max_independent_sets(cycle_graph(5))
        assert len(sets) == 5
        assert all(len(s) == 2 for s in sets)

    def test_edgeless(self):
        assert brute_max_independent_sets(Graph(3)) == {frozenset({0, 1, 2})}

    def test_empty_graph(self):
        assert brute_max_independent_sets(Graph(0)) == {frozenset()}

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            brute_max_independent_sets(Graph(21))

    def test_definition_on_small_graphs(self):
        for g in all_connected_graphs(4):
            for s in brute_max_independent_sets(g):
                assert all(
                    not g.has_edge(a, b)
                    for a, b in itertools.combinations(sorted(s), 2)
                )
                for v in range(g.n):
                    if v not in s:
                        assert any(g.has_edge(v, u) for u in s)


def test_connectivity_helper_agrees():
    for g in all_connected_graphs(4):
        assert is_connected(g)
