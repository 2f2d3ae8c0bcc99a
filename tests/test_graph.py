import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trienum import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    NotChordalError,
    clique_tree,
    connected_components,
    crosses,
    decompose,
    extend_family_blackbox,
    extend_family_separator,
    extract_min_seps_chordal,
    get_components,
    induced_subgraph,
    is_chordal,
    is_connected,
    is_minimal_separator,
    is_separator,
    max_cliques_chordal,
    neighborhood,
    saturate,
    saturate_family,
    triangulate_heuristic,
)
from trienum.graph import _components_masks
from trienum.treedecomp import TreeDecomposition, is_tree_decomposition

from conftest import (
    all_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)
from oracle import brute_is_chordal, brute_max_cliques, brute_min_seps, kruskal_tree


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = list(itertools.combinations(range(n), 2))
    edges = [e for e in slots if draw(st.booleans())]
    return Graph(n, edges)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_deduplicates_parallel_edges(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_adjacency_is_symmetric(self):
        g = cycle_graph(5)
        for u in range(5):
            for v in range(5):
                assert g._adj[u] >> v & 1 == g._adj[v] >> u & 1

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_equality_and_hash(self):
        assert cycle_graph(4) == cycle_graph(4)
        assert cycle_graph(4) != path_graph(4)
        assert len({cycle_graph(4), cycle_graph(4)}) == 1

    def test_edges_sorted(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges() == [(0, 1), (2, 3)]

    def test_exact_messages(self):
        with pytest.raises(GraphError, match=r"^vertex count must be nonnegative, got -1$"):
            Graph(-1)
        with pytest.raises(GraphError, match=r"^vertex 2 out of range for n=2$"):
            Graph(2, [(0, 1)]).has_edge(0, 2)

    def test_not_equal_to_other_types(self):
        g = Graph(1)
        assert g.__eq__(1) is NotImplemented
        assert g != 1 and not g == 1


class TestInducedSubgraph:
    def test_c4_three_vertices_gives_path(self):
        sub, orig = induced_subgraph(cycle_graph(4), {0, 1, 2})
        assert sub.edge_count == 2
        assert orig == (0, 1, 2)
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_full_vertex_set_is_identity(self):
        g = cycle_graph(5)
        sub, orig = induced_subgraph(g, range(5))
        assert sub == g
        assert orig == (0, 1, 2, 3, 4)

    def test_clique_restriction(self):
        sub, _ = induced_subgraph(complete_graph(4), {0, 1})
        assert sub.edges() == [(0, 1)]

    def test_mapping_round_trips(self):
        g = Graph(6, [(0, 2), (2, 4), (4, 5), (1, 3)])
        sub, orig = induced_subgraph(g, {2, 4, 5})
        for a, b in sub.edges():
            assert g.has_edge(orig[a], orig[b])
        assert sub.edge_count == 2

    def test_out_of_range_raises(self):
        with pytest.raises(GraphError):
            induced_subgraph(path_graph(3), {0, 7})


class TestNeighborhood:
    def test_path_interior(self):
        assert neighborhood(path_graph(4), {1}) == {0, 2}

    def test_c4_diagonal(self):
        assert neighborhood(cycle_graph(4), {0, 2}) == {1, 3}

    def test_everything_has_empty_neighborhood(self):
        g = cycle_graph(4)
        assert neighborhood(g, range(4)) == frozenset()

    def test_out_of_range_raises(self):
        with pytest.raises(GraphError):
            neighborhood(path_graph(3), {5})


# every public function that takes a vertex set checks its range the same way
VERTEX_SET_CALLS = {
    "neighborhood": lambda g, s: neighborhood(g, s),
    "is_separator": lambda g, s: is_separator(g, s, 0, 2),
    "is_minimal_separator": lambda g, s: is_minimal_separator(g, s),
    "crosses_first": lambda g, s: crosses(g, s, {1, 3}),
    "crosses_second": lambda g, s: crosses(g, {1, 3}, s),
    "saturate_family": lambda g, s: saturate_family(g, [s]),
    "extend_family_blackbox": lambda g, s: extend_family_blackbox(g, [s]),
    "extend_family_separator": lambda g, s: extend_family_separator(g, [s]),
    "decompose": lambda g, s: decompose(g, [s]),
    "get_components": lambda g, s: get_components(g, s),
}


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("name", sorted(VERTEX_SET_CALLS))
def test_vertex_set_out_of_range(name, bad):
    with pytest.raises(GraphError, match=f"^vertex {bad} out of range for n=4$"):
        VERTEX_SET_CALLS[name](cycle_graph(4), [bad])


class TestConnectedComponents:
    def test_path_is_one_component(self):
        assert connected_components(path_graph(4)) == [frozenset({0, 1, 2, 3})]

    def test_isolated_vertices(self):
        assert connected_components(Graph(4)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_c4_minus_diagonal_pair(self):
        sub, _ = induced_subgraph(cycle_graph(4), {1, 3})
        assert connected_components(sub) == [frozenset({0}), frozenset({1})]

    def test_is_connected(self):
        assert is_connected(path_graph(5))
        assert not is_connected(Graph(2))


def _two_pass_components(g, sub):
    """Reference for ``_components_masks``: a vertex-list flood fill per
    component, then a second walk over its members for the boundary."""
    members = [v for v in range(g.n) if sub >> v & 1]
    out = []
    placed = set()
    for seed in members:
        if seed in placed:
            continue
        comp = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for w in range(g.n):
                if g._adj[x] >> w & 1 and sub >> w & 1 and w not in comp:
                    comp.add(w)
                    stack.append(w)
        placed |= comp
        boundary = {w for v in comp for w in range(g.n) if g._adj[v] >> w & 1} - comp
        out.append((sum(1 << v for v in comp), sum(1 << v for v in boundary)))
    return out


@st.composite
def graphs_with_subsets(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    slots = list(itertools.combinations(range(n), 2))
    g = Graph(n, [e for e in slots if draw(st.booleans())])
    full = (1 << n) - 1
    sub = draw(st.sampled_from([0, full]) | st.integers(min_value=0, max_value=full))
    return g, sub


class TestComponentsMasks:
    def check(self, g, sub):
        pairs = _components_masks(g._adj, sub)
        assert pairs == _two_pass_components(g, sub)
        comps = [comp for comp, _ in pairs]
        # a partition of sub, ordered by smallest member
        assert sum(comps) == sub and all(c for c in comps)
        assert all(not a & b for a, b in itertools.combinations(comps, 2))
        lows = [c & -c for c in comps]
        assert lows == sorted(lows)
        for comp, boundary in pairs:
            members = [v for v in range(g.n) if comp >> v & 1]
            assert is_connected(induced_subgraph(g, members)[0])
            union = 0
            for v in members:
                union |= g._adj[v]
            assert boundary == union & ~comp
            assert not boundary & sub

    @settings(max_examples=300, deadline=None)
    @given(graphs_with_subsets())
    def test_matches_two_pass_reference(self, case):
        self.check(*case)

    def test_empty_graph(self):
        assert _components_masks(Graph(0)._adj, 0) == []

    def test_empty_subset(self):
        assert _components_masks(cycle_graph(5)._adj, 0) == []

    def test_all_vertices_have_empty_boundary(self):
        g = path_graph(4)
        assert _components_masks(g._adj, 0b1111) == [(0b1111, 0)]
        self.check(Graph(5, [(0, 1), (3, 4)]), 0b11111)

    def test_isolated_vertices(self):
        g = Graph(5, [(1, 2)])
        assert _components_masks(g._adj, 0b11101) == [
            (0b00001, 0),
            (0b00100, 0b00010),
            (0b01000, 0),
            (0b10000, 0),
        ]
        self.check(g, 0b11101)


class TestSaturate:
    def test_c4_diagonal(self):
        g = saturate(cycle_graph(4), {0, 2})
        assert g.edge_count == 5
        assert g.has_edge(0, 2)

    def test_clique_unchanged(self):
        g = complete_graph(4)
        assert saturate(g, {0, 1, 2}) == g

    def test_edgeless_becomes_clique(self):
        assert saturate(Graph(3), {0, 1, 2}) == complete_graph(3)

    def test_functional(self):
        g = cycle_graph(4)
        saturate(g, {0, 2})
        assert g.edge_count == 4

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_edge_count_formula(self, g):
        rng = random.Random(g.edge_count * 31 + g.n)
        u = frozenset(v for v in range(g.n) if rng.random() < 0.6)
        missing = sum(
            1
            for a, b in itertools.combinations(sorted(u), 2)
            if not g.has_edge(a, b)
        )
        assert saturate(g, u).edge_count == g.edge_count + missing


class TestChordality:
    def test_triangle(self):
        assert is_chordal(complete_graph(3))

    def test_c4(self):
        assert not is_chordal(cycle_graph(4))

    def test_c4_with_chord(self):
        assert is_chordal(cycle_graph(4).add_edges([(0, 2)]))

    def test_agrees_with_oracle_exhaustively(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert is_chordal(g) == brute_is_chordal(g)

    def test_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(1411)
        for _ in range(300):
            n = rng.choice([6, 7])
            g = random_connected_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
            assert is_chordal(g) == brute_is_chordal(g)


class TestMaxCliques:
    def test_c4_with_chord(self):
        g = cycle_graph(4).add_edges([(0, 2)])
        assert max_cliques_chordal(g) == [frozenset({0, 1, 2}), frozenset({0, 2, 3})]

    def test_k4(self):
        assert max_cliques_chordal(complete_graph(4)) == [frozenset({0, 1, 2, 3})]

    def test_p4(self):
        assert max_cliques_chordal(path_graph(4)) == [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ]

    def test_non_chordal_raises(self):
        with pytest.raises(NotChordalError):
            max_cliques_chordal(cycle_graph(4))

    def test_matches_brute_force_on_random_chordal_graphs(self):
        from trienum import triangulate_heuristic

        rng = random.Random(97)
        graphs = [g for n in range(6) for g in all_graphs(n) if brute_is_chordal(g)]
        for _ in range(120):
            n = rng.randint(1, 7)
            graphs.append(
                triangulate_heuristic(
                    random_connected_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
                )
            )
        for h in graphs:
            got = set(max_cliques_chordal(h))
            assert got == brute_max_cliques(h)
            assert len(got) <= h.n  # at most one maximal clique per vertex
            if h.n and is_connected(h):
                assert extract_min_seps_chordal(h) == brute_min_seps(h)


class TestCliqueTree:
    def test_c4_with_chord(self):
        tree = clique_tree(cycle_graph(4).add_edges([(0, 2)]))
        assert len(tree.bags) == 2
        assert tree.edges == ((0, 1, 2),)

    def test_triangle_single_bag(self):
        tree = clique_tree(complete_graph(3))
        assert tree.bags == (frozenset({0, 1, 2}),)
        assert tree.edges == ()

    def test_p4_path_of_bags(self):
        tree = clique_tree(path_graph(4))
        assert len(tree.bags) == 3
        assert sorted(w for _, _, w in tree.edges) == [1, 1]

    def test_non_chordal_raises(self):
        with pytest.raises(NotChordalError):
            clique_tree(cycle_graph(5))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            clique_tree(Graph(3, [(0, 1)]))

    def test_edges_are_the_kruskal_tree_in_pair_order(self):
        rng = random.Random(4243)
        for _ in range(60):
            h = triangulate_heuristic(
                random_connected_graph(rng.randint(2, 9), rng.choice([0.3, 0.5]), rng)
            )
            tree = clique_tree(h)
            weighted = [
                (i, j, len(tree.bags[i] & tree.bags[j]))
                for i, j in itertools.combinations(range(len(tree.bags)), 2)
            ]
            expected = kruskal_tree(len(tree.bags), weighted)
            assert [(i, j) for i, j, _w in tree.edges] == expected
            assert all((i, j, w) in weighted for i, j, w in tree.edges)

    def test_is_a_tree_decomposition_of_its_graph(self):
        rng = random.Random(4242)
        for _ in range(80):
            n = rng.randint(2, 8)
            h = triangulate_heuristic(
                random_connected_graph(n, rng.choice([0.4, 0.6]), rng)
            )
            tree = clique_tree(h)
            d = TreeDecomposition(
                host=h,
                bags=tree.bags,
                edges=tuple((a, b) for a, b, _ in tree.edges),
            )
            assert is_tree_decomposition(h, d)


class TestSeparatorNeighborhoodConsistency:
    def test_component_neighborhoods_stay_inside_separator(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 8)
            g = random_connected_graph(n, rng.choice([0.3, 0.5]), rng)
            v = rng.randrange(n)
            s = neighborhood(g, {v})
            rest = frozenset(range(n)) - s - {v}
            if not rest:
                continue
            sub, orig = induced_subgraph(g, rest)
            for comp in connected_components(sub):
                members = {orig[i] for i in comp}
                assert neighborhood(g, members) <= s | {v}
