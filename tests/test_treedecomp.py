import inspect
import itertools
import random
import sys
from collections import defaultdict

import pytest

from trienum import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    NotChordalError,
    TreeDecomposition,
    WeightedCliqueGraph,
    clique_graph,
    clique_tree,
    enum_max_spanning_trees,
    enum_min_triangulations,
    enum_proper_tds,
    extract_min_seps_chordal,
    is_connected,
    is_proper,
    is_tree_decomposition,
    max_cliques_chordal,
    saturate_td,
    subsumes,
    triangulate_heuristic,
)
from trienum import treedecomp
from trienum.treedecomp import _level_groups

from conftest import (
    all_connected_graphs,
    book_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal_graph,
    random_connected_graph,
    star_graph,
    traced_calls,
)
from oracle import brute_min_triangulations, kruskal_tree


def _td(g, bags, edges):
    return TreeDecomposition(
        host=g,
        bags=tuple(frozenset(b) for b in bags),
        edges=tuple(edges),
    )


C4_TD = ([{0, 1, 2}, {0, 2, 3}], [(0, 1)])


class TestIsTreeDecomposition:
    def test_c4_two_triangles(self):
        g = cycle_graph(4)
        assert is_tree_decomposition(g, _td(g, *C4_TD))

    def test_uncovered_edge(self):
        g = cycle_graph(4)
        assert not is_tree_decomposition(g, _td(g, [{0, 1}, {2, 3}], [(0, 1)]))

    def test_single_bag_of_everything(self):
        g = cycle_graph(4)
        assert is_tree_decomposition(g, _td(g, [{0, 1, 2, 3}], []))

    def test_junction_property_violation(self):
        g = path_graph(3)
        d = _td(g, [{0, 1}, {2}, {1, 2}], [(0, 1), (1, 2)])
        assert not is_tree_decomposition(g, d)

    def test_malformed_trees_raise(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            is_tree_decomposition(g, _td(g, [{0, 1}, {1, 2}], []))
        with pytest.raises(GraphError):
            is_tree_decomposition(
                g, _td(g, [{0, 1}, {1, 2}, {2}], [(0, 1), (1, 2), (0, 2)])
            )
        with pytest.raises(GraphError):
            is_tree_decomposition(g, _td(g, [{0, 1}, {1, 2}], [(0, 5)]))
        with pytest.raises(GraphError):
            is_tree_decomposition(g, _td(g, [{0, 1}, {1, 2}], [(0, 0)]))


class TestSaturateTd:
    def test_c4_two_triangles(self):
        g = cycle_graph(4)
        assert saturate_td(g, _td(g, *C4_TD)) == g.add_edges([(0, 2)])

    def test_single_bag_gives_complete(self):
        g = cycle_graph(4)
        d = _td(g, [{0, 1, 2, 3}], [])
        assert saturate_td(g, d) == complete_graph(4)

    def test_clique_tree_bags_leave_chordal_unchanged(self):
        g = triangulate_heuristic(random_connected_graph(7, 0.4, random.Random(8)))
        tree = clique_tree(g)
        d = _td(g, tree.bags, [(a, b) for a, b, _ in tree.edges])
        assert saturate_td(g, d) == g

    def test_rejects_non_decomposition(self):
        g = cycle_graph(4)
        with pytest.raises(GraphError):
            saturate_td(g, _td(g, [{0, 1}, {2, 3}], [(0, 1)]))


class TestSubsumes:
    def test_reflexive(self):
        g = cycle_graph(4)
        d = _td(g, *C4_TD)
        assert subsumes(d, d)

    def test_small_bags_into_one(self):
        g = path_graph(3)
        d1 = _td(g, [{0, 1}, {1, 2}], [(0, 1)])
        d2 = _td(g, [{0, 1, 2}], [])
        assert subsumes(d1, d2)
        assert not subsumes(d2, d1)

    def test_big_bag_does_not_fit_triangles(self):
        g = cycle_graph(4)
        big = _td(g, [{0, 1, 2, 3}], [])
        two = _td(g, *C4_TD)
        assert not subsumes(big, two)

    def test_host_mismatch_raises(self):
        d1 = _td(cycle_graph(4), *C4_TD)
        d2 = _td(path_graph(4), [{0, 1, 2, 3}], [])
        with pytest.raises(GraphError):
            subsumes(d1, d2)


class TestIsProper:
    def test_c4_two_triangles(self):
        g = cycle_graph(4)
        assert is_proper(g, _td(g, *C4_TD))

    def test_c4_single_bag_improper(self):
        g = cycle_graph(4)
        assert not is_proper(g, _td(g, [{0, 1, 2, 3}], []))

    def test_chordal_clique_tree_is_proper(self):
        g = triangulate_heuristic(random_connected_graph(6, 0.5, random.Random(9)))
        tree = clique_tree(g)
        d = _td(g, tree.bags, [(a, b) for a, b, _ in tree.edges])
        assert is_proper(g, d)

    def test_split_bag_improper(self):
        g = path_graph(3)
        d = _td(g, [{0, 1}, {1, 2}, {1}], [(0, 2), (2, 1)])
        assert not is_proper(g, d)


class TestCliqueGraph:
    def test_c4_with_chord(self):
        wg = clique_graph(cycle_graph(4).add_edges([(0, 2)]))
        assert len(wg.nodes) == 2
        assert wg.edges == ((0, 1, 2),)

    def test_triangle(self):
        wg = clique_graph(complete_graph(3))
        assert wg.nodes == (frozenset({0, 1, 2}),)
        assert wg.edges == ()

    def test_p4_leaves_out_the_disjoint_pair(self):
        wg = clique_graph(path_graph(4))
        assert wg.nodes == (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}))
        assert wg.edges == ((0, 1, 1), (1, 2, 1))

    def test_disjoint_pairs_change_no_tree(self):
        # the same trees, in the same order, as with every pair of
        # cliques joined, disjoint ones at weight 0; the reduced edges
        # are exactly the union of those trees
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 12)
            h = triangulate_heuristic(
                random_connected_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            )
            wg = clique_graph(h)
            every_pair = _every_pair(wg)
            trees = list(enum_max_spanning_trees(every_pair))
            assert list(enum_max_spanning_trees(wg)) == trees
            assert wg.edges == tuple(
                e for e in every_pair.edges if e[:2] in set().union(*trees)
            )

    def test_reduced_edges_are_the_union_of_max_spanning_trees(self):
        # brute force over the all-pairs graph, on random chordal graphs
        # where one separator is often held by three or more cliques
        rng = random.Random(19)
        graphs = [star_graph(s) for s in range(1, 6)]
        graphs += [book_graph(p) for p in range(1, 6)]
        graphs += [random_chordal_graph(rng.randint(1, 9), rng) for _ in range(150)]
        shared = 0
        for h in graphs:
            wg = clique_graph(h)
            if len(wg.nodes) > 6:
                continue
            every_pair = _every_pair(wg)
            trees = _brute_spanning_trees(every_pair)
            union = set().union(*trees)
            assert wg.edges == tuple(e for e in every_pair.edges if e[:2] in union)
            assert list(enum_max_spanning_trees(wg)) == list(
                enum_max_spanning_trees(every_pair)
            )
            shared += any(
                sum(s <= b for b in wg.nodes) >= 3
                for s in extract_min_seps_chordal(h)
            )
        assert shared >= 50

    def test_non_chordal_raises(self):
        with pytest.raises(NotChordalError):
            clique_graph(cycle_graph(4))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            clique_graph(Graph(3, [(0, 1)]))


def _every_pair(wg):
    """wg's nodes with every pair joined, weighted by intersection size."""
    k = len(wg.nodes)
    return WeightedCliqueGraph(
        wg.nodes,
        tuple(
            (i, j, len(wg.nodes[i] & wg.nodes[j]))
            for i in range(k)
            for j in range(i + 1, k)
        ),
    )


def _brute_spanning_trees(wg):
    k = len(wg.nodes)
    if k == 1:
        return {()}
    pairs = [(i, j) for i, j, _ in wg.edges]
    weight = {(i, j): w for i, j, w in wg.edges}
    trees = set()
    for combo in itertools.combinations(pairs, k - 1):
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.add(tuple(sorted(combo)))
    best = max(sum(weight[e] for e in t) for t in trees)
    return {t for t in trees if sum(weight[e] for e in t) == best}


def _random_weighted_graph(k, rng):
    """A complete graph on k nodes with weights from {0, 1, 2}: 2 inside
    a random block, 1 between blocks of one random group, 0 elsewhere,
    and one weight in five redrawn. So many of these graphs tie on
    several levels, and in many the positive edges leave the graph
    disconnected."""
    group = [rng.randrange(2) for _ in range(k)]
    block = [2 * g + rng.randrange(2) for g in group]

    def weight(i, j):
        if rng.random() < 0.2:
            return rng.choice((0, 1, 2))
        return 2 if block[i] == block[j] else int(group[i] == group[j])

    return WeightedCliqueGraph(
        nodes=tuple(frozenset({i}) for i in range(k)),
        edges=tuple((i, j, weight(i, j)) for i in range(k) for j in range(i + 1, k)),
    )


class TestEnumMaxSpanningTrees:
    def test_triangle_equal_weights(self):
        wg = WeightedCliqueGraph(
            nodes=(frozenset({0}), frozenset({1}), frozenset({2})),
            edges=((0, 1, 1), (0, 2, 1), (1, 2, 1)),
        )
        assert sorted(enum_max_spanning_trees(wg)) == [
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
        ]

    def test_p4_unique_tree(self):
        trees = list(enum_max_spanning_trees(clique_graph(path_graph(4))))
        assert len(trees) == 1
        assert trees[0] == ((0, 1), (1, 2))

    def test_star_three_trees(self):
        trees = list(enum_max_spanning_trees(clique_graph(star_graph(3))))
        assert len(trees) == 3

    def test_single_node(self):
        wg = WeightedCliqueGraph(nodes=(frozenset({0}),), edges=())
        assert list(enum_max_spanning_trees(wg)) == [()]

    def test_matches_brute_enumeration(self):
        rng = random.Random(21)
        seen_sizes = set()
        for _ in range(60):
            n = rng.randint(2, 9)
            h = triangulate_heuristic(
                random_connected_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            )
            wg = clique_graph(h)
            if len(wg.nodes) > 8:
                continue
            seen_sizes.add(len(wg.nodes))
            got = list(enum_max_spanning_trees(wg))
            assert len(got) == len(set(got))
            assert set(got) == _brute_spanning_trees(wg)
        assert max(seen_sizes) >= 4

    def test_matches_brute_on_tied_levels(self):
        rng = random.Random(7)
        several_tied_levels = zero_level_factor = 0
        for _ in range(40):
            wg = _random_weighted_graph(rng.randint(2, 7), rng)
            k = len(wg.nodes)
            got = list(enum_max_spanning_trees(wg))
            assert len(got) == len(set(got))
            assert set(got) == _brute_spanning_trees(wg)
            groups = _level_groups(k, wg.edges)
            if sum(len(group) > r - 1 for r, group in groups) >= 2:
                several_tied_levels += 1
            positive = Graph(k, [(i, j) for i, j, w in wg.edges if w > 0])
            zero_factors = [
                group
                for r, group in groups
                if len(group) > r - 1
                and all((i, j, 0) in wg.edges for i, j, _a, _b in group)
            ]
            if not is_connected(positive) and zero_factors:
                zero_level_factor += 1
        assert several_tied_levels >= 5
        assert zero_level_factor >= 5

    def test_first_tree_is_kruskal_tree(self):
        rng = random.Random(8)
        for _ in range(40):
            wg = _random_weighted_graph(rng.randint(1, 7), rng)
            first = next(enum_max_spanning_trees(wg))
            assert first == tuple(kruskal_tree(len(wg.nodes), wg.edges))

    def test_star_k16_cayley_count(self):
        trees = list(enum_max_spanning_trees(clique_graph(star_graph(6))))
        assert len(trees) == len(set(trees)) == 6**4

    def test_star_k160_streams_without_deep_recursion(self):
        wg = clique_graph(star_graph(60))
        limit = sys.getrecursionlimit()
        # a factor with 1770 edges must not need a frame per edge
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            trees = list(itertools.islice(enum_max_spanning_trees(wg), 1000))
        finally:
            sys.setrecursionlimit(limit)
        assert len(set(trees)) == 1000
        assert all(len(t) == 59 for t in trees)

    def test_disconnected_raises(self):
        wg = WeightedCliqueGraph(
            nodes=(frozenset({0}), frozenset({1})),
            edges=(),
        )
        with pytest.raises((DisconnectedGraphError, GraphError)):
            list(enum_max_spanning_trees(wg))

    def test_a_tree_is_its_own_only_spanning_tree(self, monkeypatch):
        # k - 1 edges without a cycle need no Kruskal pass
        def no_pass(k, edges):
            raise AssertionError("the level pass ran on a tree")

        monkeypatch.setattr(treedecomp, "_level_groups", no_pass)
        nodes = tuple(frozenset({i}) for i in range(5))
        unsorted = ((3, 4, 1), (0, 2, 2), (1, 2, 1), (0, 3, 5))
        wg = WeightedCliqueGraph(nodes=nodes, edges=unsorted)
        assert list(enum_max_spanning_trees(wg)) == [((0, 2), (0, 3), (1, 2), (3, 4))]
        path = clique_graph(path_graph(5))
        assert list(enum_max_spanning_trees(path)) == [((0, 1), (1, 2), (2, 3))]
        single = WeightedCliqueGraph(nodes=nodes[:1], edges=())
        assert list(enum_max_spanning_trees(single)) == [()]

    def test_k_minus_one_edges_with_a_cycle_raise(self):
        wg = WeightedCliqueGraph(
            nodes=tuple(frozenset({i}) for i in range(4)),
            edges=((0, 1, 1), (0, 2, 1), (1, 2, 1)),
        )
        with pytest.raises(DisconnectedGraphError):
            list(enum_max_spanning_trees(wg))

    @pytest.mark.parametrize(
        "edges",
        [((0, 5, 1),), ((0, -1, 1),), ((0, 1, 1), (0, 1, 1)), ((1, 0, 1),)],
        ids=["out-of-range", "negative", "repeated-pair", "reversed-pair"],
    )
    def test_rejects_malformed_edges(self, edges):
        wg = WeightedCliqueGraph(nodes=(frozenset({0}), frozenset({1})), edges=edges)
        with pytest.raises(GraphError, match="distinct pairs"):
            next(enum_max_spanning_trees(wg))


class TestEnumProperTds:
    def test_p4_single_decomposition(self):
        tds = list(enum_proper_tds(path_graph(4)))
        assert len(tds) == 1
        assert set(tds[0].bags) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_c4_two(self):
        assert sum(1 for _ in enum_proper_tds(cycle_graph(4))) == 2

    def test_star_three(self):
        assert sum(1 for _ in enum_proper_tds(star_graph(3))) == 3

    def test_every_emitted_is_proper_with_antichain_bags(self):
        rng = random.Random(33)
        graphs = [cycle_graph(5), star_graph(4), path_graph(5)]
        graphs += [
            random_connected_graph(rng.randint(2, 7), rng.choice([0.3, 0.5]), rng)
            for _ in range(12)
        ]
        for g in graphs:
            for d in enum_proper_tds(g):
                assert is_tree_decomposition(g, d)
                assert is_proper(g, d)
                for b1, b2 in itertools.combinations(d.bags, 2):
                    assert not b1 <= b2 and not b2 <= b1

    def test_cliques_live_in_bags(self):
        rng = random.Random(39)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 6), rng.choice([0.4, 0.6]), rng)
            cliques = [
                frozenset(c)
                for size in range(1, g.n + 1)
                for c in itertools.combinations(range(g.n), size)
                if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
            ]
            for d in enum_proper_tds(g):
                for c in cliques:
                    assert any(c <= b for b in d.bags)

    def test_bag_groups_match_triangulations(self):
        for g in all_connected_graphs(5):
            groups = defaultdict(int)
            for d in enum_proper_tds(g):
                groups[frozenset(d.bags)] += 1
            want = brute_min_triangulations(g)
            assert len(groups) == len(want)
            for fill in want:
                h = g.add_edges(fill)
                assert frozenset(max_cliques_chordal(h)) in groups

    def test_chordal_graph_single_bag_class(self):
        g = triangulate_heuristic(random_connected_graph(7, 0.4, random.Random(44)))
        bag_sets = {frozenset(d.bags) for d in enum_proper_tds(g)}
        assert bag_sets == {frozenset(max_cliques_chordal(g))}

    def test_counts_by_spanning_trees(self):
        rng = random.Random(51)
        for _ in range(8):
            g = random_connected_graph(rng.randint(2, 6), rng.choice([0.4, 0.6]), rng)
            total = 0
            for tri in enum_min_triangulations(g):
                total += sum(
                    1 for _ in enum_max_spanning_trees(clique_graph(tri.chordal_graph))
                )
            assert total == sum(1 for _ in enum_proper_tds(g))

    def test_deterministic(self):
        g = cycle_graph(6)
        first = [(d.bags, d.edges) for d in enum_proper_tds(g)]
        second = [(d.bags, d.edges) for d in enum_proper_tds(g)]
        assert first == second

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            list(enum_proper_tds(Graph(3, [(0, 1)])))

    def test_empty_graph_raises_before_any_answer(self):
        with pytest.raises(GraphError, match="at least one vertex"):
            next(enum_proper_tds(Graph(0)))

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    def test_calls_the_names_the_tracer_rebinds(self, extender, monkeypatch):
        # the decompositions come straight from the engine's families, so
        # the assembly, enum_min_triangulations and clique_graph are not
        # called; the separator, crossing, engine and spanning-tree layers
        # still are
        def run():
            tds = enum_proper_tds(cycle_graph(5), extender=extender)
            assert sum(1 for _ in tds) == 5

        assert traced_calls(monkeypatch, run) == {
            "enum_min_seps",
            "crosses",
            "separator_graph_instance",
            "enum_max_independent",
            "enum_max_spanning_trees",
        }
