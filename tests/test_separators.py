import itertools
import random
from collections import deque

import pytest

from trienum import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    NotChordalError,
    canon,
    clq_min_seps,
    crosses,
    enum_min_seps,
    extract_min_seps_chordal,
    find_min_sep,
    is_chordal,
    is_minimal_separator,
    is_separator,
    neighborhood,
    triangulate_heuristic,
)
from trienum import separators
from trienum.graph import bits, vertex_set

from conftest import (
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)
from oracle import brute_min_seps


class TestIsSeparator:
    def test_path_interior(self):
        assert is_separator(path_graph(4), {1}, 0, 2)

    def test_path_wrong_side(self):
        assert not is_separator(path_graph(4), {2}, 0, 1)

    def test_c4_diagonal(self):
        assert is_separator(cycle_graph(4), {0, 2}, 1, 3)

    def test_preconditions(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            is_separator(g, {1}, 0, 0)
        with pytest.raises(GraphError):
            is_separator(g, {1}, 1, 3)
        with pytest.raises(GraphError):
            is_separator(g, {9}, 0, 2)


class TestIsMinimalSeparator:
    def test_c4_diagonal(self):
        assert is_minimal_separator(cycle_graph(4), {0, 2})

    def test_c4_three_vertices(self):
        assert not is_minimal_separator(cycle_graph(4), {0, 1, 2})

    def test_complete_graph_has_none(self):
        g = complete_graph(4)
        for size in range(1, 4):
            for s in itertools.combinations(range(4), size):
                assert not is_minimal_separator(g, s)

    def test_empty_set(self):
        assert not is_minimal_separator(path_graph(3), frozenset())

    def test_agrees_with_oracle(self):
        for g in all_connected_graphs(4):
            want = brute_min_seps(g)
            for size in range(1, g.n + 1):
                for s in itertools.combinations(range(g.n), size):
                    assert is_minimal_separator(g, s) == (frozenset(s) in want)


class TestCrosses:
    def test_c4_diagonals_cross(self):
        assert crosses(cycle_graph(4), {0, 2}, {1, 3})

    def test_c5_parallel_pair(self):
        assert not crosses(cycle_graph(5), {0, 2}, {2, 4})

    def test_self_is_parallel(self):
        assert not crosses(cycle_graph(5), {0, 2}, {0, 2})

    def test_non_separator_raises(self):
        with pytest.raises(GraphError):
            crosses(cycle_graph(4), {0, 1}, {1, 3})

    def test_symmetry_on_random_graphs(self):
        rng = random.Random(73)
        for _ in range(40):
            g = random_connected_graph(rng.randint(4, 7), rng.choice([0.3, 0.5]), rng)
            seps = sorted(brute_min_seps(g), key=canon)
            for s, t in itertools.combinations(seps, 2):
                assert crosses(g, s, t) == crosses(g, t, s)

    def test_one_sweep_of_g_minus_s_matches_the_definition(self, monkeypatch):
        # g minus S is swept once for both S's check and its sides, and
        # g minus T once for T's check
        sweeps = []
        sweep = separators._components_masks

        def counted(adj, sub):
            sweeps.append(sub)
            return sweep(adj, sub)

        monkeypatch.setattr(separators, "_components_masks", counted)
        rng = random.Random(74)
        for _ in range(30):
            g = random_connected_graph(rng.randint(4, 9), rng.choice([0.25, 0.4]), rng)
            for s, t in itertools.product(sorted(brute_min_seps(g), key=canon), repeat=2):
                pairs = itertools.combinations(sorted(t - s), 2)
                separated = any(is_separator(g, s, u, v) for u, v in pairs)
                sweeps.clear()
                assert crosses(g, s, t) == separated
                assert len(sweeps) == 2


class TestEnumMinSeps:
    def test_p4(self):
        assert set(enum_min_seps(path_graph(4))) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_c4(self):
        assert set(enum_min_seps(cycle_graph(4))) == {
            frozenset({0, 2}),
            frozenset({1, 3}),
        }

    def test_k4_yields_nothing(self):
        assert list(enum_min_seps(complete_graph(4))) == []

    def test_single_vertex(self):
        assert list(enum_min_seps(Graph(1))) == []

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            list(enum_min_seps(Graph(3, [(0, 1)])))

    def test_empty_raises(self):
        with pytest.raises(GraphError):
            list(enum_min_seps(Graph(0)))

    def test_matches_oracle_exhaustively(self):
        for g in all_connected_graphs(5):
            assert set(enum_min_seps(g)) == brute_min_seps(g)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(20211)
        for _ in range(240):
            n = rng.randint(6, 9)
            g = random_connected_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
            assert set(enum_min_seps(g)) == brute_min_seps(g)

    def test_no_duplicates_and_all_minimal(self):
        rng = random.Random(88)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), rng)
            seps = list(enum_min_seps(g))
            assert len(seps) == len(set(seps))
            for s in seps:
                assert is_minimal_separator(g, s)

    def test_deterministic_order(self):
        g = random_connected_graph(8, 0.4, random.Random(3))
        assert list(enum_min_seps(g)) == list(enum_min_seps(g))


def _eager_min_seps(g):
    """The expand-on-yield loop: each separator is expanded as soon as it
    is yielded. Walks go through ``separators._component`` so that a
    test can count them."""
    adj = g._adj
    full = (1 << g.n) - 1
    seen = set()
    queue = deque()

    def push_from(removed):
        sub = remaining = full & ~removed
        while remaining:
            comp, nb = separators._component(adj, sub, remaining & -remaining)
            remaining &= ~comp
            if nb and nb not in seen:
                seen.add(nb)
                queue.append(nb)

    for v in range(g.n):
        push_from(adj[v] | 1 << v)
    while queue:
        smask = queue.popleft()
        yield vertex_set(smask)
        for x in bits(smask):
            push_from(smask | adj[x])


def _walks_to_each(stream, monkeypatch):
    """The number of component walks made before each item of the stream
    was returned, and in the whole run."""
    walks = [0]
    walk = separators._component

    def counted(adj, sub, seed):
        walks[0] += 1
        return walk(adj, sub, seed)

    with monkeypatch.context() as m:
        m.setattr(separators, "_component", counted)
        return [walks[0] for _ in stream], walks[0]


class TestLazyStream:
    def test_same_order_as_eager_loop(self):
        rng = random.Random(1801)
        for _ in range(120):
            n = rng.randint(2, 25)
            g = random_connected_graph(n, rng.choice([0.15, 0.3, 0.5]), rng)
            assert list(enum_min_seps(g)) == list(_eager_min_seps(g))

    def test_prefix_costs_no_more_walks(self, monkeypatch):
        for seed in range(4):
            g = random_connected_graph(22, 0.2, random.Random(seed))
            lazy, lazy_total = _walks_to_each(enum_min_seps(g), monkeypatch)
            eager, eager_total = _walks_to_each(_eager_min_seps(g), monkeypatch)
            assert len(lazy) == len(eager) > 100
            for k in (1, 10, 100, len(eager)):
                assert lazy[k - 1] <= eager[k - 1]
            # the eager loop expands far ahead of its reader
            assert lazy[99] < eager[99]
            # a full run makes the same expansions
            assert lazy_total == eager_total

    def test_close_early(self):
        g = random_connected_graph(20, 0.2, random.Random(5))
        for k in (0, 1, 7, 30):
            stream = enum_min_seps(g)
            assert len(list(itertools.islice(stream, k))) == k
            stream.close()
            assert list(stream) == []


class TestFindMinSep:
    def test_c4(self):
        assert find_min_sep(cycle_graph(4), 0, 2) == {1, 3}

    def test_p4_endpoints(self):
        assert find_min_sep(path_graph(4), 0, 3) == {1}

    def test_p3(self):
        assert find_min_sep(path_graph(3), 0, 2) == {1}

    def test_adjacent_raises(self):
        with pytest.raises(GraphError):
            find_min_sep(path_graph(3), 0, 1)
        with pytest.raises(GraphError):
            find_min_sep(path_graph(3), 2, 2)

    def test_contract_on_random_graphs(self):
        rng = random.Random(55)
        checked = 0
        while checked < 60:
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            pairs = [
                (u, v)
                for u, v in itertools.combinations(range(g.n), 2)
                if not g.has_edge(u, v)
            ]
            if not pairs:
                continue
            u, v = rng.choice(pairs)
            s = find_min_sep(g, u, v)
            assert s <= neighborhood(g, {u})
            assert is_minimal_separator(g, s)
            assert is_separator(g, s, u, v)
            checked += 1


class TestExtractMinSepsChordal:
    def test_c4_with_chord(self):
        g = cycle_graph(4).add_edges([(0, 2)])
        assert extract_min_seps_chordal(g) == {frozenset({0, 2})}

    def test_p4(self):
        assert extract_min_seps_chordal(path_graph(4)) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_k4(self):
        assert extract_min_seps_chordal(complete_graph(4)) == set()

    def test_matches_oracle_and_obeys_bounds(self):
        rng = random.Random(303)
        for _ in range(80):
            n = rng.randint(1, 8)
            h = triangulate_heuristic(
                random_connected_graph(n, rng.choice([0.3, 0.6]), rng)
            )
            assert is_chordal(h)
            seps = extract_min_seps_chordal(h)
            assert seps == brute_min_seps(h)
            assert len(seps) < h.n
            for s in seps:
                assert all(
                    h.has_edge(a, b) for a, b in itertools.combinations(sorted(s), 2)
                )

    def test_matches_stream_beyond_oracle_size(self):
        for seed in range(10):
            for n in range(10, 31):
                h = triangulate_heuristic(
                    random_connected_graph(n, 0.2, random.Random(seed))
                )
                assert extract_min_seps_chordal(h) == set(enum_min_seps(h))

    def test_rejects_disconnected_and_non_chordal(self):
        with pytest.raises(DisconnectedGraphError):
            extract_min_seps_chordal(Graph(3, [(0, 1)]))
        with pytest.raises(NotChordalError):
            extract_min_seps_chordal(cycle_graph(4))


class TestClqMinSeps:
    def test_c4(self):
        assert clq_min_seps(cycle_graph(4)) == set()

    def test_c4_with_chord(self):
        g = cycle_graph(4).add_edges([(0, 2)])
        assert clq_min_seps(g) == {frozenset({0, 2})}

    def test_p4_singletons(self):
        assert clq_min_seps(path_graph(4)) == {frozenset({1}), frozenset({2})}
