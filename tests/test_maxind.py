import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trienum import (
    EnumStats,
    Graph,
    ImplicitGraph,
    ImplicitGraphError,
    enum_max_independent,
    separator_graph_instance,
)

from conftest import (
    all_connected_graphs,
    all_graphs,
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
)
from oracle import brute_max_independent_sets, explicit_graph_instance


def reference_enum(inst):
    """The enumeration written out literally, with no caching and with a
    full re-sweep of every pulled node against every printed answer on
    each pull. A step extends its base only when no answer found so far,
    queued or printed, holds it. The production engine must match this
    answer sequence."""
    queue = [inst.extend_to_max_ind(frozenset())]
    printed = []
    pulled = []

    def direction(j, v):
        base = {u for u in j if not inst.adjacent(v, u)}
        base.add(v)
        if not any(base <= k for k in printed + queue):
            queue.append(inst.extend_to_max_ind(frozenset(base)))

    stream = inst.node_stream()
    exhausted = False
    while queue:
        answer = queue.pop(0)
        printed.append(answer)
        for v in pulled:
            direction(answer, v)
        while not queue and not exhausted:
            nxt = next(stream, None)
            if nxt is None:
                exhausted = True
                break
            pulled.append(nxt)
            for v in pulled:
                for j in printed:
                    direction(j, v)
    return printed


def counting(inst):
    """The instance with its extender wrapped, and the list that collects
    one entry per extender run."""
    runs = []

    def extend(base):
        runs.append(base)
        return inst.extend_to_max_ind(base)

    return dataclasses.replace(inst, extend_to_max_ind=extend), runs


# graphs on which extending every unseen base, whether or not a found
# answer holds it, emits the answers in another order
EXPLICIT_ORDER_MOVES = [
    Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4)]),
    Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 5), (3, 4)]),
]
SEPARATOR_ORDER_MOVES = [
    cycle_graph(7),
    Graph(9, [(0, 1), (0, 2), (0, 4), (0, 5), (0, 7), (1, 4), (1, 7), (1, 8), (2, 3),
              (2, 4), (2, 7), (3, 7), (3, 8), (5, 6), (5, 7), (5, 8), (6, 8), (7, 8)]),
]


class TestExplicitInstances:
    def test_p3(self):
        got = list(enum_max_independent(explicit_graph_instance(path_graph(3))))
        assert set(got) == {frozenset({0, 2}), frozenset({1})}

    def test_k3(self):
        got = set(enum_max_independent(explicit_graph_instance(complete_graph(3))))
        assert got == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_edgeless(self):
        got = list(enum_max_independent(explicit_graph_instance(Graph(3))))
        assert got == [frozenset({0, 1, 2})]

    def test_c4(self):
        got = set(enum_max_independent(explicit_graph_instance(cycle_graph(4))))
        assert got == {frozenset({0, 2}), frozenset({1, 3})}

    def test_c5_has_five(self):
        got = list(enum_max_independent(explicit_graph_instance(cycle_graph(5))))
        assert len(got) == 5

    def test_single_vertex(self):
        got = list(enum_max_independent(explicit_graph_instance(Graph(1))))
        assert got == [frozenset({0})]

    def test_empty_universe_yields_empty_set(self):
        got = list(enum_max_independent(explicit_graph_instance(Graph(0))))
        assert got == [frozenset()]


class TestOracleEquivalence:
    def test_exhaustive_up_to_five(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                got = list(
                    enum_max_independent(
                        explicit_graph_instance(g), check_invariants=True
                    )
                )
                assert len(got) == len(set(got))
                assert set(got) == brute_max_independent_sets(g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_graphs(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        slots = list(itertools.combinations(range(n), 2))
        edges = [e for e in slots if data.draw(st.booleans())]
        g = Graph(n, edges)
        got = list(enum_max_independent(explicit_graph_instance(g)))
        assert len(got) == len(set(got))
        assert set(got) == brute_max_independent_sets(g)

    def test_answers_are_independent_and_maximal(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), rng)
            inst = explicit_graph_instance(g)
            for answer in enum_max_independent(inst):
                for a, b in itertools.combinations(sorted(answer), 2):
                    assert not inst.adjacent(a, b)
                for v in range(g.n):
                    if v not in answer:
                        assert any(inst.adjacent(v, u) for u in answer)


class TestReferenceEquivalence:
    def test_explicit_instances_match_reference_sequence(self):
        for g in all_connected_graphs(5) + EXPLICIT_ORDER_MOVES:
            inst = explicit_graph_instance(g)
            assert list(enum_max_independent(inst)) == reference_enum(inst)

    def test_separator_instances_match_reference_sequence(self):
        graphs = [cycle_graph(4), cycle_graph(5), cycle_graph(6), path_graph(5)]
        graphs += SEPARATOR_ORDER_MOVES
        rng = random.Random(99)
        graphs += [
            random_connected_graph(rng.randint(5, 7), rng.choice([0.3, 0.5]), rng)
            for _ in range(12)
        ]
        for g in graphs:
            for extender in ("blackbox", "separator"):
                got = list(enum_max_independent(separator_graph_instance(g, extender)))
                want = reference_enum(separator_graph_instance(g, extender))
                assert got == want


class TestOneExtenderRunPerAnswer:
    """A step whose base a found answer holds runs no extender, so every
    run finds a new answer."""

    def test_separator_instances(self):
        for g, extender in [
            (cycle_graph(11), "blackbox"),
            (ladder_graph(6), "blackbox"),
            (ladder_graph(6), "separator"),
        ]:
            inst, runs = counting(separator_graph_instance(g, extender))
            answers = list(enum_max_independent(inst, check_invariants=True))
            assert len(runs) == len(answers) == len(set(answers))

    def test_explicit_instances(self):
        for g in all_connected_graphs(5) + EXPLICIT_ORDER_MOVES:
            inst, runs = counting(explicit_graph_instance(g))
            answers = list(enum_max_independent(inst, check_invariants=True))
            assert len(runs) == len(answers) == len(set(answers))


class TestAdjacencyTests:
    """The engine asks the adjacency predicate only what a base needs."""

    def test_a_step_toward_a_member_tests_nothing(self):
        # every minimal separator of a path is one inner vertex, and none
        # crosses another: the first answer holds every node, so each
        # step is toward a member of that answer and needs no test
        inst = separator_graph_instance(path_graph(100))
        tests = []

        def adjacent(s, t):
            tests.append((s, t))
            return inst.adjacent(s, t)

        stats = EnumStats()
        counted = dataclasses.replace(inst, adjacent=adjacent)
        answers = list(enum_max_independent(counted, stats=stats))
        assert len(answers) == 1 and len(answers[0]) == 98
        assert stats.extender_calls == 99
        assert tests == []


class TestStatsAndHooks:
    def test_counters(self):
        g = cycle_graph(6)
        stats = EnumStats()
        answers = list(
            enum_max_independent(explicit_graph_instance(g), stats=stats)
        )
        assert stats.answers_emitted == len(answers)
        assert stats.extender_calls >= stats.answers_emitted
        assert stats.nodes_pulled == g.n
        assert len(stats.delays) == len(answers)

    def test_node_cache_reaches_full_universe(self):
        for g in all_connected_graphs(4):
            stats = EnumStats()
            list(enum_max_independent(explicit_graph_instance(g), stats=stats))
            assert stats.nodes_pulled == g.n

    def test_hook_events(self):
        events = []
        stats = EnumStats()
        list(
            enum_max_independent(
                explicit_graph_instance(cycle_graph(5)),
                stats=stats,
                hook=lambda name, s: events.append(name),
            )
        )
        assert events.count("emit") == 5
        assert events.count("pull") == 5
        assert events.count("extend") == stats.extender_calls

    def test_pull_monotone_never_exceeds_universe(self):
        pulls = []
        stats = EnumStats()
        list(
            enum_max_independent(
                explicit_graph_instance(cycle_graph(6)),
                stats=stats,
                hook=lambda name, s: pulls.append(s.nodes_pulled)
                if name == "pull"
                else None,
            )
        )
        assert pulls == sorted(pulls)
        assert pulls[-1] <= 6

    def test_deterministic_order(self):
        inst = explicit_graph_instance(cycle_graph(6))
        first = list(enum_max_independent(inst))
        second = list(enum_max_independent(explicit_graph_instance(cycle_graph(6))))
        assert first == second


class TestNodeStreams:
    """``node_stream`` may return any iterable. The engine walks it once
    and skips a node that it has pulled before."""

    @staticmethod
    def variants(inst):
        def listed():
            return list(inst.node_stream())

        def twice():
            for node in inst.node_stream():
                yield node
                yield node

        return [dataclasses.replace(inst, node_stream=f) for f in (listed, twice)]

    def test_lists_and_repeats_give_the_plain_run(self):
        rng = random.Random(5)
        for inst in (
            explicit_graph_instance(cycle_graph(7)),
            separator_graph_instance(cycle_graph(7)),
            separator_graph_instance(random_connected_graph(8, 0.3, rng), "separator"),
        ):
            plain = list(enum_max_independent(inst))
            distinct = len(set(inst.node_stream()))
            for variant in self.variants(inst):
                stats = EnumStats()
                events = []
                got = list(
                    enum_max_independent(
                        variant, stats=stats, hook=lambda name, s: events.append(name)
                    )
                )
                assert got == plain
                assert stats.nodes_pulled == events.count("pull") == distinct


class TestContractEnforcement:
    def test_dropping_input_raises(self):
        g = path_graph(3)
        base = explicit_graph_instance(g)
        broken = ImplicitGraph(
            node_stream=base.node_stream,
            adjacent=base.adjacent,
            extend_to_max_ind=lambda s: frozenset({0}),
        )
        with pytest.raises(ImplicitGraphError):
            list(enum_max_independent(broken))
