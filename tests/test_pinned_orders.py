"""Orders that a faster implementation must not move.

Each test hashes an answer stream, in the order it comes out, and
compares it with a digest recorded from an earlier implementation.
Reruns of one build agree by construction; these pin the order across
changes to the component sweep, the split, min-fill, the extenders,
the separator read-off, the engine's walk and the spanning-tree
branching. A digest is re-recorded only when a change
moves the order on purpose, and an order-free check beside it keeps
the set of rows.
"""

import hashlib
import itertools
import random
from itertools import islice

from trienum import (
    crosses,
    decompose,
    enum_max_independent,
    enum_max_spanning_trees,
    enum_min_seps,
    enum_min_triangulations,
    enum_proper_tds,
    extend_family_blackbox,
    extend_family_separator,
    find_min_sep,
    is_minimal_triangulation,
    separator_graph_instance,
)
from trienum.treedecomp import _level_groups

from conftest import (
    cycle_graph,
    ladder_graph,
    random_connected_graph,
    random_weighted_graph,
    star_graph,
)
from oracle import explicit_graph_instance


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _seps(family):
    return sorted(tuple(sorted(s)) for s in family)


def _separator_stream_rows():
    g = random_connected_graph(40, 0.2, random.Random(0))
    return [tuple(sorted(s)) for s in islice(enum_min_seps(g), 5000)]


def _find_min_sep_rows():
    g = random_connected_graph(20, 0.25, random.Random(20))
    return [
        (u, v, tuple(sorted(find_min_sep(g, u, v))))
        for u, v in itertools.permutations(range(g.n), 2)
        if not g.has_edge(u, v)
    ]


def _parallel_prefix(g, k):
    """The first k separators of the stream that cross none taken before."""
    fam = []
    for s in enum_min_seps(g):
        if not any(crosses(g, s, t) for t in fam):
            fam.append(s)
            if len(fam) == k:
                break
    return fam


def _extender_rows():
    rng = random.Random(2016)
    rows = []
    for _ in range(10):
        g = random_connected_graph(rng.randint(8, 20), rng.choice([0.2, 0.3]), rng)
        fam = _parallel_prefix(g, 3)
        pieces = [(h.edges(), orig) for h, orig in decompose(g, fam)]
        rows.append((g.n, g.edges(), _seps(fam), pieces))
        rows.append(_seps(extend_family_separator(g, fam)))
        rows.append(_seps(extend_family_separator(g, [])))
        rows.append(_seps(extend_family_blackbox(g, fam)))
    return rows


def _triangulation_rows(g, limit, extender="blackbox"):
    return [
        tuple(sorted(t.fill_edges))
        for t in islice(enum_min_triangulations(g, extender), limit)
    ]


def _assert_distinct_minimal_triangulations(g, rows):
    """Order-free check of a prefix: no row repeats, and each row's fill
    makes a minimal triangulation of g."""
    assert len(set(rows)) == len(rows)
    for fill in rows:
        assert is_minimal_triangulation(g, g.add_edges(fill))


def _treedecomp_rows(g, extender="blackbox"):
    return [
        (tuple(tuple(sorted(b)) for b in d.bags), d.edges)
        for d in enum_proper_tds(g, extender)
    ]


def _engine_events(inst, limit=None):
    """The names of the engine's hook events, in order, up to the
    limit-th answer."""
    events = []
    answers = enum_max_independent(inst, hook=lambda name, _stats: events.append(name))
    for _ in islice(answers, limit):
        pass
    return events


def test_separator_stream_order():
    rows = _separator_stream_rows()
    assert len(rows) == 5000
    assert _digest(rows) == (
        "bca420647214bb654469459ea73ffe936b41bbeea6720776eb1b8a737376b977"
    )


def test_find_min_sep_on_every_non_adjacent_pair():
    rows = _find_min_sep_rows()
    assert len(rows) == 266
    assert _digest(rows) == (
        "4b7e0c656d3bc7ce1f19295e7f01083d6f293ffb3db11211bfe29506ba9dc119"
    )


def test_decompose_pieces_and_extender_results():
    rows = _extender_rows()
    assert _digest(rows) == (
        "a3b12f5b813566635a8f138ac9a681889847794afb184719c34c9443016ae6ac"
    )


def test_random_graph_triangulation_prefix():
    g = random_connected_graph(30, 0.2, random.Random(1))
    rows = _triangulation_rows(g, 300)
    assert len(rows) == 300
    _assert_distinct_minimal_triangulations(g, rows)
    assert _digest(rows) == (
        "d859d3300c56a30037c0278dd13ae9b501649a17dfd70215a7ec9f31fdb1d7e0"
    )


def test_random_graph_triangulation_prefix_separator_extender():
    g = random_connected_graph(30, 0.2, random.Random(1))
    rows = _triangulation_rows(g, 300, "separator")
    assert len(rows) == 300
    _assert_distinct_minimal_triangulations(g, rows)
    assert _digest(rows) == (
        "8246a839a5c5200a175a768b22a2afc0161bc4ec80c4d46650f2c73529ba3865"
    )


def test_c11_triangulation_prefix():
    g = cycle_graph(11)
    rows = _triangulation_rows(g, 1000)
    assert len(rows) == 1000
    _assert_distinct_minimal_triangulations(g, rows)
    assert _digest(rows) == (
        "aaaea5ad018743a7e9657981740f039e2bd4ec54702cdd5a87372f408d5eac81"
    )


def test_ladder_tree_decompositions():
    rows = _treedecomp_rows(ladder_graph(12))
    assert len(rows) == 2048
    assert _digest(rows) == (
        "1f5f933ff0a658268b1dc36b51f88d3fe3869e95233fc8b8d6f05373cb186985"
    )


def test_star_tree_decompositions():
    # one triangulation whose clique graph is K5 on one weight level:
    # 5**3 spanning trees from the include/exclude branching
    rows = _treedecomp_rows(star_graph(5))
    assert len(rows) == 125
    assert _digest(rows) == (
        "4815499bf8c29d569cba8d8686773b34fd5c38ccb0d970b8e21d8a0fa320a7e1"
    )


def test_random_graph_tree_decompositions():
    # 14 triangulations, 5 of them with two or more level groups that
    # have several spanning trees each
    g = random_connected_graph(12, 0.3, random.Random(3))
    for extender, digest in (
        ("blackbox", "10816085cd5d37e755f86940c659cf55993fb20171c90aceb274dfb0bf20fb4e"),
        ("separator", "51afaa530aaab3af39cb6ad196fd99d16d49bbb7ce2c443be1c3977f27738065"),
    ):
        rows = _treedecomp_rows(g, extender)
        assert len(rows) == 246
        # the set of rows does not depend on the order they come in
        assert _digest(sorted(rows)) == (
            "7f47a0da9b13c0d53ed8f2d56abe475cf2042cf5bb8ff455587bfdf06ed3e9dd"
        )
        assert _digest(rows) == digest


def test_engine_event_order():
    # when the engine pulls and grows, not only what it emits: a walk
    # that pulls one step early or late moves these
    g = random_connected_graph(30, 0.2, random.Random(1))
    for inst, limit, count, digest in (
        (
            separator_graph_instance(cycle_graph(11)),
            None,
            218835,
            "4f1d59f3dd2df3ae8af37b7a6d051af60387c1a5e93db0dac15966ef7a56d6bf",
        ),
        (
            separator_graph_instance(g),
            300,
            4201,
            "010e272b1982927f93b8102c266e0513a59211730ae74accd6a3a6b1a7fd0569",
        ),
        (
            explicit_graph_instance(cycle_graph(7)),
            None,
            64,
            "66f3d6e45f6f6b33ce7384e68cc0cc1f21ca4df42287fd2d7a53ea934f895209",
        ),
    ):
        events = _engine_events(inst, limit)
        assert (len(events), _digest(events)) == (count, digest)


def test_max_spanning_tree_order_on_tied_levels():
    # generic weighted graphs, weight-0 levels included, several of them
    # with two or more level groups that have several spanning trees
    rng = random.Random(7)
    rows = []
    several = 0
    for _ in range(40):
        wg = random_weighted_graph(rng.randint(2, 7), rng)
        groups = _level_groups(len(wg.nodes), wg.edges)
        several += sum(len(group) > r - 1 for r, group in groups) >= 2
        rows.append((wg.edges, list(enum_max_spanning_trees(wg))))
    assert several >= 5
    assert sum(len(trees) for _edges, trees in rows) == 1127
    assert _digest(rows) == (
        "c29343240685f4c0209d6ed74baadf8e576552eeeba62e13a3a93ac936fcc978"
    )
