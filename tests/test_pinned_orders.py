"""Orders that a faster implementation must not move.

Each test hashes an answer stream, in the order it comes out, and
compares it with a digest recorded from an earlier implementation.
Reruns of one build agree by construction; these pin the order across
changes to the component sweep, the split, min-fill, the extenders and
the separator read-off. A digest is re-recorded only when a change
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
    enum_min_seps,
    enum_min_triangulations,
    enum_proper_tds,
    extend_family_blackbox,
    extend_family_separator,
    find_min_sep,
    is_minimal_triangulation,
)

from conftest import cycle_graph, ladder_graph, random_connected_graph, star_graph


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
