"""Orders that a faster implementation must not move.

Each test hashes an answer stream, in the order it comes out, and
compares it with a digest recorded from an earlier implementation.
Reruns of one build agree by construction; these pin the order across
changes to the component sweep, the split and the extenders.
"""

import hashlib
import itertools
import random
from itertools import islice

from trienum import (
    crosses,
    decompose,
    enum_min_seps,
    extend_family_blackbox,
    extend_family_separator,
    find_min_sep,
)

from conftest import random_connected_graph


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
