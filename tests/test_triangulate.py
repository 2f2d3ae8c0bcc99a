import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trienum import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    NotChordalError,
    Triangulation,
    canon,
    clq_min_seps,
    crosses,
    decompose,
    enum_max_independent,
    enum_min_seps,
    enum_min_triangulations,
    enum_proper_tds,
    extend_family_blackbox,
    extend_family_separator,
    extract_min_seps_chordal,
    get_components,
    is_chordal,
    is_connected,
    is_minimal_separator,
    is_minimal_triangulation,
    max_cliques_chordal,
    min_tri_sandwich,
    saturate_family,
    separator_graph_instance,
    triangulate_heuristic,
)
from trienum import cli, treedecomp, triangulate
from trienum.graph import (
    _chordal_read_off,
    _peel,
    _peo_read_off,
    _saturate,
    bits,
    mask_of,
    vertex_set,
)
from trienum.triangulate import (
    _clique,
    _blackbox_extender,
    _clique_table,
    _minfill_masks,
    _nonedges,
    _packed,
    _pairs,
    _sandwich_masks,
    _saturation,
)

from conftest import (
    FALLBACK_EDGES,
    all_connected_graphs,
    all_graphs,
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
    traced_calls,
)
from oracle import (
    _is_clique,
    brute_max_cliques,
    brute_min_seps,
    brute_min_triangulations,
    explicit_graph_instance,
    mcs_cliques_seps,
    rescan_minfill_masks,
)

EXTENDERS = (extend_family_blackbox, extend_family_separator)


def _family(*seps):
    return frozenset(frozenset(s) for s in seps)


def _random_family(g, rng, max_size=3):
    maximal = sorted(extend_family_blackbox(g, ()), key=canon)
    size = rng.randint(0, min(max_size, len(maximal)))
    return _family(*rng.sample(maximal, size))


def _public_pipeline(g, phi):
    """What the blackbox extender computes, from the public functions that
    the benchmark's replay check runs."""
    g_phi = saturate_family(g, phi)
    h = min_tri_sandwich(g_phi, triangulate_heuristic(g_phi))
    return frozenset(extract_min_seps_chordal(h))


def _rowwise_saturated(g, masks):
    """The rows of g with the vertices of every mask made a clique, one
    row at a time."""
    adj = list(g._adj)
    for m in masks:
        _saturate(adj, m)
    return adj


def _is_peo(adj, order):
    """Whether each vertex's neighbors after it in ``order`` are a clique."""
    later = 0
    for x in reversed(order):
        if not _is_clique(adj, adj[x] & later):
            return False
        later |= 1 << x
    return True


def _random_peo(adj, n, rng):
    """A random perfect elimination ordering of a chordal graph: eliminate
    a random simplicial vertex of what is left, until nothing is."""
    order = []
    alive = (1 << n) - 1
    while alive:
        simplicial = [v for v in bits(alive) if _is_clique(adj, adj[v] & alive)]
        v = rng.choice(simplicial)
        order.append(v)
        alive &= ~(1 << v)
    return order


def _sorted_parts(parts):
    """A (cliques, separators) read-off with the cliques sorted."""
    return sorted(parts[0]), parts[1]


def _engine_extender_calls(g, answers):
    """The (family, result) pairs of every blackbox extender call that
    the enumerator makes for its first ``answers`` answers on g."""
    inst = separator_graph_instance(g)
    calls = []

    def extend(fam):
        got = inst.extend_to_max_ind(fam)
        calls.append((fam, got))
        return got

    wrapped = dataclasses.replace(inst, extend_to_max_ind=extend)
    for _ in itertools.islice(enum_max_independent(wrapped), answers):
        pass
    return calls


def _first_seen_bases(g, answers):
    """The (family, result) pairs of every blackbox extender call that
    an engine extending each base on first sight, whether or not a found
    answer holds it, makes for its first ``answers`` answers on g: the
    families that min-fill's digests below were recorded on."""
    inst = separator_graph_instance(g)
    calls = []
    memo = {}

    def extend(base):
        if base not in memo:
            memo[base] = inst.extend_to_max_ind(base)
            calls.append((base, memo[base]))
        return memo[base]

    found = [extend(frozenset())]  # queued or printed, in discovery order
    printed = 0
    pulled = []
    stream = inst.node_stream()

    def grow(j, v):
        if v not in j:
            k = extend(frozenset({u for u in j if not inst.adjacent(v, u)} | {v}))
            if k not in found:
                found.append(k)

    while printed < len(found):
        j = found[printed]
        printed += 1
        if printed == answers:
            break
        for v in pulled:
            grow(j, v)
        while printed == len(found):
            v = next(stream, None)
            if v is None:
                break
            pulled.append(v)
            for j in found[:printed]:
                grow(j, v)
    return calls


@st.composite
def graph_masks(draw, max_n=24):
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.integers(min_value=0, max_value=10)) / 10
    rng = draw(st.randoms(use_true_random=False))
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return n, adj


def _masks(edges, n):
    """A graph as the (n, adjacency masks) pair that ``graph_masks`` draws."""
    return n, list(Graph(n, edges)._adj)


def _grid(rows, cols):
    edges = []
    for r, c in itertools.product(range(rows), range(cols)):
        v = r * cols + c
        if c + 1 < cols:
            edges.append((v, v + 1))
        if r + 1 < rows:
            edges.append((v, v + cols))
    return _masks(edges, rows * cols)


# min-fill adds edges over several steps on C12, the grid and Petersen,
# and on K3,4 each edge of one step's fill closes a pair at three vertices
C12 = _masks(cycle_graph(12).edges(), 12)
GRID_3X4 = _grid(3, 4)
K34 = _masks([(u, v) for u in range(3) for v in range(3, 7)], 7)
PETERSEN = _masks(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    10,
)


def _assert_minfill_matches_rescan(adj, n):
    ours, ref = list(adj), list(adj)
    fill, _ = _minfill_masks(ours, n, {})
    assert fill == rescan_minfill_masks(ref, n)
    assert ours == ref


# one core store for every example below, as one enumeration keeps one
# for all its extender runs
SHARED_CORES = {}


def _assert_stored_cores_change_nothing(adj, n):
    """Min-fill through ``SHARED_CORES``, twice, so that the second run
    takes the stored core, gives what it gives without a store and what
    the plain rescan gives; a run that takes a stored core changes no
    entry, and a caller that changes what a run returned changes none."""
    plain, ref = list(adj), list(adj)
    want = _minfill_masks(plain, n, {})
    assert want[0] == rescan_minfill_masks(ref, n)
    assert plain == ref
    for _ in range(2):
        before = dict(SHARED_CORES)
        ours = list(adj)
        got = _minfill_masks(ours, n, SHARED_CORES)
        assert got == want
        assert type(got[0]) is list and type(got[1]) is list
        assert ours == plain
        values = [tuple(map(tuple, entry)) for entry in SHARED_CORES.values()]
        got[0].append((n, n))
        got[1].append(n)
        assert [tuple(map(tuple, entry)) for entry in SHARED_CORES.values()] == values
    # the second run found its core stored, if the peel left one
    assert SHARED_CORES.keys() == before.keys()
    assert all(SHARED_CORES[k] is entry for k, entry in before.items())


class TestSaturateFamily:
    def test_c4_one_diagonal(self):
        g = saturate_family(cycle_graph(4), _family({0, 2}))
        assert g == cycle_graph(4).add_edges([(0, 2)])

    def test_singletons_are_noops(self):
        g = path_graph(4)
        assert saturate_family(g, _family({1}, {2})) == g

    def test_c5_fan_is_chordal(self):
        g = saturate_family(cycle_graph(5), _family({0, 2}, {0, 3}))
        assert g == cycle_graph(5).add_edges([(0, 2), (0, 3)])
        assert is_chordal(g)

    def test_out_of_range_raises(self):
        with pytest.raises(GraphError):
            saturate_family(cycle_graph(4), _family({0, 9}))

    @settings(max_examples=200, deadline=None)
    @given(graph_masks(), st.randoms(use_true_random=False))
    def test_saturate_equals_pairwise_saturation(self, graph, rng):
        n, adj = graph
        naive = list(adj)
        for _ in range(rng.randint(0, 4)):
            subset = [v for v in range(n) if rng.random() < 0.4]
            _saturate(adj, mask_of(subset))
            for u, v in itertools.combinations(subset, 2):
                naive[u] |= 1 << v
                naive[v] |= 1 << u
        assert adj == naive


class TestPackedSaturation:
    """G packed, ORed with the members' packed cliques, is G with the
    members saturated row by row."""

    # one clique table per vertex count for every example below, as one
    # enumeration keeps one for all its extender runs
    TABLES = {}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=14), st.randoms(use_true_random=False))
    def test_equals_the_row_by_row_saturation(self, n, rng):
        g = random_connected_graph(n, rng.choice([0.2, 0.3, 0.5]), rng)
        masks = list(map(mask_of, _random_family(g, rng)))
        masks += [mask_of(v for v in range(n) if rng.random() < 0.4) for _ in range(2)]
        table = self.TABLES.setdefault(n, _clique_table(n))
        for fam in (masks, masks[:1], []):
            got = _saturation(_packed(g._adj), fam, table)
            assert got == _packed(_rowwise_saturated(g, fam))
        for m in masks:
            assert table[m] == _clique(m, n) == _packed(_rowwise_saturated(Graph(n), [m]))

    def test_a_clique_row_holds_the_rest_of_the_clique(self):
        # rows 1, 3 and 4 of a graph on 5 vertices, at bits 5, 15 and 20
        assert _clique(0b11010, 5) == 0b11000 << 5 | 0b10010 << 15 | 0b01010 << 20
        assert _clique(0b100, 5) == 0


class TestTriangulateHeuristic:
    def test_chordal_unchanged(self):
        rng = random.Random(12)
        for _ in range(40):
            g = triangulate_heuristic(
                random_connected_graph(rng.randint(1, 8), rng.choice([0.3, 0.6]), rng)
            )
            assert triangulate_heuristic(g) == g

    def test_c4_single_chord(self):
        g = triangulate_heuristic(cycle_graph(4))
        assert g.edge_count == 5
        assert is_chordal(g)

    def test_c5_two_chords_sharing_an_endpoint(self):
        g = triangulate_heuristic(cycle_graph(5))
        fill = sorted(set(g.edges()) - set(cycle_graph(5).edges()))
        assert len(fill) == 2
        assert len(set(fill[0]) & set(fill[1])) == 1
        assert is_chordal(g)

    def test_always_chordal_supergraph(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_connected_graph(rng.randint(1, 9), rng.choice([0.2, 0.5]), rng)
            h = triangulate_heuristic(g)
            assert is_chordal(h)
            assert all(h.has_edge(u, v) for u, v in g.edges())

    def test_deterministic(self):
        g = random_connected_graph(9, 0.3, random.Random(7))
        assert triangulate_heuristic(g) == triangulate_heuristic(g)


class TestMinfillMasks:
    """The peel-then-updated-counts min-fill against the plain rescan,
    and its elimination order against a digest of an earlier build."""

    @settings(max_examples=300, deadline=None)
    @given(graph_masks())
    @example(C12)
    @example(GRID_3X4)
    @example(K34)
    @example(PETERSEN)
    def test_same_fill_and_masks_as_rescan(self, graph):
        n, adj = graph
        _assert_minfill_matches_rescan(adj, n)

    @settings(max_examples=300, deadline=None)
    @given(graph_masks())
    def test_order_is_a_peo_of_the_result(self, graph):
        n, adj = graph
        _, order = _minfill_masks(adj, n, {})
        assert sorted(order) == list(range(n))
        assert _is_peo(adj, order)

    @settings(max_examples=150, deadline=None)
    @given(graph_masks())
    def test_chordal_graphs_get_no_fill(self, graph):
        n, adj = graph
        rescan_minfill_masks(adj, n)  # adj is now chordal
        chordal = list(adj)
        assert _minfill_masks(adj, n, {})[0] == []
        assert adj == chordal

    @pytest.mark.parametrize(
        "g, answers, digest",
        [
            (
                random_connected_graph(30, 0.2, random.Random(1)),
                40,
                "430ad1fad3c3143d690222d8d37d2b02b96d5fecc310b481720b4df46fc607e4",
            ),
            (
                cycle_graph(11),
                150,
                "3436ff0d315cc1bf1fba35631b94d85cc32b3d43105186072f63aede6f7dfa8d",
            ),
        ],
        ids=["random-prefix", "c11"],
    )
    def test_same_fill_on_the_saturated_engine_families(self, g, answers, digest):
        calls = _first_seen_bases(g, answers)
        assert len(calls) > answers
        # (added, order) of every call, pinned so that neither the
        # tie-break nor the peeled prefix drifts while the fill matches;
        # the second pass feeds the same calls through one core store,
        # so a core met again takes the stored result
        cores = {}
        for store in (None, cores):
            h = hashlib.sha256()
            cored = 0
            for fam, _ in calls:
                adj = _rowwise_saturated(g, map(mask_of, fam))
                if store is None:
                    _assert_minfill_matches_rescan(adj, g.n)
                cored += _peel(adj, g.n)[1] != 0
                # the first pass gives each call a store of its own
                used = {} if store is None else store
                h.update(repr(_minfill_masks(adj, g.n, used)).encode())
                h.update(b"\n")
            assert h.hexdigest() == digest
        assert 0 < len(cores) < cored

    @settings(max_examples=300, deadline=None)
    @given(graph_masks())
    @example(C12)
    @example(GRID_3X4)
    @example(K34)
    @example(PETERSEN)
    def test_a_stored_core_gives_the_same_fill_order_and_masks(self, graph):
        n, adj = graph
        _assert_stored_cores_change_nothing(adj, n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.randoms(use_true_random=False))
    def test_a_stored_core_on_saturated_families(self, n, rng):
        g = random_connected_graph(n, 0.3, rng)
        adj = _rowwise_saturated(g, map(mask_of, _random_family(g, rng)))
        _assert_stored_cores_change_nothing(adj, n)


class TestOneEliminationPerCore:
    """An enumeration eliminates each distinct min-fill core once: its
    instance keeps what the second phase made of every core it met."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"runs": 0, "cored": 0, "eliminated": 0}
        distinct = set()
        peel, eliminate = triangulate._peel, triangulate._eliminate

        def counted_peel(adj, n):
            order, alive = peel(adj, n)
            counts["runs"] += 1
            if alive:
                counts["cored"] += 1
                distinct.add((alive, *(adj[v] & alive for v in bits(alive))))
            return order, alive

        def counted_eliminate(adj, n, alive):
            counts["eliminated"] += 1
            return eliminate(adj, n, alive)

        monkeypatch.setattr(triangulate, "_peel", counted_peel)
        monkeypatch.setattr(triangulate, "_eliminate", counted_eliminate)
        yield counts
        assert counts["eliminated"] == len(distinct)

    def test_c11(self, counts):
        assert sum(1 for _ in enum_min_triangulations(cycle_graph(11))) == 4862
        assert counts == {"runs": 4862, "cored": 2985, "eliminated": 196}

    def test_ladder(self, counts):
        assert sum(1 for _ in enum_proper_tds(ladder_graph(12))) == 2048
        assert counts["runs"] == 2048
        assert counts["eliminated"] <= 1


class TestOneEntryPerSeparatorAndBag:
    """An enumeration makes each separator's packed clique once, and
    ``enum_proper_tds`` each bag's sort key once."""

    @pytest.fixture
    def tables(self, monkeypatch):
        made = {"cliques": [], "keys": []}
        make_cliques, make_keys = triangulate._clique_table, treedecomp._clique_keys

        def clique_table(n):
            made["cliques"].append(make_cliques(n))
            return made["cliques"][-1]

        def clique_keys(n):
            made["keys"].append(make_keys(n))
            return made["keys"][-1]

        monkeypatch.setattr(triangulate, "_clique_table", clique_table)
        monkeypatch.setattr(treedecomp, "_clique_keys", clique_keys)
        return made

    def test_c11(self, tables):
        g = cycle_graph(11)
        assert sum(1 for _ in enum_min_triangulations(g)) == 4862
        (cliques,) = tables["cliques"]
        assert len(cliques) == 44 and not tables["keys"]
        # each minimal separator of C11, one non-adjacent pair, met once
        assert set(cliques) == set(map(mask_of, enum_min_seps(g)))
        assert all(h == _clique(m, 11) for m, h in cliques.items())

    def test_ladder(self, tables):
        g = ladder_graph(12)
        tds = list(enum_proper_tds(g))
        assert len(tds) == 2048
        (cliques,) = tables["cliques"]
        (keys,) = tables["keys"]
        assert (len(cliques), len(keys)) == (32, 44)
        assert set(keys) == set(map(mask_of, set().union(*(d.bags for d in tds))))
        assert all(key == format(m, "024b")[::-1] for m, key in keys.items())


class TestPeel:
    """Repeated simplicial elimination, whose order the read-off trusts."""

    @settings(max_examples=300, deadline=None)
    @given(graph_masks(max_n=14))
    def test_order_is_a_peo_exactly_on_chordal_graphs(self, graph):
        n, adj = graph
        filled = list(adj)
        _minfill_masks(filled, n, {})
        for masks in (adj, filled):
            order, left = _peel(masks, n)
            assert len(set(order)) == len(order)
            assert mask_of(order) & left == 0
            assert mask_of(order) | left == (1 << n) - 1
            assert (left == 0) == (mcs_cliques_seps(masks, n) is not None)
            if not left:
                assert _is_peo(masks, order)


class TestPeoMinSeps:
    """Cliques and MinSep read off an elimination order, against MCS and
    brute force."""

    def test_every_small_chordal_graph_under_random_peos(self):
        rng = random.Random(1993)
        chordal = connected = 0
        for n in range(7):
            for g in all_graphs(n):
                if not is_chordal(g):
                    continue
                adj = list(g._adj)
                cliques = sorted(map(mask_of, brute_max_cliques(g)))
                assert sorted(map(mask_of, max_cliques_chordal(g))) == cliques
                # per component, as MCS reads them
                seps = mcs_cliques_seps(adj, n)[1]
                if n and is_connected(g):
                    assert seps == {mask_of(s) for s in brute_min_seps(g)}
                    connected += 1
                for _ in range(3):
                    got = _peo_read_off(adj, _random_peo(adj, n, rng))
                    assert _sorted_parts(got) == (cliques, seps)
                chordal += 1
        # labelled chordal graphs on 0 to 6 vertices, and the connected ones
        assert (chordal, connected) == (19049, 13884)

    def test_c4_with_a_chord(self):
        adj = list(cycle_graph(4).add_edges([(0, 2)])._adj)
        want = ([0b0111, 0b1101], {0b0101})
        assert _sorted_parts(_peo_read_off(adj, [1, 3, 0, 2])) == want
        assert _sorted_parts(_peo_read_off(adj, [1, 0, 3, 2])) == want

    def test_shared_closed_set_is_a_separator(self):
        # the path 0-1-2 eliminated 0, 2, 1: both ends have up-set {1} = C(1)
        adj = list(path_graph(3)._adj)
        want = ([0b011, 0b110], {0b010})
        assert _sorted_parts(_peo_read_off(adj, [0, 2, 1])) == want
        assert _sorted_parts(_peo_read_off(adj, [0, 1, 2])) == want

    @settings(max_examples=300, deadline=None)
    @given(graph_masks(max_n=9), st.randoms(use_true_random=False))
    def test_any_peo_is_read(self, graph, rng):
        n, adj = graph
        rescan_minfill_masks(adj, n)  # adj is now chordal
        order = _random_peo(adj, n, rng)
        want = _sorted_parts(mcs_cliques_seps(adj, n))
        assert _sorted_parts(_peo_read_off(adj, order)) == want

    @settings(max_examples=150, deadline=None)
    @given(graph_masks(max_n=14))
    def test_minfill_result_under_its_own_order(self, graph):
        n, adj = graph
        _, order = _minfill_masks(adj, n, {})
        want = _sorted_parts(mcs_cliques_seps(adj, n))
        assert _sorted_parts(_peo_read_off(adj, order)) == want

    @settings(max_examples=300, deadline=None)
    @given(graph_masks(max_n=14))
    def test_chordal_queries_agree_with_mcs(self, graph):
        n, adj = graph
        filled = list(adj)
        rescan_minfill_masks(filled, n)
        for masks in (adj, filled):
            g = Graph._from_masks(masks)
            want = mcs_cliques_seps(masks, n)
            assert is_chordal(g) == (want is not None)
            if want is None:
                with pytest.raises(NotChordalError):
                    _chordal_read_off(masks, n)
                with pytest.raises(NotChordalError):
                    max_cliques_chordal(g)
                continue
            assert _sorted_parts(_chordal_read_off(masks, n)) == _sorted_parts(want)
            assert max_cliques_chordal(g) == sorted(map(vertex_set, want[0]), key=sorted)
            if n and is_connected(g):
                assert extract_min_seps_chordal(g) == set(map(vertex_set, want[1]))


@st.composite
def graph_and_supergraph(draw):
    """A graph G on n vertices, n at and around the int limb boundaries of
    the packed rows, and a supergraph H of it, not necessarily chordal."""
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 130]))
    # one seed drawn, so that the large graphs draw little entropy
    rng = random.Random(draw(st.integers(0, 2**32)))
    p, q = draw(st.sampled_from([0.0, 0.05, 0.3])), draw(st.sampled_from([0.0, 0.02, 0.2]))
    pairs = list(itertools.combinations(range(n), 2))
    base = [e for e in pairs if rng.random() < p]
    more = [e for e in pairs if rng.random() < q]
    return Graph(n, base), Graph(n, base + more)


class TestPackedFill:
    """The fill of H over G is H & N, N G's packed non-edges above the
    diagonal, read in ascending order of its bit positions u*n + w."""

    @settings(max_examples=30, deadline=None)
    @given(graph_and_supergraph())
    def test_fill_is_the_added_edges_in_order(self, graphs):
        g, h = graphs
        added = sorted(set(h.edges()) - set(g.edges()))
        assert _pairs(_packed(h._adj) & _nonedges(g._adj), g.n) == added
        t = Triangulation(base=g, chordal_graph=h, family=frozenset())
        assert t.fill_edges == set(added)
        assert t._fill.bit_count() == h.edge_count - g.edge_count

    def test_nonedges_of_small_graphs(self):
        for n in range(6):
            for g in all_graphs(n):
                missing = set(itertools.combinations(range(n), 2)) - set(g.edges())
                assert _pairs(_nonedges(g._adj), n) == sorted(missing)


class TestMinTriSandwich:
    def test_identity_when_already_minimal(self):
        g = path_graph(4)
        assert min_tri_sandwich(g, g) == g

    def test_c4_inside_k4(self):
        h = min_tri_sandwich(cycle_graph(4), complete_graph(4))
        assert h.edge_count == 5
        assert is_chordal(h)

    def test_c5_inside_k5(self):
        g = cycle_graph(5)
        h = min_tri_sandwich(g, complete_graph(5))
        fill = sorted(set(h.edges()) - set(g.edges()))
        assert len(fill) == 2
        assert len(set(fill[0]) & set(fill[1])) == 1
        assert is_chordal(h)

    def test_result_is_minimal_and_sandwiched(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_connected_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), rng)
            g_t = triangulate_heuristic(g)
            h = min_tri_sandwich(g, g_t)
            assert is_minimal_triangulation(g, h)
            assert all(g_t.has_edge(u, v) for u, v in h.edges())

    def test_rejects_non_supergraph(self):
        with pytest.raises(GraphError):
            min_tri_sandwich(cycle_graph(4), path_graph(4))

    def test_rejects_non_chordal(self):
        with pytest.raises(GraphError):
            min_tri_sandwich(cycle_graph(4), cycle_graph(4))


class TestIsMinimalTriangulation:
    def test_against_oracle(self):
        for g in all_connected_graphs(5):
            fills = brute_min_triangulations(g)
            for fill in fills:
                assert is_minimal_triangulation(g, g.add_edges(fill))
            non_edges = [
                e
                for e in itertools.combinations(range(g.n), 2)
                if not g.has_edge(*e)
            ]
            for fill in fills:
                extra = [e for e in non_edges if e not in fill]
                if extra:
                    bigger = g.add_edges(list(fill) + extra[:1])
                    if is_chordal(bigger):
                        assert not is_minimal_triangulation(g, bigger)

    def test_false_on_invalid_inputs(self):
        # a different vertex count, a missing base edge, a non-chordal h
        assert is_minimal_triangulation(cycle_graph(4), cycle_graph(5)) is False
        assert is_minimal_triangulation(cycle_graph(4), path_graph(4)) is False
        assert is_minimal_triangulation(cycle_graph(4), cycle_graph(4)) is False


class TestExtenders:
    def test_c4_empty_family(self):
        for extend in EXTENDERS:
            got = extend(cycle_graph(4), ())
            assert got in (_family({0, 2}), _family({1, 3}))

    def test_c4_fixed_point(self):
        for extend in EXTENDERS:
            assert extend(cycle_graph(4), _family({0, 2})) == _family({0, 2})

    def test_c5_from_one_diagonal(self):
        fans = (_family({0, 2}, {0, 3}), _family({0, 2}, {2, 4}))
        for extend in EXTENDERS:
            assert extend(cycle_graph(5), _family({0, 2})) in fans

    def test_chordal_family_is_fixed_point(self):
        rng = random.Random(41)
        for _ in range(30):
            h = triangulate_heuristic(
                random_connected_graph(rng.randint(1, 8), rng.choice([0.3, 0.6]), rng)
            )
            fam = frozenset(extract_min_seps_chordal(h))
            for extend in EXTENDERS:
                assert extend(h, fam) == fam

    def test_contracts_on_random_graphs(self):
        rng = random.Random(59)
        for _ in range(40):
            g = random_connected_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), rng)
            phi = _random_family(g, rng)
            all_seps = brute_min_seps(g)
            for extend in EXTENDERS:
                got = extend(g, phi)
                assert phi <= got
                for s in got:
                    assert is_minimal_separator(g, s)
                for s, t in itertools.combinations(sorted(got, key=canon), 2):
                    assert not crosses(g, s, t)
                for s in all_seps - got:
                    assert any(crosses(g, s, t) for t in got)
                assert extend(g, got) == got

    def test_blackbox_equals_public_pipeline(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), rng)
            phi = _random_family(g, rng)
            assert extend_family_blackbox(g, phi) == _public_pipeline(g, phi)
        # the families the enumerator really asks for, as the benchmark's
        # replay check feeds them through the same pipeline
        graphs = [
            random_connected_graph(n, p, random.Random(seed))
            for n, p, seed in [(20, 0.25, 3), (24, 0.2, 5), (30, 0.2, 1), (30, 0.15, 8)]
        ]
        for g in graphs + [cycle_graph(11), ladder_graph(12)]:
            calls = _engine_extender_calls(g, 15)
            assert calls
            for fam, got in calls:
                assert got == _public_pipeline(g, fam)

    def test_fallback_when_the_sandwich_breaks_the_order(self):
        g = Graph(14, FALLBACK_EDGES)
        adj = list(g._adj)
        fill, order = _minfill_masks(adj, g.n, {})
        assert fill == [(3, 7), (4, 9), (6, 13), (8, 9)]
        kept = _sandwich_masks(adj, fill)
        edges = set(Graph._from_masks(adj).edges())
        assert len(set(fill) - edges) == 1
        assert len(kept) == 3 and set(kept) == set(fill) & edges
        # min-fill's order is no longer perfect, and the peeling order answers
        assert not _is_peo(adj, order)
        seps = _blackbox_extender(g)([], None)
        assert seps == mcs_cliques_seps(adj, g.n)[1]
        assert {frozenset(bits(m)) for m in seps} == _public_pipeline(g, ())
        assert extend_family_blackbox(g, ()) == _public_pipeline(g, ())

    def test_blackbox_raises_on_a_non_chordal_result(self, monkeypatch):
        def strip_every_fill_edge(adj, fill):
            for u, v in fill:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            return []

        # min-fill's chord of C4 is stripped again, so the re-peel meets C4
        monkeypatch.setattr(triangulate, "_sandwich_masks", strip_every_fill_edge)
        with pytest.raises(NotChordalError, match="not chordal"):
            extend_family_blackbox(cycle_graph(4), ())

    def test_invalid_family_raises(self):
        for extend in EXTENDERS:
            with pytest.raises(GraphError):
                extend(cycle_graph(4), _family({0, 1}))
            # two minimal separators of C6 that cross
            with pytest.raises(GraphError, match="family is not valid"):
                extend(cycle_graph(6), _family({0, 2}, {1, 3}))
        rng = random.Random(71)
        for _ in range(20):
            g = random_connected_graph(rng.randint(4, 8), rng.choice([0.3, 0.5]), rng)
            seps = sorted(enum_min_seps(g), key=canon)
            crossing = [
                (s, t) for s, t in itertools.combinations(seps, 2) if crosses(g, s, t)
            ]
            for s, t in crossing[:3]:
                for extend in EXTENDERS:
                    with pytest.raises(GraphError, match="family is not valid"):
                        extend(g, _family(s, t))

    def test_disconnected_raises(self):
        for extend in EXTENDERS:
            with pytest.raises(DisconnectedGraphError):
                extend(Graph(3, [(0, 1)]), ())


class TestHeggernesProperties:
    def test_family_becomes_clique_separators(self):
        rng = random.Random(61)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            phi = _random_family(g, rng)
            g_phi = saturate_family(g, phi)
            assert phi <= clq_min_seps(g_phi)

    def test_clique_separators_survive_saturation(self):
        rng = random.Random(67)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            phi = _random_family(g, rng)
            g_phi = saturate_family(g, phi)
            assert clq_min_seps(g) <= set(enum_min_seps(g_phi))

    def test_triangulating_the_saturation_triangulates_the_base(self):
        rng = random.Random(71)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            phi = _random_family(g, rng)
            g_phi = saturate_family(g, phi)
            h = min_tri_sandwich(g_phi, triangulate_heuristic(g_phi))
            assert is_minimal_triangulation(g, h)


class TestGetComponents:
    def test_c4_with_chord(self):
        g = cycle_graph(4).add_edges([(0, 2)])
        pieces = get_components(g, {0, 2})
        assert [(p.edges(), orig) for p, orig in pieces] == [
            ([(0, 1), (0, 2), (1, 2)], (0, 1, 2)),
            ([(0, 1), (0, 2), (1, 2)], (0, 2, 3)),
        ]

    def test_p3_center(self):
        pieces = get_components(path_graph(3), {1})
        assert [(p.edges(), orig) for p, orig in pieces] == [
            ([(0, 1)], (0, 1)),
            ([(0, 1)], (1, 2)),
        ]

    def test_p5_center(self):
        pieces = get_components(path_graph(5), {2})
        assert [orig for _, orig in pieces] == [(0, 1, 2), (2, 3, 4)]

    def test_non_clique_raises(self):
        with pytest.raises(GraphError):
            get_components(cycle_graph(4), {0, 2})

    def test_separator_dies_inside_pieces(self):
        rng = random.Random(83)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            seps = sorted(brute_min_seps(g), key=canon)
            if not seps:
                continue
            s = rng.choice(seps)
            g_sat = saturate_family(g, [s])
            for piece, orig in get_components(g_sat, s):
                back = dict(enumerate(orig))
                piece_seps = {
                    frozenset(back[v] for v in t) for t in brute_min_seps(piece)
                }
                for t in piece_seps:
                    assert not t <= s

    def test_pieces_share_only_separator_vertices(self):
        rng = random.Random(89)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            seps = sorted(brute_min_seps(g), key=canon)
            if not seps:
                continue
            s = rng.choice(seps)
            g_sat = saturate_family(g, [s])
            pieces = get_components(g_sat, s)
            for (_, o1), (_, o2) in itertools.combinations(pieces, 2):
                assert set(o1) & set(o2) <= s


class TestDecompose:
    def test_p5_on_center(self):
        pieces = decompose(path_graph(5), _family({2}))
        assert [orig for _, orig in pieces] == [(0, 1, 2), (2, 3, 4)]

    def test_c4_on_diagonal(self):
        pieces = decompose(cycle_graph(4), _family({0, 2}))
        assert [(p.edge_count, orig) for p, orig in pieces] == [
            (3, (0, 1, 2)),
            (3, (0, 2, 3)),
        ]

    def test_empty_family_returns_graph(self):
        g = cycle_graph(5)
        assert decompose(g, ()) == [(g, (0, 1, 2, 3, 4))]

    def test_separation_iff_split(self):
        # separator vertices sit on piece boundaries and satisfy no
        # member's u,v-outside-S premise, so quantify over the rest
        rng = random.Random(101)
        for _ in range(30):
            g = random_connected_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), rng)
            phi = _random_family(g, rng)
            boundary = set().union(*phi) if phi else set()
            pieces = decompose(g, phi)
            for u, v in itertools.combinations(range(g.n), 2):
                if u in boundary or v in boundary:
                    continue
                together = any(
                    u in set(orig) and v in set(orig) for _, orig in pieces
                )
                separated = any(
                    not _connected_avoiding(g, u, v, s) for s in phi
                )
                assert together == (not separated)

    def test_invalid_family_raises(self):
        with pytest.raises(GraphError):
            decompose(cycle_graph(4), _family({0, 1}))

    def test_crossing_family_raises(self):
        # two minimal separators of C6 that cross
        with pytest.raises(GraphError, match="family is not valid"):
            decompose(cycle_graph(6), _family({0, 2}, {1, 3}))
        rng = random.Random(73)
        for _ in range(20):
            g = random_connected_graph(rng.randint(4, 8), rng.choice([0.3, 0.5]), rng)
            seps = sorted(enum_min_seps(g), key=canon)
            crossing = [
                (s, t) for s, t in itertools.combinations(seps, 2) if crosses(g, s, t)
            ]
            for s, t in crossing[:3]:
                with pytest.raises(GraphError, match="family is not valid"):
                    decompose(g, _family(s, t))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            decompose(Graph(3, [(0, 1)]), ())


def _connected_avoiding(g, u, v, avoid):
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for y in bits(g._adj[x]):
            if y not in avoid and y not in seen:
                seen.add(y)
                stack.append(y)
    return False


class TestSeparatorGraphInstance:
    def test_c4(self):
        inst = separator_graph_instance(cycle_graph(4))
        nodes = list(inst.node_stream())
        assert len(nodes) == 2
        assert inst.adjacent(nodes[0], nodes[1])

    def test_c5_is_a_five_cycle(self):
        inst = separator_graph_instance(cycle_graph(5))
        nodes = list(inst.node_stream())
        assert len(nodes) == 5
        degree = {
            canon(s): sum(1 for t in nodes if t != s and inst.adjacent(s, t))
            for s in nodes
        }
        assert all(d == 2 for d in degree.values())

    def test_k4_has_no_nodes(self):
        inst = separator_graph_instance(complete_graph(4))
        assert list(inst.node_stream()) == []

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    def test_one_object_per_separator(self, extender):
        g = random_connected_graph(12, 0.3, random.Random(5))
        inst = separator_graph_instance(g, extender)
        first = inst.extend_to_max_ind(frozenset())
        stream = {s: s for s in inst.node_stream()}
        assert first and set(first) <= set(stream)
        for s in first:
            assert stream[s] is s
        # an equal copy in the input comes back as the instance's object
        copies = frozenset(frozenset(s) for s in first)
        assert all(stream[s] is s for s in inst.extend_to_max_ind(copies))
        answers = 0
        for answer in enum_max_independent(inst):
            answers += 1
            for s in answer:
                assert stream[s] is s
        assert answers > 1

    @pytest.mark.parametrize(
        "g, sep, blackbox, separator",
        [
            (
                cycle_graph(8),
                {1, 5},
                [[1, 3], [1, 4], [1, 5], [1, 7], [5, 7]],
                [[1, 5], [1, 7], [2, 5], [3, 5], [5, 7]],
            ),
            (
                ladder_graph(5),
                {2, 7},
                [[1, 5], [1, 6], [2, 6], [2, 7], [3, 7], [3, 8], [4, 8]],
                [[1, 5], [1, 6], [2, 6], [2, 7], [3, 7], [3, 8], [4, 8]],
            ),
        ],
        ids=["c8", "ladder5"],
    )
    def test_a_separator_never_streamed(self, g, sep, blackbox, separator):
        # a caller's own member, which the instance has not met, is
        # extended as the one-shot extenders extend it
        for extender, want in (("blackbox", blackbox), ("separator", separator)):
            inst = separator_graph_instance(g, extender)
            got = inst.extend_to_max_ind(frozenset({frozenset(sep)}))
            assert sorted(map(sorted, got)) == want
            one_shot = dict(zip(("blackbox", "separator"), EXTENDERS))[extender]
            assert got == one_shot(g, [sep])
            # and the instance has met them since: the stream gives
            # the same objects
            stream = {s: s for s in inst.node_stream()}
            assert all(stream[s] is s for s in got)

    def test_unknown_extender_rejected(self):
        with pytest.raises(ValueError):
            separator_graph_instance(cycle_graph(4), extender="magic")

    def test_disconnected_raises(self):
        message = "^separator_graph_instance requires a connected graph$"
        with pytest.raises(DisconnectedGraphError, match=message):
            separator_graph_instance(Graph(3, [(0, 1)]))


class TestEnumMinTriangulations:
    def test_c4(self):
        fills = {t.fill_edges for t in enum_min_triangulations(cycle_graph(4))}
        assert fills == {frozenset({(0, 2)}), frozenset({(1, 3)})}

    def test_chordal_yields_itself(self):
        g = triangulate_heuristic(random_connected_graph(7, 0.4, random.Random(2)))
        results = list(enum_min_triangulations(g))
        assert len(results) == 1
        assert results[0].fill_edges == frozenset()
        assert results[0].chordal_graph == g

    def test_c6_is_fourteen(self):
        assert sum(1 for _ in enum_min_triangulations(cycle_graph(6))) == 14

    def test_matches_oracle_exhaustively(self):
        for g in all_connected_graphs(5):
            got = {t.fill_edges for t in enum_min_triangulations(g)}
            assert got == brute_min_triangulations(g)

    def test_both_extenders_agree_as_sets(self):
        rng = random.Random(113)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 7), rng.choice([0.3, 0.5]), rng)
            bb = {t.fill_edges for t in enum_min_triangulations(g, "blackbox")}
            sep = {t.fill_edges for t in enum_min_triangulations(g, "separator")}
            assert bb == sep

    def test_both_extenders_agree_beyond_oracle_size(self):
        for seed in range(10):
            g = random_connected_graph(10 + seed % 5, 0.5, random.Random(seed))
            answers = [
                set(
                    enum_max_independent(
                        separator_graph_instance(g, extender), check_invariants=True
                    )
                )
                for extender in ("blackbox", "separator")
            ]
            assert answers[0] == answers[1]

    def test_round_trip_and_size_bound(self):
        rng = random.Random(127)
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 7), rng.choice([0.3, 0.5]), rng)
            for t in enum_min_triangulations(g):
                assert is_chordal(t.chordal_graph)
                assert extract_min_seps_chordal(t.chordal_graph) == set(t.family)
                assert len(t.family) < g.n
                assert saturate_family(g, t.family) == t.chordal_graph
                assert is_minimal_triangulation(g, t.chordal_graph)

    def test_counting_bijection_with_explicit_crossing_graph(self):
        rng = random.Random(131)
        for _ in range(15):
            g = random_connected_graph(rng.randint(2, 7), rng.choice([0.3, 0.5]), rng)
            seps = sorted(enum_min_seps(g), key=canon)
            crossing = Graph(
                len(seps),
                [
                    (i, j)
                    for i, j in itertools.combinations(range(len(seps)), 2)
                    if crosses(g, seps[i], seps[j])
                ],
            )
            mis_count = sum(
                1 for _ in enum_max_independent(explicit_graph_instance(crossing))
            )
            tri_count = sum(1 for _ in enum_min_triangulations(g))
            assert tri_count == mis_count

    def test_no_duplicates_and_deterministic(self):
        g = cycle_graph(7)
        first = [t.fill_edges for t in enum_min_triangulations(g)]
        second = [t.fill_edges for t in enum_min_triangulations(g)]
        assert first == second
        assert len(first) == len(set(first))

    def test_tiny_graphs(self):
        for g in (Graph(1), Graph(2, [(0, 1)])):
            results = list(enum_min_triangulations(g))
            assert len(results) == 1
            assert results[0].fill_edges == frozenset()

    def test_interleaved_iterators_are_independent(self):
        g = cycle_graph(6)
        it1 = enum_min_triangulations(g)
        it2 = enum_min_triangulations(g)
        a = [next(it1) for _ in range(3)]
        b = [next(it2) for _ in range(7)]
        a += list(it1)
        b += list(it2)
        assert [t.fill_edges for t in a] == [t.fill_edges for t in b]

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            list(enum_min_triangulations(Graph(3, [(0, 1)])))

    def test_fill_edges_are_the_added_edges(self):
        rng = random.Random(15)
        for _ in range(12):
            g = random_connected_graph(rng.randint(8, 20), rng.choice([0.2, 0.3]), rng)
            for tri in itertools.islice(enum_min_triangulations(g), 20):
                h = tri.chordal_graph
                assert isinstance(tri.fill_edges, frozenset)
                assert tri.fill_edges == set(h.edges()) - set(g.edges())

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    def test_fill_is_read_on_demand(self, extender, tmp_path, capsys, monkeypatch):
        g = cycle_graph(8)
        tris = list(enum_min_triangulations(g, extender))
        assert len(tris) == 132  # Catalan(6)
        lazy = {"chordal_graph", "fill_edges"}
        for t in tris:
            built = Triangulation(
                base=g, chordal_graph=saturate_family(g, t.family), family=t.family
            )
            assert built == t and hash(built) == hash(t)
            # comparing and hashing read the packed graph, not a built one
            assert not lazy & t.__dict__.keys()
        for t in tris:
            assert t.fill_edges == set(t.chordal_graph.edges()) - set(g.edges())
            assert lazy <= t.__dict__.keys()
        again = list(enum_min_triangulations(g, extender))
        assert again == tris
        assert [hash(t) for t in again] == [hash(t) for t in tris]
        # the packed fill is read once per written answer, and only there
        reads = []
        fill = Triangulation._fill

        def counted(t):
            reads.append(t)
            return fill.fget(t)

        monkeypatch.setattr(Triangulation, "_fill", property(counted))
        graphs = []
        from_masks = Graph._from_masks.__func__

        def built(cls, adj):
            graphs.append(adj)
            return from_masks(cls, adj)

        path = tmp_path / "c8.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        parsed, _labels = cli.parse_graph(path.read_text(), "edgelist")
        monkeypatch.setattr(Graph, "_from_masks", classmethod(built))
        for command, runs in (("stats", 0), ("triangulations", 132)):
            reads.clear()
            graphs.clear()
            assert cli.main([command, str(path), "--extender", extender]) == 0
            # the one graph built is the parsed input; none is built per answer
            assert (len(reads), [tuple(adj) for adj in graphs]) == (runs, [parsed._adj])

    def test_triangulation_value(self):
        g = cycle_graph(5)
        t = next(enum_min_triangulations(g))
        h = saturate_family(g, t.family)
        assert repr(t) == f"Triangulation(base={g!r}, chordal_graph={h!r}, family={t.family!r})"
        built = Triangulation(g, h, t.family)
        assert built == t and built.chordal_graph is h
        assert built != Triangulation(base=g, chordal_graph=h, family=frozenset())
        assert t != (g, h, t.family)
        for name in ("base", "chordal_graph", "fill_edges", "family"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)
        with pytest.raises(GraphError):
            Triangulation(base=g, chordal_graph=cycle_graph(6), family=t.family)

    def test_empty_graph_raises_before_any_answer(self):
        with pytest.raises(GraphError, match="at least one vertex"):
            next(enum_min_triangulations(Graph(0)))

    @pytest.mark.parametrize("extender", ["blackbox", "separator"])
    def test_calls_the_names_the_tracer_rebinds(self, extender, monkeypatch):
        # each answer's triangulation comes from its extender run, so
        # only saturate_family is left out
        def run():
            tris = enum_min_triangulations(cycle_graph(5), extender=extender)
            assert sum(1 for _ in tris) == 5

        assert traced_calls(monkeypatch, run) == {
            "enum_min_seps",
            "crosses",
            "separator_graph_instance",
            "enum_max_independent",
        }
