"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible
with ``pytest -s``) in addition to the usual pytest outcome. Shared
corpora and enumeration results are computed once per session.
"""

import itertools
import json
import math
import random
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from trienum import (
    EnumStats,
    Graph,
    canon,
    crosses,
    enum_max_independent,
    enum_min_seps,
    enum_min_triangulations,
    enum_proper_tds,
    extend_family_blackbox,
    extend_family_separator,
    extract_min_seps_chordal,
    is_chordal,
    is_minimal_separator,
    is_proper,
    is_tree_decomposition,
    max_cliques_chordal,
)
from trienum.cli import main

from conftest import (
    all_connected_graphs,
    cycle_graph,
    random_connected_graph,
)
from oracle import (
    MAX_NON_EDGES,
    brute_max_independent_sets,
    brute_min_seps,
    brute_min_triangulations,
    explicit_graph_instance,
)

CORPUS_SEED = 20240810
RANDOM_CELLS = {6: 30, 7: 20, 8: 12, 9: 10}
EDGE_PROBABILITIES = (0.3, 0.5, 0.7)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({desc}): PASS")


@pytest.fixture(scope="session")
def small_corpus():
    return all_connected_graphs(5)


@pytest.fixture(scope="session")
def random_corpus():
    rng = random.Random(CORPUS_SEED)
    graphs = []
    for n, per_cell in RANDOM_CELLS.items():
        for p in EDGE_PROBABILITIES:
            graphs.extend(
                random_connected_graph(n, p, rng) for _ in range(per_cell)
            )
    assert len(graphs) >= 200
    return graphs


@pytest.fixture(scope="session")
def corpus(small_corpus, random_corpus):
    return small_corpus + random_corpus


class _Cache:
    def __init__(self):
        self.seps = {}
        self.tris = {}
        self.brute_seps = {}

    def enum_seps(self, g):
        if g not in self.seps:
            self.seps[g] = list(enum_min_seps(g))
        return self.seps[g]

    def enum_tris(self, g):
        if g not in self.tris:
            self.tris[g] = list(enum_min_triangulations(g))
        return self.tris[g]

    def oracle_seps(self, g):
        if g not in self.brute_seps:
            self.brute_seps[g] = brute_min_seps(g)
        return self.brute_seps[g]


@pytest.fixture(scope="session")
def cache():
    return _Cache()


def _non_edges(g):
    return g.n * (g.n - 1) // 2 - g.edge_count


def _cli_fills(capsys, path):
    code = main(["triangulations", str(path), "--format", "dimacs"])
    out = capsys.readouterr().out
    assert code == 0
    fills = []
    for line in out.splitlines():
        rec = json.loads(line)
        if rec["kind"] == "triangulation":
            fills.append(frozenset(tuple(e) for e in rec["answer"]["fill"]))
    return fills


def _write_cycle(tmp_path, n):
    lines = [f"p edge {n} {n}"]
    lines += [f"e {i + 1} {(i + 1) % n + 1}" for i in range(n)]
    path = tmp_path / f"c{n}.col"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_criterion_1_catalan_counts(tmp_path, capsys):
    with criterion(1, "Catalan counts on cycles"):
        expected = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132}
        for n, want in expected.items():
            fills = _cli_fills(capsys, _write_cycle(tmp_path, n))
            assert len(fills) == want, f"C{n}: got {len(fills)}"
            assert len(set(fills)) == want
            if n <= 6:
                assert set(fills) == brute_min_triangulations(cycle_graph(n))


def test_criterion_2_oracle_equivalence(corpus, random_corpus, cache):
    with criterion(2, "exhaustive and randomized oracle equivalence"):
        tri_checked = 0
        for g in corpus:
            assert set(cache.enum_seps(g)) == cache.oracle_seps(g)
            if _non_edges(g) <= MAX_NON_EDGES:
                got = {t.fill_edges for t in cache.enum_tris(g)}
                assert got == brute_min_triangulations(g)
                tri_checked += 1
        assert len(random_corpus) >= 200
        # the triangulation oracle cannot take the sparsest n=9 graphs
        assert tri_checked >= len(corpus) - 25


def test_criterion_3_engine_equivalence(corpus):
    with criterion(3, "independent-set engine matches brute force"):
        for g in corpus:
            got = list(enum_max_independent(explicit_graph_instance(g)))
            assert len(got) == len(set(got))
            assert set(got) == brute_max_independent_sets(g)


def test_criterion_4_family_round_trip(corpus, cache):
    with criterion(4, "separator-family round trip"):
        for g in corpus:
            for t in cache.enum_tris(g):
                h = t.chordal_graph
                assert is_chordal(h)
                assert extract_min_seps_chordal(h) == set(t.family)
                for edge in t.fill_edges:
                    thinner = Graph(
                        g.n, [e for e in h.edges() if e != edge]
                    )
                    assert not is_chordal(thinner)


def _subset_pool(family, rng):
    members = sorted(family, key=canon)
    pool = [()]
    for size in (1, 2, 3):
        combos = list(itertools.combinations(members, size))
        if len(combos) > 12:
            combos = rng.sample(combos, 12)
        pool.extend(combos)
    return pool


def test_criterion_5_extender_contracts(small_corpus, random_corpus, cache):
    with criterion(5, "extender contracts"):
        rng = random.Random(CORPUS_SEED + 5)
        sample = [g for g in small_corpus if g.n <= 4]
        sample += rng.sample([g for g in small_corpus if g.n == 5], 120)
        sample += rng.sample(random_corpus, 40)
        for g in sample:
            all_seps = cache.oracle_seps(g)
            maximal = extend_family_blackbox(g, ())
            for extend in (extend_family_blackbox, extend_family_separator):
                assert extend(g, maximal) == maximal  # fixed point
                for phi in _subset_pool(maximal, rng):
                    got = extend(g, phi)
                    assert frozenset(phi) <= got
                    for s in got:
                        assert is_minimal_separator(g, s)
                    for s, t in itertools.combinations(sorted(got, key=canon), 2):
                        assert not crosses(g, s, t)
                    for s in all_seps - got:
                        assert any(crosses(g, s, t) for t in got)


def test_criterion_6_proper_tree_decompositions(
    tmp_path, capsys, small_corpus, random_corpus, cache
):
    with criterion(6, "proper tree decompositions"):
        named = {
            "p4": ("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n", 1),
            "c4": ("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n", 2),
            "k13": ("p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n", 3),
        }
        for name, (text, want) in named.items():
            path = tmp_path / f"{name}.col"
            path.write_text(text)
            code = main(["treedecomps", str(path), "--format", "dimacs"])
            out = capsys.readouterr().out
            assert code == 0
            count = sum(
                1
                for line in out.splitlines()
                if json.loads(line)["kind"] == "treedecomp"
            )
            assert count == want, f"{name}: got {count}"

        rng = random.Random(CORPUS_SEED + 6)
        sample = [g for g in small_corpus if g.n <= 4]
        sample += rng.sample([g for g in small_corpus if g.n == 5], 120)
        sample += rng.sample([g for g in random_corpus if g.n <= 7], 20)
        for g in sample:
            groups = defaultdict(int)
            for d in enum_proper_tds(g):
                assert is_tree_decomposition(g, d)
                assert is_proper(g, d)
                for b1, b2 in itertools.combinations(d.bags, 2):
                    assert not b1 <= b2 and not b2 <= b1
                groups[frozenset(d.bags)] += 1
            assert len(groups) == len(cache.enum_tris(g))


def test_criterion_7_structural_bounds(corpus, cache):
    with criterion(7, "Rose, Gavril, and Dirac bounds"):
        for g in corpus:
            for t in cache.enum_tris(g):
                h = t.chordal_graph
                assert len(t.family) < g.n
                assert len(extract_min_seps_chordal(h)) < h.n
                assert len(max_cliques_chordal(h)) <= h.n
            seps = cache.oracle_seps(g)
            every_sep_clique = all(
                g.has_edge(a, b)
                for s in seps
                for a, b in itertools.combinations(sorted(s), 2)
            )
            assert is_chordal(g) == every_sep_clique


def test_criterion_8_incremental_behavior():
    with criterion(8, "incremental behavior on large cycles"):
        series = {}
        for n in range(8, 13):
            stats = EnumStats()
            started = time.perf_counter()
            fills = set()
            count = 0
            for t in enum_min_triangulations(cycle_graph(n), stats=stats):
                fills.add(t.fill_edges)
                count += 1
            elapsed = time.perf_counter() - started
            series[n] = (count, stats.extender_calls, elapsed, stats.delays[0])
        count, calls, elapsed, first_delay = series[12]
        assert count == 16796
        assert len(fills) == 16796  # C12 fills, each exactly once
        assert elapsed < 60.0, f"C12 took {elapsed:.1f}s"
        assert first_delay < 0.1, f"first answer after {first_delay * 1000:.0f}ms"
        # polynomial trend: least-squares slope of log(extender calls)
        # against log(answers) across the cycle series
        xs = [math.log(series[n][0]) for n in range(8, 13)]
        ys = [math.log(series[n][1]) for n in range(8, 13)]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / sum((x - mean_x) ** 2 for x in xs)
        assert slope < 6.0, f"log-log slope {slope:.2f}"
        print(
            f"\n  C12: {count} answers in {elapsed:.1f}s, "
            f"first in {first_delay * 1000:.1f}ms, slope {slope:.2f}"
        )
