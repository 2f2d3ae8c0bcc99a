"""Brute-force reference implementations for desk-scale validation,
and an adapter that runs the independent-set engine on explicit graphs.

Everything here works straight from the definitions and is deliberately
independent of the enumeration code paths; only the Graph and
ImplicitGraph types are shared. Hard size guards raise instead of running forever.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from trienum.graph import Graph, VertexSet, bits, mask_of
from trienum.maxind import ImplicitGraph, NodeSet

MAX_VERTICES = 10
MAX_NON_EDGES = 21
MAX_MIS_VERTICES = 20


class OracleSizeError(ValueError):
    """Input exceeds the size guard of a brute-force oracle."""


def _guard_n(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise OracleSizeError(f"oracle limited to {limit} vertices, got {g.n}")


def _component_of(adj: Sequence[int], start: int, sub: int) -> int:
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        nxt &= sub & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def _cycle_order(adj: Sequence[int], verts: tuple[int, ...]) -> list[int]:
    # walk a graph known to be a single cycle, starting at the smallest
    # vertex, toward its smaller neighbor
    vset = mask_of(verts)
    start = verts[0]
    order = [start]
    prev = -1
    cur = start
    for _ in range(len(verts) - 1):
        nbrs = [w for w in bits(adj[cur] & vset) if w != prev]
        nxt = min(nbrs)
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def _find_chordless_cycle(adj: Sequence[int], n: int) -> list[int] | None:
    """A shortest chordless cycle of length >= 4, or None.

    Checks every vertex subset in increasing size: a subset induces a
    chordless cycle exactly when every member has induced degree 2 and
    the induced subgraph is connected.
    """
    for size in range(4, n + 1):
        for verts in itertools.combinations(range(n), size):
            vset = mask_of(verts)
            if any((adj[v] & vset).bit_count() != 2 for v in verts):
                continue
            if _component_of(adj, verts[0], vset) != vset:
                continue
            return _cycle_order(adj, verts)
    return None


def brute_is_chordal(g: Graph) -> bool:
    """True iff g has no chordless cycle of length greater than three."""
    _guard_n(g, MAX_VERTICES)
    return _find_chordless_cycle(g._adj, g.n) is None


def _separates(adj: Sequence[int], u: int, v: int, smask: int, full: int) -> bool:
    sub = full & ~smask
    return not _component_of(adj, u, sub) >> v & 1


def brute_min_seps(g: Graph) -> set[VertexSet]:
    """All minimal separators, by subset search over every vertex pair."""
    _guard_n(g, MAX_VERTICES)
    adj = g._adj
    full = (1 << g.n) - 1
    found: set[VertexSet] = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if adj[u] >> v & 1:
                continue
            rest = [w for w in range(g.n) if w != u and w != v]
            for size in range(len(rest) + 1):
                for sel in itertools.combinations(rest, size):
                    smask = mask_of(sel)
                    if not _separates(adj, u, v, smask, full):
                        continue
                    # supersets of separators still separate, so a strict
                    # subset works iff some single-vertex removal does
                    if any(
                        _separates(adj, u, v, smask & ~(1 << x), full)
                        for x in sel
                    ):
                        continue
                    found.add(frozenset(sel))
    return found


def brute_min_triangulations(g: Graph) -> set[frozenset[tuple[int, int]]]:
    """Fill-edge sets of all minimal triangulations of g.

    Explores chordal supergraphs by branching on the possible chords of
    a chordless cycle, then keeps the fills that are minimal under set
    inclusion. Every minimal triangulation must contain a chord of every
    chordless cycle, so the search is exhaustive.
    """
    non_edges = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g._adj[u] >> v & 1:
                non_edges.append((u, v))
    if len(non_edges) > MAX_NON_EDGES:
        raise OracleSizeError(
            f"oracle limited to {MAX_NON_EDGES} non-edges, got {len(non_edges)}"
        )
    bit_for = {pair: 1 << i for i, pair in enumerate(non_edges)}
    seen: set[int] = set()
    leaves: list[int] = []

    def search(adj: list[int], fill: int) -> None:
        if fill in seen:
            return
        seen.add(fill)
        cycle = _find_chordless_cycle(adj, g.n)
        if cycle is None:
            leaves.append(fill)
            return
        k = len(cycle)
        chords = sorted(
            (min(cycle[i], cycle[j]), max(cycle[i], cycle[j]))
            for i in range(k)
            for j in range(i + 2, k)
            if not (i == 0 and j == k - 1)
        )
        for a, b in chords:
            nxt = list(adj)
            nxt[a] |= 1 << b
            nxt[b] |= 1 << a
            search(nxt, fill | bit_for[(a, b)])

    search(list(g._adj), 0)
    minimal: list[int] = []
    for fill in sorted(set(leaves), key=lambda f: (f.bit_count(), f)):
        if not any(kept & fill == kept for kept in minimal):
            minimal.append(fill)
    return {
        frozenset(pair for pair in non_edges if fill & bit_for[pair])
        for fill in minimal
    }


def brute_max_independent_sets(g: Graph) -> set[VertexSet]:
    """All maximal independent sets, by scanning every vertex subset."""
    _guard_n(g, MAX_MIS_VERTICES)
    adj = g._adj
    out: set[VertexSet] = set()
    for m in range(1 << g.n):
        ok = True
        for v in range(g.n):
            if m >> v & 1:
                if adj[v] & m:
                    ok = False  # not independent
                    break
            elif not adj[v] & m:
                ok = False  # extendable by v, not maximal
                break
        if ok:
            out.add(frozenset(bits(m)))
    return out


def rescan_minfill_masks(adj: list[int], n: int) -> list[tuple[int, int]]:
    """Min-fill elimination on adjacency masks, in place, recounting
    every live vertex's fill at every step: the reference for
    ``trienum.triangulate._minfill_masks``.

    Mutates ``adj`` into a chordal supergraph and returns the added
    edges, sorted. Ties on fill count break toward the smallest id.
    """
    alive = (1 << n) - 1
    added: list[tuple[int, int]] = []
    for _ in range(n):
        best = -1
        best_fill = -1
        m = alive
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            nb = adj[v] & alive
            fill = 0
            mm = nb
            while mm:
                bb = mm & -mm
                mm ^= bb
                fill += (nb & ~adj[bb.bit_length() - 1] & ~bb).bit_count()
            if best_fill < 0 or fill < best_fill:
                best, best_fill = v, fill
                if fill == 0:
                    break  # scanning ascending, so this is the smallest id
        nb = adj[best] & alive
        mm = nb
        while mm:
            bb = mm & -mm
            u = bb.bit_length() - 1
            mm ^= bb
            missing = nb & ~adj[u] & ~bb
            if missing:
                # each pair is seen from both endpoints, which keeps the
                # masks symmetric; record it from the smaller one
                adj[u] |= missing
                m2 = missing >> (u + 1) << (u + 1)
                while m2:
                    b2 = m2 & -m2
                    m2 ^= b2
                    added.append((u, b2.bit_length() - 1))
        alive ^= 1 << best
    added.sort()
    return added


def brute_max_cliques(g: Graph) -> set[VertexSet]:
    """All maximal cliques, by scanning every vertex subset."""
    _guard_n(g, MAX_MIS_VERTICES)
    adj = g._adj
    out: set[VertexSet] = set()
    for m in range(1, 1 << g.n):
        ok = True
        for v in range(g.n):
            if m >> v & 1:
                if m & ~adj[v] != 1 << v:
                    ok = False  # not a clique
                    break
            elif not m & ~adj[v]:
                ok = False  # extendable by v, not maximal
                break
        if ok:
            out.add(frozenset(bits(m)))
    return out


def kruskal_tree(
    k: int, edges: Sequence[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """The maximum-weight spanning tree of nodes 0..k-1 that Kruskal's
    algorithm takes when it tries edges heaviest first and ties in
    (i, j) order, as its sorted (i, j) pairs. Components are tracked as
    one label per node, relabelled on every join."""
    label = list(range(k))
    tree = []
    for i, j, _w in sorted(edges, key=lambda e: (-e[2], e[0], e[1])):
        if label[i] != label[j]:
            old = label[j]
            label = [label[i] if x == old else x for x in label]
            tree.append((i, j))
    return sorted(tree)


def _is_clique(adj: Sequence[int], mask: int) -> bool:
    """Whether the vertices of ``mask`` are pairwise adjacent."""
    return all(not mask & ~adj[a] & ~(1 << a) for a in bits(mask))


def mcs_cliques_seps(adj: Sequence[int], n: int) -> tuple[list[int], set[int]] | None:
    """Maximum-cardinality search on a graph given by adjacency masks,
    in one pass that also tests chordality and reads off the cliques:
    the reference for ``trienum.graph._chordal_read_off``.

    Returns None when the graph is not chordal. Otherwise returns its
    maximal cliques and its minimal separators, as masks. The graph is
    chordal exactly when each vertex's already-visited neighbors form a
    clique (the reversed visit order is then a perfect elimination
    ordering), and that is checked for every vertex as it is visited.
    A new clique starts at each vertex whose count of already-visited
    neighbors fails to grow; there the check runs in full, and in a
    connected chordal graph those neighbors are exactly the minimal
    separators (Blair & Peyton 1993), so no clique tree is needed to
    find them. Where the count grows, a chordal graph has the current
    clique as the vertex's visited neighbors, so the check there is a
    comparison.
    """
    cliques: list[int] = []
    seps: set[int] = set()
    # buckets[w]: the unvisited vertices with w visited neighbors; the
    # next vertex is the lowest one in the top nonempty bucket
    buckets = [(1 << n) - 1] + [0] * n
    top = 0
    prev = -1
    visited = current = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        b = buckets[top] & -buckets[top]
        buckets[top] ^= b
        v = b.bit_length() - 1
        s = adj[v] & visited  # |s| == top
        if top <= prev:
            if not _is_clique(adj, s):
                return None
            cliques.append(current)
            current = s
            if s:
                seps.add(s)
        elif s != current:
            return None
        current |= b
        prev = top
        visited |= b
        m = adj[v] & ~visited
        if m:
            for w in range(top, -1, -1):
                moved = buckets[w] & m
                if moved:
                    buckets[w] ^= moved
                    buckets[w + 1] |= moved
                    m ^= moved
                    if not m:
                        break
            top += 1
    if n:
        cliques.append(current)
    return cliques, seps


def explicit_graph_instance(g: Graph) -> ImplicitGraph:
    """Wrap a materialized Graph as an implicit instance.

    Nodes are the vertex ids in order; the extender greedily adds the
    smallest addable vertex until no vertex can be added.
    """

    def extend(indep: NodeSet) -> NodeSet:
        current = set(indep)
        for v in range(g.n):
            if v in current:
                continue
            if all(not g.has_edge(v, u) for u in current):
                current.add(v)
        return frozenset(current)

    return ImplicitGraph(
        node_stream=lambda: iter(range(g.n)),
        adjacent=g.has_edge,
        extend_to_max_ind=extend,
    )
