"""Tree decompositions, properness, and their enumeration.

A tree decomposition is proper when no other tree decomposition
strictly subsumes it. That is decided here through the saturation
characterization: a decomposition is proper exactly when saturating its
bags gives a minimal triangulation whose maximal cliques are precisely
the bags. Proper decompositions are enumerated one minimal
triangulation at a time, as the maximum-weight spanning trees of the
triangulation's clique intersection graph.

Every clique-tree decision is made here: the bag order, the Kruskal
tie order and the weight levels. One union-find, ``_find``, serves the
level pass and the spanning-tree branching alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    VertexSet,
    _component,
    _max_clique_masks,
    is_connected,
    mask_of,
    max_cliques_chordal,
    vertex_set,
)
from .maxind import EnumStats, EventHook
from .triangulate import _saturated, enum_min_triangulations, is_minimal_triangulation


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree over bag ids plus the bag contents, for a host graph."""

    host: Graph
    bags: tuple[VertexSet, ...]
    edges: tuple[tuple[int, int], ...]

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class WeightedCliqueGraph:
    """Maximal cliques of a connected chordal graph, with an edge (i, j,
    weight) for each pair of cliques that share a vertex, in ascending
    (i, j) order; the weight is the size of their intersection.
    Disjoint pairs are left out: no maximum-weight spanning tree of a
    connected chordal graph's clique graph uses a weight-0 edge."""

    nodes: tuple[VertexSet, ...]
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class CliqueTree:
    """Tree over the maximal cliques of a chordal graph.

    ``edges`` holds (i, j, weight) triples where weight is the size of
    the intersection of bags i and j, in ascending (i, j) order.
    """

    bags: tuple[VertexSet, ...]
    edges: tuple[tuple[int, int, int], ...]


def _check_tree(d: TreeDecomposition) -> list[int]:
    """Validate the tree structure; return the bag-id adjacency masks."""
    k = len(d.bags)
    if k == 0:
        raise GraphError("tree decomposition has no bags")
    adj = [0] * k
    for a, b in d.edges:
        if not (0 <= a < k and 0 <= b < k):
            raise GraphError(f"tree edge ({a}, {b}) out of range for {k} bags")
        if a == b:
            raise GraphError(f"tree edge ({a}, {b}) is a self-loop")
        if adj[a] >> b & 1:
            raise GraphError(f"duplicate tree edge ({a}, {b})")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    if len(d.edges) != k - 1:
        raise GraphError("bag graph is not a tree")
    # k-1 edges without duplicates: connected iff acyclic
    if _component(adj, (1 << k) - 1, 1)[0] != (1 << k) - 1:
        raise GraphError("bag graph is not connected")
    return adj


def is_tree_decomposition(g: Graph, d: TreeDecomposition) -> bool:
    """Check vertex coverage, edge coverage, and the junction-tree
    property. Raises on a malformed bag tree."""
    adj = _check_tree(d)
    covered: set[int] = set()
    for b in d.bags:
        for v in b:
            g.check_vertex(v)
        covered |= b
    if covered != set(range(g.n)):
        return False
    for u, v in g.edges():
        if not any(u in b and v in b for b in d.bags):
            return False
    for v in range(g.n):
        holders = mask_of(i for i, b in enumerate(d.bags) if v in b)
        if _component(adj, holders, holders & -holders)[0] != holders:
            return False
    return True


def saturate_td(g: Graph, d: TreeDecomposition) -> Graph:
    """Saturate every bag of d in g; the result is a triangulation of g."""
    if not is_tree_decomposition(g, d):
        raise GraphError("not a tree decomposition of the given graph")
    return Graph._from_masks(_saturated(g, map(mask_of, d.bags)))


def subsumes(d1: TreeDecomposition, d2: TreeDecomposition) -> bool:
    """True iff every bag of d1 is contained in some bag of d2."""
    if d1.host != d2.host:
        raise GraphError("tree decompositions have different host graphs")
    return all(any(b1 <= b2 for b2 in d2.bags) for b1 in d1.bags)


def is_proper(g: Graph, d: TreeDecomposition) -> bool:
    """True iff no tree decomposition strictly subsumes d.

    Decided via saturation: d is proper exactly when saturating its bags
    yields a minimal triangulation of g whose maximal cliques are the
    bags of d.
    """
    h = saturate_td(g, d)
    if not is_minimal_triangulation(g, h):
        return False
    return set(d.bags) == set(max_cliques_chordal(h))


def clique_graph(h: Graph) -> WeightedCliqueGraph:
    """The weighted clique intersection graph of a connected chordal graph."""
    if not is_connected(h):
        raise DisconnectedGraphError("clique_graph requires a connected graph")
    masks = _max_clique_masks(h)
    k = len(masks)
    edges = [
        (i, j, w)
        for i, m in enumerate(masks)
        for j in range(i + 1, k)
        if (w := (m & masks[j]).bit_count())
    ]
    return WeightedCliqueGraph(tuple(vertex_set(m) for m in masks), tuple(edges))


def clique_tree(h: Graph) -> CliqueTree:
    """A maximum-weight spanning tree of the clique intersection graph.

    Edge weights are intersection sizes; for a connected chordal graph
    the result is a tree decomposition of h (junction tree). It is the
    first tree `enum_max_spanning_trees` emits: the Kruskal tree.
    """
    wg = clique_graph(h)
    bags = wg.nodes
    tree = next(enum_max_spanning_trees(wg))
    return CliqueTree(bags, tuple((i, j, len(bags[i] & bags[j])) for i, j in tree))


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest ``parent``. There is no
    path compression, so a union is undone by making the root it hung
    below the other one a root again."""
    while parent[x] != x:
        x = parent[x]
    return x


LevelGroup = tuple[int, list[tuple[int, int, int, int]]]


def _level_groups(k: int, edges: Iterable[tuple[int, int, int]]) -> list[LevelGroup]:
    """Kruskal over nodes 0..k-1, one weight level at a time.

    Edges are tried heaviest first, ties broken by (i, j). Returns the
    groups that every maximum-weight spanning tree is assembled from.
    For each weight w, every maximum-weight spanning tree joins the
    components of the edges heavier than w alike: among the edges of
    weight w it takes a spanning tree of the multigraph they form on
    those components. There is one group per component of that
    multigraph: its node count r and its edges as (i, j, a, b), where
    a, b in 0..r-1 number the components that edge (i, j) joins. Edges
    inside one component are in no group. The pass stops after the
    level that leaves one component.
    """
    # the sort is stable, also in reverse
    ordered = sorted(sorted(edges), key=itemgetter(2), reverse=True)
    parent = list(range(k))
    joins = 0
    groups: list[LevelGroup] = []
    for _w, level in groupby(ordered, key=itemgetter(2)):
        if joins == k - 1:
            break
        cross = []
        for i, j, _ in level:
            ri, rj = _find(parent, i), _find(parent, j)
            if ri != rj:
                cross.append((i, j, ri, rj))
        for _i, _j, ri, rj in cross:
            a, b = _find(parent, ri), _find(parent, rj)
            if a != b:
                parent[b] = a
                joins += 1
        # per new component: an id for each old one, and the edges
        by_root: dict[int, tuple[dict[int, int], list]] = {}
        for i, j, ri, rj in cross:
            ids, group = by_root.setdefault(_find(parent, ri), ({}, []))
            a = ids.setdefault(ri, len(ids))
            group.append((i, j, a, ids.setdefault(rj, len(ids))))
        groups += [(len(ids), group) for ids, group in by_root.values()]
    if joins < k - 1:
        raise DisconnectedGraphError("weighted graph is not connected")
    return groups


def _spanning_trees(
    r: int, edges: list[tuple[int, int, int, int]]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Stream the spanning trees of a connected multigraph on nodes
    0..r-1, given as (i, j, a, b): an edge labelled (i, j) between nodes
    a and b. Each tree is yielded as its edges' labels, in edge order.

    Include/exclude branching over the edges in order (Read & Tarjan
    1975). An edge is taken whenever it joins two components of the
    edges taken so far, and the branch that leaves it out is entered
    only if the edges not left out still connect its ends. So every
    branch ends in a tree, the delay is polynomial, and the first tree
    is the greedy one. The branching keeps its own stack, so its depth
    is not limited by the interpreter's recursion limit.
    """
    full = (1 << r) - 1
    count: dict[int, int] = {}  # multiplicity of each pair, left-out edges not counted
    adj = [0] * r  # adjacency masks of the edges not left out

    def shift(a: int, b: int, step: int) -> None:
        key = 1 << a | 1 << b
        count[key] = count.get(key, 0) + step
        if count[key]:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        else:
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)

    for _i, _j, a, b in edges:
        shift(a, b, 1)
    parent = list(range(r))  # union-find forest of the taken edges
    taken: list[tuple[int, int]] = []
    # per decision: (p, the root that edge p hung below the other) when
    # edge p was taken, or (p, -1) when it was left out
    stack: list[tuple[int, int]] = []
    p = 0
    while True:
        while len(taken) < r - 1:
            i, j, a, b = edges[p]
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[rb] = ra
                stack.append((p, rb))
                taken.append((i, j))
            p += 1
        yield tuple(taken)
        while True:
            if not stack:
                return
            p, root = stack.pop()
            _i, _j, a, b = edges[p]
            if root < 0:
                shift(a, b, 1)
                continue
            parent[root] = root
            taken.pop()
            shift(a, b, -1)
            if _component(adj, full, 1 << a)[0] >> b & 1:
                stack.append((p, -1))
                p += 1
                break
            shift(a, b, 1)


def enum_max_spanning_trees(
    wg: WeightedCliqueGraph,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Stream every maximum-weight spanning tree exactly once.

    The maximum-weight spanning trees are a product over the weight
    levels: at each weight, every such tree joins the components of the
    heavier edges alike, by a spanning tree of the multigraph that the
    level's edges form on them. One Kruskal pass (`_level_groups`)
    finds these level groups; a group with a single spanning tree is
    fixed, and the others are enumerated lazily by `_spanning_trees`
    and combined like an odometer, the last group changing fastest. The
    delay is polynomial and no past tree is remembered. The first tree
    is the Kruskal tree; trees are emitted as canonically sorted edge
    tuples. Every edge (i, j, weight) must have 0 <= i < j < k for the k
    nodes, and no pair may repeat.
    """
    k = len(wg.nodes)
    if k == 0:
        raise GraphError("clique graph has no nodes")
    if len({i * k + j for i, j, _w in wg.edges if 0 <= i < j < k}) != len(wg.edges):
        raise GraphError(f"clique graph edges must be distinct pairs i < j < {k}")
    fixed: list[tuple[int, int]] = []
    factors = []
    for r, group in _level_groups(k, wg.edges):
        if len(group) == r - 1:
            fixed += [(i, j) for i, j, _a, _b in group]
        else:
            factors.append((r, group))
    streams = [_spanning_trees(r, group) for r, group in factors]
    current = [next(s) for s in streams]
    while True:
        yield tuple(sorted(fixed + [e for tree in current for e in tree]))
        f = len(factors) - 1
        while f >= 0:
            tree = next(streams[f], None)
            if tree is not None:
                current[f] = tree
                break
            streams[f] = _spanning_trees(*factors[f])
            current[f] = next(streams[f])
            f -= 1
        if f < 0:
            return


def enum_proper_tds(
    g: Graph,
    extender: str = "blackbox",
    stats: EnumStats | None = None,
    hook: EventHook | None = None,
) -> Iterator[TreeDecomposition]:
    """Stream every proper tree decomposition of a connected graph once.

    For each minimal triangulation, one decomposition is emitted per
    maximum-weight spanning tree of its clique intersection graph;
    decompositions sharing a triangulation differ only in tree shape,
    not in bags. They come as one consecutive group per triangulation,
    in the order of `enum_min_triangulations`. Each group starts with
    the Kruskal tree of `clique_tree`, and the rest follow in the fixed
    order of `enum_max_spanning_trees`.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("enum_proper_tds requires a connected graph")
    for tri in enum_min_triangulations(g, extender=extender, stats=stats, hook=hook):
        wg = clique_graph(tri.chordal_graph)
        for edges in enum_max_spanning_trees(wg):
            yield TreeDecomposition(host=g, bags=wg.nodes, edges=edges)
