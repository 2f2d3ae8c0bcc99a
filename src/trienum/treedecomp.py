"""Tree decompositions, properness, and their enumeration.

A tree decomposition is proper when no other tree decomposition
strictly subsumes it. That is decided here through the saturation
characterization: a decomposition is proper exactly when saturating its
bags gives a minimal triangulation whose maximal cliques are precisely
the bags. Proper decompositions are enumerated one minimal
triangulation at a time, as the maximum-weight spanning trees of the
triangulation's clique intersection graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    VertexSet,
    _component,
    _max_spanning_tree,
    is_connected,
    mask_of,
    max_cliques_chordal,
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
    """Maximal cliques of a chordal graph with all pairwise intersection
    sizes as edge weights (weight-0 pairs included, so spanning trees
    always exist)."""

    nodes: tuple[VertexSet, ...]
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
    if _component(adj, (1 << k) - 1, 1) != (1 << k) - 1:
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
        if _component(adj, holders, holders & -holders) != holders:
            return False
    return True


def saturate_td(g: Graph, d: TreeDecomposition) -> Graph:
    """Saturate every bag of d in g; the result is a triangulation of g."""
    if not is_tree_decomposition(g, d):
        raise GraphError("not a tree decomposition of the given graph")
    return Graph._from_masks(_saturated(g, d.bags))


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
    bags = max_cliques_chordal(h)
    k = len(bags)
    edges = tuple(
        (i, j, len(bags[i] & bags[j]))
        for i in range(k)
        for j in range(i + 1, k)
    )
    return WeightedCliqueGraph(nodes=tuple(bags), edges=edges)


def _tree_path(
    tree_adj: dict[int, list[int]], a: int, b: int
) -> list[tuple[int, int]]:
    prev = {a: a}
    frontier = deque([a])
    while frontier:
        x = frontier.popleft()
        if x == b:
            break
        for y in tree_adj.get(x, ()):
            if y not in prev:
                prev[y] = x
                frontier.append(y)
    path = []
    x = b
    while x != a:
        p = prev[x]
        path.append((min(p, x), max(p, x)))
        x = p
    return path


def enum_max_spanning_trees(
    wg: WeightedCliqueGraph,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Stream every maximum-weight spanning tree exactly once.

    One maximum tree is built greedily; the rest are reached by
    breadth-first exploration of equal-weight edge exchanges (swap a
    tree edge for a non-tree edge of the same weight across the cycle it
    closes). Trees are emitted as canonically sorted edge tuples.
    """
    k = len(wg.nodes)
    if k == 0:
        raise GraphError("clique graph has no nodes")
    if k == 1:
        yield ()
        return
    weight = {(i, j): w for i, j, w in wg.edges}
    first = frozenset((i, j) for i, j, _w in _max_spanning_tree(k, wg.edges))
    seen = {first}
    queue: deque[frozenset[tuple[int, int]]] = deque([first])
    while queue:
        tree = queue.popleft()
        yield tuple(sorted(tree))
        tree_adj: dict[int, list[int]] = {}
        for a, b in tree:
            tree_adj.setdefault(a, []).append(b)
            tree_adj.setdefault(b, []).append(a)
        for i, j, w in wg.edges:
            if (i, j) in tree:
                continue
            for f in _tree_path(tree_adj, i, j):
                if weight[f] == w:
                    swapped = tree - {f} | {(i, j)}
                    if swapped not in seen:
                        seen.add(swapped)
                        queue.append(swapped)


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
    not in bags.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("enum_proper_tds requires a connected graph")
    for tri in enum_min_triangulations(g, extender=extender, stats=stats, hook=hook):
        wg = clique_graph(tri.chordal_graph)
        for edges in enum_max_spanning_trees(wg):
            yield TreeDecomposition(host=g, bags=wg.nodes, edges=edges)
