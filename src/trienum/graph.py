"""Immutable simple undirected graphs over dense integer vertex ids.

Adjacency is stored as one integer bitmask per vertex, which keeps the
set algebra used by the enumeration machinery cheap even in pure
Python. Public functions accept and return ``frozenset`` vertex sets;
the mask layer is package-internal.
The module ends at the chordal read-off (maximal cliques and minimal
separators); clique graphs and clique trees live in `treedecomp`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

VertexSet = frozenset[int]


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class NotChordalError(GraphError):
    """An operation requiring a chordal graph got a non-chordal one."""


class DisconnectedGraphError(GraphError):
    """An operation requiring a connected graph got a disconnected one."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def vertex_set(mask: int) -> VertexSet:
    return frozenset(bits(mask))


class Graph:
    """A simple undirected graph with vertex ids 0..n-1.

    Instances are immutable values: every operation that would modify a
    graph returns a new one instead. Self-loops and parallel edges are
    impossible by construction.
    """

    __slots__ = ("n", "edge_count", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not adj[u] >> v & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                count += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_count", count)
        object.__setattr__(self, "_adj", tuple(adj))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    @classmethod
    def _from_masks(cls, adj: Sequence[int]) -> Graph:
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "edge_count", sum(m.bit_count() for m in adj) // 2)
        object.__setattr__(g, "_adj", tuple(adj))
        return g

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            m = self._adj[u] >> (u + 1) << (u + 1)
            for v in bits(m):
                out.append((u, v))
        return out

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> Graph:
        return Graph(self.n, [*self.edges(), *pairs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def _check_subset(g: Graph, U: Iterable[int]) -> int:
    m = 0
    for v in U:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range for n={g.n}")
        m |= 1 << v
    return m


def _component(adj: Sequence[int], sub: int, seed: int) -> tuple[int, int]:
    """The component of the subgraph induced on ``sub`` that holds the
    vertices of the mask ``seed``, and its boundary N(comp).

    One walk yields both: expanding each frontier ORs its vertices'
    adjacency masks, and that union minus the component is the boundary.
    Every neighbor inside ``sub`` joins the component, so the boundary
    is disjoint from ``sub``.
    """
    comp = frontier = seed
    reach = 0
    while frontier:
        while frontier:
            b = frontier & -frontier
            reach |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = reach & sub & ~comp
        comp |= frontier
    return comp, reach & ~comp


def _components_masks(adj: Sequence[int], sub: int) -> list[tuple[int, int]]:
    """The (component, boundary) masks of every connected component of the
    subgraph induced on ``sub``, ordered by smallest member."""
    out = []
    remaining = sub
    while remaining:
        comp, nb = _component(adj, sub, remaining & -remaining)
        out.append((comp, nb))
        remaining &= ~comp
    return out


def induced_subgraph(g: Graph, U: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on U, plus the map from new ids back to old ones.

    The returned tuple ``orig`` satisfies ``orig[new_id] == old_id`` and
    is sorted ascending, so relative vertex order is preserved.
    """
    umask = _check_subset(g, U)
    orig = tuple(bits(umask))
    index = {o: i for i, o in enumerate(orig)}
    adj = [0] * len(orig)
    for i, o in enumerate(orig):
        for w in bits(g._adj[o] & umask):
            adj[i] |= 1 << index[w]
    return Graph._from_masks(adj), orig


def neighborhood(g: Graph, U: Iterable[int]) -> VertexSet:
    """Every vertex outside U adjacent to some member of U."""
    umask = _check_subset(g, U)
    nb = 0
    for v in bits(umask):
        nb |= g._adj[v]
    return vertex_set(nb & ~umask)


def connected_components(g: Graph) -> list[VertexSet]:
    """The vertex sets of g's connected components, by smallest member."""
    full = (1 << g.n) - 1
    return [vertex_set(comp) for comp, _ in _components_masks(g._adj, full)]


def is_connected(g: Graph) -> bool:
    """True iff g has at most one connected component."""
    full = (1 << g.n) - 1
    return _component(g._adj, full, full & 1)[0] == full


def _saturate(adj: list[int], smask: int) -> None:
    """Make the vertices of ``smask`` a clique, in place."""
    m = smask
    while m:
        b = m & -m
        adj[b.bit_length() - 1] |= smask ^ b
        m ^= b


def saturate(g: Graph, U: Iterable[int]) -> Graph:
    """A copy of g in which U is a clique. The input graph is unchanged."""
    adj = list(g._adj)
    _saturate(adj, _check_subset(g, U))
    return Graph._from_masks(adj)


def _is_clique(adj: Sequence[int], mask: int) -> bool:
    """True iff the vertices of ``mask`` are pairwise adjacent."""
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        # pairs with the vertices before b were checked from their side
        if rest & ~adj[b.bit_length() - 1]:
            return False
    return True


def _peel(adj: Sequence[int], n: int) -> tuple[list[int], int]:
    """Repeated simplicial elimination on adjacency masks.

    Returns the vertices removed, in the order they went, and the mask
    of the rest. A vertex goes when its remaining neighbors are a
    clique. A simplicial vertex stays simplicial as others go, so every
    peeling order removes the same set, and the graph is peeled empty
    exactly when it is chordal (Rose, Tarjan & Lueker 1976); the order
    is then a perfect elimination ordering. Vertices are tried lowest
    id first, and a removal queues only its neighbors again.
    """
    order: list[int] = []
    alive = (1 << n) - 1
    todo = alive
    while todo:
        b = todo & -todo
        todo ^= b
        v = b.bit_length() - 1
        nb = rest = adj[v] & alive
        # _is_clique(adj, nb) inline: most tests fail within a step or
        # two, so the call would cost more than the test
        while rest:
            c = rest & -rest
            rest ^= c
            if rest & ~adj[c.bit_length() - 1]:
                break
        else:
            alive ^= b
            order.append(v)
            # removing b can only make its neighbors simplicial
            todo |= nb
    return order, alive


def _peo_read_off(
    adj: Sequence[int], order: Sequence[int]
) -> tuple[list[int], set[int]]:
    """The maximal cliques and the minimal separators of a chordal graph,
    read off a perfect elimination ordering, as masks.

    ``order`` must be one: a complete ``_peel`` or ``_minfill_masks``
    made it. Walks the order backwards. Each vertex x has up(x), its
    neighbors later in the order, a clique, and its closed set
    C(x) = x | up(x). If up(x) = C(y) for some y, then y is x's first
    later neighbor and x continues the clique that C(y) grows into, so
    C(y) is not maximal and up(x) is no clique-tree edge. Every C(y)
    that no vertex continues is a maximal clique, and every other
    nonzero up(x) is a clique-tree edge. Only one vertex can continue a
    clique, so each further x' with up(x') = C(y) starts a clique joined
    to it along C(y), which is then a separator too (Blair & Peyton
    1993). In a disconnected graph each component is read on its own.
    """
    later = 0
    # C(y) of every vertex walked so far -> whether a vertex continues it
    closed: dict[int, bool] = {}
    seps: set[int] = set()
    for x in reversed(order):
        up = adj[x] & later
        taken = closed.get(up)
        if taken is None:
            if up:
                seps.add(up)
        elif taken:
            seps.add(up)
        else:
            closed[up] = True
        b = 1 << x
        closed[up | b] = False
        later |= b
    return [c for c, taken in closed.items() if not taken], seps


def _peeling_order(adj: Sequence[int], n: int) -> list[int]:
    """The peeling order, a perfect elimination ordering. Raises
    NotChordalError when the peel leaves vertices, that is, when the
    graph is not chordal."""
    order, left = _peel(adj, n)
    if left:
        raise NotChordalError("input graph is not chordal")
    return order


def _chordal_read_off(adj: Sequence[int], n: int) -> tuple[list[int], set[int]]:
    """The maximal cliques and the minimal separators, as masks, read off
    the peeling order. Raises NotChordalError on a graph that is not
    chordal."""
    return _peo_read_off(adj, _peeling_order(adj, n))


def is_chordal(g: Graph) -> bool:
    """Chordality test: repeated simplicial elimination empties exactly
    the chordal graphs."""
    return not _peel(g._adj, g.n)[1]


def _sorted_cliques(cliques: Iterable[int], n: int) -> list[int]:
    """Maximal cliques of a graph on n vertices in canonical order."""
    # by sorted vertex tuples: maximal cliques are never nested, so that
    # is by bit-reversed masks, descending
    width = f"0{n}b"
    return sorted(cliques, key=lambda m: format(m, width)[::-1], reverse=True)


def max_cliques_chordal(h: Graph) -> list[VertexSet]:
    """All maximal cliques of a chordal graph, canonically ordered."""
    cliques = _chordal_read_off(h._adj, h.n)[0]
    return [vertex_set(m) for m in _sorted_cliques(cliques, h.n)]
