"""Minimal vertex separators: predicates, the crossing relation, and a
lazy enumerator whose work before the k-th separator is at most k - 1
expansions.

A separator is represented as a plain ``frozenset`` of vertex ids. Its
canonical encoding, the ascending tuple of members, fixes the order in
which a family is split along. Deduplication is by value: the stream
keys its seen set by mask. ``separator_graph_instance`` gives each
separator one frozenset object, with its mask, so the engine indexes
every separator it meets, from the stream or from an extender, as
that one object.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    VertexSet,
    _check_subset,
    _chordal_read_off,
    _component,
    _components_masks,
    _is_clique,
    bits,
    is_connected,
    mask_of,
    vertex_set,
)

Separator = VertexSet


def canon(s: Iterable[int]) -> tuple[int, ...]:
    """Canonical encoding of a vertex set: its sorted member tuple."""
    return tuple(sorted(s))


def is_separator(g: Graph, S: Iterable[int], u: int, v: int) -> bool:
    """True iff u and v land in distinct components of g minus S."""
    g.check_vertex(u)
    g.check_vertex(v)
    smask = _check_subset(g, S)
    if u == v:
        raise GraphError("u and v must be distinct")
    if smask >> u & 1 or smask >> v & 1:
        raise GraphError("u and v must not belong to S")
    return not _component(g._adj, (1 << g.n) - 1 & ~smask, 1 << u)[0] >> v & 1


def is_minimal_separator(g: Graph, S: Iterable[int]) -> bool:
    """Full-component criterion: S is a minimal separator exactly when at
    least two components of g minus S have S as their whole neighborhood."""
    smask = _check_subset(g, S)
    return _is_minimal(_components_masks(g._adj, (1 << g.n) - 1 & ~smask), smask)


def _is_minimal(parts: list[tuple[int, int]], smask: int) -> bool:
    """True iff S is nonempty and at least two of the components of g
    minus S, given with their boundaries, are full: their boundary is S."""
    return bool(smask) and sum(nb == smask for _comp, nb in parts) >= 2


def _sides(adj: list[int], n: int, smask: int) -> list[int]:
    """The component masks of g minus S: a separator T crosses S exactly
    when it meets two of them (`_meets_two`)."""
    return [comp for comp, _nb in _components_masks(adj, (1 << n) - 1 & ~smask)]


def _meets_two(sides: list[int], tmask: int) -> bool:
    """True iff T meets two of the sides of S; its members in S lie in
    no side, so they cannot witness a crossing."""
    hit = False
    for comp in sides:
        if comp & tmask:
            if hit:
                return True
            hit = True
    return False


def crosses(g: Graph, S: Iterable[int], T: Iterable[int]) -> bool:
    """True iff S separates two vertices of T.

    Vertices of T that lie in S belong to no component of g minus S and
    cannot witness a crossing. The relation is symmetric on minimal
    separators. One sweep of g minus S gives both its components, the
    sides, and their boundaries, which check that S is minimal; T's
    check is a second sweep.
    """
    smask = _check_subset(g, S)
    tmask = _check_subset(g, T)
    full = (1 << g.n) - 1
    parts = _components_masks(g._adj, full & ~smask)
    if not _is_minimal(parts, smask) or not _is_minimal(
        _components_masks(g._adj, full & ~tmask), tmask
    ):
        raise GraphError("crosses requires minimal separators")
    return _meets_two([comp for comp, _nb in parts], tmask)


def enum_min_seps(g: Graph) -> Iterator[Separator]:
    """Stream every minimal separator of a connected graph exactly once.

    Seeds with the component neighborhoods of g minus each closed vertex
    neighborhood, then closes under expansion (Berry, Bordat & Cogis
    2000): for a found S and each x in S, add the component
    neighborhoods of g minus (S union N(x)). One walk of each component
    yields both the component and its neighborhood. Separators are
    yielded in the order they are found, seeds in vertex-id order, and
    expanded in that same order, so the output order is deterministic.

    Expansion is on demand. The found separators are one list, read in
    order, and a cursor into it marks the next one to expand, which is
    expanded only when every separator found so far has been read.
    Before the k-th separator the stream has made at most k - 1
    expansions, the work an expand-on-yield loop makes, and a full run
    makes the same expansions. The delay is incremental, not polynomial
    per answer: one gap can hold several expansions, up to the number of
    separators read but not yet expanded.
    """
    if g.n < 1:
        raise GraphError("enum_min_seps requires at least one vertex")
    if not is_connected(g):
        raise DisconnectedGraphError("enum_min_seps requires a connected graph")
    adj = g._adj
    full = (1 << g.n) - 1
    seen: set[int] = set()
    found: list[int] = []  # in the order found, read and expanded

    def push_from(removed: int) -> None:
        # the components of g minus removed, smallest member first
        sub = remaining = full & ~removed
        while remaining:
            comp, nb = _component(adj, sub, remaining & -remaining)
            remaining &= ~comp
            if nb and nb not in seen:
                seen.add(nb)
                found.append(nb)

    for v in range(g.n):
        push_from(adj[v] | 1 << v)
    expanded = 0
    for read, smask in enumerate(found, 1):
        yield vertex_set(smask)
        while read == len(found) and expanded < read:
            tmask = found[expanded]
            expanded += 1
            for x in bits(tmask):
                push_from(tmask | adj[x])


def find_min_sep(c: Graph, u: int, v: int) -> Separator:
    """A minimal (u, v)-separator contained in the neighborhood of u."""
    c.check_vertex(u)
    c.check_vertex(v)
    if u == v:
        raise GraphError("u and v must be distinct")
    if c._adj[u] >> v & 1:
        raise GraphError(f"vertices {u} and {v} are adjacent")
    return vertex_set(_component(c._adj, (1 << c.n) - 1 & ~c._adj[u], 1 << v)[1])


def extract_min_seps_chordal(h: Graph) -> set[Separator]:
    """MinSep of a connected chordal graph, read off the order in which
    repeated simplicial elimination empties it: walked backwards, the
    later neighbors of each vertex that starts a new maximal clique
    (Blair & Peyton 1993)."""
    if not is_connected(h):
        raise DisconnectedGraphError("extract_min_seps_chordal requires a connected graph")
    return {vertex_set(m) for m in _chordal_read_off(h._adj, h.n)[1]}


def clq_min_seps(g: Graph) -> set[Separator]:
    """Minimal separators of g that are cliques of g."""
    if not is_connected(g):
        raise DisconnectedGraphError("clq_min_seps requires a connected graph")
    return {s for s in enum_min_seps(g) if _is_clique(g._adj, mask_of(s))}
