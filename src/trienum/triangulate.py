"""From separator families to minimal triangulations.

Contains saturation of pairwise-parallel separator families, a
deterministic min-fill triangulation heuristic, reduction of a
triangulation to a minimal one, the two family-extension procedures
(triangulation-backed and decomposition-backed), and the top-level
enumerator of all minimal triangulations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence, TypeAlias

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    _Table,
    _check_subset,
    _component,
    _components_masks,
    _is_clique,
    _peel,
    _peeling_order,
    _peo_read_off,
    _saturate,
    bits,
    induced_subgraph,
    is_chordal,
    is_connected,
    mask_of,
    vertex_set,
)
from .maxind import EnumStats, EventHook, ImplicitGraph, enum_max_independent
from .separators import (
    Separator,
    canon,
    crosses,
    enum_min_seps,
    is_minimal_separator,
)

ParallelFamily = frozenset[Separator]
# an extender run's minimal triangulation H, packed as ``_packed`` packs
# rows, since many runs' payloads wait at once, and the perfect
# elimination ordering of H that the run read MinSep off, if it did;
# quoted, so that no typing union is built at import
Payload: TypeAlias = "tuple[int, list[int] | None]"
# what min-fill's second phase made of each core, keyed by the core's
# mask and its rows ANDed with it, packed into one int: the fill edges,
# sorted, and the order the core's vertices went in
Cores: TypeAlias = "dict[int, tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]"
# an extender of one graph: a family's masks, and the FIFO that gets the
# run's payload or None, to the masks of a maximal family that holds it
Extend: TypeAlias = "Callable[[Iterable[int], deque[Payload] | None], set[int]]"


@dataclass(frozen=True, init=False, repr=False)
class Triangulation:
    """A chordal supergraph ``chordal_graph`` of ``base``.

    ``family`` is the maximal set of pairwise-parallel minimal
    separators whose saturation produced the triangulation. The
    triangulation is kept packed, as ``_packed`` writes it, and
    ``chordal_graph`` and ``fill_edges`` are built from it on first read
    and then kept. Equality and hashing use the base, the family and
    the packed triangulation.
    """

    base: Graph
    family: ParallelFamily
    _h: int
    _nonedges: int = field(compare=False)  # ``_nonedges(base._adj)``

    def __init__(self, base: Graph, chordal_graph: Graph, family: ParallelFamily) -> None:
        if chordal_graph.n != base.n:
            raise GraphError("a triangulation has the vertices of its base")
        vars(self).update(
            base=base,
            family=family,
            _h=_packed(chordal_graph._adj),
            _nonedges=_nonedges(base._adj),
            chordal_graph=chordal_graph,
        )

    @classmethod
    def _of(cls, base: Graph, h: int, family: ParallelFamily, nonedges: int) -> Triangulation:
        """The triangulation packed as ``h``, over a base whose
        ``_nonedges`` are ``nonedges``."""
        t = object.__new__(cls)
        vars(t).update(base=base, family=family, _h=h, _nonedges=nonedges)
        return t

    @cached_property
    def chordal_graph(self) -> Graph:
        return Graph._from_masks(_unpacked(self._h, self.base.n))

    @property
    def _fill(self) -> int:
        """The fill edges, packed: bit u*n + w for each fill edge (u, w)
        with u < w."""
        return self._h & self._nonedges

    @cached_property
    def fill_edges(self) -> frozenset[tuple[int, int]]:
        """The edges of ``chordal_graph`` missing from ``base``, each once
        as (u, w) with u < w; computed on first read."""
        return frozenset(_pairs(self._fill, self.base.n))

    def __repr__(self) -> str:
        return (
            f"Triangulation(base={self.base!r}, chordal_graph={self.chordal_graph!r}, "
            f"family={self.family!r})"
        )


def _check_family(g: Graph, phi: Iterable[Iterable[int]]) -> list[int]:
    """The masks of a family of pairwise-parallel minimal separators of
    a connected g, in canonical order: the one check of every public
    entry point that takes such a family.

    Raises DisconnectedGraphError when g is not connected, and
    GraphError when a member has a vertex out of range, is not a minimal
    separator, or crosses another member.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("a separator family needs a connected host graph")
    fam = sorted({frozenset(s) for s in phi}, key=canon)
    masks = []
    for s in fam:
        masks.append(_check_subset(g, s))
        if not is_minimal_separator(g, s):
            raise GraphError(f"{sorted(s)} is not a minimal separator of the host")
    for s, t in combinations(fam, 2):
        if crosses(g, s, t):
            raise GraphError(
                f"separators {sorted(s)} and {sorted(t)} cross; family is not valid"
            )
    return masks


def _packed(adj: list[int]) -> int:
    """The adjacency masks of a graph on n vertices as one int: row v at
    bits v*n to v*n + n - 1. ``_unpacked`` reads them back."""
    n = len(adj)
    h = shift = 0
    for m in adj:
        h |= m << shift
        shift += n
    return h


def _unpacked(h: int, n: int) -> list[int]:
    full = (1 << n) - 1
    return [h >> shift & full for shift in range(0, n * n, n)]


def _nonedges(adj: Sequence[int]) -> int:
    """The non-edges (u, w), u < w, of the graph on ``adj``, packed as
    ``_packed`` packs rows: bit u*n + w. The fill of a supergraph H is
    ``_packed(H) & _nonedges(G)``; its bit positions ascend with the
    pairs, and ``_pairs`` reads them."""
    full = (1 << len(adj)) - 1
    return _packed([(full ^ m) >> (u + 1) << (u + 1) for u, m in enumerate(adj)])


def _pairs(packed: int, n: int) -> list[tuple[int, int]]:
    """The pairs (u, w) at the set bits u*n + w of a packed mask, in
    ascending order."""
    return [divmod(p, n) for p in bits(packed)]


def _clique(m: int, n: int) -> int:
    """The clique on the vertices of m in a graph on n vertices, packed
    as ``_packed`` packs rows: row v holds ``m ^ 1 << v`` for v in m."""
    h = 0
    rest = m
    while rest:
        b = rest & -rest
        h |= (m ^ b) << (b.bit_length() - 1) * n
        rest ^= b
    return h


def _clique_table(n: int) -> _Table:
    """A table from each vertex mask of a graph on n vertices to its
    packed clique, made on first lookup: one n*n-bit int per mask."""
    return _Table(lambda m: _clique(m, n))


def _saturation(base: int, masks: Iterable[int], cliques: _Table) -> int:
    """The graph packed as ``base`` with the vertices of every mask made
    a clique, packed: one C-level OR over the masks' cliques."""
    return reduce(or_, map(cliques.__getitem__, masks), base)


def saturate_family(g: Graph, phi: Iterable[Iterable[int]]) -> Graph:
    """Saturate every separator of the family in g. Only the members'
    vertex ranges are checked."""
    masks = (_check_subset(g, s) for s in phi)
    h = _saturation(_packed(g._adj), masks, _clique_table(g.n))
    return Graph._from_masks(_unpacked(h, g.n))


def _minfill_masks(
    adj: list[int], n: int, cores: Cores
) -> tuple[list[tuple[int, int]], list[int]]:
    """Min-fill elimination on adjacency masks, in place.

    Mutates ``adj`` into a chordal supergraph and returns the added
    edges, sorted, and the elimination order: the peeled vertices, then
    the rest. Ties on fill count break toward the smallest id. The order
    is a perfect elimination ordering of the result by construction:
    each vertex's neighbors that go after it were saturated when it
    went, and no edge is ever added at a vertex that has gone. The
    blackbox extender reads MinSep off it with ``_peo_read_off`` when the
    sandwich step keeps every fill edge.

    Runs in two phases that add exactly the edges of the plain rescan.
    First ``_peel`` removes every vertex that repeated simplicial
    elimination can remove, with no edge added. This is what min-fill
    does before its first step with positive fill, because it takes a
    fill-0 (simplicial) vertex whenever one exists, and any peeling
    order removes the same set. A chordal graph is peeled empty. Then
    ``_eliminate`` runs min-fill on the core that is left.

    The second phase runs once per distinct core in the store
    ``cores``: it reads only the core's rows ANDed with the core and
    adds only edges inside it, so its fill and order are a function of
    the core's mask and those rows, which the key packs. ``cores`` maps
    it to them, as tuples that no caller can change; a core met again
    gets its fill edges ORed in and its order appended, with nothing
    counted or eliminated. A one-off caller passes an empty store.
    """
    order, alive = _peel(adj, n)
    if not alive:
        return [], order
    # the mask in bits 0..n-1, then each core row in the next n bits
    key = alive
    shift = n
    for v in bits(alive):
        key |= (adj[v] & alive) << shift
        shift += n
    core = cores.get(key)
    if core is None:
        added, tail = _eliminate(adj, n, alive)
        cores[key] = tuple(added), tuple(tail)
    else:
        fill, tail = core
        for u, w in fill:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        added = list(fill)
    order += tail
    return added, order


def _eliminate(
    adj: list[int], n: int, alive: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Min-fill's second phase: eliminate the vertices of ``alive`` from
    ``adj`` in place, smallest fill first, ties toward the smallest id.
    Returns the added edges, sorted, and the order the vertices went.

    Runs the min-fill loop on counts kept exact by update:
    ``deg[v]`` live neighbors and ``fills[v]`` missing pairs among them,
    counted once at the start. Eliminating x changes them in two ways.
    Each live neighbor u loses x, and with it the pairs {x, y} it was
    missing: the ``deg[u] - 1`` other live neighbors y less the ones
    adjacent to x. Each fill edge uw, added one at a time, gives u the
    new pairs {w, y} for its live neighbors y not adjacent to w (and w
    likewise), and closes the pair {u, w} at every common live neighbor.
    No other vertex's live neighborhood or its edges change.
    """
    order: list[int] = []
    added: list[tuple[int, int]] = []
    deg = [0] * n
    fills = [0] * n
    m = alive
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        nb = adj[v] & alive
        d = deg[v] = nb.bit_count()
        # d(d-1)/2 pairs less the edges inside nb, each seen from both ends
        inner = 0
        mm = nb
        while mm:
            bb = mm & -mm
            mm ^= bb
            inner += (adj[bb.bit_length() - 1] & nb).bit_count()
        fills[v] = (d * (d - 1) - inner) // 2
    while alive:
        best = -1
        best_fill = -1
        m = alive
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            fill = fills[v]
            if best_fill < 0 or fill < best_fill:
                best, best_fill = v, fill
                if fill == 0:
                    break  # scanning ascending, so this is the smallest id
        alive ^= 1 << best
        order.append(best)
        nb = adj[best] & alive
        mm = nb
        while mm:
            bb = mm & -mm
            u = bb.bit_length() - 1
            mm ^= bb
            d = deg[u] = deg[u] - 1
            fills[u] -= d - (adj[u] & nb).bit_count()
        if not best_fill:
            continue
        mm = nb
        while mm:
            bb = mm & -mm
            u = bb.bit_length() - 1
            mm ^= bb
            m2 = (nb & ~adj[u]) >> (u + 1) << (u + 1)
            while m2:
                b2 = m2 & -m2
                m2 ^= b2
                w = b2.bit_length() - 1
                added.append((u, w))
                common = adj[u] & adj[w] & alive
                c = common.bit_count()
                fills[u] += deg[u] - c
                fills[w] += deg[w] - c
                deg[u] += 1
                deg[w] += 1
                while common:
                    bz = common & -common
                    common ^= bz
                    fills[bz.bit_length() - 1] -= 1
                adj[u] |= b2
                adj[w] |= bb
    added.sort()
    return added, order


def triangulate_heuristic(g: Graph) -> Graph:
    """A chordal supergraph of g via min-fill elimination.

    At each step the vertex whose elimination adds the fewest edges is
    removed, ties broken by smallest id; its remaining neighborhood is
    saturated. Chordal inputs come back unchanged: the simplicial
    vertices are peeled first, which is what min-fill would remove
    before any step that adds an edge, and a chordal graph is peeled
    empty. After the peel, every fill count is counted once and then
    updated: an elimination takes the pairs through the eliminated
    vertex out of its neighbors' counts, and each fill edge adds its
    endpoints' new pairs and closes one pair at each common neighbor.
    """
    adj = list(g._adj)
    _minfill_masks(adj, g.n, {})
    return Graph._from_masks(adj)


def min_tri_sandwich(g: Graph, g_t: Graph) -> Graph:
    """Shrink a triangulation of g to a minimal one inside it.

    Fill edges are visited in canonical order; any single edge whose
    removal preserves chordality is dropped, and passes repeat until no
    edge can be removed. The result is chordal, sandwiched between g and
    g_t, and minimal.
    """
    if g_t.n != g.n:
        raise GraphError("triangulation must be over the same vertex set")
    for u, v in g.edges():
        if not g_t.has_edge(u, v):
            raise GraphError(f"g_t is missing base edge ({u}, {v})")
    if not is_chordal(g_t):
        raise GraphError("g_t is not chordal")
    adj = list(g_t._adj)
    _sandwich_masks(adj, _pairs(_packed(adj) & _nonedges(g._adj), g.n))
    return Graph._from_masks(adj)


def _sandwich_masks(
    adj: list[int], fill: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Drop the removable fill edges from chordal ``adj``; return the rest."""
    changed = True
    while changed:
        changed = False
        kept = []
        for u, v in fill:
            # for chordal h with edge uv: h minus uv stays chordal exactly
            # when the common neighborhood of u and v is a clique
            if _is_clique(adj, adj[u] & adj[v]):
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                changed = True
            else:
                kept.append((u, v))
        fill = kept
    return fill


def is_minimal_triangulation(g: Graph, h: Graph) -> bool:
    """True iff h is a chordal supergraph of g from which no single fill
    edge can be removed without breaking chordality: exactly when
    ``min_tri_sandwich`` accepts h and gives it back unchanged."""
    try:
        return min_tri_sandwich(g, h) == h
    except GraphError:
        return False


def _blackbox_extender(g: Graph) -> Extend:
    """The blackbox extender of g: ``extend(fam, runs)`` is MinSep of the
    minimal triangulation H that min-fill and the sandwich step make of g
    with the family's masks saturated, as masks.

    g is saturated packed: g packed, ORed with each member's packed
    clique. When the sandwich step keeps every fill edge, H is min-fill's
    result and its elimination order is perfect, so ``_peo_read_off``
    walks it. A dropped fill edge may have joined two later neighbors of
    a vertex, so then H is peeled again and its peeling order is walked
    instead; a result that is not chordal raises NotChordalError. Given
    a FIFO ``runs``, it appends H, packed, and the order it walked: H is
    the saturated g plus the fill edges the sandwich step kept, so only
    those are packed.

    The extender keeps, for all its runs, what min-fill's second phase
    made of each distinct core they peeled to, so that no core is
    eliminated twice (see ``_minfill_masks``). That result is a function
    of the core, so the answers do not change; the store holds at most
    one entry per run, a few ints per core vertex. It also keeps g
    packed and each separator's packed clique, made on the first run
    that saturates it: one n*n-bit int per distinct separator met.
    """
    n = g.n
    base = _packed(g._adj)
    cliques = _clique_table(n)
    cores: Cores = {}

    def extend(fam: Iterable[int], runs: deque[Payload] | None) -> set[int]:
        h = _saturation(base, fam, cliques)
        adj = _unpacked(h, n)
        fill, order = _minfill_masks(adj, n, cores)
        kept = _sandwich_masks(adj, fill)
        if len(kept) < len(fill):
            order = _peeling_order(adj, n)
        if runs is not None:
            for u, w in kept:
                h |= 1 << u * n + w | 1 << w * n + u
            runs.append((h, order))
        return _peo_read_off(adj, order)[1]

    return extend


def extend_family_blackbox(g: Graph, phi: Iterable[Iterable[int]]) -> ParallelFamily:
    """Extend a pairwise-parallel family to a maximal one by triangulating.

    Saturates the family, triangulates the result, reduces to a minimal
    triangulation h, and returns MinSep(h), which contains the input
    family and is maximal pairwise-parallel in g. A family that is not
    pairwise-parallel minimal separators of a connected g raises
    GraphError.
    """
    return frozenset(map(vertex_set, _blackbox_extender(g)(_check_family(g, phi), None)))


def _split(adj: list[int], piece: int, smask: int) -> list[int]:
    """The pieces ``comp | (N(comp) & piece)`` for every component comp of
    piece minus the clique smask, ordered by smallest member."""
    return [
        comp | (nb & piece) for comp, nb in _components_masks(adj, piece & ~smask)
    ]


def get_components(c: Graph, S: Iterable[int]) -> list[tuple[Graph, tuple[int, ...]]]:
    """Split c along a clique S.

    For each component K of c minus S, returns the subgraph induced on
    K together with its neighborhood (a subset of S), plus the id map
    back to c. Components are ordered by smallest member.
    """
    smask = _check_subset(c, S)
    if not _is_clique(c._adj, smask):
        raise GraphError(f"{sorted(vertex_set(smask))} is not a clique")
    return [
        induced_subgraph(c, bits(piece))
        for piece in _split(c._adj, (1 << c.n) - 1, smask)
    ]


def _split_and_route(
    adj: list[int],
    fam: Iterable[int],
    choose: Callable[[list[int], int], int] | None = None,
) -> tuple[list[int], set[int]]:
    """Split the graph on ``adj`` along a family of masks, saturating
    ``adj`` in place.

    A piece that holds family members is split along the canonically
    smallest one, and every other member not inside it is routed to the
    new piece that contains it. A piece that holds none is split along
    ``choose(adj, piece)`` until that returns 0. Returns the final
    pieces and the boundaries ``N(comp)`` of every split, as masks.

    Nothing is checked: the family is one that ``_check_family``
    passed or an independent set of the crossing graph, so each member
    splits its piece and every other member fits in one new piece, and
    ``_choose_min_sep`` always splits its piece.
    """
    queue: deque[tuple[int, list[int]]] = deque(
        [((1 << len(adj)) - 1, sorted(fam, key=lambda m: tuple(bits(m))))]
    )
    done: list[int] = []
    boundaries: set[int] = set()
    while queue:
        piece, seps = queue.popleft()
        smask = seps[0] if seps else choose(adj, piece) if choose else 0
        if not smask:
            done.append(piece)
            continue
        # members nested inside the split separator stop separating
        # anything: every pair they split now lies in distinct pieces
        rest = [t for t in seps if t & ~smask]
        _saturate(adj, smask)
        for sub in _split(adj, piece, smask):
            # the piece keeps its boundary into the separator as a
            # clique; that boundary is itself a contained separator
            boundaries.add(sub & smask)
            queue.append((sub, [t for t in rest if not t & ~sub]))
    return done, boundaries


def decompose(
    g: Graph, phi: Iterable[Iterable[int]]
) -> list[tuple[Graph, tuple[int, ...]]]:
    """Split a connected graph along a pairwise-parallel separator family.

    Repeatedly selects the canonically smallest separator contained in a
    pending piece, saturates it, splits off ``comp | (N(comp) & piece)``
    for every component of the piece minus it, and routes each remaining
    separator to the piece that contains it. Output pieces carry id maps
    back to g and contain no member of the family as a separator. A
    family that is not pairwise-parallel minimal separators of a
    connected g raises GraphError; two crossing members name the pair.
    """
    adj = list(g._adj)
    pieces, _ = _split_and_route(adj, _check_family(g, phi))
    h = Graph._from_masks(adj)
    pieces.sort(key=lambda m: tuple(bits(m)))
    return [induced_subgraph(h, bits(piece)) for piece in pieces]


def _choose_min_sep(adj: list[int], piece: int) -> int:
    # the first non-adjacent pair (u, v) of the piece, separated by the
    # neighborhood of v's component in the piece minus N(u); u is
    # isolated there and outside that neighborhood, so the split always
    # puts u and v in different pieces
    for u in bits(piece):
        above = (piece & ~adj[u]) >> (u + 1) << (u + 1)
        if above:
            return _component(adj, piece & ~adj[u], above & -above)[1] & piece
    return 0


def _separator_extender(g: Graph) -> Extend:
    """The separator extender of g: ``extend(fam, runs)`` is the
    boundaries of every split that ``_split_and_route`` makes of g along
    the family and then along ``_choose_min_sep``, as masks. Every split
    saturates a member of the result, so the graph it leaves is the
    result's triangulation; given a FIFO ``runs``, it appends that
    graph, packed, with no elimination order. It keeps nothing between
    runs."""

    def extend(fam: Iterable[int], runs: deque[Payload] | None) -> set[int]:
        fam = list(fam)
        adj = list(g._adj)
        _, boundaries = _split_and_route(adj, fam, _choose_min_sep)
        boundaries.update(fam)
        if runs is not None:
            runs.append((_packed(adj), None))
        return boundaries

    return extend


def extend_family_separator(g: Graph, phi: Iterable[Iterable[int]]) -> ParallelFamily:
    """Extend a pairwise-parallel family to a maximal one by decomposition.

    Decomposes g along the input family, then repeatedly picks the
    lexicographically smallest non-adjacent pair (u, v) in a non-clique
    piece, separates it with the neighborhood of v's component in the
    piece minus N(u), a minimal separator close to u, saturates, and
    splits; the neighborhood of each resulting component joins the
    family. Ends when all pieces are cliques. A family that is not
    pairwise-parallel minimal separators of a connected g raises
    GraphError; two crossing members name the pair.
    """
    return frozenset(map(vertex_set, _separator_extender(g)(_check_family(g, phi), None)))


# each extender's factory: one graph to the extender of that graph
_EXTENDER_IMPL: dict[str, Callable[[Graph], Extend]] = {
    "blackbox": _blackbox_extender,
    "separator": _separator_extender,
}
EXTENDERS = tuple(_EXTENDER_IMPL)


def separator_graph_instance(g: Graph, extender: str = "blackbox") -> ImplicitGraph:
    """The crossing graph of g's minimal separators as an implicit graph.

    Nodes are the minimal separators, adjacency is the crossing
    relation, and the extender completes a pairwise-parallel family to
    a maximal one. Any independent set has fewer than n members.

    The instance keeps one frozenset object per separator, with its
    mask. Separators from the stream and from the extender come out as
    those objects, so the engine meets each separator as one object, and
    the extender works on the masks. It builds the extender once, so
    the extender's per-graph state lasts the instance's lifetime.

    The instance's ``payloads`` is a one-slot list, None at first, so
    that extending keeps nothing. A reader that puts a deque in the slot
    gets one ``Payload`` per extender run from then on: the minimal
    triangulation whose MinSep the run returned, which is g with the
    result saturated (Parra & Scheffler 1997), and, from the blackbox
    extender, the perfect elimination ordering it read MinSep off.
    """
    if extender not in _EXTENDER_IMPL:
        raise ValueError(f"unknown extender {extender!r}; expected one of {EXTENDERS}")
    if not is_connected(g):
        raise DisconnectedGraphError("separator_graph_instance requires a connected graph")
    extend = _EXTENDER_IMPL[extender](g)
    # the slot a reader of the payloads puts its FIFO in
    sink: list[deque[Payload] | None] = [None]
    # each separator's mask, made on first lookup only for a member
    # that a caller passes and the instance never met; the objects'
    # table records the mask of each object it makes
    masks = _Table(mask_of)

    def separator(m: int) -> Separator:
        s = vertex_set(m)
        masks[s] = m
        return s

    objects = _Table(separator)

    def extend_to_max_ind(fam: ParallelFamily) -> ParallelFamily:
        found = extend(map(masks.__getitem__, fam), sink[0])
        return frozenset(map(objects.__getitem__, found))

    return ImplicitGraph(
        node_stream=lambda: (objects[mask_of(s)] for s in enum_min_seps(g)),
        adjacent=lambda s, t: crosses(g, s, t),
        extend_to_max_ind=extend_to_max_ind,
        payloads=sink,
    )


def _found_triangulations(
    g: Graph,
    extender: str,
    stats: EnumStats | None,
    hook: EventHook | None,
) -> Iterator[tuple[ParallelFamily, int, list[int] | None]]:
    """Every maximal set of pairwise-parallel minimal separators of a
    connected g, in the independent-set engine's order, with the minimal
    triangulation it gives, packed by ``_packed``, and a perfect
    elimination ordering of it, or None: what the extender run that
    found the family handed over. The engine prints the families in the
    order their runs found them, so each takes the oldest payload.

    Raises GraphError on a graph without vertices and
    DisconnectedGraphError on a disconnected one, at the first ``next``.
    """
    if g.n < 1:
        raise GraphError("minimal triangulations require at least one vertex")
    if not is_connected(g):
        raise DisconnectedGraphError("minimal triangulations require a connected graph")
    inst = separator_graph_instance(g, extender)
    runs: deque[Payload] = deque()
    inst.payloads[0] = runs
    for family in enum_max_independent(inst, stats=stats, hook=hook):
        yield family, *runs.popleft()


def enum_min_triangulations(
    g: Graph,
    extender: str = "blackbox",
    stats: EnumStats | None = None,
    hook: EventHook | None = None,
) -> Iterator[Triangulation]:
    """Stream every minimal triangulation of a connected graph once.

    Each maximal set of pairwise-parallel minimal separators produced by
    the independent-set engine comes with its triangulation, the one
    that the extender run which found it ended with, kept packed; its
    graph and its fill are built only when first read. A chordal input
    yields exactly itself, with an empty fill.
    """
    nonedges = _nonedges(g._adj)
    for family, h, _order in _found_triangulations(g, extender, stats, hook):
        yield Triangulation._of(g, h, family, nonedges)
