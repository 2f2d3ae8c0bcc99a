"""Maximal-independent-set enumeration over implicitly represented graphs.

The graph being searched is never materialized: it is described by
three callbacks: a node iterator, a symmetric adjacency predicate, and
a procedure that grows any independent set into a maximal one. With them
the enumerator below produces every maximal independent set exactly
once, pulling nodes from the iterator only when it has run out of work,
so the cost of the next answer stays polynomial in the input size plus
the number of answers already produced.

It follows Cohen, Kimelfeld and Sagiv (2008): each printed answer J is
grown toward each pulled node v through the base I, which is v
together with J's members outside N(v). Completeness needs only that
some found answer holds every such I, so the extender runs only on a
base that no answer found so far holds, and its result is then a new
answer: one extender run per answer. Suppose a maximal set M were
never printed; take the printed J that shares the most members with
M, and v in M but not in J. Some found K holds the base of (J, v),
which holds v and J's members in M, so K shares more with M than J
does, and K is printed too: a contradiction.

Nodes are opaque but must be hashable, with equal nodes meaning the
same node; the engine assigns each a dense index so that answer sets
become integer bitmasks. The found answers are one list in discovery
order, whose unprinted tail is the queue. For each node it keeps the
bitset of the found answers that hold it, so whether a found answer
holds I is an AND of |I| such bitsets, made once per distinct base.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .graph import bits

Node = Any
NodeSet = frozenset
EventHook = Callable[[str, "EnumStats"], None]


class ImplicitGraphError(RuntimeError):
    """The instance's callbacks violated one of their contracts."""


@dataclass(frozen=True)
class ImplicitGraph:
    """A graph given by access procedures instead of explicit storage.

    node_stream        zero-argument callable returning any iterable over
                       the node universe; it is walked once, and a node
                       that comes again is skipped
    adjacent           symmetric, irreflexive edge predicate
    extend_to_max_ind  grows an independent set into a maximal one; must
                       be deterministic and return a superset
    payloads           optional, never read by the engine: where the
                       instance lets a reader collect one item per
                       extender run

    Nodes must be hashable: the engine tells them apart by value. It
    runs the extender once per answer, so the extender fixes the order
    of the answers; being deterministic, it makes reruns agree. Answers
    are printed in the order their runs found them, so a reader that
    collects the items in a FIFO and takes one per printed answer gets
    that answer's item, and holds one per found answer not yet printed.
    """

    node_stream: Callable[[], Iterable[Node]]
    adjacent: Callable[[Node, Node], bool]
    extend_to_max_ind: Callable[[NodeSet], NodeSet]
    payloads: Any = None


@dataclass
class EnumStats:
    """Counters and delay samples collected during one enumeration run."""

    answers_emitted: int = 0
    extender_calls: int = 0
    nodes_pulled: int = 0
    delays: list[float] = field(default_factory=list)


def enum_max_independent(
    inst: ImplicitGraph,
    stats: EnumStats | None = None,
    hook: EventHook | None = None,
    check_invariants: bool = False,
) -> Iterator[NodeSet]:
    """Yield every maximal independent set of the represented graph once.

    Answers are printed in the order found, by a walk over the found
    list that also sees the answers appended while it runs. Each printed
    answer J is grown toward every node v pulled so far through the base
    I, v plus J's non-neighbors of v: unless a found answer holds I, the
    extender completes I, and the result, new by construction, is
    appended. When the walk has printed every found answer, nodes are
    pulled one at a time and every printed answer is grown toward the
    new node, until an answer is appended or the stream ends. Each
    distinct base is looked up once, and no (J, v) step is repeated.

    ``stats.extender_calls`` counts the steps, not the extender runs.
    With ``check_invariants``, each new answer is checked against the
    found ones. An instance with an empty node universe yields exactly
    one answer, the empty set.
    """
    if stats is None:
        stats = EnumStats()

    key_to_idx: dict[Node, int] = {}
    nodes: list[Node] = []
    adj_mask: list[int] = []
    adj_known: list[int] = []

    def intern(node: Node) -> int:
        idx = key_to_idx.get(node)
        if idx is None:
            idx = len(nodes)
            key_to_idx[node] = idx
            nodes.append(node)
            adj_mask.append(0)
            adj_known.append(1 << idx)  # irreflexive, so self is known
            holders.append(0)
        return idx

    memo: set[int] = set()  # bases already answered
    found: list[int] = []  # every answer, in discovery order: printed, then queued
    holders: list[int] = []  # bit a of holders[i] is set iff found[a] holds node i

    def extend(imask: int) -> None:
        # no found answer holds I: extend it, and the result is new
        result = inst.extend_to_max_ind(frozenset(map(nodes.__getitem__, bits(imask))))
        idxs = list(map(key_to_idx.get, result))
        if None in idxs:
            idxs = list(map(intern, result))
        kmask = 0
        for i in idxs:
            kmask |= 1 << i
        if kmask & imask != imask:
            raise ImplicitGraphError("extend_to_max_ind dropped part of its input")
        if check_invariants and any(f & kmask == kmask for f in found):
            raise ImplicitGraphError("a found answer already holds the new answer")
        a = 1 << len(found)
        found.append(kmask)
        for i in bits(kmask):
            holders[i] |= a

    def grow(jmask: int, v: int) -> None:
        # growing the printed answer J toward v: the base I is v plus
        # J's non-neighbors of v; extend it unless a found answer holds it
        stats.extender_calls += 1
        if hook is not None:
            hook("extend", stats)
        if jmask >> v & 1:
            # J already contains v, is maximal, and is printed; its other
            # members are v's non-neighbors, so none is tested
            return
        missing = jmask & ~adj_known[v]
        if missing:
            for u in bits(missing):
                if inst.adjacent(nodes[v], nodes[u]):
                    adj_mask[v] |= 1 << u
                    adj_mask[u] |= 1 << v
                adj_known[v] |= 1 << u
                adj_known[u] |= 1 << v
        imask = (jmask & ~adj_mask[v]) | 1 << v
        if imask in memo:
            return
        memo.add(imask)
        held = holders[v]
        rest = imask ^ 1 << v
        while held and rest:
            b = rest & -rest
            held &= holders[b.bit_length() - 1]
            rest ^= b
        if not held:
            extend(imask)

    start = time.perf_counter()
    stats.extender_calls += 1
    if hook is not None:
        hook("extend", stats)
    extend(0)
    pulled: list[int] = []
    pulled_set: set[int] = set()
    stream = iter(inst.node_stream())
    for printed, imask in enumerate(found, 1):
        now = time.perf_counter()
        stats.delays.append(now - start)
        start = now
        stats.answers_emitted += 1
        if hook is not None:
            hook("emit", stats)
        yield frozenset(nodes[i] for i in bits(imask))
        for v in pulled:
            grow(imask, v)
        if printed == len(found):
            for node in stream:
                w = intern(node)
                if w in pulled_set:
                    continue
                pulled.append(w)
                pulled_set.add(w)
                stats.nodes_pulled += 1
                if hook is not None:
                    hook("pull", stats)
                # the printed answers only: one found here is grown
                # toward w when it is printed
                for jmask in found[:printed]:
                    grow(jmask, w)
                if printed < len(found):
                    break
