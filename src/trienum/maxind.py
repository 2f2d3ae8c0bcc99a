"""Maximal-independent-set enumeration over implicitly represented graphs.

The graph being searched is never materialized: it is described by
three callbacks: a node iterator, a symmetric adjacency predicate, and
a procedure that grows any independent set into a maximal one. With them
the enumerator below produces every maximal independent set exactly
once, pulling nodes from the iterator only when it has run out of work,
so the cost of the next answer stays polynomial in the input size plus
the number of answers already produced.

Nodes are opaque but must be hashable, with equal nodes meaning the
same node; the engine assigns each a dense index so that answer sets
become integer bitmasks, and membership bookkeeping is then a handful
of int operations per step. Because the extender is required to be
deterministic, its results are memoized on the bitmask of its argument.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .graph import bits

Node = Any
NodeSet = frozenset
EventHook = Callable[[str, "EnumStats"], None]

_SENTINEL = object()


class ImplicitGraphError(RuntimeError):
    """The instance's callbacks violated one of their contracts."""


@dataclass(frozen=True)
class ImplicitGraph:
    """A graph given by access procedures instead of explicit storage.

    node_stream        zero-argument callable returning a fresh iterator
                       over the node universe (a single pass is used)
    adjacent           symmetric, irreflexive edge predicate
    extend_to_max_ind  grows an independent set into a maximal one; must
                       be deterministic and return a superset

    Nodes must be hashable: the engine tells them apart by value.
    """

    node_stream: Callable[[], Iterator[Node]]
    adjacent: Callable[[Node, Node], bool]
    extend_to_max_ind: Callable[[NodeSet], NodeSet]


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

    The pending-answer queue is popped FIFO. Each popped answer is
    emitted, then extended in the direction of every node pulled so far:
    for node v, the popped set is reduced to the non-neighbors of v, v
    is added, and the extender completes the result, which is kept if
    never seen before. When the queue drains, nodes are pulled one at a
    time and every answer emitted so far is extended in the direction of
    the new node, until new work appears or the stream ends. Extensions
    of earlier nodes against earlier answers are not repeated: each such
    pair was extended when the answer was popped or when the node was
    pulled, and the extender is deterministic, so repeating the pair
    cannot produce an unseen result.

    An instance with an empty node universe yields exactly one answer,
    the empty set.
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
        return idx

    def ensure_adjacency(v: int, need: int) -> None:
        missing = need & ~adj_known[v]
        for u in bits(missing):
            if inst.adjacent(nodes[v], nodes[u]):
                adj_mask[v] |= 1 << u
                adj_mask[u] |= 1 << v
            adj_known[v] |= 1 << u
            adj_known[u] |= 1 << v

    memo: dict[int, int] = {}
    memo_get = memo.get

    def compute(imask: int) -> int:
        result = inst.extend_to_max_ind(
            frozenset(nodes[i] for i in bits(imask))
        )
        kmask = 0
        for node in result:
            kmask |= 1 << intern(node)
        if kmask & imask != imask:
            raise ImplicitGraphError("extend_to_max_ind dropped part of its input")
        memo[imask] = kmask
        return kmask

    start = time.perf_counter()
    stats.extender_calls += 1
    if hook is not None:
        hook("extend", stats)
    first = compute(0)
    queue: deque[int] = deque([first])
    queued: set[int] = {first}
    printed: set[int] = set()

    def grow(jmask: int, v: int) -> None:
        # growing the printed answer J toward v: keep v plus J's
        # non-neighbors of v, extend, and queue the result if it is new
        ensure_adjacency(v, jmask)
        stats.extender_calls += 1
        if hook is not None:
            hook("extend", stats)
        if jmask >> v & 1:
            return  # J already contains v, is maximal, and is printed
        imask = (jmask & ~adj_mask[v]) | 1 << v
        kmask = memo_get(imask)
        if kmask is None:
            kmask = compute(imask)
        if kmask not in queued and kmask not in printed:
            queued.add(kmask)
            queue.append(kmask)

    printed_list: list[int] = []
    pulled: list[int] = []
    pulled_set: set[int] = set()
    stream = inst.node_stream()
    exhausted = False

    while queue:
        if check_invariants and not queued.isdisjoint(printed):
            raise ImplicitGraphError("pending and emitted answers overlap")
        imask = queue.popleft()
        queued.discard(imask)
        now = time.perf_counter()
        stats.delays.append(now - start)
        start = now
        stats.answers_emitted += 1
        if hook is not None:
            hook("emit", stats)
        yield frozenset(nodes[i] for i in bits(imask))
        printed.add(imask)
        printed_list.append(imask)
        for v in pulled:
            grow(imask, v)
        while not queue and not exhausted:
            node = next(stream, _SENTINEL)
            if node is _SENTINEL:
                exhausted = True
                break
            w = intern(node)
            if w in pulled_set:
                continue
            pulled.append(w)
            pulled_set.add(w)
            stats.nodes_pulled += 1
            if hook is not None:
                hook("pull", stats)
            for jmask in printed_list:
                grow(jmask, w)
