"""Output checks for the benchmark, written without ``trienum`` code.

``check`` takes a workload, the vertex names its input file used, the
CLI's whole standard output and the number of answers it must hold, and
returns ``None`` when the output is correct or a one-line reason when it
is not.
"""

from __future__ import annotations

import json

from workloads import Workload

KINDS = {"triangulations": "triangulation", "minseps": "minsep", "treedecomps": "treedecomp"}


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _components(adj: list[int], sub: int) -> list[int]:
    comps = []
    while sub:
        seen = frontier = sub & -sub
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & sub & ~seen
            seen |= new
            frontier |= new
        comps.append(seen)
        sub &= ~seen
    return comps


def _is_chordal(adj: list[int], n: int) -> bool:
    """Maximum cardinality search, then test the reverse visit order as a
    perfect elimination ordering (Tarjan & Yannakakis)."""
    weight = [0] * n
    unvisited = (1 << n) - 1
    order = []
    while unvisited:
        v = max(_bits(unvisited), key=lambda x: weight[x])
        order.append(v)
        unvisited &= ~(1 << v)
        for u in _bits(adj[v] & unvisited):
            weight[u] += 1
    # a vertex's earlier-visited neighbours must be a clique: it suffices
    # that they lie in the closed neighbourhood of the latest of them
    position = {v: i for i, v in enumerate(order)}
    before = 0
    for v in order:
        earlier = adj[v] & before
        if earlier:
            parent = max(_bits(earlier), key=position.__getitem__)
            if earlier & ~adj[parent] & ~(1 << parent):
                return False
        before |= 1 << v
    return True


def _header(workload: Workload, names: list[str], line: bytes) -> list[int]:
    """Check the graph record; return generator ids indexed by CLI id."""
    head = json.loads(line)
    _require(head.get("kind") == "graph", "first line is not the graph record")
    _require(head["n"] == workload.n, f"header n={head['n']}, expected {workload.n}")
    _require(head["edge_count"] == len(workload.edges), "header edge_count is wrong")
    by_name = {name: i for i, name in enumerate(names)}
    _require(sorted(head["labels"]) == sorted(names), "header labels differ from the input")
    return [by_name[label] for label in head["labels"]]


def _answers(workload: Workload, lines: list[bytes]) -> list[object]:
    kind = KINDS[workload.command]
    out = []
    for i, line in enumerate(lines):
        rec = json.loads(line)
        _require(rec["kind"] == kind and rec["index"] == i, f"answer line {i} is malformed")
        out.append(rec["answer"])
    return out


def _check_triangulations(workload: Workload, ids: list[int], answers) -> None:
    n = workload.n
    base = {(min(u, v), max(u, v)) for u, v in workload.edges}
    seen = set()
    for i, ans in enumerate(answers):
        fill = frozenset((min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in ans["fill"])
        _require(len(fill) == len(ans["fill"]) and not fill & base, f"answer {i}: bad fill")
        _require(ans["edge_count"] == len(base) + len(fill), f"answer {i}: bad edge_count")
        _require(fill not in seen, f"answer {i}: duplicate triangulation")
        seen.add(fill)
        adj = _adjacency(n, base | fill)
        _require(_is_chordal(adj, n), f"answer {i}: not chordal")
        for u, v in fill:
            # h - uv stays chordal exactly when N(u) & N(v) is a clique
            common = adj[u] & adj[v]
            _require(
                any(common & ~adj[x] & ~(1 << x) for x in _bits(common)),
                f"answer {i}: fill edge {u}-{v} is removable",
            )
    if workload.name == "cycle-full":
        for i, ans in enumerate(answers):
            chords = [(min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in ans["fill"]]
            _require(len(chords) == n - 3, f"answer {i}: {len(chords)} fill edges, expected {n - 3}")
            # a minimal triangulation of a cycle is a polygon triangulation:
            # n - 3 pairwise non-crossing chords
            for j, (a, b) in enumerate(chords):
                for c, d in chords[j + 1:]:
                    if len({a, b, c, d}) == 4:
                        _require(
                            (a < c < b) == (a < d < b),
                            f"answer {i}: chords {a}-{b} and {c}-{d} cross",
                        )


def _check_minseps(workload: Workload, ids: list[int], answers) -> None:
    n = workload.n
    adj = _adjacency(n, workload.edges)
    full = (1 << n) - 1
    seen = set()
    for i, ans in enumerate(answers):
        smask = 0
        for v in ans:
            smask |= 1 << ids[v]
        _require(smask and smask.bit_count() == len(ans), f"answer {i}: bad vertex list")
        _require(smask not in seen, f"answer {i}: duplicate separator")
        seen.add(smask)
        full_comps = 0
        for comp in _components(adj, full & ~smask):
            nb = 0
            for v in _bits(comp):
                nb |= adj[v]
            if nb & ~comp == smask:
                full_comps += 1
        _require(full_comps >= 2, f"answer {i}: {full_comps} full components, not minimal")


def _check_treedecomps(workload: Workload, ids: list[int], answers) -> None:
    n = workload.n
    seen = set()
    for i, ans in enumerate(answers):
        bags = [frozenset(ids[v] for v in bag) for bag in ans["bags"]]
        k = len(bags)
        tree = [tuple(e) for e in ans["tree"]]
        _require(len(tree) == k - 1, f"answer {i}: {len(tree)} tree edges for {k} bags")
        nbrs = [0] * k
        for a, b in tree:
            _require(0 <= a < k and 0 <= b < k and a != b, f"answer {i}: bad tree edge")
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        _require(len(_components(nbrs, (1 << k) - 1)) == 1, f"answer {i}: bag tree is not connected")
        _require(frozenset().union(*bags) == frozenset(range(n)), f"answer {i}: vertex not covered")
        for u, v in workload.edges:
            _require(any(u in b and v in b for b in bags), f"answer {i}: edge {u}-{v} not covered")
        for v in range(n):
            holders = sum(1 << j for j, b in enumerate(bags) if v in b)
            _require(
                len(_components(nbrs, holders)) == 1,
                f"answer {i}: bags holding {v} are not connected",
            )
        key = frozenset(frozenset((bags[a], bags[b])) for a, b in tree) | {frozenset(bags)}
        _require(key not in seen, f"answer {i}: duplicate tree decomposition")
        seen.add(key)


_CHECKS = {
    "triangulations": _check_triangulations,
    "minseps": _check_minseps,
    "treedecomps": _check_treedecomps,
}


def check(workload: Workload, names: list[str], out: bytes, expected: int) -> str | None:
    lines = out.split(b"\n")
    try:
        _require(len(lines) >= 2 and lines[-1] == b"", "output does not end in a newline")
        ids = _header(workload, names, lines[0])
        answers = _answers(workload, lines[1:-1])
        _require(len(answers) == expected, f"{len(answers)} answers, expected {expected}")
        _CHECKS[workload.command](workload, ids, answers)
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{workload.name}: {exc}"
    return None
