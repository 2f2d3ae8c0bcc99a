"""Benchmark workloads: graph generators and the CLI command each one runs.

The generators import nothing from ``trienum``. A workload's graph
structure is fixed by its definition (the random graphs by a graph seed
of their own); the run's ``--seed`` only draws the vertex names written
to the edge-list file. Edges are written in a fixed order, so the CLI's
first-appearance ids, and with them the work done, are the same for
every seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

Edges = list[tuple[int, int]]


def cycle(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)]


def ladder(k: int) -> Edges:
    """The 2 x k grid: top row 0..k-1, bottom row k..2k-1."""
    rows = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return rows + [(i, k + i) for i in range(k)]


def _connected(n: int, edges: Edges) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = adj[b.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << n) - 1


def random_connected(n: int, p: float, rng: random.Random) -> Edges:
    """G(n, p) redrawn until connected, with a spanning-tree fallback;
    the same draws as the test suite's ``random_connected_graph``."""
    slots = list(itertools.combinations(range(n), 2))
    for _ in range(400):
        edges = [e for e in slots if rng.random() < p]
        if _connected(n, edges):
            return edges
    perm = list(range(n))
    rng.shuffle(perm)
    chosen = set()
    for i in range(1, n):
        j = rng.randrange(i)
        chosen.add((min(perm[i], perm[j]), max(perm[i], perm[j])))
    for e in slots:
        if rng.random() < p:
            chosen.add(e)
    return sorted(chosen)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    edges: Edges
    command: str
    limit: int | None
    expected: int  # answer lines the run must produce

    def cli_args(self, path: Path, limit: int | None = None) -> list[str]:
        args = [self.command, str(path)]
        limit = limit or self.limit
        if limit is not None:
            args += ["--limit", str(limit)]
        return args

    def write_input(self, path: Path, seed: int) -> list[str]:
        """Write the edge list with seeded vertex names; return the names
        indexed by generator vertex id."""
        names = [f"v{x}" for x in random.Random(seed).sample(range(10 * self.n), self.n)]
        path.write_text("".join(f"{names[u]} {names[v]}\n" for u, v in self.edges))
        return names


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def build(name: str) -> Workload:
    """The workload's graph and CLI command; BENCHMARK.json says why."""
    if name == "cycle-full":
        return Workload(name, 11, cycle(11), "triangulations", None, catalan(9))
    if name == "random-prefix":
        edges = random_connected(30, 0.2, random.Random(1))
        return Workload(name, 30, edges, "triangulations", 2000, 2000)
    if name == "minseps-stream":
        edges = random_connected(40, 0.2, random.Random(0))
        return Workload(name, 40, edges, "minseps", 20000, 20000)
    if name == "ladder-treedecomps":
        return Workload(name, 24, ladder(12), "treedecomps", None, 2**11)
    raise KeyError(name)


NAMES = ("cycle-full", "random-prefix", "minseps-stream", "ladder-treedecomps")
