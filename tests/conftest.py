import itertools
import random

from trienum import Graph, is_connected


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ladder_graph(k):
    """The 2 x k grid: top row 0..k-1, bottom row k..2k-1."""
    rows = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph(2 * k, rows + [(i, k + i) for i in range(k)])


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def all_graphs(n):
    slots = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph(n, [e for i, e in enumerate(slots) if mask >> i & 1])


def all_connected_graphs(max_n):
    out = []
    for n in range(1, max_n + 1):
        out.extend(g for g in all_graphs(n) if is_connected(g))
    return out


def random_connected_graph(n, p, rng: random.Random) -> Graph:
    slots = list(itertools.combinations(range(n), 2))
    for _ in range(400):
        g = Graph(n, [e for e in slots if rng.random() < p])
        if is_connected(g):
            return g
    # sparse settings may never connect; fall back to a random spanning
    # tree plus the same edge noise
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((min(perm[i], perm[j]), max(perm[i], perm[j])))
    for e in slots:
        if rng.random() < p:
            edges.add(e)
    return Graph(n, sorted(edges))
