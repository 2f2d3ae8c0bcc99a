import itertools
import random

from trienum import Graph, is_connected, treedecomp, triangulate


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


def book_graph(pages):
    """``pages`` triangles on the edge 0-1: one separator, {0, 1}, held
    by every maximal clique."""
    return Graph(pages + 2, [(0, 1)] + [(v, p) for p in range(2, pages + 2) for v in (0, 1)])


def random_chordal_graph(n, rng: random.Random) -> Graph:
    """A connected chordal graph: each new vertex is joined to a nonempty
    subset of a clique grown from a random earlier vertex, so the
    reverse insertion order is a perfect elimination ordering."""
    edges = []
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        clique = [rng.randrange(v)]
        for u in rng.sample(range(v), v):
            if u not in clique and all(u in adj[c] for c in clique):
                clique.append(u)
        for u in rng.sample(clique, rng.randint(1, len(clique))):
            edges.append((u, v))
            adj[u].add(v)
            adj[v].add(u)
    return Graph(n, edges)


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


def traced_calls(monkeypatch, run):
    """The names that bench/tracing.py rebinds, to time each layer, that
    ``run()`` calls. The tracer's replacements for
    ``separator_graph_instance`` and ``enum_max_independent`` have the
    signatures it gives them; a call that goes around a rebound name
    leaves its layer empty."""
    called = set()

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("enum_min_seps", "crosses", "saturate_family"):
        count(triangulate, name)
    for name in ("enum_min_triangulations", "clique_graph", "enum_max_spanning_trees"):
        count(treedecomp, name)
    make_instance = triangulate.separator_graph_instance
    engine = triangulate.enum_max_independent

    def separator_graph_instance(g, extender="blackbox"):
        called.add("separator_graph_instance")
        return make_instance(g, extender)

    def enum_max_independent(inst, stats=None, hook=None, check_invariants=False):
        called.add("enum_max_independent")
        return engine(inst, stats=stats, hook=hook, check_invariants=check_invariants)

    for fn in (separator_graph_instance, enum_max_independent):
        monkeypatch.setattr(triangulate, fn.__name__, fn)
    run()
    return called
