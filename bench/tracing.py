"""Traced in-process runs of the trienum CLI.

Spans are recorded from the benchmark's side: ``patched`` rebinds the
public entry points that the CLI and the enumerators look up in their
module namespaces, runs the body, and restores them. A generator is
timed per ``next()`` call. A span's self time is its duration minus the
time its child spans cover, so the layers' self times add up to the
wall time of the root ``cli`` span.

``trienum`` must be importable before this module is imported.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from trienum import cli, treedecomp, triangulate
from trienum.maxind import EnumStats
from trienum.separators import extract_min_seps_chordal


class Tracer:
    """Spans kept in memory as (id, parent id, layer, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[list] = []  # [id, layer, start, time covered by children]
        self._next_id = 0

    def open(self, layer: str) -> None:
        self._open.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        sid, layer, start, covered = self._open.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        parent = -1
        if self._open:
            self._open[-1][3] += duration
            parent = self._open[-1][0]
        self.spans.append((sid, parent, layer, start, end))

    def call(self, layer: str, fn, counter: str | None = None):
        def wrapper(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def stream(self, layer: str, fn, counter: str | None = None):
        def wrapper(*args, **kwargs):
            return self._timed(layer, fn(*args, **kwargs), counter)

        return wrapper

    def _timed(self, layer, it, counter):
        while True:
            self.open(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close()
            if counter:
                self.counts[counter] += 1
            yield item

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for sid, parent, layer, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{layer}\t{start:.9f}\t{end:.9f}\n")


class Sampler:
    """An evenly spaced sample of at most ``2 * cap`` calls: every
    ``stride``-th call is kept, and the stride doubles when full."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.stride = 1
        self.seen = 0
        self.items: list = []

    def add(self, item) -> None:
        self.seen += 1
        if self.seen % self.stride == 0:
            self.items.append(item)
            if len(self.items) == 2 * self.cap:
                self.items = self.items[1::2]
                self.stride *= 2


@contextmanager
def patched(tracer: Tracer, sampler: Sampler, engine_stats: list[EnumStats]):
    saved = []

    def bind(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    make_instance = triangulate.separator_graph_instance
    engine = triangulate.enum_max_independent

    def separator_graph_instance(g, extender="blackbox"):
        inst = make_instance(g, extender)
        extend = tracer.call("triangulate.extend", inst.extend_to_max_ind, "triangulate.extend_calls")

        def recorded(fam):
            result = extend(fam)
            sampler.add((g, fam, result))
            return result

        return dataclasses.replace(inst, extend_to_max_ind=recorded)

    def enum_max_independent(inst, stats=None, hook=None, check_invariants=False):
        # the engine makes its own EnumStats when given none; passing one
        # in only lets the benchmark read the counters afterwards
        stats = EnumStats() if stats is None else stats
        engine_stats.append(stats)
        return engine(inst, stats=stats, hook=hook, check_invariants=check_invariants)

    bind(cli, "parse_graph", tracer.call("io.parse", cli.parse_graph))
    for module in (cli, triangulate):
        bind(module, "enum_min_seps", tracer.stream("separators.stream", module.enum_min_seps, "separators.pulled"))
    bind(triangulate, "crosses", tracer.call("separators.cross", triangulate.crosses, "separators.cross_calls"))
    bind(triangulate, "separator_graph_instance", separator_graph_instance)
    bind(triangulate, "enum_max_independent", tracer.stream("maxind", enum_max_independent, "maxind.answers"))
    bind(triangulate, "saturate_family", tracer.call("triangulate.assemble", triangulate.saturate_family))
    for module in (cli, treedecomp):
        # the generator body computes each answer's fill edges
        bind(module, "enum_min_triangulations", tracer.stream("triangulate.assemble", module.enum_min_triangulations))
    bind(treedecomp, "clique_graph", tracer.call("treedecomp.clique_graph", treedecomp.clique_graph))
    bind(
        treedecomp,
        "enum_max_spanning_trees",
        tracer.stream("treedecomp.spanning_trees", treedecomp.enum_max_spanning_trees, "treedecomp.trees"),
    )
    try:
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def run_cli(argv: list[str], out_path: Path, tracer: Tracer | None = None) -> tuple[int, float]:
    """Run ``trienum.cli.main`` with stdout sent to ``out_path``; return
    its exit code and wall time."""
    with open(out_path, "w", encoding="utf-8", newline="\n") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", cli.main)(argv)
            wall = time.perf_counter() - start
        finally:
            sys.stdout = saved
    return code, wall


def replay(items) -> tuple[dict[str, float], int]:
    """Feed recorded extender inputs through the public functions that
    make up the blackbox extender. Returns each stage's share of the
    replay time and the number of samples whose separators differ from
    what the extender returned. The public functions validate their
    arguments, which the engine path skips, so the shares are approximate.
    """
    totals = dict.fromkeys(("saturate", "minfill", "sandwich", "readoff"), 0.0)
    mismatches = 0
    clock = time.perf_counter
    for g, fam, result in items:
        t0 = clock()
        saturated = triangulate.saturate_family(g, fam)
        t1 = clock()
        filled = triangulate.triangulate_heuristic(saturated)
        t2 = clock()
        minimal = triangulate.min_tri_sandwich(saturated, filled)
        t3 = clock()
        seps = extract_min_seps_chordal(minimal)
        t4 = clock()
        for stage, dt in zip(totals, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            totals[stage] += dt
        mismatches += seps != result
    whole = sum(totals.values())
    return {k: v / whole if whole else 0.0 for k, v in totals.items()}, mismatches
