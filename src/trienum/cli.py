"""Command-line front end: parse a graph, stream enumeration answers.

Answers are written one per line and flushed immediately, so piping
into ``head`` or using ``--limit`` stops the enumeration early instead
of waiting for it to finish. Exit codes: 0 on success, 1 on input
errors, 2 on guard violations (disconnected input without
``--per-component``, an oversized crossing graph, or a bad crossing-graph
cap), 130 when interrupted (Ctrl-C), and 141 when the reader of stdout
goes away (e.g. ``| head``). None of them prints a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, TextIO

from .graph import Graph, GraphError, connected_components, induced_subgraph
from .io import FORMATS, ParseError, parse_graph
from .maxind import EnumStats
from .separators import crosses, enum_min_seps
from .treedecomp import enum_proper_tds
from .triangulate import EXTENDERS, enum_min_triangulations

COMMANDS = ("minseps", "triangulations", "treedecomps", "crossgraph", "stats")
DEFAULT_CROSSGRAPH_LIMIT = 500
CROSSGRAPH_LIMIT_ENV = "TRIENUM_CROSSGRAPH_LIMIT"
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as the shell reports Ctrl-C
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as for a writer killed by SIGPIPE


class GuardViolation(RuntimeError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trienum",
        description="Enumerate minimal separators, minimal triangulations, "
        "and proper tree decompositions of a graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("minseps", "stream all minimal separators"),
        ("triangulations", "stream all minimal triangulations"),
        ("treedecomps", "stream all proper tree decompositions"),
        ("crossgraph", "materialize the separator crossing graph"),
        ("stats", "run the triangulation enumeration and report counters"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="input file, or - for standard input (default)",
        )
        p.add_argument("--format", choices=FORMATS, default="edgelist")
        p.add_argument("--output", choices=("jsonl", "plain", "dot"), default="jsonl")
        p.add_argument("--limit", type=int, help="stop after this many answers")
        p.add_argument("--extender", choices=EXTENDERS, default="blackbox")
        p.add_argument(
            "--per-component",
            action="store_true",
            help="run each connected component separately instead of rejecting "
            "disconnected input",
        )
        p.add_argument(
            "--delay-stats",
            action="store_true",
            help="include per-answer delay percentiles (stats command)",
        )
        p.add_argument(
            "--max-crossgraph-nodes",
            type=int,
            default=None,
            help="node cap for the crossgraph command "
            f"(default {DEFAULT_CROSSGRAPH_LIMIT}, env {CROSSGRAPH_LIMIT_ENV})",
        )
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _crossgraph_limit(args: argparse.Namespace) -> int:
    """The crossgraph node cap: the flag, else the environment, else the
    default. Raises GuardViolation unless it is a nonnegative integer."""
    if args.max_crossgraph_nodes is not None:
        source, text = "--max-crossgraph-nodes", str(args.max_crossgraph_nodes)
    else:
        source = CROSSGRAPH_LIMIT_ENV
        text = os.environ.get(source, str(DEFAULT_CROSSGRAPH_LIMIT))
    if not (text.isascii() and text.isdigit()):
        raise GuardViolation(f"{source} must be a nonnegative integer, got {text!r}")
    return int(text)


class _Writer:
    """Serializes answers in the selected output style, one per line."""

    def __init__(self, out: TextIO, style: str, per_component: bool) -> None:
        self.out = out
        self.style = style
        self.per_component = per_component
        self.index = 0

    def _prefix(self, component: int | None) -> str:
        if self.per_component and component is not None:
            return f"c{component} "
        return ""

    def emit_json(self, kind: str, answer: object, component: int | None) -> None:
        record: dict[str, object] = {"kind": kind, "index": self.index}
        if self.per_component and component is not None:
            record["component"] = component
        record["answer"] = answer
        self.out.write(json.dumps(record, separators=(", ", ": ")) + "\n")
        self.out.flush()
        self.index += 1

    def emit_plain(self, text: str, component: int | None) -> None:
        self.out.write(self._prefix(component) + text + "\n")
        self.out.flush()
        self.index += 1

    def emit_raw(self, text: str) -> None:
        self.out.write(text + "\n")
        self.out.flush()
        self.index += 1


def _pairs(edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    return [[u, v] for u, v in sorted(edges)]


def _fmt_pairs(edges: Iterable[tuple[int, int]]) -> str:
    text = ",".join(f"{u}-{v}" for u, v in sorted(edges))
    return text if text else "-"


def _fmt_set(vs: Iterable[int]) -> str:
    return " ".join(str(v) for v in sorted(vs))


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[pos]


def _run_command(
    args: argparse.Namespace,
    writer: _Writer,
    pieces: list[tuple[Graph, tuple[int, ...], int | None]],
) -> None:
    limit = args.limit
    emitted = 0

    def budget_left() -> bool:
        return limit is None or emitted < limit

    for sub, orig, cid in pieces:
        if not budget_left():
            break
        if args.command == "minseps":
            for sep in enum_min_seps(sub):
                ids = sorted(orig[v] for v in sep)
                if args.output == "jsonl":
                    writer.emit_json("minsep", ids, cid)
                else:
                    writer.emit_plain(_fmt_set(ids), cid)
                emitted += 1
                if not budget_left():
                    break
        elif args.command == "triangulations":
            for tri in enum_min_triangulations(sub, extender=args.extender):
                fill = sorted(
                    (min(orig[u], orig[v]), max(orig[u], orig[v]))
                    for u, v in tri.fill_edges
                )
                m = tri.chordal_graph.edge_count
                if args.output == "jsonl":
                    writer.emit_json(
                        "triangulation", {"fill": _pairs(fill), "edge_count": m}, cid
                    )
                else:
                    writer.emit_plain(f"fill={_fmt_pairs(fill)} m={m}", cid)
                emitted += 1
                if not budget_left():
                    break
        elif args.command == "treedecomps":
            for k, d in enumerate(enum_proper_tds(sub, extender=args.extender)):
                bags = [sorted(orig[v] for v in b) for b in d.bags]
                tree = [[a, b] for a, b in d.edges]
                if args.output == "jsonl":
                    writer.emit_json("treedecomp", {"bags": bags, "tree": tree}, cid)
                elif args.output == "dot":
                    name = f"td{writer.index}" if cid is None else f"td_c{cid}_{k}"
                    lines = [f"graph {name} {{"]
                    for i, bag in enumerate(bags):
                        lines.append(f'  b{i} [label="{_fmt_set(bag)}"];')
                    for a, b in d.edges:
                        lines.append(f"  b{a} -- b{b};")
                    lines.append("}")
                    writer.emit_raw("\n".join(lines))
                else:
                    bag_text = "|".join(_fmt_set(b) for b in bags)
                    writer.emit_plain(
                        f"bags={bag_text} tree={_fmt_pairs((a, b) for a, b in d.edges)}",
                        cid,
                    )
                emitted += 1
                if not budget_left():
                    break
        elif args.command == "crossgraph":
            cap = args.max_crossgraph_nodes
            nodes = []
            for sep in enum_min_seps(sub):
                nodes.append(sep)
                if len(nodes) > cap:
                    raise GuardViolation(
                        f"crossing graph exceeds {cap} nodes; raise the cap with "
                        f"--max-crossgraph-nodes or {CROSSGRAPH_LIMIT_ENV}"
                    )
            edges = [
                [i, j]
                for i in range(len(nodes))
                for j in range(i + 1, len(nodes))
                if crosses(sub, nodes[i], nodes[j])
            ]
            named = [sorted(orig[v] for v in s) for s in nodes]
            if args.output == "jsonl":
                writer.emit_json("crossgraph", {"nodes": named, "edges": edges}, cid)
            elif args.output == "dot":
                name = "crossgraph" if cid is None else f"crossgraph_c{cid}"
                lines = [f"graph {name} {{"]
                for i, s in enumerate(named):
                    lines.append(f'  s{i} [label="{_fmt_set(s)}"];')
                for a, b in edges:
                    lines.append(f"  s{a} -- s{b};")
                lines.append("}")
                writer.emit_raw("\n".join(lines))
            else:
                writer.emit_plain(
                    f"nodes={len(named)} edges={len(edges)}", cid
                )
                for i, s in enumerate(named):
                    writer.emit_raw(f"node {i}: {_fmt_set(s)}")
                for a, b in edges:
                    writer.emit_raw(f"edge {a} {b}")
            emitted += 1
        elif args.command == "stats":
            stats = EnumStats()
            count = sum(1 for _ in enum_min_triangulations(
                sub, extender=args.extender, stats=stats
            ))
            answer: dict[str, object] = {
                "n": sub.n,
                "edge_count": sub.edge_count,
                "triangulations": count,
                "minimal_separators": stats.nodes_pulled,
                "extender_calls": stats.extender_calls,
                "nodes_pulled": stats.nodes_pulled,
            }
            if args.delay_stats:
                ms = [d * 1000.0 for d in stats.delays]
                answer["delay_ms"] = {
                    "first": ms[0] if ms else 0.0,
                    "p50": _percentile(ms, 0.50),
                    "p90": _percentile(ms, 0.90),
                    "p99": _percentile(ms, 0.99),
                    "max": max(ms) if ms else 0.0,
                }
            if args.output == "jsonl":
                writer.emit_json("stats", answer, cid)
            else:
                text = " ".join(
                    f"{key}={answer[key]}"
                    for key in (
                        "n",
                        "edge_count",
                        "triangulations",
                        "minimal_separators",
                        "extender_calls",
                    )
                )
                writer.emit_plain(text, cid)
            emitted += 1


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # nobody reads stdout any more; send what is still buffered to
        # the null device so the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output == "dot" and args.command not in ("treedecomps", "crossgraph"):
        parser.error("dot output is only available for treedecomps and crossgraph")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.command == "crossgraph" or args.max_crossgraph_nodes is not None:
        # resolved once, so a bad cap is reported before any output
        try:
            args.max_crossgraph_nodes = _crossgraph_limit(args)
        except GuardViolation as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    try:
        g, labels = parse_graph(text, args.format)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if g.n == 0:
        print("error: graph has no vertices", file=sys.stderr)
        return 1

    components = connected_components(g)
    if len(components) > 1 and not args.per_component:
        print(
            f"error: graph has {len(components)} connected components; "
            "rerun with --per-component to enumerate each separately",
            file=sys.stderr,
        )
        return 2
    if args.per_component and len(components) > 1:
        pieces = []
        for cid, comp in enumerate(components):
            sub, orig = induced_subgraph(g, comp)
            pieces.append((sub, orig, cid))
    else:
        pieces = [(g, tuple(range(g.n)), None)]

    writer = _Writer(sys.stdout, args.output, args.per_component)
    if args.output == "jsonl":
        writer.out.write(
            json.dumps(
                {
                    "kind": "graph",
                    "n": g.n,
                    "edge_count": g.edge_count,
                    "labels": labels,
                },
                separators=(", ", ": "),
            )
            + "\n"
        )
        writer.out.flush()
    try:
        _run_command(args, writer, pieces)
    except GuardViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
