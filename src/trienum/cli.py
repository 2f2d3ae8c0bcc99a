"""Command-line front end: parse a graph, stream enumeration answers.

Every command is one entry of the ``COMMANDS`` table: its help text, the
``kind`` of its JSONL records, a generator of JSON-ready answers for one
connected component (in input ids), a plain renderer and, for the
commands that have one, a dot renderer. The subcommands and the check
that ``--output dot`` is available come from the table, and one loop,
``_run``, writes the answers of every command: it numbers the JSONL
records across components, tags them with their component, and stops
at ``--limit`` right after an answer is written.

Answers are written one per line and flushed immediately, so piping
into ``head`` or using ``--limit`` stops the enumeration early instead
of waiting for it to finish. Exit codes: 0 on success, 1 on input
errors (including input that is not UTF-8, and stdin closed at start
with no input file), when memory runs out and when stdout cannot be
written (a full disk, or stdout closed at start), 2 on bad flags and
guard violations (disconnected input without ``--per-component``, an
oversized crossing graph, or a bad crossing-graph cap), 130 when
interrupted (Ctrl-C), and 141 when the reader of stdout goes away
(e.g. ``| head``). None of them prints a traceback or a usage line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn

from .graph import Graph, GraphError, connected_components, induced_subgraph
from .io import FORMATS, ParseError, parse_graph
from .maxind import EnumStats
from .separators import crosses, enum_min_seps
from .treedecomp import enum_proper_tds
from .triangulate import EXTENDERS, _fill_pairs, enum_min_triangulations

DEFAULT_CROSSGRAPH_LIMIT = 500
CROSSGRAPH_LIMIT_ENV = "TRIENUM_CROSSGRAPH_LIMIT"
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as the shell reports Ctrl-C
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as for a writer killed by SIGPIPE
Ids = tuple[int, ...]  # a component's vertex ids in the input graph
# the records are built fresh from dicts, lists, strings and numbers, so
# they hold no cycle to check for; the output is that of ``json.dumps``
_encode = json.JSONEncoder(check_circular=False).encode


class GuardViolation(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Exit 2 with one line on stderr, without the usage line."""
        self.exit(2, f"error: {message}\n")


# the renderers take rows as the answer generators build them: sorted
def _fmt_pairs(edges: Iterable[Iterable[int]]) -> str:
    text = ",".join(f"{u}-{v}" for u, v in edges)
    return text if text else "-"


def _fmt_set(vs: Iterable[int]) -> str:
    return " ".join(str(v) for v in vs)


def _dot(name: str, node: str, labels: list[list[int]], edges: list[list[int]]) -> str:
    lines = [f"graph {name} {{"]
    lines += [f'  {node}{i} [label="{_fmt_set(s)}"];' for i, s in enumerate(labels)]
    lines += [f"  {node}{a} -- {node}{b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines)


def _percentile(ordered: list[float], q: float) -> float:
    """The nearest-rank q-quantile of samples sorted ascending."""
    if not ordered:
        return 0.0
    pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[pos]


# The answer generators look up the enumerators in this module's namespace
# when they run, so a caller that rebinds ``cli.enum_min_seps`` and the
# like (as the benchmark's tracer does) sees every call. Every row they
# build is sorted: ``orig`` ascends, so mapping an ascending row through
# it keeps the row ascending.


def _minseps(sub: Graph, orig: Ids, args: argparse.Namespace) -> Iterator[Any]:
    for sep in enum_min_seps(sub):
        yield [orig[v] for v in sorted(sep)]


def _triangulations(sub: Graph, orig: Ids, args: argparse.Namespace) -> Iterator[Any]:
    for tri in enum_min_triangulations(sub, extender=args.extender):
        h = tri.chordal_graph
        # read off the masks: the pairs ascend, so the rows do too
        fill = [[orig[u], orig[w]] for u, w in _fill_pairs(sub._adj, h._adj)]
        yield {"fill": fill, "edge_count": h.edge_count}


def _triangulation_plain(tri: dict) -> str:
    return f"fill={_fmt_pairs(tri['fill'])} m={tri['edge_count']}"


def _treedecomps(sub: Graph, orig: Ids, args: argparse.Namespace) -> Iterator[Any]:
    # each distinct bag's row, in input ids, is built once per component
    rows: dict[frozenset[int], list[int]] = {}
    for d in enum_proper_tds(sub, extender=args.extender):
        bags = [
            rows.get(b) or rows.setdefault(b, [orig[v] for v in sorted(b)])
            for b in d.bags
        ]
        yield {"bags": bags, "tree": [[a, b] for a, b in d.edges]}


def _treedecomp_plain(td: dict) -> str:
    bags = "|".join(_fmt_set(b) for b in td["bags"])
    return f"bags={bags} tree={_fmt_pairs(td['tree'])}"


def _treedecomp_dot(td: dict, cid: int | None, k: int) -> str:
    name = f"td{k}" if cid is None else f"td_c{cid}_{k}"
    return _dot(name, "b", td["bags"], td["tree"])


def _crossgraph(sub: Graph, orig: Ids, args: argparse.Namespace) -> Iterator[Any]:
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
    yield {"nodes": [[orig[v] for v in sorted(s)] for s in nodes], "edges": edges}


def _crossgraph_plain(cg: dict) -> str:
    # only the first line carries the component prefix
    lines = [f"nodes={len(cg['nodes'])} edges={len(cg['edges'])}"]
    lines += [f"node {i}: {_fmt_set(s)}" for i, s in enumerate(cg["nodes"])]
    lines += [f"edge {a} {b}" for a, b in cg["edges"]]
    return "\n".join(lines)


def _crossgraph_dot(cg: dict, cid: int | None, k: int) -> str:
    name = "crossgraph" if cid is None else f"crossgraph_c{cid}"
    return _dot(name, "s", cg["nodes"], cg["edges"])


def _stats(sub: Graph, orig: Ids, args: argparse.Namespace) -> Iterator[Any]:
    stats = EnumStats()
    tris = enum_min_triangulations(sub, extender=args.extender, stats=stats)
    count = sum(1 for _ in tris)
    answer: dict[str, object] = {
        "n": sub.n,
        "edge_count": sub.edge_count,
        "triangulations": count,
        "minimal_separators": stats.nodes_pulled,
        "extender_calls": stats.extender_calls,
    }
    if args.delay_stats:
        ms = [d * 1000.0 for d in stats.delays]
        ordered = sorted(ms)
        answer["delay_ms"] = {
            "first": ms[0] if ms else 0.0,
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "max": ordered[-1] if ordered else 0.0,
        }
    yield answer


def _stats_plain(answer: dict) -> str:
    # delay_ms is shown in jsonl only
    return " ".join(f"{k}={v}" for k, v in answer.items() if k != "delay_ms")


class Command(NamedTuple):
    help: str
    kind: str  # the "kind" of the command's JSONL records
    answers: Callable[[Graph, Ids, argparse.Namespace], Iterator[Any]]
    plain: Callable[[Any], str]
    dot: Callable[[Any, int | None, int], str] | None = None


COMMANDS = {
    "minseps": Command("stream all minimal separators", "minsep", _minseps, _fmt_set),
    "triangulations": Command(
        "stream all minimal triangulations",
        "triangulation",
        _triangulations,
        _triangulation_plain,
    ),
    "treedecomps": Command(
        "stream all proper tree decompositions",
        "treedecomp",
        _treedecomps,
        _treedecomp_plain,
        _treedecomp_dot,
    ),
    "crossgraph": Command(
        "materialize the separator crossing graph",
        "crossgraph",
        _crossgraph,
        _crossgraph_plain,
        _crossgraph_dot,
    ),
    "stats": Command(
        "run the triangulation enumeration and report counters",
        "stats",
        _stats,
        _stats_plain,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trienum",
        description="Enumerate minimal separators, minimal triangulations, "
        "and proper tree decompositions of a graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
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
    """The input text, decoded as strict UTF-8 from a file or stdin."""
    if path == "-":
        if sys.stdin is None:
            # started with stdin closed (``<&-``), so Python has no stream
            raise OSError("stdin is closed")
        return sys.stdin.buffer.read().decode("utf-8")
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


def _write(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _run(args: argparse.Namespace, pieces: list[tuple[Graph, Ids, int | None]]) -> None:
    """Write the answers of ``args.command`` for each piece, in the
    selected output style. A piece's component id is None when the graph
    is run whole; only tagged pieces get a component tag or prefix."""
    command = COMMANDS[args.command]
    index = 0
    for sub, orig, cid in pieces:
        for k, answer in enumerate(command.answers(sub, orig, args)):
            if args.output == "jsonl":
                record: dict[str, object] = {"kind": command.kind, "index": index}
                if cid is not None:
                    record["component"] = cid
                record["answer"] = answer
                _write(_encode(record))
            elif args.output == "dot":
                _write(command.dot(answer, cid, k))
            else:
                _write(("" if cid is None else f"c{cid} ") + command.plain(answer))
            index += 1
            if index == args.limit:
                return


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:
        # started with stdout closed (``>&-``), so Python has no stream
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 1
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        # stdout takes no more (its reader went away, or the disk is
        # full); send what is still buffered to the null device so the
        # interpreter's last flush cannot fail
        closed = isinstance(exc, BrokenPipeError)
        if not closed:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE if closed else 1


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output == "dot" and COMMANDS[args.command].dot is None:
        with_dot = [name for name, command in COMMANDS.items() if command.dot]
        parser.error(f"dot output is only available for {' and '.join(with_dot)}")
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
    except (OSError, UnicodeDecodeError) as exc:
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
    if len(components) > 1:
        pieces = [
            (*induced_subgraph(g, comp), cid) for cid, comp in enumerate(components)
        ]
    else:
        pieces = [(g, tuple(range(g.n)), None)]

    if args.output == "jsonl":
        header = {"kind": "graph", "n": g.n, "edge_count": g.edge_count}
        _write(_encode({**header, "labels": labels}))
    try:
        _run(args, pieces)
    except GuardViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
