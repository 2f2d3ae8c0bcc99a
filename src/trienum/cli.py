"""Command-line front end: parse a graph, stream enumeration answers.

Every command is one entry of the ``COMMANDS`` table: its help text, the
``kind`` of its JSONL records, a generator of the text of each answer
for one connected component (in input ids, in the selected output
style), its output styles and its own flags. Each subcommand takes the
shared arguments, ``--output`` with the command's styles, and the
command's own flags as ``OPTIONS`` specifies them, so argparse rejects
any other flag or style. One loop, ``_run``, writes the answers of
every command: it wraps each JSONL answer in its record, numbers the
records across components, tags them with their component, and stops
at ``--limit`` right after an answer is written. The ``minseps``,
``triangulations`` and ``treedecomps`` answers are joined from text
fragments made once per component; ``json`` writes only the header and
the ``stats`` and ``crossgraph`` answers.

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
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn

from .graph import Graph, GraphError, bits, connected_components, induced_subgraph, mask_of
from .io import FORMATS, ParseError, parse_graph
from .maxind import EnumStats
from .separators import _meets_two, _sides, enum_min_seps
from .treedecomp import enum_proper_tds
from .triangulate import EXTENDERS, enum_min_triangulations

DEFAULT_CROSSGRAPH_LIMIT = 500
CROSSGRAPH_LIMIT_ENV = "TRIENUM_CROSSGRAPH_LIMIT"
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as the shell reports Ctrl-C
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as for a writer killed by SIGPIPE
Ids = tuple[int, ...]  # a component's vertex ids in the input graph


class GuardViolation(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Exit 2 with one line on stderr, without the usage line."""
        self.exit(2, f"error: {message}\n")


def _dot(name: str, node: str, labels: Iterable[str], edges: Iterable[Iterable[int]]) -> str:
    lines = [f"graph {name} {{"]
    lines += [f'  {node}{i} [label="{text}"];' for i, text in enumerate(labels)]
    lines += [f"  {node}{a} -- {node}{b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines)


def _percentile(ordered: list[float], q: float) -> float:
    """The nearest-rank q-quantile of samples sorted ascending."""
    pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[pos]


class _Texts(dict):
    """A fragment table: the text of each key, made by ``fmt`` on its
    first lookup and then kept. A table lives for one component's run,
    so it holds one text per distinct fragment of that run (a bag or a
    tree edge), however many answers repeat it."""

    def __init__(self, fmt: Callable[[Any], str]) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.fmt(key)
        return text


def _set_text(orig: Ids, output: str) -> Callable[[Iterable[int]], str]:
    """The text of a vertex set, in input ids, joined from its members'
    texts: ``[a, b]`` in JSONL, ``a b`` in plain and dot. ``orig``
    ascends, so the sorted members stay sorted in input ids."""
    vertex = list(map(str, orig)).__getitem__
    if output == "jsonl":
        return lambda vs: "[" + ", ".join(map(vertex, sorted(vs))) + "]"
    return lambda vs: " ".join(map(vertex, sorted(vs)))


# Each answer generator yields the text of each answer of one component,
# in the output style of ``args.output``: the JSON value of the record's
# "answer" for jsonl, else the line(s) to write. They look up the
# enumerators in this module's namespace when they run, so a caller that
# rebinds ``cli.enum_min_seps`` and the like (as the benchmark's tracer
# does) sees every call. The texts of the vertices, fill pairs, bags and
# tree edges are made once per component, and each answer joins them.


def _minseps(sub: Graph, orig: Ids, cid: int | None, args: argparse.Namespace) -> Iterator[str]:
    return map(_set_text(orig, args.output), enum_min_seps(sub))


def _pair_text(vertex: list[str], pair: str, n: int, p: int) -> str:
    """The text of the fill pair at bit p = u*n + w of a packed fill."""
    u, w = divmod(p, n)
    return pair.format(vertex[u], vertex[w])


# bin(fill) reversed, as bytes, to selectors: bit p of the fill selects slot p
_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def _triangulations(
    sub: Graph, orig: Ids, cid: int | None, args: argparse.Namespace
) -> Iterator[str]:
    jsonl = args.output == "jsonl"
    vertex = list(map(str, orig))
    pair = "[{}, {}]" if jsonl else "{}-{}"
    n = sub.n
    # slot p holds the text of the fill pair at bit p of a packed fill,
    # made on the first answer that holds the pair; the slots reach only
    # as far as the highest such bit, so a chordal component has none
    slots: list[str] = []
    made = 0
    for tri in enum_min_triangulations(sub, extender=args.extender):
        fill = tri._fill
        new = fill & ~made
        if new:
            made |= new
            slots += [""] * (new.bit_length() - len(slots))
            for p in bits(new):
                slots[p] = _pair_text(vertex, pair, n, p)
        # one C-level pass picks the texts, in ascending bit order
        texts = compress(slots, bin(fill)[:1:-1].encode().translate(_SELECT))
        m = sub.edge_count + fill.bit_count()
        if jsonl:
            yield f'{{"fill": [{", ".join(texts)}], "edge_count": {m}}}'
        else:
            yield f"fill={','.join(texts) or '-'} m={m}"


def _treedecomps(
    sub: Graph, orig: Ids, cid: int | None, args: argparse.Namespace
) -> Iterator[str]:
    # each distinct bag is one frozenset for the whole run
    bags = _Texts(_set_text(orig, args.output))
    edge = "[{}, {}]" if args.output == "jsonl" else "{}-{}"
    edges = _Texts(lambda e: edge.format(*e))
    for k, d in enumerate(enum_proper_tds(sub, extender=args.extender)):
        rows = map(bags.__getitem__, d.bags)
        if args.output == "dot":
            yield _dot(f"td{k}" if cid is None else f"td_c{cid}_{k}", "b", rows, d.edges)
            continue
        tree = map(edges.__getitem__, d.edges)
        if args.output == "jsonl":
            yield f'{{"bags": [{", ".join(rows)}], "tree": [{", ".join(tree)}]}}'
        else:
            yield f"bags={'|'.join(rows)} tree={','.join(tree) or '-'}"


def _crossgraph(sub: Graph, orig: Ids, cid: int | None, args: argparse.Namespace) -> Iterator[str]:
    cap = args.max_crossgraph_nodes
    nodes = []
    for sep in enum_min_seps(sub):
        nodes.append(sep)
        if len(nodes) > cap:
            raise GuardViolation(
                f"crossing graph exceeds {cap} nodes; raise the cap with "
                f"--max-crossgraph-nodes or {CROSSGRAPH_LIMIT_ENV}"
            )
    # the nodes are minimal separators by construction, so each pair is
    # tested against the first one's sides, swept once per node
    masks = list(map(mask_of, nodes))
    sides = [_sides(sub._adj, sub.n, s) for s in masks]
    edges = [
        [i, j]
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
        if _meets_two(sides[i], masks[j])
    ]
    if args.output == "jsonl":
        rows = [[orig[v] for v in sorted(s)] for s in nodes]
        yield json.dumps({"nodes": rows, "edges": edges})
        return
    labels = map(_set_text(orig, args.output), nodes)
    if args.output == "dot":
        yield _dot("crossgraph" if cid is None else f"crossgraph_c{cid}", "s", labels, edges)
    else:
        # only the first line carries the component prefix
        lines = [f"nodes={len(nodes)} edges={len(edges)}"]
        lines += [f"node {i}: {text}" for i, text in enumerate(labels)]
        lines += [f"edge {a} {b}" for a, b in edges]
        yield "\n".join(lines)


def _stats(sub: Graph, orig: Ids, cid: int | None, args: argparse.Namespace) -> Iterator[str]:
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
    if args.output != "jsonl":
        # delay_ms is shown in jsonl only
        yield " ".join(f"{k}={v}" for k, v in answer.items())
        return
    if args.delay_stats:
        ms = [d * 1000.0 for d in stats.delays]
        ordered = sorted(ms)
        answer["delay_ms"] = {
            "first": ms[0],
            "p50": _percentile(ordered, 0.50),
            "p90": _percentile(ordered, 0.90),
            "p99": _percentile(ordered, 0.99),
            "max": ordered[-1],
        }
    yield json.dumps(answer)


class Command(NamedTuple):
    help: str
    kind: str  # the "kind" of the command's JSONL records
    answers: Callable[[Graph, Ids, int | None, argparse.Namespace], Iterator[str]]
    outputs: tuple[str, ...] = ("jsonl", "plain")  # its --output styles
    options: tuple[str, ...] = ()  # its own flags, keys of OPTIONS


# the argparse spec of each flag that only some commands take
OPTIONS: dict[str, dict[str, Any]] = {
    "--extender": {"choices": EXTENDERS, "default": "blackbox"},
    "--delay-stats": {"action": "store_true", "help": "include per-answer delay percentiles"},
    "--max-crossgraph-nodes": {
        "type": int,
        "help": f"node cap (default {DEFAULT_CROSSGRAPH_LIMIT}, env {CROSSGRAPH_LIMIT_ENV})",
    },
}
COMMANDS = {
    "minseps": Command("stream all minimal separators", "minsep", _minseps),
    "triangulations": Command(
        "stream all minimal triangulations",
        "triangulation",
        _triangulations,
        options=("--extender",),
    ),
    "treedecomps": Command(
        "stream all proper tree decompositions",
        "treedecomp",
        _treedecomps,
        outputs=("jsonl", "plain", "dot"),
        options=("--extender",),
    ),
    "crossgraph": Command(
        "materialize the separator crossing graph",
        "crossgraph",
        _crossgraph,
        outputs=("jsonl", "plain", "dot"),
        options=("--max-crossgraph-nodes",),
    ),
    "stats": Command(
        "run the triangulation enumeration and report counters",
        "stats",
        _stats,
        options=("--extender", "--delay-stats"),
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
        p.add_argument("--output", choices=command.outputs, default="jsonl")
        p.add_argument("--limit", type=int, help="stop after this many answers")
        p.add_argument(
            "--per-component",
            action="store_true",
            help="run each connected component separately instead of rejecting "
            "disconnected input",
        )
        for flag in command.options:
            p.add_argument(flag, **OPTIONS[flag])
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
    jsonl = args.output == "jsonl"
    # a record's keys in the order json.dumps writes them
    head = f'{{"kind": {json.dumps(command.kind)}, "index": '
    index = 0
    for sub, orig, cid in pieces:
        if jsonl:
            tag = ', "answer": ' if cid is None else f', "component": {cid}, "answer": '
        else:
            tag = "" if cid is None or args.output == "dot" else f"c{cid} "
        for text in command.answers(sub, orig, cid, args):
            _write(f"{head}{index}{tag}{text}}}" if jsonl else tag + text)
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
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.command == "crossgraph":
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
        _write(json.dumps({**header, "labels": labels}))
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
