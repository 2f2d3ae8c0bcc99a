"""Graph ingestion from DIMACS, edge-list, and JSON inputs.

External labels are mapped to dense 0-based ids at ingestion; the label
table (new id -> original label) is returned alongside the graph so
callers can translate answers back. In an edge list, a line whose
first non-blank character is ``#`` is a comment; a ``#`` after that is
part of a label, since labels are arbitrary tokens.
"""

from __future__ import annotations

import json
import sys

from .graph import Graph

FORMATS = ("dimacs", "edgelist", "json")


class ParseError(ValueError):
    """Malformed graph input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _add_edge(
    adj: list[int], u: int, v: int, line: int | None, shown: tuple[object, object]
) -> None:
    """Add the edge between ids u and v to the adjacency masks; errors
    name the endpoints as ``shown``, the way the input wrote them."""
    if u == v:
        raise ParseError(f"self-loop at vertex {shown[0]}", line)
    if adj[u] >> v & 1:
        raise ParseError(f"duplicate edge ({shown[0]}, {shown[1]})", line)
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def _parse_dimacs(text: str) -> tuple[Graph, list[str]]:
    n = None
    adj: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem header", line_no)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(f"malformed header {line!r}", line_no)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", line_no) from None
            if n < 0:
                raise ParseError("negative vertex count", line_no)
            if m < 0:
                raise ParseError("negative edge count", line_no)
            if n > sys.maxsize:
                raise ParseError("vertex count too large", line_no)
            adj = [0] * n
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before problem header", line_no)
            if len(fields) != 3:
                raise ParseError(f"malformed edge line {line!r}", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range in ({u}, {v})", line_no)
            _add_edge(adj, u - 1, v - 1, line_no, (u, v))
        else:
            raise ParseError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise ParseError("missing problem header")
    return Graph._from_masks(adj), [str(i + 1) for i in range(n)]


def _parse_edgelist(text: str) -> tuple[Graph, list[str]]:
    labels: list[str] = []
    index: dict[str, int] = {}
    adj: list[int] = []

    def intern(token: str) -> int:
        if token not in index:
            index[token] = len(labels)
            labels.append(token)
            adj.append(0)
        return index[token]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two labels, got {line!r}", line_no)
        a, b = tokens
        _add_edge(adj, intern(a), intern(b), line_no, (a, b))
    if not labels:
        raise ParseError("empty input")
    return Graph._from_masks(adj), labels


def _is_int(x: object) -> bool:
    # bool is a subclass of int, but true and false are not vertex ids
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text: str) -> tuple[Graph, list[str]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ParseError('expected an object with "n" and "edges"')
    n = data["n"]
    if not _is_int(n) or n < 0:
        raise ParseError('"n" must be a nonnegative integer')
    if n > sys.maxsize:
        raise ParseError('"n" is too large')
    if not isinstance(data["edges"], list):
        raise ParseError('"edges" must be a list')
    adj = [0] * n
    for pos, pair in enumerate(data["edges"]):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_int, pair)):
            raise ParseError(f"edge #{pos} must be a pair of integers")
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge #{pos} endpoint out of range in ({u}, {v})")
        _add_edge(adj, u, v, None, (u, v))
    return Graph._from_masks(adj), [str(i) for i in range(n)]


def parse_graph(text: str, fmt: str) -> tuple[Graph, list[str]]:
    """Parse graph text in the given format; returns (graph, labels)."""
    if not text.strip():
        raise ParseError("empty input")
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
