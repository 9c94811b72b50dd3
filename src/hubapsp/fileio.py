"""Graph files in a DIMACS-style shortest-path format.

Two record kinds: comments (``c ...``, a line whose first field is exactly
``c``) and one problem line ``p sp N M`` or ``p spt N M`` followed by
exactly M arc lines.  Arcs are 1-based: ``a u v w`` for plain graphs,
``a u v w t`` with a transit time ``t > 0`` under the ``spt`` header.
Integers stay integers; everything else parses as a float and serializes
through repr, so serialize and parse invert each other bit for bit.  The
format is ASCII: a non-ASCII character anywhere, or an underscore outside a
comment, is a `ParseError`, so digit separators (``1_000``) and non-ASCII
digits, which Python's number parsers would read, never parse.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

from .graph import Digraph, build_graph
from .parametric import TimedDigraph


class ParseError(ValueError):
    def __init__(self, message: str, source: str, line: Optional[int] = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


def _number(tok: str, what: str, source: str, lineno: int) -> Union[int, float]:
    """The token of field ``what`` (weight or time) as an int or a float."""
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        x = float(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", source, lineno) from None
    if not math.isfinite(x):
        raise ParseError(f"non-finite {what} {tok!r}", source, lineno)
    return x


def _refuse_characters(text: str, source: str) -> None:
    """Raise on the first line holding a character the format does not have.

    The format is ASCII, so a non-ASCII character is refused on any line.
    An underscore is refused outside comments: Python's number parsers read
    ``1_000`` as 1000, which no serializer writes.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.isascii():
            col = next(i for i, ch in enumerate(line, start=1) if not ch.isascii())
            raise ParseError(f"non-ASCII character in column {col}", source, lineno)
        if "_" in line and line.split()[0] != "c":
            raise ParseError("'_' outside a comment", source, lineno)


def parse_graph_text(text: str, source: str = "<string>"):
    """Parse file content; returns Digraph for sp, TimedDigraph for spt."""
    header: Optional[Tuple[bool, int, int]] = None
    arcs: List[Tuple[int, int, Union[int, float]]] = []
    times: List[Union[int, float]] = []

    if "_" in text or not text.isascii():
        _refuse_characters(text, source)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        kind = fields[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate problem line", source, lineno)
            if len(fields) != 4 or fields[1] not in ("sp", "spt"):
                raise ParseError("expected 'p sp N M' or 'p spt N M'",
                                 source, lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("N and M must be integers",
                                 source, lineno) from None
            if n < 0 or m < 0:
                raise ParseError("N and M must be nonnegative", source, lineno)
            header = (fields[1] == "spt", n, m)
        elif kind == "a":
            if header is None:
                raise ParseError("arc before problem line", source, lineno)
            timed, n, m = header
            if len(arcs) == m:
                raise ParseError(f"more than the declared {m} arcs",
                                 source, lineno)
            want = 5 if timed else 4
            if len(fields) != want:
                raise ParseError(
                    f"expected {want - 1} fields after 'a'", source, lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("vertex ids must be integers",
                                 source, lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range 1..{n}",
                                 source, lineno)
            w = _number(fields[3], "weight", source, lineno)
            arcs.append((u - 1, v - 1, w))
            if timed:
                t = _number(fields[4], "time", source, lineno)
                if not t > 0:
                    raise ParseError(f"transit time must be > 0, got {t!r}",
                                     source, lineno)
                times.append(t)
        else:
            raise ParseError(f"unknown record type {kind!r}", source, lineno)

    if header is None:
        raise ParseError("missing problem line", source)
    timed, n, m = header
    if len(arcs) != m:
        raise ParseError(f"declared {m} arcs but found {len(arcs)}", source)
    g = build_graph(n, arcs)
    if timed:
        return TimedDigraph(g, tuple(times))
    return g


def parse_graph(path):
    # A byte past ASCII reads as a lone surrogate, which the text parser
    # refuses with the number of its line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_graph_text(fh.read(), source=str(path))


def _fmt(x) -> str:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"cannot serialize weight {x!r}")
    if isinstance(x, int):
        return str(x)
    return repr(x)


def serialize_graph(g: Union[Digraph, TimedDigraph]) -> str:
    timed = isinstance(g, TimedDigraph)
    base = g.base if timed else g
    lines = [f"p {'spt' if timed else 'sp'} {base.n} {base.m}"]
    for i, (u, v, w) in enumerate(base.edges):
        rec = f"a {u + 1} {v + 1} {_fmt(w)}"
        if timed:
            rec += f" {_fmt(g.times[i])}"
        lines.append(rec)
    return "\n".join(lines) + "\n"
