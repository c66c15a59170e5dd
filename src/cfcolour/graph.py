"""Simple undirected graphs with 1-based vertices, plus edgelist/DIMACS I/O."""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import IO, Callable, Iterable, Iterator, Literal, Sequence

# Per format, the prefix of the "n m" header line and the tag of each edge row.
_TEXT_TAGS = {"edgelist": ("", ""), "dimacs": ("p edge ", "e ")}
FORMATS = tuple(_TEXT_TAGS)

# The largest vertex and edge counts a graph may declare.  They are checked
# before anything is allocated, so a short header or spec cannot ask for
# unbounded memory.  The paper's sparse classes have m = O(n); 5 * 10**6 edges
# admit planar3tree(10**6) and grid(1000, 1000), and reject complete(3163).
MAX_VERTICES = 10**6
MAX_EDGES = 5 * 10**6


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 1..n.

    ``adjacency[v]`` is the sorted tuple of neighbours of v; index 0 is unused.
    Construct through :func:`build_graph`, which validates the edge list.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbours(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbours(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbours(u)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in self.vertices:
            for w in self.adjacency[u]:
                if u < w:
                    yield (u, w)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list.

    Rejects out-of-range endpoints and self-loops, naming the first such edge
    in the list, and then duplicate edges ((u,v) and (v,u) are one edge),
    naming the smallest duplicate pair: u is the first vertex whose sorted
    adjacency repeats a neighbour, v the smallest neighbour it repeats.

    A list that strictly increases with 1 <= u < v <= n, as :func:`save_graph`
    writes it and most generators make it, is checked in bulk: the appends
    alone then leave each adjacency sorted, lower neighbours first, and free
    of repeats, so it skips the per-edge checks, the sort and the scan.

    The cyclic garbage collector is paused for the build and then restored to
    the state it was found in, also when the build raises: the state is
    process-wide, so a caller that had it off keeps it off.  The build makes
    no cycles, but its fresh lists and tuples set off collections that each
    walk all of them again: more than half the time of a 10^5-vertex build.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if reason := size_error(n, 0):
        raise ValueError(reason)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if not isinstance(edges, list):  # a copy of 10^6 edges costs RSS and build time
            edges = list(edges)
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        if not edges or (
            all(map(lt, edges, islice(edges, 1, None)))
            and edges[0][0] >= 1 and all(u < v <= n for u, v in edges)
        ):
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            return Graph(n=n, adjacency=tuple(map(tuple, adj)))
        for u, v in edges:
            if not (1 <= u <= n):
                raise ValueError(f"edge ({u},{v}): endpoint {u} out of range 1..{n}")
            if not (1 <= v <= n):
                raise ValueError(f"edge ({u},{v}): endpoint {v} out of range 1..{n}")
            if u == v:
                raise ValueError(f"edge ({u},{v}): self-loop")
            adj[u].append(v)
            adj[v].append(u)
        for u, a in enumerate(adj):
            a.sort()
            if len(set(a)) < len(a):
                v = next(v for v, w in zip(a, a[1:]) if v == w)
                raise ValueError(f"duplicate edge {(u, v)}")
        return Graph(n=n, adjacency=tuple(map(tuple, adj)))
    finally:
        if collecting:
            gc.enable()


def size_error(n: int, m: int, counts: str = "edge") -> str | None:
    """Why a graph of ``n`` vertices and ``m`` edges is refused, or None if it is
    within the bounds.  ``counts`` names what ``m`` counts; vertices go first."""
    if n > MAX_VERTICES:
        return f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
    if m > MAX_EDGES:
        return f"{counts} count {m} exceeds the limit of {MAX_EDGES}"
    return None


def read_text(source: str | bytes | IO) -> str:
    """Decode text, UTF-8 bytes, or a readable text or binary stream."""
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def int_pairs(rows: list[str]) -> list[tuple[int, int]]:
    """Rows of two integer fields, such as ``"u v"``, as int pairs."""
    return [(int(a), int(b)) for a, b in map(str.split, rows)]


# Deleting every digit from a text in the shape the package writes leaves
# cols - 1 spaces and a newline per line; the spaces and newlines then become
# the commas of one JSON array.
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")


def whole_ints(text: str, cols: int) -> list[int] | None:
    """The fields of ``text``, read in one pass, if it has the exact shape the
    package writes: ASCII, ending in a newline, and every line ``cols`` runs of
    digits joined by single spaces.  None for any other text, which the caller
    then reads with :class:`DataLines`, so every syntax error comes from it."""
    if not text.isascii() or not text.endswith("\n"):
        return None
    data = text.encode()
    rows = data.count(b"\n")
    if data.translate(None, _DIGITS) != (b" " * (cols - 1) + b"\n") * rows:
        return None
    try:
        # JSON rejects a leading zero, which int() reads, and an empty field
        # between commas; the count rejects a text of one empty line.
        fields = json.loads(b"[" + data[:-1].translate(_COMMAS) + b"]")
    except ValueError:
        return None
    return fields if len(fields) == cols * rows else None


class DataLines:
    """The data lines of a text in one of the package's file formats.

    ``rows`` holds the stripped lines that are neither blank nor comments
    (lines starting with ``comment``).  Line numbers are counted again only
    to report an error, so the parse loops do not track them.
    """

    def __init__(self, fmt: str, source: str | bytes | IO, comment: Literal["#", "c"] = "#"):
        self.fmt = fmt
        self.comment = comment
        self.text = read_text(source)
        self.rows = [ln for ln in map(str.strip, self.text.splitlines()) if ln and not ln.startswith(comment)]

    def error(self, i: int, what: str, expected: str | None = None) -> ValueError:
        """A ValueError about ``rows[i]`` that names the format and the 1-based line."""
        lines = enumerate(map(str.strip, self.text.splitlines()), 1)
        numbers = (k for k, ln in lines if ln and not ln.startswith(self.comment))
        tail = "" if expected is None else f", expected {expected!r}"
        return ValueError(f"{self.fmt}: {what} at line {next(islice(numbers, i, None))}{tail}")

    def ints(self, start: int, stop: int | None, kind: str, shape: str,
             convert: Callable[[list[str]], Sequence]) -> Sequence:
        """Return ``convert(rows[start:stop])``, one comprehension of int() calls
        over the rows.  If it fails, name the first row that fails on its own as
        a malformed ``kind`` whose fields should read ``shape``."""
        rows = self.rows[start:stop]
        try:
            return convert(rows)
        except ValueError:
            for i, row in enumerate(rows, start):
                try:
                    convert([row])
                except ValueError:
                    raise self.error(i, f"malformed {kind} {row!r}", shape) from None
            raise


def _parse_edgelist(source: str | bytes | IO) -> Graph:
    lines = DataLines("edgelist", source)
    if not lines.rows:
        raise ValueError("edgelist: missing 'n m' header line")
    n, m = lines.ints(0, 1, "header", "n m", int_pairs)[0]
    if reason := size_error(n, m):
        raise lines.error(0, reason)
    if len(lines.rows) - 1 != m:
        raise ValueError(f"edgelist: header declares {m} edges but body has {len(lines.rows) - 1} lines")
    return build_graph(n, lines.ints(1, None, "line", "u v", int_pairs))


def _parse_dimacs(source: str | bytes | IO) -> Graph:
    lines = DataLines("dimacs", source, comment="c")
    rows = lines.rows
    if not rows:
        raise ValueError("dimacs: missing 'p edge n m' line")
    for i, row in enumerate(rows):
        tag = row.split(None, 1)[0]
        if tag != ("e" if i else "p"):
            known = {"e": "edge line before 'p edge n m' line", "p": "repeated 'p' line"}
            raise lines.error(i, known.get(tag, f"unknown line prefix {tag!r}"))
    if rows[0].split()[1:2] != ["edge"]:
        raise lines.error(0, f"malformed problem line {rows[0]!r}", "p edge n m")
    n, m = lines.ints(0, 1, "problem line", "p edge n m",
                      lambda r: [(int(a), int(b)) for _, _, a, b in map(str.split, r)])[0]
    if reason := size_error(n, m):
        raise lines.error(0, reason)
    if len(rows) - 1 != m:
        raise ValueError(f"dimacs: problem line declares {m} edges but found {len(rows) - 1}")
    return build_graph(n, lines.ints(1, None, "line", "e u v",
                                     lambda r: [(int(u), int(v)) for _, u, v in map(str.split, r)]))


def load_graph(source: str | bytes | IO, fmt: str = "edgelist") -> Graph:
    """Parse a graph from text, bytes, or a readable stream.

    An edgelist in the shape :func:`save_graph` writes is read in one pass;
    any other text goes through the line reader.  The one-pass read maps every
    field past the header to one shared int per vertex, so the adjacency
    holds one int object per vertex rather than one per entry."""
    if fmt == "edgelist":
        text = read_text(source)
        fields = whole_ints(text, 2)
        if fields and not size_error(fields[0], fields[1]) and fields[1] == len(fields) // 2 - 1:
            # Chunk by chunk, so each chunk's parsed ints are freed as they
            # are replaced.  A field above n stops the mapping, which leaves
            # the values as they were.
            ids, step = list(range(fields[0] + 1)), 1 << 16
            for a in range(2, len(fields), step):
                try:
                    fields[a:a + step] = map(ids.__getitem__, fields[a:a + step])
                except IndexError:
                    break
            # Past the header the line reader hands these same pairs to
            # build_graph, so any error from here on is the one it would raise.
            return build_graph(fields[0], zip(islice(fields, 2, None, 2), islice(fields, 3, None, 2)))
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(source)
    raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")


def save_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Serialise a graph; edges are emitted with u < v in lexicographic order."""
    if fmt not in _TEXT_TAGS:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    header, tag = _TEXT_TAGS[fmt]
    return f"{header}{g.n} {g.m}\n" + "".join([f"{tag}{u} {v}\n" for u, v in g.edges()])
