"""Simple undirected graphs with 1-based vertices, plus edgelist/DIMACS I/O."""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Callable, Iterable, Iterator, Literal

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
    Construct through :func:`build_graph`, which validates the edge list, or
    :func:`graph_of_lists`, which trusts its caller's sorted lists.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in self.vertices:
            for w in self.adjacency[u]:
                if u < w:
                    yield (u, w)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, read once, so it may be an iterator.

    Rejects out-of-range endpoints and self-loops, naming the first such edge
    in the list, and then duplicate edges ((u,v) and (v,u) are one edge),
    naming the smallest duplicate pair: u is the first vertex whose sorted
    adjacency repeats a neighbour, v the smallest neighbour it repeats.

    Each edge is checked and appended as it is read, and the loop tracks
    whether the list so far strictly increases with 1 <= u < v <= n, as
    :func:`save_graph` writes it and most generators make it.  Such a list
    leaves each adjacency sorted, lower neighbours first, and free of repeats;
    any other list then gets the per-vertex sort and duplicate scan.  The
    lists are frozen by :func:`graph_of_lists`.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if reason := size_error(n, 0):
        raise ValueError(reason)
    return graph_of_lists(lambda: _edge_lists(n, edges))


def _edge_lists(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    ordered, lu, lv = True, 0, 0
    for u, v in edges:
        if not 0 < u < v <= n:
            if not 0 < v < u <= n:
                raise ValueError(_edge_error(n, u, v))
            ordered = False
        elif ordered and not (lu < u or lu == u and lv < v):
            ordered = False
        lu, lv = u, v
        adj[u].append(v)
        adj[v].append(u)
    if not ordered:
        for u, a in enumerate(adj):
            a.sort()
            if len(set(a)) < len(a):
                v = next(v for v, w in zip(a, a[1:]) if v == w)
                raise ValueError(f"duplicate edge {(u, v)}")
    return adj


def graph_of_lists(lists: Callable[[], list[list[int]] | list[tuple[int, ...]]]) -> Graph:
    """The Graph on 1..n whose adjacency is the n + 1 lists that ``lists()``
    returns, list 0 empty and each other list sorted and free of repeats: the
    caller vouches for that, nothing here checks it.  The lists are frozen
    into tuples in place, a block of vertices at a time, so lists and tuples
    never coexist in full; a tuple among them is kept as it is.

    The cyclic garbage collector is paused while ``lists()`` runs and the
    lists are frozen, and then restored to the state it was found in, also
    when ``lists()`` raises: the state is process-wide, so a caller that had
    it off keeps it off.  A build makes no cycles, but its fresh lists and
    tuples set off collections that each walk all of them again: more than
    half the time of a 10^5-vertex build.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        adj = lists()
        step = 1 << 12
        for a in range(0, len(adj), step):
            adj[a:a + step] = map(tuple, adj[a:a + step])
        return Graph(n=len(adj) - 1, adjacency=tuple(adj))
    finally:
        if collecting:
            gc.enable()


def _edge_error(n: int, u: int, v: int) -> str | None:
    """Why (u, v) is no edge on 1..n (an endpoint out of range, u first, or a self-loop), or None."""
    for w in (u, v):
        if not 1 <= w <= n:
            return f"edge ({u},{v}): endpoint {w} out of range 1..{n}"
    return f"edge ({u},{v}): self-loop" if u == v else None


def size_error(n: int, m: int, counts: str = "edge") -> str | None:
    """Why a graph of ``n`` vertices and ``m`` edges is refused, or None if it is
    within the bounds.  ``counts`` names what ``m`` counts; vertices go first."""
    if n > MAX_VERTICES:
        return f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
    if m > MAX_EDGES:
        return f"{counts} count {m} exceeds the limit of {MAX_EDGES}"
    return None


# Deleting every digit from a chunk in the shape the package writes leaves
# cols - 1 spaces and a newline per line; the spaces and newlines then become
# the commas of one JSON array.
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")
# The characters of text in a chunk that DataLines reads, rounded up to a whole line.
_CHUNK = 1 << 16


def _written_fields(text: str, a: int, b: int, cols: int) -> list[int] | None:
    # The fields of text[a:b] if in the shape the package writes, ``cols`` a
    # line, else None; a last line with no newline would parse as no line.
    try:
        data = text[a:b].encode("ascii")
        rows = data.count(b"\n")
        if not data.endswith(b"\n") or data.translate(None, _DIGITS) != (b" " * (cols - 1) + b"\n") * rows:
            return None
        # JSON rejects a leading zero, which int() reads, and an empty field
        # between commas; the count rejects a chunk of one empty line.
        fields = json.loads(b"[" + data[:-1].translate(_COMMAS) + b"]")
    except ValueError:
        return None
    return fields if len(fields) == cols * rows else None


class DataLines:
    """The one reader of file text.  Its data lines are the stripped lines
    that are neither blank nor comments (starting with ``comment``): the
    header, if ``head`` names it and gives its shape, then the ``body``
    lines.  A shape ends in ``cols`` int fields, after any tags (DIMACS).
    :meth:`chunks` reads the text in chunks of whole lines, each parsed by JSON
    if in the shape the package writes (``written`` while all are), else split
    by :meth:`data_rows` and read by ``int()``.  It counts the data lines
    (``rows``), keeps the header's fields (``head``) and records the first
    malformed line (``bad``), after which it reads no fields."""

    def __init__(self, fmt: str, text: str, cols: int, body: str,
                 head: tuple[str, str] | None = None, comment: Literal["#", "c"] = "#"):
        self.fmt, self.text, self.cols, self.body, self.shape, self.comment = fmt, text, cols, body, head, comment

    def data_rows(self, chunk: str | None = None) -> list[str]:  # with no chunk, the whole text's
        lines = (self.text if chunk is None else chunk).splitlines()
        return [ln for ln in map(str.strip, lines) if ln and not ln.startswith(self.comment)]

    def chunks(self) -> Iterator[list[int]]:
        """Read the text from its start, and yield each chunk's body fields."""
        self.rows, self.head, self.bad = 0, [], None
        cols, text = self.cols, self.text
        self.written = bool(text) and len(self.body.split()) == cols  # no tags; "" ends in no newline
        b = 0
        while b < len(text):
            a, b = b, text.find("\n", b + _CHUNK - 1) + 1 or len(text)
            fields = _written_fields(text, a, b, cols) if self.written else None
            if fields is None:
                self.written = False
                yield self._read(self.data_rows(text[a:b]))
                continue
            first, self.rows = self.rows, self.rows + len(fields) // cols
            if not first and self.shape:
                self.head = fields[:cols]
                del fields[:cols]
            yield fields

    def _read(self, rows: list[str]) -> list[int]:
        # The body fields of a split chunk's data lines; its rows are freed on return.
        first, self.rows = self.rows, self.rows + len(rows)
        if first or not rows or not self.shape:
            return self._ints(rows, first, self.body)
        self.head = self._ints(rows[:1], 0, self.shape[1])
        return self._ints(islice(rows, 1, None), 1, self.body)

    def _ints(self, rows: Iterable[str], first: int, shape: str) -> list[int]:
        # The int fields of ``rows``, data lines first on; a row without the
        # words of ``shape`` hands int() an empty word.
        if self.bad is not None:
            return []
        words = shape.split()
        width, tags = len(words), len(words) - self.cols
        lits, seen = words[:tags], count(first)
        try:
            return [int(w) for ws, _ in zip(map(str.split, rows), seen)
                    for w in (ws[tags:] if len(ws) == width and (not tags or ws[:tags] == lits) else [""])]
        except ValueError:
            self.bad = next(seen) - 1  # zip drew the bad row's index just before its words
            return []

    def header(self, missing: str) -> list[int]:
        """The header's fields; with no data line the ``missing`` error, and a malformed header's."""
        if not self.rows:
            raise ValueError(f"{self.fmt}: {missing}")
        if self.bad == 0:
            raise self.error(0)
        return self.head

    def error(self, i: int, what: str | None = None) -> ValueError:
        """A ValueError about data line ``i``, naming the format and the
        1-based line: ``what``, or with none, that the line is malformed."""
        lines = enumerate(map(str.strip, self.text.splitlines()), 1)
        k, row = next(islice(((k, ln) for k, ln in lines if ln and not ln.startswith(self.comment)), i, None))
        if what is not None:
            return ValueError(f"{self.fmt}: {what} at line {k}")
        kind, shape = self.shape if i == 0 and self.shape else ("line", self.body)
        return ValueError(f"{self.fmt}: malformed {kind} {row!r} at line {k}, expected {shape!r}")


def load_graph(text: str, fmt: str = "edgelist") -> Graph:
    """Parse a graph from the text of an edgelist or DIMACS file, read by
    :class:`DataLines`.  While every chunk is in the written shape, its fields
    are mapped to one shared int per vertex, so the adjacency holds one int
    object per vertex.  Errors come in order: DIMACS tags, header syntax, the
    size bound, the count, body syntax, and then the edges."""
    if fmt not in _TEXT_TAGS:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    dimacs = fmt == "dimacs"
    lines = DataLines(fmt, text, 2, "e u v", ("problem line", "p edge n m"), "c") if dimacs else \
        DataLines(fmt, text, 2, "u v", ("header", "n m"))
    parts: list[list[int]] = []
    ids: list[int] | None = None
    for fields in lines.chunks():
        if lines.written:
            # Made after the size and line-count checks; every chunk is mapped before
            # the build (mapping in its loop was 10% slower).  A field above n stops it.
            if ids is None:
                n, m = lines.head
                ids = [] if size_error(n, m) or text.count("\n") != m + 1 else list(range(n + 1))
            try:
                fields[:] = map(ids.__getitem__, fields)
            except IndexError:
                ids = []
        parts.append(fields)
    if dimacs and lines.bad is not None:
        # A wrong tag makes its line malformed; the first comes before any other error.
        for i, row in enumerate(lines.data_rows()):
            if (tag := row.split(None, 1)[0]) != ("e" if i else "p"):
                known = {"e": "edge line before 'p edge n m' line", "p": "repeated 'p' line"}
                raise lines.error(i, known.get(tag, f"unknown line prefix {tag!r}"))
    n, m = lines.header("missing 'p edge n m' line" if dimacs else "missing 'n m' header line")
    if reason := size_error(n, m):
        raise lines.error(0, reason)
    if (k := lines.rows - 1) != m:
        raise lines.error(0, f"problem line declares {m} edges but found {k}" if dimacs
                          else f"header declares {m} edges but body has {k} lines")
    if lines.bad is not None:
        raise lines.error(lines.bad)
    parts.reverse()
    try:
        return build_graph(n, chain.from_iterable(_drain_pairs(parts)))
    except ValueError as err:
        # The chunks are freed: the text is read again for the line of the first edge out
        # of range or a self-loop.  A duplicate edge or a negative count is raised as it is.
        if n >= 0:
            it = chain.from_iterable(lines.chunks())
            bad = (i for i, e in enumerate(zip(it, it), 1) if _edge_error(n, *e))
            if (line := next(bad, None)) is not None:
                raise lines.error(line, str(err)) from None
        raise


def _drain_pairs(parsed: list[list[int]]) -> Iterator[Iterator[tuple[int, int]]]:
    # The pairs of each chunk, popped from the end of ``parsed``, so that the
    # build frees a chunk as soon as it has read it.
    while parsed:
        fields = iter(parsed.pop())
        yield zip(fields, fields)


def save_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Serialise a graph; edges are emitted with u < v in lexicographic order."""
    if fmt not in _TEXT_TAGS:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    header, tag = _TEXT_TAGS[fmt]
    m = g.m
    return f"{header}{g.n} {m}\n" + f"{tag}%s %s\n" * m % tuple(chain.from_iterable(g.edges()))
