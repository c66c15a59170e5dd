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


# Deleting every digit from a text in the shape the package writes leaves
# cols - 1 spaces and a newline per line; the spaces and newlines then become
# the commas of one JSON array.
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")
# The characters of text in a chunk of written_ints, rounded up to a whole line.
_CHUNK = 1 << 16


def written_ints(text: str, cols: int) -> Iterator[list[int]]:
    """The fields of ``text``, one chunk of whole lines (about 64 KiB) at a
    time, while it has the exact shape the package writes: ASCII, ending in a
    newline, and every line ``cols`` runs of digits joined by single spaces.

    The first chunk off that shape raises ValueError, so a caller that reads
    every chunk has checked the whole text.  Each chunk is encoded, checked and
    parsed by JSON on its own, so the text is never copied whole."""
    if not text.isascii() or not text.endswith("\n"):
        raise ValueError("not in the written shape")
    line = b" " * (cols - 1) + b"\n"
    a = 0
    while a < len(text):
        b = text.find("\n", a + _CHUNK - 1) + 1 or len(text)
        data = text[a:b].encode()
        rows = data.count(b"\n")
        if data.translate(None, _DIGITS) != line * rows:
            raise ValueError("not in the written shape")
        # JSON rejects a leading zero, which int() reads, and an empty field
        # between commas; the count rejects a chunk of one empty line.
        fields = json.loads(b"[" + data[:-1].translate(_COMMAS) + b"]")
        if len(fields) != cols * rows:
            raise ValueError("not in the written shape")
        yield fields
        a = b


class DataLines:
    """The line reader: the stripped ``rows`` of a file's text, a str, that
    are neither blank nor comments (lines starting with ``comment``), parsed
    by :meth:`ints` into one flat list of int fields.  Line numbers are
    counted again only to report an error.  A written edgelist, ordering or
    colouring comes here only when its loader's chunked read refused it."""

    def __init__(self, fmt: str, text: str, comment: Literal["#", "c"] = "#"):
        self.fmt, self.comment, self.text = fmt, comment, text
        self.rows, self.fields = self.data_rows(), []
        self.parsed = 0  # rows already parsed into fields

    def data_rows(self) -> list[str]:
        return [ln for ln in map(str.strip, self.text.splitlines()) if ln and not ln.startswith(self.comment)]

    def error(self, i: int, what: str, expected: str | None = None) -> ValueError:
        """A ValueError about data line ``i`` that names the format and the 1-based line."""
        lines = enumerate(map(str.strip, self.text.splitlines()), 1)
        numbers = (k for k, ln in lines if ln and not ln.startswith(self.comment))
        tail = "" if expected is None else f", expected {expected!r}"
        return ValueError(f"{self.fmt}: {what} at line {next(islice(numbers, i, None))}{tail}")

    def ints(self, kind: str, shape: str, stop: int | None = None, tags: int = 0) -> list[int]:
        """The int fields of the rows, flat and in order, each row parsed once
        and only up to ``stop``, so a header can be checked before the body.
        Each row must have the words of ``shape``: ``tags`` tags, which the
        caller checks, then int fields; the parse itself names the first row
        that does not as a malformed ``kind``, counting the rows it reads."""
        width = shape.count(" ") + 1
        rows, seen = self.rows[self.parsed:stop], count(self.parsed)
        try:
            # A row of another width hands int() an empty word, which it refuses.
            self.fields += [int(word) for words, _ in zip(map(str.split, rows), seen)
                            for word in (words[tags:] if len(words) == width else [""])]
        except ValueError:
            i = next(seen) - 1  # zip drew the bad row's index just before its words
            raise self.error(i, f"malformed {kind} {self.rows[i]!r}", shape) from None
        self.parsed += len(rows)
        return self.fields


def load_graph(text: str, fmt: str = "edgelist") -> Graph:
    """Parse a graph from the text of an edgelist or DIMACS file.

    An edgelist in the shape :func:`save_graph` writes is read chunk by chunk
    (see :func:`written_ints`) and its fields mapped to one shared int per
    vertex, so the adjacency holds one int object per vertex rather than one
    per entry; :func:`build_graph` then reads the edges chunk by chunk, and
    frees each chunk once read.  Any fault found on that way sends the whole
    text to the line reader, :class:`DataLines`, which raises the first error
    in the documented order.  A DIMACS text is always read line by line."""
    if fmt == "edgelist":
        try:
            return _load_written_edgelist(text)
        except (ValueError, IndexError):
            pass  # not in the written shape, or faulty: read it line by line
        lines = DataLines(fmt, text)
        if not lines.rows:
            raise ValueError("edgelist: missing 'n m' header line")
        n, m = lines.ints("header", "n m", 1)[:2]
        declared = f"header declares {m} edges but body has {len(lines.rows) - 1} lines"
        edge_shape, tags = "u v", 0
    elif fmt == "dimacs":
        lines = DataLines(fmt, text, comment="c")
        if not lines.rows:
            raise ValueError("dimacs: missing 'p edge n m' line")
        for i, row in enumerate(lines.rows):
            tag = row.split(None, 1)[0]
            if tag != ("e" if i else "p"):
                known = {"e": "edge line before 'p edge n m' line", "p": "repeated 'p' line"}
                raise lines.error(i, known.get(tag, f"unknown line prefix {tag!r}"))
        if lines.rows[0].split()[1:2] != ["edge"]:
            raise lines.error(0, f"malformed problem line {lines.rows[0]!r}", "p edge n m")
        n, m = lines.ints("problem line", "p edge n m", 1, tags=2)[:2]
        declared = f"problem line declares {m} edges but found {len(lines.rows) - 1}"
        edge_shape, tags = "e u v", 1
    else:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    if reason := size_error(n, m):
        raise lines.error(0, reason)
    if len(lines.rows) - 1 != m:
        raise lines.error(0, declared)
    fields = lines.ints("line", edge_shape, tags=tags)
    try:
        return build_graph(n, zip(islice(fields, 2, None, 2), islice(fields, 3, None, 2)))
    except ValueError as err:
        # Only on the error path: the line of the edge named out of range or a
        # self-loop.  A duplicate edge or a negative count is raised as it is.
        bad = (i for i, e in enumerate(zip(fields[2::2], fields[3::2]), 1) if _edge_error(n, *e) == str(err))
        if (line := next(bad, None)) is None:
            raise
        raise lines.error(line, str(err)) from None


def _load_written_edgelist(text: str) -> Graph:
    # The graph of an edgelist in the written shape.  Any other text, or any
    # fault in it, raises ValueError or IndexError.
    chunks = written_ints(text, 2)
    head = next(chunks)
    n, m = head[0], head[1]
    if size_error(n, m) or text.count("\n") - 1 != m:
        raise ValueError("size or count")
    # Written fields are digit runs, never negative; one above n raises
    # IndexError.  Every chunk is mapped before the build starts: mapping or
    # parsing inside the build's loop made it 10% slower on planar3tree(10^5).
    ids = list(range(n + 1))
    del head[:2]
    parsed = []
    for fields in chain([head], chunks):
        fields[:] = map(ids.__getitem__, fields)
        parsed.append(fields)
    parsed.reverse()
    return build_graph(n, chain.from_iterable(_drain_pairs(parsed)))


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
