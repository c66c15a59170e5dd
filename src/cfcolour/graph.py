"""Simple undirected graphs with 1-based vertices, plus edgelist/DIMACS I/O."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

FORMATS = ("edgelist", "dimacs")


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

    Rejects out-of-range endpoints, self-loops, and duplicate edges
    (after normalising (u,v)/(v,u)); the error names the offending pair.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        if not (1 <= u <= n):
            raise ValueError(f"edge ({u},{v}): endpoint {u} out of range 1..{n}")
        if not (1 <= v <= n):
            raise ValueError(f"edge ({u},{v}): endpoint {v} out of range 1..{n}")
        if u == v:
            raise ValueError(f"edge ({u},{v}): self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


def read_text(source: str | bytes | IO) -> str:
    """Decode text, UTF-8 bytes, or a readable text or binary stream."""
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def _parse_edgelist(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("edgelist: missing 'n m' header line")
    header = rows[0].split()
    if len(header) != 2:
        raise ValueError(f"edgelist: malformed header {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"edgelist: malformed header {rows[0]!r}, expected 'n m'") from None
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"edgelist: header declares {m} edges but body has {len(body)} lines")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edgelist: malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"edgelist: malformed edge line {ln!r}") from None
    return build_graph(n, edges)


def _parse_dimacs(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ValueError("dimacs: repeated 'p' line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"dimacs: malformed problem line {line!r}, expected 'p edge n m'")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ValueError(f"dimacs: malformed problem line {line!r}") from None
        elif parts[0] == "e":
            if n is None:
                raise ValueError("dimacs: edge line before 'p edge n m' line")
            if len(parts) != 3:
                raise ValueError(f"dimacs: malformed edge line {line!r}")
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise ValueError(f"dimacs: malformed edge line {line!r}") from None
        else:
            raise ValueError(f"dimacs: unknown line prefix {parts[0]!r}")
    if n is None or m is None:
        raise ValueError("dimacs: missing 'p edge n m' line")
    if len(edges) != m:
        raise ValueError(f"dimacs: problem line declares {m} edges but found {len(edges)}")
    return build_graph(n, edges)


def load_graph(source: str | bytes | IO, fmt: str = "edgelist") -> Graph:
    """Parse a graph from text, bytes, or a readable stream."""
    text = read_text(source)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")


def save_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Serialise a graph; edges are emitted with u < v in lexicographic order."""
    pairs = list(g.edges())
    if fmt == "edgelist":
        lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in pairs]
    elif fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"] + [f"e {u} {v}" for u, v in pairs]
    else:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    return "\n".join(lines) + "\n"
