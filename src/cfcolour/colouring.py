"""Greedy conflict-free colouring, colouring validators, and exact oracles.

A proper colouring gives adjacent vertices distinct colours.  An odd
colouring additionally requires every vertex with a neighbour to see some
colour an odd number of times in its neighbourhood; a conflict-free
colouring requires some colour to appear exactly once there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Literal, Sequence

from .graph import DataLines, Graph, int_pairs
from .reach import VertexOrdering, _reach

Criterion = Literal["proper", "odd", "conflict_free"]
CRITERIA = ("proper", "odd", "conflict_free")


@dataclass(frozen=True)
class Colouring:
    """Vertex colours 1..palette; ``colours[v - 1]`` is the colour of vertex v."""

    colours: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        for i, c in enumerate(self.colours):
            if not 1 <= c <= self.palette:
                raise ValueError(f"vertex {i + 1} has colour {c} outside 1..{self.palette}")

    @property
    def n(self) -> int:
        return len(self.colours)

    @property
    def used(self) -> int:
        return len(set(self.colours))

    def of(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.colours[v - 1]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: int | None
    detail: str


def greedy_cf_colouring(g: Graph, ordering: VertexOrdering) -> Colouring:
    """Colour the vertices left to right so the result is proper and conflict-free.

    With r the ordering's back-reach at radius 2, the palette has 2r - 1
    colours.  Each vertex avoids the colours of its radius-2 reach set and,
    for every earlier neighbour, the colour of that neighbour's own leftmost
    neighbour; both blocking sets have at most r - 1 colours, so a free
    colour always exists.  Isolated vertices take the smallest free colour
    like everyone else.  The palette comes from the same pass: each reach
    set is computed once, both to block colours and to track r.
    """
    if g.n != ordering.n:
        raise ValueError(f"ordering covers {ordering.n} vertices, graph has {g.n}")
    if g.n == 0:
        return Colouring(colours=(), palette=0)
    adj, pos = g.adjacency, ordering.pos

    # leftmost[u] is u's neighbour of minimum position (None when isolated).
    leftmost = [min(a, key=pos.__getitem__) if a else None for a in adj]

    colour_of = [0] * (g.n + 1)
    r = 0
    for v in ordering.seq:
        reach = _reach(adj, pos, v, 2)
        r = max(r, len(reach))
        blocked = {colour_of[w] for w in reach if w != v}
        pv = pos[v]
        for u in adj[v]:
            if pos[u] < pv:
                pi = leftmost[u]
                if pi != v:
                    blocked.add(colour_of[pi])
        choice = 1
        while choice in blocked:
            choice += 1
        colour_of[v] = choice

    palette = max(1, 2 * r - 1)
    for v in ordering.seq:
        if colour_of[v] > palette:
            raise RuntimeError(
                f"palette of {palette} colours exhausted at vertex {v}; "
                "this indicates a bug in the colouring routine"
            )
    return Colouring(colours=tuple(colour_of[1:]), palette=palette)


def _holds(colours: Iterable[int], odd: bool) -> bool:
    # The odd or conflict-free condition on the colours of one neighbourhood.
    counts = Counter(colours).values()
    return any(k % 2 == 1 for k in counts) if odd else 1 in counts


def _first_violation(g: Graph, colours: Sequence[int], criterion: Criterion) -> int | None:
    # First vertex whose non-empty neighbourhood fails the odd or conflict-free
    # condition; colours[w - 1] is the colour of vertex w.
    odd = criterion == "odd"
    for v in g.vertices:
        nbrs = g.adjacency[v]
        if nbrs and not _holds((colours[w - 1] for w in nbrs), odd):
            return v
    return None


def verify_colouring(g: Graph, col: Colouring, criterion: Criterion) -> Verdict:
    """Check one criterion; on failure the witness is a violating vertex.

    Vertices without neighbours are exempt from the odd and conflict_free
    checks, which only constrain non-empty neighbourhoods.
    """
    if col.n != g.n:
        raise ValueError(f"colouring covers {col.n} vertices, graph has {g.n}")
    if criterion == "proper":
        for u, v in g.edges():
            if col.of(u) == col.of(v):
                return Verdict(
                    ok=False,
                    witness=u,
                    detail=f"edge ({u},{v}) is monochromatic in colour {col.of(u)}",
                )
        return Verdict(ok=True, witness=None, detail="no monochromatic edge")
    if criterion not in ("odd", "conflict_free"):
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    v = _first_violation(g, col.colours, criterion)
    if v is None:
        return Verdict(ok=True, witness=None, detail=f"{criterion} holds at every vertex")
    if criterion == "odd":
        detail = f"every colour in the neighbourhood of {v} appears an even number of times"
    else:
        detail = f"no colour appears exactly once in the neighbourhood of {v}"
    return Verdict(ok=False, witness=v, detail=detail)


def exact_chromatic(g: Graph, variant: Criterion, limit: int = 8) -> tuple[int, Colouring]:
    """Smallest palette admitting a proper colouring that satisfies ``variant``.

    For c = 1, 2, ... a depth-first search colours the vertices in id order
    with colours 1..c; a vertex may introduce at most one new colour beyond
    those already used, which kills colour-permutation symmetry.  A colour is
    rejected as soon as it makes an edge monochromatic, or completes the
    neighbourhood of some vertex w (it goes on the largest neighbour of w)
    that then fails the odd or conflict-free condition.
    """
    if variant not in CRITERIA:
        raise ValueError(f"unknown variant {variant!r}, expected one of {CRITERIA}")
    if g.n > limit:
        raise ValueError(
            f"exact search on {g.n} vertices exceeds limit {limit}; raise limit explicitly"
        )
    n, adj = g.n, g.adjacency
    if n == 0:
        return 0, Colouring(colours=(), palette=0)
    earlier = [[w for w in a if w < v] for v, a in enumerate(adj)]
    # closes[v]: the vertices whose neighbourhood is fully coloured once v is.
    closes: list[list[int]] = [[] for _ in adj]
    if variant != "proper":
        for w in g.vertices:
            if adj[w]:
                closes[adj[w][-1]].append(w)
    odd = variant == "odd"
    for c in range(1, n + 1):
        # colours[v] is v's current colour (0 while unset); used[v] is the
        # largest colour among vertices 1..v-1.
        colours = [0] * (n + 1)
        used = [0] * (n + 2)
        v = 1
        while 1 <= v <= n:
            top = min(c, used[v] + 1)
            colour = colours[v] + 1
            while colour <= top:
                colours[v] = colour
                if all(colours[w] != colour for w in earlier[v]) and all(
                    _holds((colours[u] for u in adj[w]), odd) for w in closes[v]
                ):
                    break
                colour += 1
            if colour > top:
                colours[v] = 0
                v -= 1
            else:
                used[v + 1] = max(used[v], colour)
                v += 1
        if v > n:
            return c, Colouring(colours=tuple(colours[1:]), palette=c)
    raise AssertionError("a colouring with n distinct colours always satisfies every variant")


def load_colouring(source: str | bytes | IO) -> Colouring:
    """Read a colouring file: header "n c", then n lines "v colour"."""
    lines = DataLines("colouring file", source)
    if not lines.rows:
        raise ValueError("colouring file: missing 'n c' header line")
    n, c = lines.ints(0, 1, "header", "n c", int_pairs)[0]
    if len(lines.rows) - 1 != n:
        raise ValueError(f"colouring file: header declares {n} vertices, body has {len(lines.rows) - 1} lines")
    colours = [0] * n
    seen = set()
    for v, colour in lines.ints(1, None, "line", "v colour", int_pairs):
        if not 1 <= v <= n:
            raise ValueError(f"colouring file: vertex {v} out of range 1..{n}")
        if v in seen:
            raise ValueError(f"colouring file: vertex {v} listed twice")
        seen.add(v)
        colours[v - 1] = colour
    return Colouring(colours=tuple(colours), palette=c)


def save_colouring(col: Colouring) -> str:
    lines = [f"{col.n} {col.palette}"]
    lines += [f"{v} {col.of(v)}" for v in range(1, col.n + 1)]
    return "\n".join(lines) + "\n"
