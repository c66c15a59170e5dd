"""Greedy conflict-free colouring, colouring validators, and exact oracles.

A proper colouring gives adjacent vertices distinct colours.  An odd
colouring additionally requires every vertex with a neighbour to see some
colour an odd number of times in its neighbourhood; a conflict-free
colouring requires some colour to appear exactly once there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Collection, Literal, Sequence

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
        if self.palette < 0:
            raise ValueError(f"palette must be >= 0, got {self.palette}")
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
        # colour_of[v] is still 0, which blocks no choice.
        blocked = {colour_of[w] for w in reach}
        pv = pos[v]
        for u in adj[v]:
            if pos[u] < pv:
                blocked.add(colour_of[leftmost[u]])
        choice = 1
        while choice in blocked:
            choice += 1
        colour_of[v] = choice

    palette = max(1, 2 * r - 1)
    if max(colour_of) > palette:
        v = colour_of.index(max(colour_of))
        raise RuntimeError(f"palette of {palette} colours exhausted at vertex {v}; this indicates a bug")
    return Colouring(colours=tuple(colour_of[1:]), palette=palette)


def _holds(counts: Collection[int], odd: bool) -> bool:
    # Odd or conflict-free on one neighbourhood's colour counts; a count of 1 settles both.
    return 1 in counts or odd and any(k % 2 == 1 for k in counts)


def _violations(g: Graph, colours: Sequence[int]) -> dict[Criterion, int | None]:
    # The first violating vertex of each criterion (None where it holds), from
    # one pass that counts each neighbourhood's colours once; v violates proper
    # when colours[v - 1] is among them.  Stops once all three have one.
    proper = odd = cf = None
    for v, nbrs in enumerate(g.adjacency):
        if nbrs:
            counts: dict[int, int] = {}
            for w in nbrs:
                c = colours[w - 1]
                counts[c] = counts.get(c, 0) + 1
            if proper is None and colours[v - 1] in counts:
                proper = v
            if odd is None and not _holds(counts.values(), True):
                odd = v
            if cf is None and not _holds(counts.values(), False):
                cf = v
            if proper and odd and cf:
                break
    return {"proper": proper, "odd": odd, "conflict_free": cf}


def verify_colouring(g: Graph, col: Colouring, criterion: Criterion) -> Verdict:
    """Check one criterion; on failure the witness is a violating vertex.

    Vertices without neighbours are exempt from the odd and conflict_free
    checks, which only constrain non-empty neighbourhoods.
    """
    if col.n != g.n:
        raise ValueError(f"colouring covers {col.n} vertices, graph has {g.n}")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    v = _violations(g, col.colours)[criterion]
    if v is None:
        detail = "no monochromatic edge" if criterion == "proper" else f"{criterion} holds at every vertex"
    elif criterion == "proper":
        # v is the smaller end of the first monochromatic edge (v, w).
        c = col.colours[v - 1]
        w = next(w for w in g.adjacency[v] if col.colours[w - 1] == c)
        detail = f"edge ({v},{w}) is monochromatic in colour {c}"
    elif criterion == "odd":
        detail = f"every colour in the neighbourhood of {v} appears an even number of times"
    else:
        detail = f"no colour appears exactly once in the neighbourhood of {v}"
    return Verdict(ok=v is None, witness=v, detail=detail)


def exact_chromatic(g: Graph, variant: Criterion, limit: int = 8) -> tuple[int, Colouring]:
    """Smallest palette admitting a proper colouring that satisfies ``variant``.

    For c = 0, 1, 2, ... a depth-first search colours the vertices in id order
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
    earlier = [[w for w in a if w < v] for v, a in enumerate(adj)]
    # closes[v]: the vertices whose neighbourhood is fully coloured once v is.
    closes: list[list[int]] = [[] for _ in adj]
    if variant != "proper":
        for w in g.vertices:
            if adj[w]:
                closes[adj[w][-1]].append(w)
    odd = variant == "odd"
    for c in range(n + 1):
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
                    _holds(Counter(colours[u] for u in adj[w]).values(), odd) for w in closes[v]
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
    colours: list[int | None] = [None] * n
    for v, colour in lines.ints(1, None, "line", "v colour", int_pairs):
        if not 1 <= v <= n:
            raise ValueError(f"colouring file: vertex {v} out of range 1..{n}")
        if colours[v - 1] is not None:
            raise ValueError(f"colouring file: vertex {v} listed twice")
        colours[v - 1] = colour
    return Colouring(colours=tuple(colours), palette=c)


def save_colouring(col: Colouring) -> str:
    lines = [f"{col.n} {col.palette}"]
    lines += [f"{v} {c}" for v, c in enumerate(col.colours, start=1)]
    return "\n".join(lines) + "\n"
