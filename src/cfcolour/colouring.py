"""Greedy conflict-free colouring, colouring validators, and exact oracles.

A proper colouring gives adjacent vertices distinct colours.  An odd
colouring additionally requires every vertex with a neighbour to see some
colour an odd number of times in its neighbourhood; a conflict-free
colouring requires some colour to appear exactly once there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Collection, Literal, Sequence, get_args

from .graph import DataLines, Graph
from .reach import VertexOrdering, _check_covers, _check_limit, _neighbour_masks, _reach2

Criterion = Literal["proper", "odd", "conflict_free"]
CRITERIA = get_args(Criterion)


@dataclass(frozen=True)
class Colouring:
    """Vertex colours 1..palette; ``colours[v - 1]`` is the colour of vertex v."""

    colours: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        if self.palette < 0:
            raise ValueError(f"palette must be >= 0, got {self.palette}")
        if self.colours and not (min(self.colours) >= 1 and max(self.colours) <= self.palette):
            i, c = next((i, c) for i, c in enumerate(self.colours) if not 1 <= c <= self.palette)
            raise ValueError(f"vertex {i + 1} has colour {c} outside 1..{self.palette}")

    @property
    def n(self) -> int:
        return len(self.colours)

    @property
    def used(self) -> int:
        return len(set(self.colours))


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
    like everyone else.  The reach sets, and each vertex's earlier neighbours
    in colouring order, come from one walk with no search
    (``cfcolour.reach._reach2``); v's leftmost neighbour is its first earlier
    neighbour or, when it has none, the first neighbour coloured after v.
    """
    _check_covers(g, ordering)
    colour_of = [0] * (g.n + 1)
    first = [0] * (g.n + 1)  # first[u]: u's leftmost neighbour once both are coloured, else 0
    colour = colour_of.__getitem__  # bound once, for the lookups behind each blocked set
    r = 0
    for v, reach, earlier in _reach2(g.adjacency, ordering):
        if len(reach) > r:
            r = len(reach)
        # colour_of[v] is still 0, which blocks no choice.
        blocked = set(map(colour, reach))
        if earlier:
            first[v] = earlier[0]
            for u in earlier:
                if f := first[u]:
                    blocked.add(colour_of[f])
                else:
                    first[u] = v  # v is u's leftmost neighbour, and its colour blocks nothing yet
        choice = 1
        while choice in blocked:
            choice += 1
        colour_of[v] = choice

    try:  # Theorem 1 keeps every colour in 1..2r - 1; r = 0 only when n = 0
        return Colouring(colours=tuple(colour_of[1:]), palette=max(2 * r - 1, 0))
    except ValueError as err:
        raise RuntimeError(f"palette exhausted: {err}; this indicates a bug") from None


def _holds(counts: Collection[int], odd: bool) -> bool:
    # Odd or conflict-free on one neighbourhood's colour counts; a count of 1 settles both.
    return 1 in counts or odd and any(k % 2 == 1 for k in counts)


def _violations(g: Graph, colours: Sequence[int]) -> dict[Criterion, int | None]:
    # The first violating vertex of each criterion (None where it holds), from
    # one pass that counts each neighbourhood's colours once; v violates proper
    # when colours[v - 1] is among them.  A count of 1 settles odd and
    # conflict-free together, so _holds(..., True) runs only where
    # _holds(..., False) failed.  Stops once all three have one.
    proper = odd = cf = None
    for v, nbrs in enumerate(g.adjacency):
        if nbrs:
            counts: dict[int, int] = {}
            for w in nbrs:
                c = colours[w - 1]
                counts[c] = counts.get(c, 0) + 1
            if proper is None and colours[v - 1] in counts:
                proper = v
            if not _holds(counts.values(), False):
                if cf is None:
                    cf = v
                if odd is None and not _holds(counts.values(), True):
                    odd = v
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
    that then fails the odd or conflict-free condition.  The witness is the
    first colouring found in that order.  Neighbourhoods and colour classes
    are ints, one bit per vertex, so both tests are bit operations: v may
    take colour k when its neighbourhood misses class k, and a completed
    neighbourhood is judged by how many bits it shares with each class.
    """
    if variant not in CRITERIA:
        raise ValueError(f"unknown variant {variant!r}, expected one of {CRITERIA}")
    _check_limit(g, limit)
    n, adj = g.n, g.adjacency
    nbrs = _neighbour_masks(g)
    # closes[v]: the neighbourhoods that are fully coloured once v is.
    closes: list[list[int]] = [[] for _ in adj]
    if variant != "proper":
        for w in g.vertices:
            if adj[w]:
                closes[adj[w][-1]].append(nbrs[w])
    odd = variant == "odd"
    for c in range(n + 1):
        # colours[v] is v's current colour, 0 while unset; classes[k] holds the
        # vertices coloured k (classes[0] stays empty, so it counts 0 in every
        # neighbourhood); used[v] is the largest colour among 1..v-1.
        colours = [0] * (n + 1)
        classes = [0] * (c + 1)
        used = [0] * (n + 2)
        v = 1
        while 1 <= v <= n:
            bit, hood = 1 << v, nbrs[v]
            top = min(c, used[v] + 1)
            classes[colours[v]] &= ~bit  # back at v: drop its last colour, if any
            colour = colours[v] + 1
            while colour <= top:
                if not hood & classes[colour]:
                    classes[colour] |= bit
                    for done in closes[v]:
                        if not _holds([(done & members).bit_count() for members in classes], odd):
                            classes[colour] ^= bit
                            break
                    else:
                        break
                colour += 1
            if colour > top:
                colours[v] = 0
                v -= 1
            else:
                colours[v] = colour
                used[v + 1] = max(used[v], colour)
                v += 1
        if v > n:
            return c, Colouring(colours=tuple(colours[1:]), palette=c)
    raise AssertionError("a colouring with n distinct colours always satisfies every variant")


def load_colouring(text: str) -> Colouring:
    """Read a colouring file's text: header "n c", then n lines "v colour",
    one per vertex in any order.  A vertex out of range, listed twice, or with
    a colour outside 1..c is an error naming its line; a body of the wrong
    length or a negative c is an error naming the header's line.  While the
    lines list vertices 1, 2, ... in order, as :func:`save_colouring` writes
    them, only the colours of each chunk :class:`~cfcolour.graph.DataLines` reads are kept."""
    lines = DataLines("colouring file", text, 2, "v colour", ("header", "n c"))
    parts: list[list[int]] = []  # each chunk's colours, while the lines list 1, 2, ...
    rest: list[int] = []  # the fields from the first chunk out of that order on
    vertices = count(1)
    for fields in lines.chunks():
        if not rest and fields[::2] == list(islice(vertices, len(fields) // 2)):
            del fields[::2]
            parts.append(fields)
        else:
            rest += fields
    n, c = lines.header("missing 'n c' header line")
    # The count goes first, so a header far beyond the body allocates nothing.
    if lines.rows - 1 != n:
        raise lines.error(0, f"header declares {n} vertices, body has {lines.rows - 1} lines")
    if lines.bad is not None:
        raise lines.error(lines.bad)
    colours: Sequence[int | None] = tuple(chain.from_iterable(parts))
    listed = len(colours)
    if rest:
        colours = [*colours, *[None] * (n - listed)]
        for i, (v, colour) in enumerate(zip(islice(rest, 0, None, 2), islice(rest, 1, None, 2)), listed + 1):
            if not 1 <= v <= n:
                raise lines.error(i, f"vertex {v} out of range 1..{n}")
            if colours[v - 1] is not None:
                raise lines.error(i, f"vertex {v} listed twice")
            colours[v - 1] = colour
    try:
        return Colouring(colours=tuple(colours), palette=c)
    except ValueError as err:
        if c < 0:
            raise lines.error(0, str(err)) from None
        # err names the smallest vertex whose colour is outside 1..c; so does the line.
        v = next(v for v, colour in enumerate(colours, 1) if not 1 <= colour <= c)
        raise lines.error(v if v <= listed else listed + 1 + rest[::2].index(v), str(err)) from None


def save_colouring(col: Colouring) -> str:
    return f"{col.n} {col.palette}\n" + "%s %s\n" * col.n % tuple(chain.from_iterable(enumerate(col.colours, 1)))
