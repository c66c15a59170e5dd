"""Vertex orderings, back-reach profiles, and exact s-strong colouring numbers.

For an ordering of the vertices, the reach set of v at radius s collects the
vertices at or before v that can be hit from v by a path of length at most s
whose interior detours only through vertices placed strictly after v.  The
maximum reach-set size over all vertices is the ordering's back-reach; the
minimum back-reach over all orderings is the s-strong colouring number.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence

from .graph import DataLines, Graph


@dataclass(frozen=True)
class VertexOrdering:
    """A total order on vertices 1..n; ``seq[i]`` is the vertex at position i+1.

    ``pos[v]`` is the 1-based position of v (``pos[0]`` is unused): the plain
    position array that hot loops index without range checks.
    """

    seq: tuple[int, ...]
    pos: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.seq)
        if sorted(self.seq) != list(range(1, n + 1)):
            raise ValueError(f"ordering is not a permutation of 1..{n}")
        pos = [0] * (n + 1)
        for i, v in enumerate(self.seq, start=1):
            pos[v] = i
        object.__setattr__(self, "pos", tuple(pos))

    @property
    def n(self) -> int:
        return len(self.seq)

    def position(self, v: int) -> int:
        """1-based position of v; position 1 is leftmost."""
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.pos[v]

    def precedes(self, u: int, v: int) -> bool:
        """True when u is at or before v in the order."""
        return self.position(u) <= self.position(v)

    @classmethod
    def identity(cls, n: int) -> VertexOrdering:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reverse(cls, n: int) -> VertexOrdering:
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def shuffled(cls, n: int, seed: int) -> VertexOrdering:
        seq = list(range(1, n + 1))
        random.Random(seed).shuffle(seq)
        return cls(tuple(seq))


@dataclass(frozen=True)
class ReachProfile:
    """Per-vertex reach-set sizes for one ordering at one radius.

    ``argmax`` is the smallest vertex whose reach set attains ``max``, the
    witness of the back-reach; it is None for the empty graph.
    """

    radius: int
    sizes: Mapping[int, int]
    max: int
    argmax: int | None


def _reach(adjacency: Sequence[Sequence[int]], pos: Sequence[int], v: int, radius: int) -> set[int]:
    # The one reach BFS behind reach_set; w lies after v exactly when
    # pos[w] > pos[v].  Each vertex after v is expanded at most once, the last
    # hop only collects, and the search ends early once the frontier is empty.
    pv = pos[v]
    collected = {v}
    frontier = [v]
    expanded = set()
    for _ in range(radius - 1):
        if not frontier:
            break
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if pos[w] <= pv:
                    collected.add(w)
                elif w not in expanded:
                    expanded.add(w)
                    nxt.append(w)
        frontier = nxt
    for u in frontier:
        for w in adjacency[u]:
            if pos[w] <= pv:
                collected.add(w)
    return collected


def _check_args(g: Graph, ordering: VertexOrdering, radius: int) -> None:
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if g.n != ordering.n:
        raise ValueError(f"ordering covers {ordering.n} vertices, graph has {g.n}")


def reach_set(g: Graph, ordering: VertexOrdering, v: int, radius: int) -> set[int]:
    """Reach set of v: endpoints at or before v of paths of length <= radius
    whose internal vertices all sit strictly after v.

    Computed by breadth-first search from v in which only v and vertices
    after v are expanded.  Vertices at or before v are collected as endpoints
    but never expanded, so they cannot serve as path interiors; conversely
    any walk found this way shortcuts to a qualifying path.
    """
    _check_args(g, ordering, radius)
    ordering.position(v)  # range check
    return _reach(g.adjacency, ordering.pos, v, radius)


def back_reach_profile(g: Graph, ordering: VertexOrdering, radius: int) -> ReachProfile:
    """Reach-set sizes of every vertex; ``max`` is the ordering's back-reach."""
    _check_args(g, ordering, radius)
    adj, pos = g.adjacency, ordering.pos
    sizes = {v: len(_reach(adj, pos, v, radius)) for v in g.vertices}
    top = max(sizes.values(), default=0)
    argmax = next((v for v, size in sizes.items() if size == top), None)
    return ReachProfile(radius=radius, sizes=sizes, max=top, argmax=argmax)


def degeneracy_order(g: Graph) -> tuple[VertexOrdering, int]:
    """Smallest-last elimination ordering and the graph's degeneracy.

    Repeatedly removes a vertex of minimum remaining degree, ties to the
    smallest id; the returned ordering is the reverse of the removal sequence,
    so every vertex has at most d neighbours before it.

    The minimum comes from a heap of ``(degree, id)`` keys with lazy deletion
    (Matula and Beck's smallest-last technique): each decrement pushes the new
    key, and a popped entry is skipped when its vertex is gone.  Degrees only
    fall, so a vertex's stale keys exceed its current one and surface only
    after it is gone.  O(m log n) in all.
    """
    adj = g.adjacency
    degree = [len(a) for a in adj]
    alive = [False] + [True] * g.n
    heap = [(degree[v], v) for v in g.vertices]
    heapq.heapify(heap)
    removed: list[int] = []
    d = 0
    while heap:
        k, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        d = max(d, k)
        alive[v] = False
        removed.append(v)
        for w in adj[v]:
            if alive[w]:
                degree[w] -= 1
                heapq.heappush(heap, (degree[w], w))
    return VertexOrdering(tuple(reversed(removed))), d


def min_backreach_order(g: Graph) -> VertexOrdering:
    """Heuristic ordering aiming for a small back-reach at radius 2.

    Builds the order right to left; each step places the unplaced vertex
    whose radius-2 reach set (fully determined once everything to its right
    is fixed) is smallest, ties to the smallest id.  No optimality guarantee.

    The minimum comes from a heap of ``(cost, id)`` keys with lazy deletion: a
    popped entry is skipped when its vertex is placed or its cost is stale.
    The cost of u is the size of its reach set given the placed vertices: u,
    its unplaced neighbours, and the unplaced neighbours of its placed
    neighbours.  That set is kept incrementally.  It is built as
    ``{u, *adj[u]}`` the first time a neighbour of u is placed (until then the
    cost is ``1 + deg(u)``).  When v is placed, each unplaced neighbour of v
    drops v and gains v's unplaced neighbours, each unplaced neighbour of a
    placed neighbour of v drops v, v's own set is freed, and every vertex
    whose set size changed gets a new heap entry.
    """
    adj = g.adjacency
    placed = [True] + [False] * g.n
    cost = [len(a) + 1 for a in adj]
    reach: list[set[int] | None] = [None] * (g.n + 1)
    heap = [(cost[v], v) for v in g.vertices]
    heapq.heapify(heap)
    placed_rtl: list[int] = []
    while heap:
        k, v = heapq.heappop(heap)
        if placed[v] or k != cost[v]:
            continue
        placed[v] = True
        placed_rtl.append(v)
        reach[v] = None
        fresh = [w for w in adj[v] if not placed[w]]
        touched = set(fresh)
        for u in fresh:
            members = reach[u]
            if members is None:
                members = reach[u] = {u, *adj[u]}
            members.discard(v)
            members.update(fresh)
        for x in adj[v]:
            if placed[x]:
                for u in adj[x]:
                    if not placed[u]:
                        reach[u].discard(v)
                        touched.add(u)
        for u in touched:
            size = len(reach[u])
            if size != cost[u]:
                cost[u] = size
                heapq.heappush(heap, (size, u))
    return VertexOrdering(tuple(reversed(placed_rtl)))


def _within(adj: Sequence[Sequence[int]], n: int, radius: int, k: int) -> list[int] | None:
    # An ordering with back-reach at most k, as the vertices placed right to
    # left, or None.  Depth-first over right-sets: a vertex may be placed only
    # while its reach set, fixed once everything to its right is, has at most
    # k members.  placed[w] is 1 when w is in the right-set, so it serves as
    # the position array of _reach for every unplaced vertex.  A right-set
    # whose every continuation failed goes into `dead`, so each right-set is
    # expanded at most once.
    placed = [0] * (n + 1)
    full = (1 << n) - 1
    dead: set[int] = set()
    mask = 0
    placed_rtl: list[int] = []

    def candidates() -> list[int]:
        # Largest id first, so that pop() tries the smallest id first.
        return [v for v in range(n, 0, -1) if not placed[v] and len(_reach(adj, placed, v, radius)) <= k]

    stack = [candidates()]
    while stack:
        if mask == full:
            return placed_rtl
        if not stack[-1]:
            dead.add(mask)
            stack.pop()
            if placed_rtl:
                v = placed_rtl.pop()
                placed[v] = 0
                mask ^= 1 << (v - 1)
            continue
        v = stack[-1].pop()
        if mask | 1 << (v - 1) in dead:
            continue
        placed[v] = 1
        mask |= 1 << (v - 1)
        placed_rtl.append(v)
        stack.append(candidates())
    return None


def exact_scol(g: Graph, radius: int, limit: int = 10) -> tuple[int, VertexOrdering]:
    """Exact s-strong colouring number with a witness ordering.

    The value lies between degeneracy + 1 (which is scol_1, and scol_1 <=
    scol_s) and the back-reach of ``min_backreach_order``.  Each k from the
    lower bound up is tested by a depth-first search for an ordering with
    back-reach at most k; the first k that has one is the value.  When none
    below the upper bound has, the value is the upper bound and the witness
    is the ``min_backreach`` ordering.  The witness is one optimal ordering;
    only the value is unique.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if g.n > limit:
        raise ValueError(
            f"exact search on {g.n} vertices exceeds limit {limit}; raise limit explicitly"
        )
    heuristic = min_backreach_order(g)
    ub = back_reach_profile(g, heuristic, radius).max
    for k in range(degeneracy_order(g)[1] + 1, ub):
        placed_rtl = _within(g.adjacency, g.n, radius, k)
        if placed_rtl is not None:
            return k, VertexOrdering(tuple(reversed(placed_rtl)))
    return ub, heuristic


STRATEGIES = ("identity", "reverse", "random", "degeneracy", "min_backreach")


def make_ordering(g: Graph, strategy: str) -> VertexOrdering:
    """Build an ordering by strategy name; ``random(seed)`` carries its seed."""
    name = strategy.strip()
    if name == "identity":
        return VertexOrdering.identity(g.n)
    if name == "reverse":
        return VertexOrdering.reverse(g.n)
    if name == "degeneracy":
        return degeneracy_order(g)[0]
    if name == "min_backreach":
        return min_backreach_order(g)
    if name == "random":
        return VertexOrdering.shuffled(g.n, 0)
    if name.startswith("random(") and name.endswith(")"):
        try:
            seed = int(name[len("random(") : -1])
        except ValueError:
            raise ValueError(f"malformed strategy {strategy!r}, expected 'random(seed)'") from None
        return VertexOrdering.shuffled(g.n, seed)
    raise ValueError(f"unknown ordering strategy {strategy!r}, expected one of {STRATEGIES}")


def load_ordering(source: str | bytes | IO) -> VertexOrdering:
    """Read an ordering file: one 1-based vertex id per line, top line first."""
    lines = DataLines("ordering file", source)
    return VertexOrdering(lines.ints(0, None, "line", "v", lambda rows: tuple(map(int, rows))))


def save_ordering(ordering: VertexOrdering) -> str:
    return "".join(f"{v}\n" for v in ordering.seq)
