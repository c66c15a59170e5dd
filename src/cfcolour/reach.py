"""Vertex orderings, back-reach profiles, and exact s-strong colouring numbers.

For an ordering of the vertices, the reach set of v at radius s collects the
vertices at or before v that can be hit from v by a path of length at most s
whose interior detours only through vertices placed strictly after v.  The
maximum reach-set size over all vertices is the ordering's back-reach; the
minimum back-reach over all orderings is the s-strong colouring number.

Reach sets along an ordering are read off one walk along it: a vertex is at
or before v exactly when the walk has reached it.  The radius-2 walk
(``_reach2``) serves the greedy colouring and the radius-2 profile, and the
profile at other radii runs a breadth-first search per vertex (``_reach``).
The exact search keeps its vertex sets as ints, one bit per vertex, and hops
over their bits.
It and ``min_backreach_order`` build orderings right to left on one rule:
given the placed vertices, reach between unplaced vertices is symmetric (read
a path backwards), so placing v changes only the reach sets of the other
members of v's own; a new path through v into another would reach v first.

Before each search for an ordering with back-reach at most k, the exact
search peels the graph: it repeatedly removes a vertex whose remaining
neighbourhood is a clique of at most k - 1 vertices (the simplicial rule of
treewidth preprocessing), and searches only the rest, the core.  Placing the
peeled vertices at the right end, the first peeled rightmost, after the
core's ordering keeps the back-reach, at every radius:

- a peeled vertex reaches itself and its neighbours left when it was peeled,
  at most k vertices: a path out of it whose interior lies to its right
  passes only through vertices peeled before it, and
- a core vertex's reach set is the same in the graph as in the core: on a
  path through peeled vertices, the one peeled first has its two path
  neighbours in its clique, so the path shortcuts past it.

Conversely, any ordering of the graph, restricted to the core, gives each
core vertex a subset of its reach set in the graph (the core is an induced
subgraph).  So the graph has an ordering with back-reach at most k exactly
when the core has one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterator, Sequence

from .graph import DataLines, Graph


@dataclass(frozen=True)
class VertexOrdering:
    """A total order on vertices 1..n; ``seq[i]`` is the vertex at position i+1."""

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if _first_misplaced(self.seq) >= 0:
            raise ValueError(f"ordering is not a permutation of 1..{len(self.seq)}")

    @property
    def n(self) -> int:
        return len(self.seq)

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


def _first_misplaced(seq: Sequence[int]) -> int:
    # The index of the first entry outside 1..len(seq) or seen before it, or
    # -1 when seq is a permutation: one pass, with one byte per vertex.
    n = len(seq)
    seen = bytearray(n + 1)
    for i, v in enumerate(seq):
        if not 0 < v <= n or seen[v]:
            return i
        seen[v] = 1
    return -1


def _reach(adjacency: Sequence[Sequence[int]], done: Sequence[bool], v: int, radius: int) -> set[int]:
    # The one reach BFS, behind back_reach_profile at radii other than 2
    # (_within runs the same search on int masks); done[w] is True exactly
    # when w is at or before v.  Only v and vertices after v are expanded:
    # vertices at or before v are collected as endpoints but never expanded,
    # so they cannot serve as path interiors, and any walk found this way
    # shortcuts to a qualifying path.  Each vertex after v is expanded at
    # most once, the last hop only collects, and the search ends early once
    # the frontier is empty.
    collected = {v}
    frontier = [v]
    expanded = set()
    for _ in range(radius - 1):
        if not frontier:
            break
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if done[w]:
                    collected.add(w)
                elif w not in expanded:
                    expanded.add(w)
                    nxt.append(w)
        frontier = nxt
    for u in frontier:
        for w in adjacency[u]:
            if done[w]:
                collected.add(w)
    return collected


def _reach2(
    adjacency: Sequence[Sequence[int]], ordering: VertexOrdering
) -> Iterator[tuple[int, set[int], tuple[int, ...]]]:
    # Yields (v, reach, earlier) along ordering.seq, with earlier the tuple of
    # v's neighbours before it.  Until u is yielded, coloured[u] is the tuple
    # of its neighbours yielded so far, grown from the one shared (); once u
    # is yielded its slot is None, so a neighbour is later exactly when its
    # slot is not None.  At v's turn the tuple of a later neighbour u holds the
    # ends w of the paths v-u-w; it joins v's reach set before the copy that
    # appends v, which costs no more.
    coloured: list[tuple[int, ...] | None] = [()] * len(adjacency)
    for v in ordering.seq:
        earlier = coloured[v]
        coloured[v] = None
        reach = {v, *earlier}
        for u in adjacency[v]:
            later = coloured[u]
            if later is not None:
                if later:
                    reach.update(later)
                coloured[u] = later + (v,)
        yield v, reach, earlier


def _check_radius(radius: int) -> None:
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")


def _check_covers(g: Graph, ordering: VertexOrdering) -> None:
    if g.n != ordering.n:
        raise ValueError(f"ordering covers {ordering.n} vertices, graph has {g.n}")


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise ValueError(f"exact search on {g.n} vertices exceeds limit {limit}; raise limit explicitly")


def back_reach_profile(g: Graph, ordering: VertexOrdering, radius: int) -> tuple[int, ...]:
    """Reach-set size of every vertex, indexed like ``g.adjacency``.

    ``sizes[v]`` is the size for v in 1..n and ``sizes[0]`` is 0.  The
    ordering's back-reach is ``max(sizes)``, and ``sizes.index(max(sizes))``
    is the smallest vertex attaining it (0 for the empty graph).
    """
    _check_radius(radius)
    _check_covers(g, ordering)
    adj = g.adjacency
    sizes = [0] * (g.n + 1)
    if radius == 2:
        for v, reach, _ in _reach2(adj, ordering):
            sizes[v] = len(reach)
    else:
        done = [False] * (g.n + 1)
        for v in ordering.seq:
            done[v] = True
            sizes[v] = len(_reach(adj, done, v, radius))
        del done
    return tuple(sizes)


def degeneracy_order(g: Graph) -> tuple[VertexOrdering, int]:
    """Smallest-last elimination ordering and the graph's degeneracy.

    Repeatedly removes a vertex of minimum remaining degree, ties to the
    smallest id; the returned ordering is the reverse of the removal sequence,
    so every vertex has at most d neighbours before it.

    The minimum comes from a heap of keys with lazy deletion (Matula and
    Beck's smallest-last technique): each decrement pushes the new key, and a
    popped entry is skipped when its vertex is gone.  Degrees only fall, so a
    vertex's stale keys exceed its current one and surface only after it is
    gone.  A key is the int ``degree * (n + 1) + id``, which orders as the
    pair ``(degree, id)`` does (ids are below n + 1) but compares and
    allocates faster; ``% (n + 1)`` decodes the id.  A removed vertex keeps
    its degree at removal, so d is the largest degree left.  O(m log n).
    """
    adj = g.adjacency
    N = g.n + 1
    degree = [len(a) for a in adj]
    alive = [False] + [True] * g.n
    heap = [degree[v] * N + v for v in g.vertices]
    heapify(heap)
    removed: list[int] = []
    while heap:
        v = heappop(heap) % N
        if not alive[v]:
            continue
        alive[v] = False
        removed.append(v)
        for w in adj[v]:
            if alive[w]:
                degree[w] -= 1
                heappush(heap, degree[w] * N + w)
    return VertexOrdering(tuple(reversed(removed))), max(degree)


def min_backreach_order(g: Graph) -> VertexOrdering:
    """Heuristic ordering aiming for a small back-reach at radius 2.

    Builds the order right to left; each step places the unplaced vertex
    whose radius-2 reach set (fully determined once everything to its right
    is fixed) is smallest, ties to the smallest id.  No optimality guarantee.

    The minimum comes from a heap with lazy deletion: a popped entry is
    skipped when its cost is stale.  As in :func:`degeneracy_order`, a key is
    the int ``cost * (n + 1) + id``.  The cost of an unplaced u is the size of
    its reach set given the placed vertices: u, its unplaced neighbours, and
    the unplaced neighbours of its placed neighbours, kept incrementally:
    built as ``{u, *adj[u]}`` when a first neighbour of u is placed (until
    then the cost is ``1 + deg(u)``).  A placed vertex's cost is 0, so every
    key of it is stale (a reach set holds its own vertex).  When v is placed,
    v's set is freed; by the module docstring's rule its other members' sets
    are the ones that change.  Each drops v, those of v's unplaced neighbours
    gain each other, and each whose size changed gets a new heap entry.
    """
    adj = g.adjacency
    N = g.n + 1
    cost = [len(a) + 1 for a in adj]
    reach: list[set[int] | None] = [None] * N
    heap = [cost[v] * N + v for v in g.vertices]
    heapify(heap)
    placed_rtl: list[int] = []
    while heap:
        k, v = divmod(heappop(heap), N)
        if k != cost[v]:
            continue
        cost[v] = 0
        placed_rtl.append(v)
        members = reach[v] or {v, *adj[v]}
        reach[v] = None
        members.discard(v)
        fresh = [w for w in adj[v] if cost[w]]
        for u in fresh:
            if reach[u] is None:
                reach[u] = {u, *adj[u]}
            reach[u].update(fresh)
        for u in members:
            reach[u].discard(v)
            if (size := len(reach[u])) != cost[u]:
                cost[u] = size
                heappush(heap, size * N + u)
    return VertexOrdering(tuple(reversed(placed_rtl)))


def _neighbour_masks(g: Graph) -> list[int]:
    # nbrs[v]: v's neighbours as an int with bit w for neighbour w; nbrs[0] is 0.
    return [sum(1 << w for w in a) for a in g.adjacency]


def _peel(nbrs: Sequence[int], k: int) -> tuple[int, list[int]]:
    # The core left by peeling at k (the module docstring's rule), as a mask,
    # and the peeled vertices in the order they went.  Peeling only shrinks
    # neighbourhoods, so a vertex that can go stays able to, and the core is
    # the same whichever goes first.  Vertices are looked at smallest id
    # first, and again, right away, when a neighbour goes.  A neighbourhood
    # of k or more is rejected before the clique test (exact_scol's k exceeds
    # the degeneracy, so no such neighbourhood is a clique).
    core = sum(1 << v for v in range(1, len(nbrs)))
    peeled: list[int] = []
    todo = list(range(len(nbrs) - 1, 0, -1))
    while todo:
        x = todo.pop()
        hood = nbrs[x] & core
        if not core >> x & 1 or hood.bit_count() >= k:
            continue
        unchecked = hood
        while unchecked:
            bit = unchecked & -unchecked
            unchecked ^= bit
            if hood & ~nbrs[bit.bit_length() - 1] != bit:
                break
        else:
            core ^= 1 << x
            peeled.append(x)
            while hood:
                bit = hood & -hood
                hood ^= bit
                todo.append(bit.bit_length() - 1)
    return core, peeled


def _within(nbrs: Sequence[int], full: int, radius: int, k: int) -> list[int] | None:
    # An ordering of the vertices in `full` with back-reach at most k, as the
    # vertices placed right to left, or None; exact_scol passes the core that
    # _peel leaves (the module docstring's peel rule).  Depth-first over
    # right-sets: a vertex may be placed only while its reach set, fixed once
    # everything to its right is, has at most k members.  Every vertex set is
    # an int with bit v for vertex v: nbrs[v] holds v's neighbours, read only
    # through `& free`, `& mask` and `& unseen`, all inside `full`, and `mask`
    # is the right-set.  An unplaced v reaches itself and the unplaced
    # vertices hit within radius hops, where only v and right-set members are
    # expanded, each at most once, as in _reach.  Placing v changes only the
    # sets of the other members of v's own (the module docstring's symmetry
    # rule).  Each depth keeps every reach set (0 once placed), the unplaced
    # vertices whose set has at most k members (`fits`) and those not yet
    # tried, smallest id first; refresh() recomputes the sets in `stale` and
    # updates `fits`.  A right-set whose every continuation failed goes into
    # `dead`, so each is expanded at most once.
    dead: set[int] = set()
    mask = 0
    placed_rtl: list[int] = []

    def refresh(reach: list[int], fits: int, stale: int) -> int:
        free = full ^ mask
        while stale:
            bit = stale & -stale
            stale ^= bit
            v = bit.bit_length() - 1
            hit = nbrs[v]
            found = hit & free | bit
            frontier = hit & mask
            unseen = mask ^ frontier
            for _ in range(radius - 1):
                if not frontier:
                    break
                hit = 0
                while frontier:
                    low = frontier & -frontier
                    hit |= nbrs[low.bit_length() - 1]
                    frontier ^= low
                found |= hit & free
                frontier = hit & unseen
                unseen ^= frontier
            reach[v] = found
            fits = fits | bit if found.bit_count() <= k else fits & ~bit
        return fits

    reach = [0] * len(nbrs)
    fits = refresh(reach, 0, full)
    stack = [(reach, fits, fits)]
    while stack:
        if mask == full:
            return placed_rtl
        reach, fits, untried = stack[-1]
        if not untried:
            dead.add(mask)
            stack.pop()
            if placed_rtl:
                mask ^= 1 << placed_rtl.pop()
            continue
        bit = untried & -untried
        stack[-1] = reach, fits, untried ^ bit
        if mask | bit in dead:
            continue
        v = bit.bit_length() - 1
        mask |= bit
        placed_rtl.append(v)
        child = reach.copy()
        child[v] = 0
        fits = refresh(child, fits ^ bit, reach[v] ^ bit)
        stack.append((child, fits, fits))
    return None


def exact_scol(g: Graph, radius: int, limit: int = 10) -> tuple[int, VertexOrdering]:
    """Exact s-strong colouring number with a witness ordering.

    The value is at least degeneracy + 1 (which is scol_1, and scol_1 <=
    scol_s) and at most n.  Each k from ``min(degeneracy + 1, n)`` up (0 for
    the empty graph) is tested by a depth-first search for an ordering with
    back-reach at most k; the first k that has one is the value.  Each search
    runs on the core left by peeling at k, and the witness is the core's
    ordering followed by the peeled vertices, the first peeled rightmost (the
    peel rule in the module docstring).  The witness is one optimal ordering;
    only the value is unique.  Placing a vertex recomputes only the reach sets
    of the other members of its own (the module docstring's symmetry rule).
    """
    _check_radius(radius)
    _check_limit(g, limit)
    nbrs = _neighbour_masks(g)
    k = min(degeneracy_order(g)[1] + 1, g.n)
    while True:
        core, peeled = _peel(nbrs, k)
        if (placed_rtl := _within(nbrs, core, radius, k)) is not None:
            return k, VertexOrdering(tuple(reversed(peeled + placed_rtl)))
        k += 1


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


def load_ordering(text: str) -> VertexOrdering:
    """Read an ordering file's text: one 1-based vertex id per line, top line
    first, read chunk by chunk by :class:`~cfcolour.graph.DataLines`.  A
    malformed line, or in a text that is no permutation the first line whose
    vertex is out of range or repeated, is an error naming its line."""
    lines = DataLines("ordering file", text, 1, "v")
    seq = tuple(chain.from_iterable(lines.chunks()))
    if lines.bad is not None:
        raise lines.error(lines.bad)
    try:
        return VertexOrdering(seq)
    except ValueError as err:
        i = _first_misplaced(seq)
        v = seq[i]
        why = "listed twice" if 0 < v <= len(seq) else "out of range"
        raise lines.error(i, f"{err}: vertex {v} {why}") from None


def save_ordering(ordering: VertexOrdering) -> str:
    return "%s\n" * len(ordering.seq) % tuple(ordering.seq)
