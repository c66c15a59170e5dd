"""Brute-force oracles, kept deliberately literal and independent of the
library's search strategies."""

import gc
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, count, islice, permutations, product
from operator import lt
from typing import Callable, Iterable, Iterator, Literal, Sequence

from cfcolour import Colouring, GenSpec, Graph, VertexOrdering, build_graph, degeneracy_order
from cfcolour.colouring import CRITERIA, Criterion, Verdict
from cfcolour.generators import FACE_CHUNK
from cfcolour.graph import FORMATS, MAX_VERTICES, size_error
from cfcolour.reach import _check_covers, _check_limit, _check_radius, _within


def positions(ordering: VertexOrdering) -> tuple[int, ...]:
    """pos[v] is v's 1-based position in the ordering (pos[0] is unused)."""
    pos = [0] * (ordering.n + 1)
    for i, v in enumerate(ordering.seq, start=1):
        pos[v] = i
    return tuple(pos)


def prefix_flags(ordering: VertexOrdering, v: int) -> list[bool]:
    """The flags _reach reads for v: done[w] is True exactly when w is at or
    before v in the ordering."""
    done = [False] * (ordering.n + 1)
    for w in ordering.seq:
        done[w] = True
        if w == v:
            break
    return done


def enumerate_reach(g: Graph, ordering: VertexOrdering, v: int, radius: int) -> set[int]:
    """Reach set by enumerating every simple path from v of length <= radius
    and testing the endpoint/interior order conditions on each one."""
    pos = positions(ordering)
    pv = pos[v]
    found: set[int] = set()

    def walk(path: list[int]) -> None:
        end = path[-1]
        if pos[end] <= pv and all(
            pos[x] > pv for x in path[1:-1]
        ):
            found.add(end)
        if len(path) - 1 < radius:
            for w in g.adjacency[end]:
                if w not in path:
                    walk(path + [w])

    walk([v])
    return found


def enumerate_right_reach(g: Graph, right: int, v: int, radius: int) -> int:
    """Reach set of v outside the right-set `right`, both as masks with bit w
    for vertex w: v and the vertices outside `right` that end a simple path
    from v of length <= radius whose interior lies in `right`, by walking
    every such path."""
    found = 1 << v

    def walk(path: list[int]) -> None:
        nonlocal found
        for w in g.adjacency[path[-1]]:
            if w in path:
                continue
            if not right >> w & 1:
                found |= 1 << w
            elif len(path) < radius:
                walk(path + [w])

    walk([v])
    return found


def enumerate_scol(g: Graph, radius: int) -> int:
    """Minimum back-reach over all n! orderings, via enumerate_reach."""
    best = None
    for perm in permutations(g.vertices):
        ordering = VertexOrdering(perm)
        worst = max(
            (len(enumerate_reach(g, ordering, v, radius)) for v in g.vertices),
            default=0,
        )
        best = worst if best is None else min(best, worst)
    return best if best is not None else 0


def _is_proper(g: Graph, colours: tuple[int, ...]) -> bool:
    return all(colours[u - 1] != colours[v - 1] for u, v in g.edges())


def _neigh_counts(g: Graph, colours: tuple[int, ...], v: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in g.adjacency[v]:
        counts[colours[w - 1]] = counts.get(colours[w - 1], 0) + 1
    return counts


def _is_odd(g: Graph, colours: tuple[int, ...]) -> bool:
    return all(
        any(k % 2 == 1 for k in _neigh_counts(g, colours, v).values())
        for v in g.vertices
        if g.adjacency[v]
    )


def _is_conflict_free(g: Graph, colours: tuple[int, ...]) -> bool:
    return all(
        1 in _neigh_counts(g, colours, v).values()
        for v in g.vertices
        if g.adjacency[v]
    )


def enumerate_chromatic(g: Graph, variant: str) -> int:
    """Smallest palette via exhaustive assignment enumeration."""
    if g.n == 0:
        return 0
    checks = {"proper": lambda *_: True, "odd": _is_odd, "conflict_free": _is_conflict_free}
    extra = checks[variant]
    for c in range(1, g.n + 1):
        for colours in product(range(1, c + 1), repeat=g.n):
            if _is_proper(g, colours) and extra(g, colours):
                return c
    raise AssertionError("distinct colours always succeed")


def all_graphs(n: int):
    """Every labelled graph on vertices 1..n, in edge-subset order."""
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def square_greedy(g: Graph, ordering: VertexOrdering) -> Colouring:
    """The baseline Theorem 1 beats: a greedy proper colouring of the square
    G², along ``ordering``.  Each vertex takes the smallest colour not on any
    vertex within distance 2, so every neighbourhood has distinct colours: the
    colouring is proper, odd and conflict-free, and uses at least Δ + 1
    colours, which no bound on expansion limits."""
    colours = [0] * (g.n + 1)
    for v in ordering.seq:
        near = {colours[x] for u in g.adjacency[v] for x in (u, *g.adjacency[u])}
        colours[v] = next(c for c in count(1) if c not in near)
    return Colouring(colours=tuple(colours[1:]), palette=max(colours))


# --- differential references -------------------------------------------------
# Earlier library implementations, kept verbatim in spirit so that the current
# code can be checked against them output for output.
# Only the accessors changed: positions(ordering)[v] and len(g.adjacency[v]).


# VertexOrdering before it checked the permutation in one pass and built pos
# on first read: a sort against a range list, then every position at once.
# Verbatim.
@dataclass(frozen=True)
class ReferenceVertexOrdering:
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


def reference_reach_set(g: Graph, pos: Sequence[int], v: int, radius: int) -> set[int]:
    """Reach set by the seen-set BFS that expands only v and vertices after v;
    pos is positions(ordering)."""
    pv = pos[v]
    seen = {v}
    collected = {v}
    frontier = [v]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w in seen:
                    continue
                seen.add(w)
                if pos[w] <= pv:
                    collected.add(w)
                else:
                    nxt.append(w)
        frontier = nxt
    return collected


def reference_profile_sizes(g: Graph, ordering: VertexOrdering, radius: int) -> dict[int, int]:
    pos = positions(ordering)
    return {v: len(reference_reach_set(g, pos, v, radius)) for v in g.vertices}


# The reach BFS before it read "after v" off the walk: it compared positions.
# Verbatim.
def reference_pos_reach(adjacency: Sequence[Sequence[int]], pos: Sequence[int], v: int, radius: int) -> set[int]:
    # The one reach BFS, behind back_reach_profile at radii other than 2
    # (_within runs the same search on int masks); w lies after v exactly
    # when pos[w] > pos[v].  Only v and vertices after v are expanded:
    # vertices at or before v are collected as endpoints but never expanded,
    # so they cannot serve as path interiors, and any walk found this way
    # shortcuts to a qualifying path.  Each vertex after v is expanded at
    # most once, the last hop only collects, and the search ends early once
    # the frontier is empty.
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


# back_reach_profile's branch for radii other than 2, on positions.  Verbatim.
def reference_pos_profile(g: Graph, ordering: VertexOrdering, radius: int) -> tuple[int, ...]:
    pos = positions(ordering)
    return (0, *[len(reference_pos_reach(g.adjacency, pos, v, radius)) for v in g.vertices])


# The radius-2 walk before it kept each vertex's coloured neighbours as a
# tuple: a list per vertex with a coloured neighbour, None otherwise.
# Verbatim.
def reference_list_reach2(
    adjacency: Sequence[Sequence[int]], ordering: VertexOrdering
) -> Iterator[tuple[int, set[int], Sequence[int]]]:
    # The radius-2 reach sets along ordering.seq, with no search: yields
    # (v, reach, earlier), where earlier lists v's neighbours before it in
    # that order, or is ().  coloured[u] lists u's neighbours yielded so far
    # while u is not (None when empty, and once u is yielded).  At v's turn
    # the list of each later neighbour u holds the ends w of the paths v-u-w
    # with w before v, so the reach set is v, its own list and those lists.
    pos = positions(ordering)
    coloured: list[list[int] | None] = [None] * len(adjacency)
    for v in ordering.seq:
        reach = {v}
        earlier = coloured[v] or ()
        if earlier:
            reach.update(earlier)
            coloured[v] = None
        pv = pos[v]
        for u in adjacency[v]:
            if pos[u] > pv:
                later = coloured[u]
                if later:
                    reach.update(later)
                    later.append(v)
                else:
                    coloured[u] = [v]
        yield v, reach, earlier


def reference_degeneracy_order(g: Graph) -> tuple[VertexOrdering, int]:
    """Smallest-last elimination ordering and the graph's degeneracy.

    Repeatedly removes a minimum-degree vertex (ties to the smallest id); the
    returned ordering is the reverse of the removal sequence, so every vertex
    has at most d neighbours before it.
    """
    degree = {v: len(g.adjacency[v]) for v in g.vertices}
    removed: list[int] = []
    alive = set(g.vertices)
    d = 0
    while alive:
        v = min(alive, key=lambda u: (degree[u], u))
        d = max(d, degree[v])
        alive.discard(v)
        removed.append(v)
        for w in g.adjacency[v]:
            if w in alive:
                degree[w] -= 1
    return VertexOrdering(tuple(reversed(removed))), d


def _cost_given_right(g: Graph, v: int, right: set[int]) -> int:
    # |R(v, 2)| if v is placed with exactly `right` after it: v, its not-yet-placed
    # neighbours, and not-yet-placed vertices one hop past a placed neighbour.
    members = {v}
    for u in g.adjacency[v]:
        if u in right:
            for w in g.adjacency[u]:
                if w not in right:
                    members.add(w)
        else:
            members.add(u)
    return len(members)


def reference_min_backreach_order(g: Graph) -> VertexOrdering:
    """Right-to-left min-back-reach placement with the closed-form radius-2 cost."""
    right: set[int] = set()
    cost = {v: 1 + len(g.adjacency[v]) for v in g.vertices}
    placed_rtl: list[int] = []
    remaining = set(g.vertices)
    while remaining:
        v = min(remaining, key=lambda u: (cost[u], u))
        remaining.discard(v)
        placed_rtl.append(v)
        right.add(v)
        affected = set(g.adjacency[v])
        for u in g.adjacency[v]:
            affected.update(g.adjacency[u])
        for u in affected & remaining:
            cost[u] = _cost_given_right(g, u, right)
    return VertexOrdering(tuple(reversed(placed_rtl)))


# min_backreach_order before it updated only the members of the placed
# vertex's own reach set: it found the sets that lose the placed vertex by
# rescanning the adjacency of every placed neighbour.  Verbatim.
def reference_incremental_min_backreach_order(g: Graph) -> VertexOrdering:
    """Heuristic ordering aiming for a small back-reach at radius 2.

    Builds the order right to left; each step places the unplaced vertex
    whose radius-2 reach set (fully determined once everything to its right
    is fixed) is smallest, ties to the smallest id.  No optimality guarantee.

    The minimum comes from a heap with lazy deletion: a popped entry is
    skipped when its vertex is placed or its cost is stale.  As in
    :func:`degeneracy_order`, a key is the int ``cost * (n + 1) + id``.
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
    N = g.n + 1
    placed = [True] + [False] * g.n
    cost = [len(a) + 1 for a in adj]
    reach: list[set[int] | None] = [None] * N
    heap = [cost[v] * N + v for v in g.vertices]
    heapify(heap)
    placed_rtl: list[int] = []
    while heap:
        k, v = divmod(heappop(heap), N)
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
                heappush(heap, size * N + u)
    return VertexOrdering(tuple(reversed(placed_rtl)))


def reference_greedy_cf_colouring(g: Graph, ordering: VertexOrdering) -> Colouring:
    """Greedy colouring that sizes the palette from a separate back-reach profile
    and then recomputes every reach set while colouring."""
    if g.n == 0:
        return Colouring(colours=(), palette=0)
    r = max(reference_profile_sizes(g, ordering, 2).values())
    palette = max(1, 2 * r - 1)
    pos = positions(ordering)
    leftmost = {
        u: min(g.adjacency[u], key=pos.__getitem__) if g.adjacency[u] else None
        for u in g.vertices
    }
    colour_of: dict[int, int] = {}
    for i, v in enumerate(ordering.seq, start=1):
        blocked = {colour_of[w] for w in reference_reach_set(g, pos, v, 2) if w != v}
        for u in g.adjacency[v]:
            if pos[u] < i:
                pi = leftmost[u]
                if pi != v:
                    blocked.add(colour_of[pi])
        colour_of[v] = next(c for c in range(1, palette + 1) if c not in blocked)
    return Colouring(colours=tuple(colour_of[v] for v in g.vertices), palette=palette)


# The greedy before it kept each uncoloured vertex's coloured neighbours: one
# reach BFS per vertex, and the leftmost neighbour recorded in the sweep.
# Verbatim.
def reference_bfs_greedy_cf_colouring(g: Graph, ordering: VertexOrdering) -> Colouring:
    """Colour the vertices left to right so the result is proper and conflict-free.

    With r the ordering's back-reach at radius 2, the palette has 2r - 1
    colours.  Each vertex avoids the colours of its radius-2 reach set and,
    for every earlier neighbour, the colour of that neighbour's own leftmost
    neighbour; both blocking sets have at most r - 1 colours, so a free
    colour always exists.  Isolated vertices take the smallest free colour
    like everyone else.  It is one left-to-right pass: each reach set is
    computed once, both to block colours and to track r, which gives the
    palette; and the leftmost neighbour of u is the first of u's neighbours
    to be coloured, so the pass records it when it colours that neighbour.
    """
    _check_covers(g, ordering)
    if g.n == 0:
        return Colouring(colours=(), palette=0)
    adj, pos = g.adjacency, positions(ordering)

    colour_of = [0] * (g.n + 1)
    first = [0] * (g.n + 1)  # first[u]: u's leftmost neighbour, 0 until one is coloured
    r = 0
    for v in ordering.seq:
        reach = reference_pos_reach(adj, pos, v, 2)
        if len(reach) > r:
            r = len(reach)
        # colour_of[v] is still 0, which blocks no choice.
        blocked = set(map(colour_of.__getitem__, reach))
        pv = pos[v]
        for u in adj[v]:
            f = first[u]
            if not f:
                first[u] = v  # v is u's leftmost neighbour, and its colour blocks nothing yet
            elif pos[u] < pv:
                blocked.add(colour_of[f])
        choice = 1
        while choice in blocked:
            choice += 1
        colour_of[v] = choice

    palette = 2 * r - 1  # n >= 1 and v is in its own reach set, so r >= 1
    if max(colour_of) > palette:
        v = colour_of.index(max(colour_of))
        raise RuntimeError(f"palette of {palette} colours exhausted at vertex {v}; this indicates a bug")
    return Colouring(colours=tuple(colour_of[1:]), palette=palette)


# The exact oracles before they pruned during the search: a memoised
# recursive DP over right-sets, and backtracking that checks the odd and
# conflict-free conditions only at full assignments.


def reference_exact_scol(g: Graph, radius: int, limit: int = 10) -> tuple[int, VertexOrdering]:
    """Exact s-strong colouring number with a witness ordering.

    Minimises the back-reach over all orderings by dynamic programming over
    right-sets: once the set of vertices after v is fixed, v's reach size is
    determined, so orderings sharing a suffix share subproblems.  The witness
    is one optimal ordering; only the value is unique.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if g.n > limit:
        raise ValueError(
            f"exact search on {g.n} vertices exceeds limit {limit}; raise limit explicitly"
        )
    n = g.n
    if n == 0:
        return 0, VertexOrdering(())
    adj = g.adjacency
    full = (1 << n) - 1

    def placed(mask: int) -> list[int]:
        # placed[w] is 1 when w is in mask, i.e. sits after every unplaced vertex.
        return [0] + [mask >> (w - 1) & 1 for w in range(1, n + 1)]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        # Minimum achievable max reach over the vertices not yet placed,
        # given that `mask` holds everything already placed to the right.
        if mask == full:
            return 0
        pos = placed(mask)
        out = n + 1
        for v in range(1, n + 1):
            if pos[v]:
                continue
            size = len(reference_pos_reach(adj, pos, v, radius))
            if size >= out:
                continue
            out = min(out, max(size, best(mask | (1 << (v - 1)))))
        return out

    value = best(0)
    placed_rtl: list[int] = []
    mask = 0
    while mask != full:
        pos = placed(mask)
        for v in range(1, n + 1):
            if pos[v]:
                continue
            size = len(reference_pos_reach(adj, pos, v, radius))
            if max(size, best(mask | (1 << (v - 1)))) <= value:
                placed_rtl.append(v)
                mask |= 1 << (v - 1)
                break
    best.cache_clear()
    return value, VertexOrdering(tuple(reversed(placed_rtl)))


# exact_scol as it was before it peeled: the count-up runs _within on the
# whole graph, so its witnesses are those of the search alone.


def reference_unpeeled_exact_scol(g: Graph, radius: int, limit: int = 10) -> tuple[int, VertexOrdering]:
    _check_radius(radius)
    _check_limit(g, limit)
    nbrs = [sum(1 << w for w in a) for a in g.adjacency]
    full = (1 << g.n + 1) - 2
    k = min(degeneracy_order(g)[1] + 1, g.n)
    while (placed_rtl := _within(nbrs, full, radius, k)) is None:
        k += 1
    return k, VertexOrdering(tuple(reversed(placed_rtl)))


# exact_scol's search as it was before it kept its vertex sets as ints:
# the right-set as a `placed` list beside its mask, and every candidate's
# reach set from the list BFS on positions, reference_pos_reach.


def reference_within(adj: Sequence[Sequence[int]], n: int, radius: int, k: int) -> list[int] | None:
    # An ordering with back-reach at most k, as the vertices placed right to
    # left, or None.  Depth-first over right-sets: a vertex may be placed only
    # while its reach set, fixed once everything to its right is, has at most
    # k members.  placed[w] is 1 when w is in the right-set, so it serves as
    # the position array of reference_pos_reach for every unplaced vertex.  A
    # right-set whose every continuation failed goes into `dead`, so each
    # right-set is expanded at most once.
    placed = [0] * (n + 1)
    full = (1 << n) - 1
    dead: set[int] = set()
    mask = 0
    placed_rtl: list[int] = []

    def candidates() -> list[int]:
        # Largest id first, so that pop() tries the smallest id first.
        return [
            v for v in range(n, 0, -1) if not placed[v] and len(reference_pos_reach(adj, placed, v, radius)) <= k
        ]

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


# exact_scol's search as it was before it kept each depth's reach sets: the
# int-set search, which recomputes every unplaced vertex's reach set at every
# node.


def reference_mask_within(nbrs: Sequence[int], n: int, radius: int, k: int) -> list[int] | None:
    # An ordering with back-reach at most k, as the vertices placed right to
    # left, or None.  Depth-first over right-sets: a vertex may be placed only
    # while its reach set, fixed once everything to its right is, has at most
    # k members.  Every vertex set is an int with bit v for vertex v: nbrs[v]
    # holds v's neighbours and `mask` the right-set.  An unplaced v reaches
    # itself and the unplaced vertices hit within radius hops, where only v
    # and right-set members are expanded, each at most once, as in _reach.
    # A right-set whose every continuation failed goes into `dead`, so each
    # right-set is expanded at most once.
    full = (1 << n + 1) - 2
    dead: set[int] = set()
    mask = 0
    placed_rtl: list[int] = []

    def candidates() -> list[int]:
        # Largest id first, so that pop() tries the smallest id first.
        free = full ^ mask
        out = []
        for v in range(n, 0, -1):
            if not free >> v & 1:
                continue
            hit = nbrs[v]
            reach = hit & free | 1 << v
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
                reach |= hit & free
                frontier = hit & unseen
                unseen ^= frontier
            if reach.bit_count() <= k:
                out.append(v)
        return out

    stack = [candidates()]
    while stack:
        if mask == full:
            return placed_rtl
        if not stack[-1]:
            dead.add(mask)
            stack.pop()
            if placed_rtl:
                mask ^= 1 << placed_rtl.pop()
            continue
        v = stack[-1].pop()
        if mask | 1 << v in dead:
            continue
        mask |= 1 << v
        placed_rtl.append(v)
        stack.append(candidates())
    return None


# The validators as they were before the single pass: an edge loop for
# proper, and one Counter per neighbourhood and criterion for the others.
# Only the accessors changed: col.colours[v - 1].
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


def reference_verify_colouring(g: Graph, col: Colouring, criterion: Criterion) -> Verdict:
    """Check one criterion; on failure the witness is a violating vertex.

    Vertices without neighbours are exempt from the odd and conflict_free
    checks, which only constrain non-empty neighbourhoods.
    """
    if col.n != g.n:
        raise ValueError(f"colouring covers {col.n} vertices, graph has {g.n}")
    if criterion == "proper":
        for u, v in g.edges():
            if col.colours[u - 1] == col.colours[v - 1]:
                return Verdict(
                    ok=False,
                    witness=u,
                    detail=f"edge ({u},{v}) is monochromatic in colour {col.colours[u - 1]}",
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


def reference_exact_chromatic(g: Graph, variant: Criterion, limit: int = 8) -> tuple[int, Colouring]:
    """Smallest palette admitting a proper colouring that satisfies ``variant``.

    Backtracking over vertices in id order with colours 1..c for growing c,
    pruning improper partial assignments; a vertex may introduce at most one
    new colour beyond those already used, which kills colour-permutation
    symmetry.  The odd and conflict_free conditions are checked at leaves.
    """
    if variant not in CRITERIA:
        raise ValueError(f"unknown variant {variant!r}, expected one of {CRITERIA}")
    if g.n > limit:
        raise ValueError(
            f"exact search on {g.n} vertices exceeds limit {limit}; raise limit explicitly"
        )
    if g.n == 0:
        return 0, Colouring(colours=(), palette=0)

    colours = [0] * (g.n + 1)

    def search(v: int, introduced: int, c: int) -> list[int] | None:
        if v > g.n:
            flat = colours[1:]  # properness is enforced during the search
            return flat if variant == "proper" or _first_violation(g, flat, variant) is None else None
        top = min(c, introduced + 1)
        for colour in range(1, top + 1):
            if any(colours[w] == colour for w in g.adjacency[v] if w < v):
                continue
            colours[v] = colour
            found = search(v + 1, max(introduced, colour), c)
            if found is not None:
                return found
            colours[v] = 0
        return None

    for c in range(1, g.n + 1):
        found = search(1, 0, c)
        if found is not None:
            return c, Colouring(colours=tuple(found), palette=c)
    raise AssertionError("a colouring with n distinct colours always satisfies every variant")


# The generators as they were before the family table: the per-family
# validation, the if chain and the graph_id rule, kept as the reference that
# every (family, params, seed) must still reproduce.
RANDOM_FAMILIES = ("gnp", "planar3tree")


def too_many_vertices(n: int) -> str:
    return f"vertex count {n} exceeds the limit of {MAX_VERTICES}"


def _fmt_num(x: int | float) -> str:
    return str(int(x)) if isinstance(x, int) or x == int(x) else repr(x)


def reference_graph_id(spec: GenSpec) -> str:
    args = ",".join(_fmt_num(p) for p in spec.params)
    if spec.family in RANDOM_FAMILIES:
        args += f",seed={spec.seed}"
    return f"{spec.family}({args})"


def _ints(params: tuple[int | float, ...]) -> list[int]:
    out = []
    for p in params:
        if isinstance(p, float) and not p.is_integer():  # inf and nan included
            raise ValueError(f"expected integer parameter, got {p}")
        out.append(int(p))
    return out


def reference_validate_params(family: str, params: tuple[int | float, ...]) -> None:
    def need(count: int, names: str) -> None:
        if len(params) != count:
            raise ValueError(f"{family} takes {count} parameter(s) ({names}), got {len(params)}")

    if family == "path":
        need(1, "n")
        (n,) = _ints(params)
        if n < 1:
            raise ValueError("path requires n >= 1")
    elif family == "cycle":
        need(1, "n")
        (n,) = _ints(params)
        if n < 3:
            raise ValueError("cycle requires n >= 3")
    elif family == "complete":
        need(1, "n")
        (n,) = _ints(params)
        if n < 1:
            raise ValueError("complete requires n >= 1")
    elif family == "star":
        need(1, "leaves")
        n = _ints(params)[0] + 1
        if n < 1:
            raise ValueError("star requires leaves >= 0")
    elif family == "complete_bipartite":
        need(2, "a, b")
        a, b = _ints(params)
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite requires a >= 1 and b >= 1")
        n = a + b
    elif family == "grid":
        need(2, "rows, cols")
        r, c = _ints(params)
        if r < 1 or c < 1:
            raise ValueError("grid requires rows >= 1 and cols >= 1")
        n = r * c
    elif family == "gnp":
        need(2, "n, p")
        if isinstance(params[0], float) and not params[0].is_integer():
            raise ValueError("gnp requires integer n")
        n = int(params[0])
        if n < 0:
            raise ValueError("gnp requires n >= 0")
        p = float(params[1])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"gnp requires 0 <= p <= 1, got {p}")
    else:  # planar3tree
        need(1, "n")
        (n,) = _ints(params)
        if n < 3:
            raise ValueError("planar3tree requires n >= 3")
    if n > MAX_VERTICES:
        raise ValueError(too_many_vertices(n))


def reference_generate(spec: GenSpec) -> Graph:
    """The generators before the family table, verbatim."""
    f = spec.family
    if f == "path":
        (n,) = _ints(spec.params)
        return build_graph(n, [(i, i + 1) for i in range(1, n)])
    if f == "cycle":
        (n,) = _ints(spec.params)
        return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    if f == "complete":
        (n,) = _ints(spec.params)
        return build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    if f == "star":
        (leaves,) = _ints(spec.params)
        return build_graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])
    if f == "complete_bipartite":
        a, b = _ints(spec.params)
        return build_graph(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])
    if f == "grid":
        r, c = _ints(spec.params)
        edges = []
        for i in range(r):
            for j in range(c):
                v = i * c + j + 1  # row-major numbering
                if j + 1 < c:
                    edges.append((v, v + 1))
                if i + 1 < r:
                    edges.append((v, v + c))
        return build_graph(r * c, edges)
    if f == "gnp":
        n = int(spec.params[0])
        p = float(spec.params[1])
        return build_graph(n, reference_gnp_edges(n, p, random.Random(spec.seed)))
    if f == "planar3tree":
        (n,) = _ints(spec.params)
        rng = random.Random(spec.seed)
        edges = [(1, 2), (2, 3), (1, 3)]
        faces = [(1, 2, 3)]
        for v in range(4, n + 1):
            a, b, c = faces.pop(rng.randrange(len(faces)))
            edges += [(a, v), (b, v), (c, v)]
            faces += [(a, b, v), (a, c, v), (b, c, v)]
        return build_graph(n, edges)
    raise AssertionError(f"unhandled family {f!r}")


def reference_gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    # gnp's edge list before it drew a block of pairs per getrandbits call,
    # verbatim: one random() per vertex pair, in lexicographic order.
    return [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]


# The edge lists that grid and planar3tree gave build_graph before they built
# their sorted adjacency lists directly: the shared ids and the Fenwick tree
# over face chunks, verbatim.
def reference_grid_edges(r: int, c: int, rng: random.Random) -> list[tuple[int, int]]:
    # Endpoints come from one list, so the graph holds one int object per
    # vertex rather than a new one per endpoint occurrence.
    ids = list(range(r * c + 1))
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j + 1  # row-major numbering
            if j + 1 < c:
                edges.append((ids[v], ids[v + 1]))
            if i + 1 < r:
                edges.append((ids[v], ids[v + c]))
    return edges


def reference_fenwick_planar3tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Insert each vertex v >= 4 into the live face ``randrange(2v - 7)``, the
    live faces counted in creation order.  The faces are kept in chunks, and
    a Fenwick tree (Fenwick, SPE 1994) over the chunks' live counts finds the
    one drawn in O(log n) steps."""
    edges = [(1, 2), (2, 3), (1, 3)]
    size = 1 << (max(n - 4, 0) // FACE_CHUNK).bit_length()  # a power of two, at least the chunk count
    # Chunk j holds the faces made by the vertices 4 + j * FACE_CHUNK up to
    # 3 + (j + 1) * FACE_CHUNK, chunk 0 also the first face.  Every chunk counts
    # as full from the start: randrange draws below the live count, so the
    # descent never passes the chunk being filled.
    chunks: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    chunks[0].append((1, 2, 3))
    tree = [3 * FACE_CHUNK] * (size + 1)  # tree[j] sums chunks j - (j & -j) .. j - 1
    tree[1] += 1
    for j in range(1, size):
        tree[j + (j & -j)] += tree[j]
    steps = [size >> k for k in range(1, size.bit_length())]  # tree[size] exceeds every draw
    for v in range(4, n + 1):
        i, j = rng.randrange(2 * v - 7), 0
        for step in steps:
            if tree[j + step] <= i:
                j += step
                i -= tree[j]
        a, b, c = chunks[j].pop(i)
        j += 1
        while j <= size:
            tree[j] -= 1
            j += j & -j
        edges += [(a, v), (b, v), (c, v)]
        chunks[(v - 4) // FACE_CHUNK] += [(a, b, v), (a, c, v), (b, c, v)]
    return edges


# Graph building and writing before the sorted-adjacency duplicate check: a
# set of normalised pairs caught repeated edges, and the writer copied the
# edge list and built one line list per format.  Verbatim.
def reference_build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list.

    Rejects out-of-range endpoints, self-loops, and duplicate edges
    (after normalising (u,v)/(v,u)); the error names the offending pair.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if reason := size_error(n, 0):
        raise ValueError(reason)
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


# Graph building before the one-pass builder: a strictly increasing list was
# copied and checked in bulk, then only appended; any other list took a second
# loop with per-edge checks, then the per-vertex sort and duplicate scan.
# Verbatim.
def reference_two_path_build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
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


def reference_save_graph(g: Graph, fmt: str = "edgelist") -> str:
    """Serialise a graph; edges are emitted with u < v in lexicographic order."""
    pairs = list(g.edges())
    if fmt == "edgelist":
        lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in pairs]
    elif fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"] + [f"e {u} {v}" for u, v in pairs]
    else:
        raise ValueError(f"unknown graph format {fmt!r}, expected one of {FORMATS}")
    return "\n".join(lines) + "\n"


# The line readers of graph, ordering and colouring files before the one read
# path per format, with the line splitter and int conversions they used: each
# loader read a text in the written shape in one pass and handed any other
# text to these.  Verbatim.
# Only the input changed: DataLines takes the text as it is, a str.  And the
# ordering and colouring readers name the line of a vertex out of range,
# repeated, or with a colour outside the palette, and every reader names the
# header's line for a count that does not match the body or a negative
# palette, as the loaders do; and the graph readers name the line of an edge
# out of range or a self-loop.
def int_pairs(rows: list[str]) -> list[tuple[int, int]]:
    """Rows of two integer fields, such as ``"u v"``, as int pairs."""
    return [(int(a), int(b)) for a, b in map(str.split, rows)]


class DataLines:
    """The data lines of a text in one of the package's file formats.

    ``rows`` holds the stripped lines that are neither blank nor comments
    (lines starting with ``comment``).  Line numbers are counted again only
    to report an error, so the parse loops do not track them.
    """

    def __init__(self, fmt: str, text: str, comment: Literal["#", "c"] = "#"):
        self.fmt = fmt
        self.comment = comment
        self.text = text
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


def _build_naming_line(lines: DataLines, n: int, pairs: list[tuple[int, int]]) -> Graph:
    # build_graph, with the line of the edge it names out of range or a
    # self-loop: the first such edge.
    try:
        return build_graph(n, pairs)
    except ValueError as err:
        if n >= 0:
            for i, (u, v) in enumerate(pairs, 1):
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise lines.error(i, str(err)) from None
        raise


def reference_parse_edgelist(source: str) -> Graph:
    lines = DataLines("edgelist", source)
    if not lines.rows:
        raise ValueError("edgelist: missing 'n m' header line")
    n, m = lines.ints(0, 1, "header", "n m", int_pairs)[0]
    if reason := size_error(n, m):
        raise lines.error(0, reason)
    if len(lines.rows) - 1 != m:
        raise lines.error(0, f"header declares {m} edges but body has {len(lines.rows) - 1} lines")
    return _build_naming_line(lines, n, lines.ints(1, None, "line", "u v", int_pairs))


def reference_parse_dimacs(source: str) -> Graph:
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
        raise lines.error(0, f"problem line declares {m} edges but found {len(rows) - 1}")
    return _build_naming_line(lines, n, lines.ints(1, None, "line", "e u v",
                                                   lambda r: [(int(u), int(v)) for _, u, v in map(str.split, r)]))


def reference_parse_ordering(source: str) -> VertexOrdering:
    lines = DataLines("ordering file", source)
    seq = lines.ints(0, None, "line", "v", lambda rows: tuple(map(int, rows)))
    seen = set()
    for i, v in enumerate(seq):
        if v in seen or not 1 <= v <= len(seq):
            why = "listed twice" if v in seen else "out of range"
            raise lines.error(i, f"ordering is not a permutation of 1..{len(seq)}: vertex {v} {why}")
        seen.add(v)
    return VertexOrdering(seq)


def reference_parse_colouring(source: str) -> Colouring:
    lines = DataLines("colouring file", source)
    if not lines.rows:
        raise ValueError("colouring file: missing 'n c' header line")
    n, c = lines.ints(0, 1, "header", "n c", int_pairs)[0]
    if len(lines.rows) - 1 != n:
        raise lines.error(0, f"header declares {n} vertices, body has {len(lines.rows) - 1} lines")
    colours: list[int | None] = [None] * n
    line_of = [0] * (n + 1)
    for i, (v, colour) in enumerate(lines.ints(1, None, "line", "v colour", int_pairs), 1):
        if not 1 <= v <= n:
            raise lines.error(i, f"vertex {v} out of range 1..{n}")
        if colours[v - 1] is not None:
            raise lines.error(i, f"vertex {v} listed twice")
        colours[v - 1] = colour
        line_of[v] = i
    if c < 0:
        raise lines.error(0, f"palette must be >= 0, got {c}")
    for v, colour in enumerate(colours, 1):
        if not 1 <= colour <= c:
            raise lines.error(line_of[v], f"vertex {v} has colour {colour} outside 1..{c}")
    return Colouring(colours=tuple(colours), palette=c)


# The one-pass reader of a text in the written shape before the chunked one,
# graph.written_ints: it encoded, checked and parsed the whole text at once,
# holding it as bytes three times.  Verbatim.
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")


def whole_ints(text: str, cols: int) -> list[int] | None:
    """The fields of ``text``, read in one pass, if it has the exact shape the
    package writes: ASCII, ending in a newline, and every line ``cols`` runs of
    digits joined by single spaces.  None for any other text, which
    :class:`DataLines` then splits into rows, so every syntax error comes from
    the row parse."""
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
