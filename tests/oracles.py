"""Brute-force oracles, kept deliberately literal and independent of the
library's search strategies."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from cfcolour import Colouring, GenSpec, Graph, VertexOrdering, build_graph
from cfcolour.colouring import CRITERIA, Criterion, Verdict
from cfcolour.graph import MAX_VERTICES
from cfcolour.reach import _reach


def enumerate_reach(g: Graph, ordering: VertexOrdering, v: int, radius: int) -> set[int]:
    """Reach set by enumerating every simple path from v of length <= radius
    and testing the endpoint/interior order conditions on each one."""
    pv = ordering.position(v)
    found: set[int] = set()

    def walk(path: list[int]) -> None:
        end = path[-1]
        if ordering.position(end) <= pv and all(
            ordering.position(x) > pv for x in path[1:-1]
        ):
            found.add(end)
        if len(path) - 1 < radius:
            for w in g.adjacency[end]:
                if w not in path:
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


# --- differential references -------------------------------------------------
# Earlier library implementations, kept verbatim in spirit so that the current
# code can be checked against them output for output.


def reference_reach_set(g: Graph, ordering: VertexOrdering, v: int, radius: int) -> set[int]:
    """Reach set by the seen-set BFS that expands only v and vertices after v."""
    pv = ordering.position(v)
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
                if ordering.position(w) <= pv:
                    collected.add(w)
                else:
                    nxt.append(w)
        frontier = nxt
    return collected


def reference_profile_sizes(g: Graph, ordering: VertexOrdering, radius: int) -> dict[int, int]:
    return {v: len(reference_reach_set(g, ordering, v, radius)) for v in g.vertices}


def reference_degeneracy_order(g: Graph) -> tuple[VertexOrdering, int]:
    """Smallest-last elimination ordering and the graph's degeneracy.

    Repeatedly removes a minimum-degree vertex (ties to the smallest id); the
    returned ordering is the reverse of the removal sequence, so every vertex
    has at most d neighbours before it.
    """
    degree = {v: g.degree(v) for v in g.vertices}
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
    cost = {v: 1 + g.degree(v) for v in g.vertices}
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


def reference_greedy_cf_colouring(g: Graph, ordering: VertexOrdering) -> Colouring:
    """Greedy colouring that sizes the palette from a separate back-reach profile
    and then recomputes every reach set while colouring."""
    if g.n == 0:
        return Colouring(colours=(), palette=0)
    r = max(reference_profile_sizes(g, ordering, 2).values())
    palette = max(1, 2 * r - 1)
    leftmost = {
        u: min(g.adjacency[u], key=ordering.position) if g.adjacency[u] else None
        for u in g.vertices
    }
    colour_of: dict[int, int] = {}
    for i, v in enumerate(ordering.seq, start=1):
        blocked = {colour_of[w] for w in reference_reach_set(g, ordering, v, 2) if w != v}
        for u in g.adjacency[v]:
            if ordering.position(u) < i:
                pi = leftmost[u]
                if pi != v:
                    blocked.add(colour_of[pi])
        colour_of[v] = next(c for c in range(1, palette + 1) if c not in blocked)
    return Colouring(colours=tuple(colour_of[v] for v in g.vertices), palette=palette)


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
            size = len(_reach(adj, pos, v, radius))
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
            size = len(_reach(adj, pos, v, radius))
            if max(size, best(mask | (1 << (v - 1)))) <= value:
                placed_rtl.append(v)
                mask |= 1 << (v - 1)
                break
    best.cache_clear()
    return value, VertexOrdering(tuple(reversed(placed_rtl)))


# The validators as they were before the single pass: an edge loop for
# proper, and one Counter per neighbourhood and criterion for the others.
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
        rng = random.Random(spec.seed)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        return build_graph(n, edges)
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
