import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cfcolour import (
    GenSpec,
    VertexOrdering,
    back_reach_profile,
    build_graph,
    degeneracy_order,
    exact_scol,
    generate,
    greedy_cf_colouring,
    load_ordering,
    make_ordering,
    min_backreach_order,
    save_ordering,
)
from cfcolour.reach import _reach, _reach2
from oracles import all_graphs, enumerate_reach, enumerate_right_reach, enumerate_scol, positions, prefix_flags


def path(n):
    return generate(GenSpec("path", (n,)))


def cycle(n):
    return generate(GenSpec("cycle", (n,)))


def complete(n):
    return generate(GenSpec("complete", (n,)))


def star(m):
    return generate(GenSpec("star", (m,)))


# --- VertexOrdering ---------------------------------------------------------


def test_ordering_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        VertexOrdering((1, 1, 2))
    with pytest.raises(ValueError, match="permutation"):
        VertexOrdering((1, 3))


def test_ordering_file_round_trip():
    o = VertexOrdering((4, 1, 3, 2))
    assert load_ordering(save_ordering(o)) == o
    assert save_ordering(o) == "4\n1\n3\n2\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1\n2\nx\n", "ordering file: malformed line 'x' at line 3, expected 'v'"),
        ("2\n# c\n1 2\n2\n", "ordering file: malformed line '1 2' at line 3, expected 'v'"),
        # A non-permutation names its first vertex out of range or repeated.
        ("1\n3\n3\n", "ordering file: ordering is not a permutation of 1..3: vertex 3 listed twice at line 3"),
        ("1\n# c\n5\n2\n", "not a permutation of 1..3: vertex 5 out of range at line 3"),
        ("2\n0\n", "vertex 0 out of range at line 2"),
    ],
)
def test_ordering_file_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_ordering(text)


def test_make_ordering_strategies():
    g = path(5)
    assert make_ordering(g, "identity").seq == (1, 2, 3, 4, 5)
    assert make_ordering(g, "reverse").seq == (5, 4, 3, 2, 1)
    assert make_ordering(g, "random(7)") == make_ordering(g, "random(7)")
    assert make_ordering(g, "random(7)") != make_ordering(g, "random(8)")
    assert make_ordering(g, "degeneracy") == degeneracy_order(g)[0]
    assert make_ordering(g, "min_backreach") == min_backreach_order(g)
    with pytest.raises(ValueError, match="unknown ordering strategy"):
        make_ordering(g, "sideways")
    with pytest.raises(ValueError, match="malformed strategy"):
        make_ordering(g, "random(x)")


# --- _reach -----------------------------------------------------------------


def test_reach_p4_excludes_left_interior():
    # The length-2 path through vertex 3 does not count: 3 comes before 4.
    assert _reach(path(4).adjacency, prefix_flags(VertexOrdering.identity(4), 4), 4, 2) == {4, 3}


def test_reach_first_vertex_is_singleton():
    g = cycle(5)
    o = VertexOrdering((2, 4, 1, 3, 5))
    for s in (1, 2, 3):
        assert _reach(g.adjacency, prefix_flags(o, 2), 2, s) == {2}


def test_reach_c5_wraps_through_right_interior():
    assert _reach(cycle(5).adjacency, prefix_flags(VertexOrdering.identity(5), 4), 4, 2) == {4, 3, 1}


def test_reach_star_centre_last():
    # Leaf 3 reaches leaf 2 through the centre, which sits to the right.
    assert _reach(star(3).adjacency, prefix_flags(VertexOrdering((2, 3, 4, 1)), 3), 3, 2) == {3, 2}


# --- back_reach_profile -----------------------------------------------------


def test_reach_rejects_bad_arguments():
    g = path(3)
    o = VertexOrdering.identity(3)
    with pytest.raises(ValueError, match="^radius must be >= 1, got 0$"):
        back_reach_profile(g, o, 0)
    with pytest.raises(ValueError, match="^radius must be >= 1, got 0$"):
        exact_scol(g, 0)
    with pytest.raises(ValueError, match="ordering covers"):
        back_reach_profile(g, VertexOrdering.identity(4), 1)


def test_profile_c5_identity():
    # Indexed like g.adjacency: slot 0 holds 0, then one size per vertex.
    sizes = back_reach_profile(cycle(5), VertexOrdering.identity(5), 2)
    assert sizes == (0, 1, 2, 2, 3, 3)
    assert max(sizes) == 3


def test_profile_argmax_is_smallest_vertex_attaining_max():
    g = cycle(5)
    sizes = back_reach_profile(g, VertexOrdering.identity(5), 2)
    assert sizes.index(max(sizes)) == 4
    # Reversed, vertices 1 and 2 attain the max; 2 comes first in the order.
    sizes = back_reach_profile(g, VertexOrdering.reverse(5), 2)
    assert sizes.index(max(sizes)) == 1
    sizes = back_reach_profile(build_graph(0, []), VertexOrdering(()), 2)
    assert (max(sizes), sizes.index(max(sizes))) == (0, 0)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_profile_empty_graph_is_the_sentinel_slot(s):
    # Slot 0 alone: max() and index() need no default on the empty graph.
    assert back_reach_profile(build_graph(0, []), VertexOrdering(()), s) == (0,)


def test_profile_k4_any_ordering():
    g = complete(4)
    for o in (VertexOrdering.identity(4), VertexOrdering.reverse(4), VertexOrdering((2, 4, 1, 3))):
        sizes = back_reach_profile(g, o, 2)
        assert [sizes[o.seq[i]] for i in range(4)] == [1, 2, 3, 4]
        assert max(sizes) == 4


def test_profile_edgeless():
    g = build_graph(4, [])
    for s in (1, 2, 5):
        sizes = back_reach_profile(g, VertexOrdering((3, 1, 4, 2)), s)
        assert set(sizes[1:]) == {1}
        assert max(sizes) == 1


@pytest.mark.parametrize("g", [path(10), cycle(7)], ids=["path10", "cycle7"])
def test_profile_huge_radius_stops_on_empty_frontier(g):
    # Past radius n every frontier is empty; the search must stop there
    # rather than run 10^9 empty levels per vertex.  10^6 comes first, so
    # code without the stop fails on time instead of running for minutes.
    for s in (10**6, 10**9):
        start = time.perf_counter()
        for o in (VertexOrdering.identity(g.n), VertexOrdering.reverse(g.n)):
            huge, at_n = back_reach_profile(g, o, s), back_reach_profile(g, o, g.n)
            assert huge == at_n
        assert time.perf_counter() - start < 1.0


# --- degeneracy_order -------------------------------------------------------


@pytest.mark.parametrize(
    "g, want_d",
    [(path(4), 1), (complete(4), 3), (cycle(5), 2), (build_graph(0, []), 0)],
)
def test_degeneracy_examples(g, want_d):
    ordering, d = degeneracy_order(g)
    assert d == want_d
    # d + 1 <= n, and the empty graph's back-reach is 0.
    assert max(back_reach_profile(g, ordering, 1)) == min(d + 1, g.n)


def test_degeneracy_single_vertex():
    ordering, d = degeneracy_order(build_graph(1, []))
    assert d == 0 and ordering.seq == (1,)


# --- min_backreach_order ----------------------------------------------------


@pytest.mark.parametrize(
    "g, want_max",
    [(star(3), 2), (complete(4), 4), (path(4), 2)],
)
def test_min_backreach_reaches_known_optimum(g, want_max):
    ordering = min_backreach_order(g)
    assert max(back_reach_profile(g, ordering, 2)) == want_max


def test_min_backreach_sandwiched_by_exact_value():
    for trial in range(10):
        g = generate(GenSpec("gnp", (7, 0.4), seed=trial))
        heuristic = max(back_reach_profile(g, min_backreach_order(g), 2))
        assert exact_scol(g, 2)[0] <= heuristic <= g.n


# --- exact_scol -------------------------------------------------------------


@pytest.mark.parametrize(
    "g, s, want",
    [(cycle(5), 2, 3), (star(3), 2, 2), (complete(4), 2, 4), (path(4), 1, 2)]
    + [(build_graph(0, []), s, 0) for s in (1, 2, 3)],
)
def test_exact_scol_examples(g, s, want):
    value, witness = exact_scol(g, s)
    assert value == want
    assert max(back_reach_profile(g, witness, s)) == value


def test_exact_scol_limit():
    g = generate(GenSpec("gnp", (11, 0.3), seed=0))
    with pytest.raises(ValueError, match="exceeds limit"):
        exact_scol(g, 2)
    value, _ = exact_scol(g, 1, limit=11)
    assert value == degeneracy_order(g)[1] + 1


def test_exact_scol_matches_permutation_enumeration():
    graphs = [generate(GenSpec("gnp", (5, (0.3, 0.5, 0.8)[t % 3]), seed=t)) for t in range(8)]
    graphs += [cycle(5), star(4), path(5)]
    for g in graphs:
        for s in (1, 2):
            assert exact_scol(g, s)[0] == enumerate_scol(g, s)


# --- invariants -------------------------------------------------------------


@st.composite
def graph_order_radius(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, edges)
    ordering = VertexOrdering(tuple(draw(st.permutations(list(range(1, n + 1))))))
    return g, ordering, draw(st.integers(1, 3))


@settings(max_examples=120)
@given(graph_order_radius())
def test_reach_matches_path_enumeration(t):
    g, ordering, s = t
    pos = positions(ordering)
    for v in g.vertices:
        assert _reach(g.adjacency, prefix_flags(ordering, v), v, s) == enumerate_reach(g, ordering, v, s)
    # The radius-2 walk yields every vertex in order, with its reach set and
    # its earlier neighbours sorted by position.
    yielded = []
    for v, r, earlier in _reach2(g.adjacency, ordering):
        yielded.append(v)
        assert r == enumerate_reach(g, ordering, v, 2)
        before = [w for w in g.adjacency[v] if pos[w] < pos[v]]
        assert list(earlier) == sorted(before, key=pos.__getitem__)
    assert tuple(yielded) == ordering.seq


@settings(max_examples=80)
@given(graph_order_radius())
def test_reach_basics(t):
    g, ordering, s = t
    pos = positions(ordering)
    for v in g.vertices:
        done = prefix_flags(ordering, v)
        r = _reach(g.adjacency, done, v, s)
        assert v in r
        assert all(pos[w] <= pos[v] for w in r)
        assert r <= _reach(g.adjacency, done, v, s + 1)
        left_nbrs = {w for w in g.adjacency[v] if pos[w] < pos[v]}
        assert _reach(g.adjacency, done, v, 1) == {v} | left_nbrs


def test_profile_max_nondecreasing_in_radius():
    g = generate(GenSpec("gnp", (8, 0.35), seed=4))
    o = make_ordering(g, "degeneracy")
    maxima = [max(back_reach_profile(g, o, s)) for s in (1, 2, 3, 4)]
    assert maxima == sorted(maxima)


def test_scol_monotone_in_radius_and_subgraph():
    for t in range(6):
        g = generate(GenSpec("gnp", (6, 0.5), seed=100 + t))
        assert exact_scol(g, 1)[0] <= exact_scol(g, 2)[0] <= exact_scol(g, 3)[0]
        edges = list(g.edges())
        sub = build_graph(g.n, edges[: len(edges) // 2])
        assert exact_scol(sub, 2)[0] <= exact_scol(g, 2)[0]


def test_scol1_is_degeneracy_plus_one_on_all_n4_graphs():
    for g in all_graphs(4):
        assert exact_scol(g, 1)[0] == degeneracy_order(g)[1] + 1


def test_reach_between_unplaced_vertices_is_symmetric_and_local():
    # The rule behind exact_scol's search, by path enumeration: given a
    # right-set, an unplaced x reaches an unplaced v exactly when v reaches
    # x, and when v joins the right-set the only unplaced reach sets that
    # change are those that held v.
    for g in all_graphs(5):
        full = (1 << g.n + 1) - 2
        for radius in (1, 2, 3):
            reach = {
                (right, x): enumerate_right_reach(g, right, x, radius)
                for right in range(0, full + 1, 2)
                for x in g.vertices
                if not right >> x & 1
            }
            for (right, x), held in reach.items():
                for v in g.vertices:
                    if v != x and not right >> v & 1:
                        assert held >> v & 1 == reach[right, v] >> x & 1, (g, right, x, v)
                        assert held >> v & 1 or reach[right | 1 << v, x] == held, (g, right, x, v)


def test_exact_scol_matches_enumeration_on_all_n4_graphs():
    for g in all_graphs(4):
        for s in (1, 2, 3):
            assert exact_scol(g, s)[0] == enumerate_scol(g, s)


# The walk keeps, for each vertex not yet yielded, a tuple of its neighbours
# yielded so far; every slot starts as the one shared empty tuple.  Measured on
# Python 3.11 along identity, the profile peaked at 47-57 bytes per vertex and
# the greedy at 55; the list per vertex it replaced, with its over-allocation,
# peaked at 93 and 101.
WALK_BYTES_PER_VERTEX = 75


def test_radius2_walk_memory_per_vertex():
    g = generate(GenSpec("planar3tree", (20000,), seed=1))
    ordering = VertexOrdering.identity(g.n)
    for run in (lambda: back_reach_profile(g, ordering, 2), lambda: greedy_cf_colouring(g, ordering)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / g.n < WALK_BYTES_PER_VERTEX, peak / g.n


# An ordering keeps only its sequence: on a shuffled ordering of 20000
# vertices, measured on Python 3.10-3.13, a load keeps 36 bytes per vertex and
# peaks at 46-49.  With every position built at once, and the permutation
# checked by a sort against a range list, it kept 71 and peaked at 92 (Python
# 3.11).  The profile at radius 3 reads "at or before v" off a list of flags
# the walk sets, and frees it before the sizes are copied into the returned
# tuple: it peaked at 16.1 bytes per vertex on Python 3.11, 24.0 with the
# flags kept through the copy, and 52.3 building positions.
def test_ordering_memory_per_vertex():
    g = generate(GenSpec("grid", (100, 200)))
    text = save_ordering(VertexOrdering.shuffled(g.n, 1))
    tracemalloc.start()
    try:
        o = load_ordering(text)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back_reach_profile(g, o, 3)
        profile = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept / g.n < 45 and peak / g.n < 65, (kept / g.n, peak / g.n)
    assert profile / g.n < 20, profile / g.n
