import time
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
    load_ordering,
    make_ordering,
    min_backreach_order,
    reach_set,
    save_ordering,
)
from oracles import all_graphs, enumerate_reach, enumerate_scol


def path(n):
    return generate(GenSpec("path", (n,)))


def cycle(n):
    return generate(GenSpec("cycle", (n,)))


def complete(n):
    return generate(GenSpec("complete", (n,)))


def star(m):
    return generate(GenSpec("star", (m,)))


# --- VertexOrdering ---------------------------------------------------------


def test_ordering_positions():
    o = VertexOrdering((3, 1, 2))
    assert [o.position(v) for v in (1, 2, 3)] == [2, 3, 1]
    assert o.precedes(3, 1) and not o.precedes(2, 1)


def test_ordering_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        VertexOrdering((1, 1, 2))
    with pytest.raises(ValueError, match="permutation"):
        VertexOrdering((1, 3))


def test_ordering_file_round_trip():
    o = VertexOrdering((4, 1, 3, 2))
    assert load_ordering(save_ordering(o)) == o
    assert save_ordering(o) == "4\n1\n3\n2\n"


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


# --- reach_set --------------------------------------------------------------


def test_reach_p4_excludes_left_interior():
    # The length-2 path through vertex 3 does not count: 3 comes before 4.
    assert reach_set(path(4), VertexOrdering.identity(4), 4, 2) == {4, 3}


def test_reach_first_vertex_is_singleton():
    g = cycle(5)
    o = VertexOrdering((2, 4, 1, 3, 5))
    for s in (1, 2, 3):
        assert reach_set(g, o, 2, s) == {2}


def test_reach_c5_wraps_through_right_interior():
    assert reach_set(cycle(5), VertexOrdering.identity(5), 4, 2) == {4, 3, 1}


def test_reach_star_centre_last():
    # Leaf 3 reaches leaf 2 through the centre, which sits to the right.
    assert reach_set(star(3), VertexOrdering((2, 3, 4, 1)), 3, 2) == {3, 2}


def test_reach_rejects_bad_arguments():
    g = path(3)
    o = VertexOrdering.identity(3)
    with pytest.raises(ValueError, match="radius"):
        reach_set(g, o, 1, 0)
    with pytest.raises(ValueError, match="out of range"):
        reach_set(g, o, 9, 1)
    with pytest.raises(ValueError, match="ordering covers"):
        reach_set(g, VertexOrdering.identity(4), 1, 1)


# --- back_reach_profile -----------------------------------------------------


def test_profile_c5_identity():
    prof = back_reach_profile(cycle(5), VertexOrdering.identity(5), 2)
    assert [prof.sizes[v] for v in range(1, 6)] == [1, 2, 2, 3, 3]
    assert prof.max == 3


def test_profile_argmax_is_smallest_vertex_attaining_max():
    g = cycle(5)
    assert back_reach_profile(g, VertexOrdering.identity(5), 2).argmax == 4
    # Reversed, vertices 1 and 2 attain the max; 2 comes first in the order.
    assert back_reach_profile(g, VertexOrdering.reverse(5), 2).argmax == 1
    prof = back_reach_profile(build_graph(0, []), VertexOrdering(()), 2)
    assert (prof.max, prof.argmax) == (0, None)


def test_profile_k4_any_ordering():
    g = complete(4)
    for o in (VertexOrdering.identity(4), VertexOrdering.reverse(4), VertexOrdering((2, 4, 1, 3))):
        prof = back_reach_profile(g, o, 2)
        assert [prof.sizes[o.seq[i]] for i in range(4)] == [1, 2, 3, 4]
        assert prof.max == 4


def test_profile_edgeless():
    g = build_graph(4, [])
    for s in (1, 2, 5):
        prof = back_reach_profile(g, VertexOrdering((3, 1, 4, 2)), s)
        assert set(prof.sizes.values()) == {1}
        assert prof.max == 1


@pytest.mark.parametrize("g", [path(10), cycle(7)], ids=["path10", "cycle7"])
def test_profile_huge_radius_stops_on_empty_frontier(g):
    # Past radius n every frontier is empty; the search must stop there
    # rather than run 10^9 empty levels per vertex.  10^6 comes first, so
    # code without the stop fails on time instead of running for minutes.
    for s in (10**6, 10**9):
        start = time.perf_counter()
        for o in (VertexOrdering.identity(g.n), VertexOrdering.reverse(g.n)):
            huge, at_n = back_reach_profile(g, o, s), back_reach_profile(g, o, g.n)
            assert (huge.sizes, huge.max, huge.argmax) == (at_n.sizes, at_n.max, at_n.argmax)
        assert time.perf_counter() - start < 1.0


# --- degeneracy_order -------------------------------------------------------


@pytest.mark.parametrize(
    "g, want_d",
    [(path(4), 1), (complete(4), 3), (cycle(5), 2)],
)
def test_degeneracy_examples(g, want_d):
    ordering, d = degeneracy_order(g)
    assert d == want_d
    assert back_reach_profile(g, ordering, 1).max == d + 1


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
    assert back_reach_profile(g, ordering, 2).max == want_max


def test_min_backreach_sandwiched_by_exact_value():
    for trial in range(10):
        g = generate(GenSpec("gnp", (7, 0.4), seed=trial))
        heuristic = back_reach_profile(g, min_backreach_order(g), 2).max
        assert exact_scol(g, 2)[0] <= heuristic <= g.n


# --- exact_scol -------------------------------------------------------------


@pytest.mark.parametrize(
    "g, s, want",
    [(cycle(5), 2, 3), (star(3), 2, 2), (complete(4), 2, 4), (path(4), 1, 2)],
)
def test_exact_scol_examples(g, s, want):
    value, witness = exact_scol(g, s)
    assert value == want
    assert back_reach_profile(g, witness, s).max == value


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
    for v in g.vertices:
        assert reach_set(g, ordering, v, s) == enumerate_reach(g, ordering, v, s)


@settings(max_examples=80)
@given(graph_order_radius())
def test_reach_basics(t):
    g, ordering, s = t
    for v in g.vertices:
        r = reach_set(g, ordering, v, s)
        assert v in r
        assert all(ordering.precedes(w, v) for w in r)
        assert r <= reach_set(g, ordering, v, s + 1)
        left_nbrs = {w for w in g.adjacency[v] if ordering.position(w) < ordering.position(v)}
        assert reach_set(g, ordering, v, 1) == {v} | left_nbrs


def test_profile_max_nondecreasing_in_radius():
    g = generate(GenSpec("gnp", (8, 0.35), seed=4))
    o = make_ordering(g, "degeneracy")
    maxima = [back_reach_profile(g, o, s).max for s in (1, 2, 3, 4)]
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


def test_exact_scol_matches_enumeration_on_all_n4_graphs():
    for g in all_graphs(4):
        for s in (1, 2, 3):
            assert exact_scol(g, s)[0] == enumerate_scol(g, s)
