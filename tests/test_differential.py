"""The single reach kernel against the earlier reach, orderer and greedy code."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from cfcolour import (
    VertexOrdering,
    back_reach_profile,
    build_graph,
    greedy_cf_colouring,
    min_backreach_order,
)
from oracles import (
    reference_greedy_cf_colouring,
    reference_min_backreach_order,
    reference_profile_sizes,
)


@st.composite
def graph_and_order(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4 * n)) if pairs else []
    g = build_graph(n, edges)
    return g, VertexOrdering(tuple(draw(st.permutations(list(range(1, n + 1))))))


@settings(max_examples=60, deadline=None)
@given(graph_and_order())
def test_kernel_matches_reference_code(t):
    g, shuffled = t
    placed = min_backreach_order(g)
    assert placed == reference_min_backreach_order(g)
    for ordering in (shuffled, placed):
        assert greedy_cf_colouring(g, ordering) == reference_greedy_cf_colouring(g, ordering)
        for s in (1, 2, 3):
            profile = back_reach_profile(g, ordering, s)
            assert profile.sizes == reference_profile_sizes(g, ordering, s)
