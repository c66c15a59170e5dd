"""The single reach kernel and the heap orderers against the earlier reach,
orderer and greedy code."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cfcolour import (
    GenSpec,
    VertexOrdering,
    back_reach_profile,
    build_graph,
    degeneracy_order,
    generate,
    greedy_cf_colouring,
    min_backreach_order,
)
from oracles import (
    reference_degeneracy_order,
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


@st.composite
def hub_heavy_graph(draw, max_n=40):
    # A random graph of drawn density plus up to two stars on drawn centres:
    # hubs are where stale heap entries and lazily built reach sets matter,
    # and near-regular graphs are where reach costs rise after a placement.
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4, 0.7]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    edges = {pair for pair in combinations(range(1, n + 1), 2) if rnd.random() < density}
    for _ in range(draw(st.integers(0, 2))):
        centre = draw(st.integers(1, n))
        leaves = draw(st.sets(st.integers(1, n), max_size=n))
        edges.update((min(centre, w), max(centre, w)) for w in leaves if w != centre)
    return build_graph(n, sorted(edges))


def assert_orderers_match_references(g):
    assert degeneracy_order(g) == reference_degeneracy_order(g)
    assert min_backreach_order(g) == reference_min_backreach_order(g)


@settings(max_examples=100, deadline=None)
@given(hub_heavy_graph())
def test_heap_orderers_match_reference_code(g):
    assert_orderers_match_references(g)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "family,params", [("planar3tree", (300,)), ("gnp", (300, 0.02))], ids=["planar3tree", "gnp"]
)
def test_heap_orderers_match_reference_code_on_corpus_families(family, params, seed):
    assert_orderers_match_references(generate(GenSpec(family, params, seed)))
