"""The single reach kernel, the heap orderers and the pruning exact oracles
against the earlier reach, orderer, greedy and exact-search code."""

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
    exact_chromatic,
    exact_scol,
    generate,
    greedy_cf_colouring,
    min_backreach_order,
    verify_colouring,
)
from oracles import (
    reference_degeneracy_order,
    reference_exact_chromatic,
    reference_exact_scol,
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


@st.composite
def small_graph(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=150, deadline=None)
@given(small_graph(), st.integers(1, 3), st.sampled_from(["proper", "odd", "conflict_free"]))
def test_exact_oracles_match_reference_code(g, radius, variant):
    value, ordering = exact_scol(g, radius)
    assert value == reference_exact_scol(g, radius)[0]
    assert back_reach_profile(g, ordering, radius).max == value
    chi, col = exact_chromatic(g, variant)
    assert chi == reference_exact_chromatic(g, variant)[0]
    assert col.palette == chi
    assert verify_colouring(g, col, "proper").ok
    assert verify_colouring(g, col, variant).ok


# Graphs where degeneracy + 1 < scol_s < the min_backreach back-reach, so the
# search both rules out some k and finds an ordering below the upper bound.
@pytest.mark.parametrize(
    "spec, radius",
    [
        (GenSpec("gnp", (8, 0.4), 62), 3),
        (GenSpec("gnp", (9, 0.3), 103), 2),
        (GenSpec("gnp", (10, 0.5), 3), 3),
        (GenSpec("gnp", (10, 0.3), 107), 3),
        (GenSpec("gnp", (10, 0.5), 32), 2),
    ],
    ids=str,
)
def test_exact_scol_search_beats_the_heuristic(spec, radius):
    g = generate(spec)
    value, ordering = exact_scol(g, radius, limit=10)
    assert degeneracy_order(g)[1] + 1 < value < back_reach_profile(g, min_backreach_order(g), radius).max
    assert value == reference_exact_scol(g, radius, limit=10)[0]
    assert back_reach_profile(g, ordering, radius).max == value
