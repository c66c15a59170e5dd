import re

import pytest
from hypothesis import given, settings, strategies as st

from cfcolour import (
    GenSpec,
    degeneracy_order,
    generate,
    load_graph,
    parse_genspec,
    save_graph,
)
from cfcolour.generators import parse_params


def degrees(g):
    return [g.degree(v) for v in g.vertices]


def test_path_contract():
    g = generate(GenSpec("path", (4,)))
    assert (g.n, g.m) == (4, 3)
    assert degrees(g) == [1, 2, 2, 1]


def test_cycle_contract():
    g = generate(GenSpec("cycle", (5,)))
    assert (g.n, g.m) == (5, 5)
    assert degrees(g) == [2] * 5


def test_complete_contract():
    g = generate(GenSpec("complete", (5,)))
    assert g.m == 10


def test_star_centre_is_vertex_one():
    g = generate(GenSpec("star", (3,)))
    assert (g.n, g.m) == (4, 3)
    assert g.degree(1) == 3
    assert all(g.adjacency[v] == (1,) for v in (2, 3, 4))


def test_complete_bipartite_contract():
    g = generate(GenSpec("complete_bipartite", (2, 3)))
    assert (g.n, g.m) == (5, 6)
    assert all(not g.has_edge(u, v) for u, v in [(1, 2), (3, 4), (3, 5), (4, 5)])


def test_grid_row_major():
    g = generate(GenSpec("grid", (2, 3)))
    # 1 2 3
    # 4 5 6
    assert (g.n, g.m) == (6, 7)
    assert g.has_edge(1, 2) and g.has_edge(1, 4) and g.has_edge(5, 6)
    assert not g.has_edge(3, 4)


def test_gnp_deterministic_per_seed():
    a = generate(GenSpec("gnp", (6, 0.5), seed=1))
    b = generate(GenSpec("gnp", (6, 0.5), seed=1))
    c = generate(GenSpec("gnp", (6, 0.5), seed=2))
    assert a == b
    assert a != c  # with 15 candidate pairs a collision is vanishingly unlikely


def test_gnp_extremes():
    assert generate(GenSpec("gnp", (6, 0.0), seed=3)).m == 0
    assert generate(GenSpec("gnp", (6, 1.0), seed=3)).m == 15


def test_planar3tree_is_maximal_planar():
    g = generate(GenSpec("planar3tree", (10,), seed=7))
    assert g.m == 3 * 10 - 6


@pytest.mark.parametrize("n", [4, 9, 25])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planar3tree_edge_count_and_degeneracy(n, seed):
    g = generate(GenSpec("planar3tree", (n,), seed=seed))
    assert g.m == 3 * n - 6
    assert degeneracy_order(g)[1] == 3


@pytest.mark.parametrize(
    "family, params",
    [
        ("path", (0,)),
        ("cycle", (2,)),
        ("complete", (0,)),
        ("star", (-1,)),
        ("complete_bipartite", (0, 3)),
        ("grid", (2,)),
        ("gnp", (6, 1.5)),
        ("gnp", (-1, 0.5)),
        ("planar3tree", (2,)),
        ("nonsense", (3,)),
    ],
)
def test_invalid_specs_rejected(family, params):
    with pytest.raises(ValueError):
        GenSpec(family, params)


def test_parse_genspec_round_trip():
    for text in ["path(4)", "grid(20,50)", "gnp(8,0.3,seed=7)", "planar3tree(50,seed=3)"]:
        spec = parse_genspec(text)
        assert spec.graph_id == text
        assert parse_genspec(spec.graph_id) == spec


@pytest.mark.parametrize(
    "text",
    [
        "path 4",
        "gnp(8,0.3,seed=x)",
        "path(x)",
        "grid(2,,3)",
        "gnp(8,0.3,seed=1.5)",
        "path(1e999)",
        "grid(2,1e400)",
        "gnp(1e999,0.3)",
    ],
)
def test_parse_genspec_rejects_garbage(text):
    with pytest.raises(ValueError, match=re.escape(f"malformed generator spec {text!r}")):
        parse_genspec(text)


@pytest.mark.parametrize(
    "text",
    [
        "path(1e300)",
        "cycle(1000001)",
        "complete(1000001)",
        "star(1000000)",
        "complete_bipartite(500000,500001)",
        "grid(1e6,1e6)",
        "gnp(1000001,0.1)",
        "planar3tree(1000001)",
    ],
)
def test_parse_genspec_rejects_too_many_vertices(text):
    with pytest.raises(ValueError, match=re.escape(f"malformed generator spec {text!r}: vertex count")) as err:
        parse_genspec(text)
    assert str(err.value).endswith("exceeds the limit of 1000000")


def test_genspec_accepts_the_largest_vertex_count():
    assert GenSpec("grid", (1000, 1000)).params == (1000, 1000)
    assert GenSpec("star", (999999,)).params == (999999,)


def test_parse_params():
    assert parse_params("") == ()
    assert parse_params(" 20, 50 ") == (20, 50)
    assert parse_params("8,0.3,1e2") == (8, 0.3, 100.0)


@st.composite
def genspecs(draw):
    family = draw(st.sampled_from(
        ["path", "cycle", "complete", "star", "complete_bipartite", "grid", "gnp", "planar3tree"]
    ))
    if family == "path" or family == "complete":
        params = (draw(st.integers(1, 12)),)
    elif family == "cycle":
        params = (draw(st.integers(3, 12)),)
    elif family == "star":
        params = (draw(st.integers(0, 10)),)
    elif family in ("complete_bipartite", "grid"):
        params = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    elif family == "gnp":
        params = (draw(st.integers(0, 10)), draw(st.floats(0.0, 1.0)))
    else:
        params = (draw(st.integers(3, 20)),)
    return GenSpec(family, params, seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=60)
@given(genspecs(), st.sampled_from(["edgelist", "dimacs"]))
def test_generated_graphs_are_valid_and_round_trip(spec, fmt):
    g = generate(spec)
    for v in g.vertices:
        assert v not in g.adjacency[v]
        assert list(g.adjacency[v]) == sorted(set(g.adjacency[v]))
        for w in g.adjacency[v]:
            assert v in g.adjacency[w]
    assert load_graph(save_graph(g, fmt), fmt) == g


@settings(max_examples=30)
@given(genspecs())
def test_generation_is_deterministic(spec):
    assert generate(spec) == generate(spec)
