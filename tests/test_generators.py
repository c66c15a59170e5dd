import hashlib
import math
import random
import re
from operator import lt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cfcolour import (
    FAMILIES,
    GenSpec,
    build_graph,
    degeneracy_order,
    generate,
    load_corpus,
    load_graph,
    parse_genspec,
    save_graph,
)
from cfcolour import generators
from cfcolour.generators import FACE_CHUNK, PAIR_BLOCK, TABLE, parse_params
from oracles import (
    reference_fenwick_planar3tree_edges,
    reference_generate,
    reference_gnp_edges,
    reference_graph_id,
    reference_grid_edges,
    reference_validate_params,
)


def degrees(g):
    return [len(g.adjacency[v]) for v in g.vertices]


def test_path_contract():
    g = generate(GenSpec("path", (4,)))
    assert (g.n, g.m) == (4, 3)
    assert degrees(g) == [1, 2, 2, 1]


def test_cycle_contract():
    g = generate(GenSpec("cycle", (5,)))
    assert (g.n, g.m) == (5, 5)
    assert degrees(g) == [2] * 5


def test_cycle_edges_increase_and_give_the_graph_of_the_creation_order(monkeypatch):
    # (1, n) comes second, so the list strictly increases and build_graph checks it in bulk.
    # The edge list is caught on its way from the family's TABLE entry to build_graph.
    seen = []
    monkeypatch.setattr(generators, "build_graph", lambda n, edges: seen.append(edges) or build_graph(n, edges))
    for n in range(3, 41):
        g = generate(GenSpec("cycle", (n,)))
        edges = seen.pop()
        assert all(map(lt, edges, edges[1:])) and all(u < v for u, v in edges)
        assert g == build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def test_complete_contract():
    g = generate(GenSpec("complete", (5,)))
    assert g.m == 10


def test_star_centre_is_vertex_one():
    g = generate(GenSpec("star", (3,)))
    assert (g.n, g.m) == (4, 3)
    assert len(g.adjacency[1]) == 3
    assert all(g.adjacency[v] == (1,) for v in (2, 3, 4))


def test_complete_bipartite_contract():
    g = generate(GenSpec("complete_bipartite", (2, 3)))
    assert (g.n, g.m) == (5, 6)
    assert all(v not in g.adjacency[u] for u, v in [(1, 2), (3, 4), (3, 5), (4, 5)])


def test_grid_row_major():
    g = generate(GenSpec("grid", (2, 3)))
    # 1 2 3
    # 4 5 6
    assert (g.n, g.m) == (6, 7)
    assert 2 in g.adjacency[1] and 4 in g.adjacency[1] and 6 in g.adjacency[5]
    assert 4 not in g.adjacency[3]


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
        ("path", (2.5,)),
        ("path", (4, 5)),
        ("path", ()),
        ("star", (1e999,)),
        ("complete_bipartite", (3, 0)),
        ("complete_bipartite", (2, 2.5)),
        ("grid", (0, 3)),
        ("gnp", (6, -0.1)),
        ("gnp", (6, float("nan"))),
        ("gnp", (2.5, 0.5)),
        ("gnp", (6,)),
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
        "gnp(8," + "9" * 400 + ")",
        "gnp(8,0.3,seed=1,seed=2)",
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
    assert GenSpec("planar3tree", (10**6,), seed=1).params == (10**6,)


def test_parse_params():
    assert parse_params("") == ()
    assert parse_params(" 20, 50 ") == (20, 50)
    assert parse_params("8,0.3,1e2") == (8, 0.3, 100.0)


# One parameter strategy per family; test_genspecs_draw_every_family fails when
# FAMILIES gains an entry without one, so no family goes unfuzzed.
FUZZ_PARAMS = {
    "path": st.tuples(st.integers(1, 12)),
    "cycle": st.tuples(st.integers(3, 12)),
    "complete": st.tuples(st.integers(1, 12)),
    "star": st.tuples(st.integers(0, 10)),
    "complete_bipartite": st.tuples(st.integers(1, 5), st.integers(1, 5)),
    "grid": st.tuples(st.integers(1, 5), st.integers(1, 5)),
    "gnp": st.tuples(st.integers(0, 10), st.floats(0.0, 1.0)),
    "planar3tree": st.tuples(st.integers(3, 20)),
}


def test_genspecs_draw_every_family():
    assert sorted(FUZZ_PARAMS) == sorted(FAMILIES)


@st.composite
def genspecs(draw):
    family = draw(st.sampled_from(FAMILIES))
    return GenSpec(family, draw(FUZZ_PARAMS[family]), seed=draw(st.integers(0, 2**64 - 1)))


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


# A small parameter grid for every family, ints and floats mixed as a spec may give them.
SMALL_PARAMS = {
    "path": [(n,) for n in (1, 2, 5, 9.0)],
    "cycle": [(n,) for n in (3, 4, 7)],
    "complete": [(n,) for n in (1, 2, 6)],
    "star": [(k,) for k in (0, 1, 6.0)],
    "complete_bipartite": [(a, b) for a in (1, 3) for b in (1, 2, 4)],
    "grid": [(r, c) for r in (1, 2, 4) for c in (1, 3, 5.0)],
    "gnp": [(n, p) for n in (0, 1, 2, 9) for p in (0.0, 0.3, 0.5, 1, 1.0)],
    "planar3tree": [(n,) for n in (3, 4, 9, 30)],
}
SMALL_SPECS = [(f, params) for f in FAMILIES for params in SMALL_PARAMS[f]]


def assert_same_as_reference(spec):
    reference_validate_params(spec.family, spec.params)
    assert generate(spec) == reference_generate(spec)
    assert spec.graph_id == reference_graph_id(spec)


@pytest.mark.parametrize("seed", [0, 1, 13])
def test_generators_match_the_reference_on_small_specs(seed):
    for family, params in SMALL_SPECS:
        assert_same_as_reference(GenSpec(family, params, seed))


@pytest.mark.parametrize(
    "spec",
    [GenSpec("grid", (50, 60)), GenSpec("planar3tree", (3000,), seed=1)]
    + [GenSpec("gnp", (3000, 0.001), seed=s) for s in (1, 13)],
    ids=str,
)
def test_generators_match_the_reference_on_the_perf_corpus(spec):
    assert_same_as_reference(spec)


# gnp reads a pair's top byte first: below t >> 45, for t = ceil(p * 2**53),
# it is an edge, above it no edge, and a tie is unpacked.  t >> 45 moves
# from c - 1 to c between p = c / 256 - 2**-53 and c / 256, so p is drawn
# near each such point as well as from [0, 1] and a few fixed values: the
# ends, a tie byte of 0 (2**-27, 1e-9) and of 255 (0.999999).
gnp_probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 2**-27, 1e-9, 1 / 256, 1 / 128, 0.999999, 1.0]),
    st.builds(lambda c, d: min(max(c / 256 + d * 2**-53, 0.0), 1.0), st.integers(0, 256), st.integers(-40, 40)),
)


# Small blocks end inside rows and on row ends, and hold many rows.
pair_blocks = st.sampled_from([1, 2, 3, 7, 64, PAIR_BLOCK])


def assert_gnp_draws_what_the_comprehension_draws(n, p, seed, block):
    # The same graph, and the generator left where the comprehension leaves it.
    spec = GenSpec("gnp", (n, p), seed)
    mine, theirs = random.Random(seed), random.Random(seed)
    with mock.patch.object(generators, "PAIR_BLOCK", block):
        assert generate(spec) == reference_generate(spec)
        generators._gnp(n, p, mine)
    reference_gnp_edges(n, p, theirs)
    assert mine.getstate() == theirs.getstate()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 70), gnp_probabilities, st.integers(0, 2**64 - 1), pair_blocks)
def test_gnp_draws_what_the_per_pair_comprehension_draws(n, p, seed, block):
    assert_gnp_draws_what_the_comprehension_draws(n, p, seed, block)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 70), st.integers(0, 2**64 - 1), st.data(), pair_blocks)
def test_gnp_decides_a_pair_whose_draw_is_p(n, seed, data, block):
    # p is one pair's own draw or a float next to it: that pair ties on its
    # first word's upper 27 bits as well as on the top byte, and only its
    # second word decides it, which a random p almost never makes happen.
    rng = random.Random(seed)
    for _ in range(data.draw(st.integers(0, n * (n - 1) // 2 - 1))):
        rng.random()
    r = rng.random()
    p = data.draw(st.sampled_from([r, math.nextafter(r, 0), math.nextafter(r, 1)]))
    assert_gnp_draws_what_the_comprehension_draws(n, p, seed, block)


# planar3tree keeps its faces in chunks of FACE_CHUNK insertions: these sizes
# end in the first chunk, just before and just after the second one opens,
# inside the fourth, and over thirty chunks.
@pytest.mark.parametrize("n", [3, 4, 5, FACE_CHUNK + 3, FACE_CHUNK + 4, 3 * FACE_CHUNK + 5, 3 * 10**4])
@pytest.mark.parametrize("seed", [0, 1, 13])
def test_planar3tree_matches_the_reference_across_face_chunks(n, seed):
    assert_same_as_reference(GenSpec("planar3tree", (n,), seed))


# grid and planar3tree build their sorted adjacency directly; the edge lists
# they gave build_graph before, the Fenwick tree's included, must give the
# same graph.  The sizes end in the first face chunk, just before and just
# after the second one opens, and over two hundred chunks.
@pytest.mark.parametrize("n", [3, 4, 5, FACE_CHUNK + 3, FACE_CHUNK + 4, 2 * 10**5])
@pytest.mark.parametrize("seed", [0, 1, 13])
def test_planar3tree_equals_the_graph_of_the_fenwick_edge_list(n, seed):
    want = build_graph(n, reference_fenwick_planar3tree_edges(n, random.Random(seed)))
    assert generate(GenSpec("planar3tree", (n,), seed)) == want


@pytest.mark.parametrize("r, c", [(1, 1), (1, 2), (1, 7), (2, 1), (7, 1), (2, 2), (2, 5), (5, 2), (4, 6), (250, 400)])
def test_grid_equals_the_graph_of_its_edge_list(r, c):
    assert generate(GenSpec("grid", (r, c))) == build_graph(r * c, reference_grid_edges(r, c, random.Random(0)))


def test_planar3tree_at_the_given_order_size_is_pinned():
    # The digest of the reference code's graph, recorded once: the quadratic
    # reference takes seconds at this size.
    text = save_graph(generate(GenSpec("planar3tree", (10**5,), seed=1)))
    assert hashlib.sha256(text.encode()).hexdigest() == "14c0afae29f235a29c51a1ea1e9cb97df93a92422eb7dad4bd1e06deb0e82d2b"


def test_generators_match_the_reference_on_the_demo_corpus():
    root = Path(__file__).resolve().parents[1]
    specs = load_corpus((root / "corpus" / "demo.txt").read_text(encoding="utf-8"))
    for spec in specs:
        assert_same_as_reference(spec)


@pytest.mark.parametrize("family, params", SMALL_SPECS)
def test_table_sizes_are_true(family, params):
    g = generate(GenSpec(family, params, seed=5))
    n, m = TABLE[family].size(*params)
    assert n == g.n
    if family == "gnp":  # m counts the vertex pairs drawn
        assert g.m == m if params[1] == 1 else g.m <= m
    else:
        assert g.m == m


@pytest.mark.parametrize(
    "accepted, rejected, counts, m",
    [
        ("complete(3162)", "complete(3163)", "edge", 5000703),
        ("complete_bipartite(2000,2500)", "complete_bipartite(2000,2501)", "edge", 5002000),
        ("gnp(3162,0.001)", "gnp(3163,0.001)", "vertex pair", 5000703),
        ("gnp(3000,0.001)", "gnp(10000,0.0001)", "vertex pair", 49995000),
        ("gnp(1000,0.5)", "gnp(1000000,0.000001)", "vertex pair", 499999500000),
    ],
)
def test_genspec_edge_bound(accepted, rejected, counts, m):
    parse_genspec(accepted)
    message = f"malformed generator spec {rejected!r}: {counts} count {m} exceeds the limit of 5000000"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_genspec(rejected)
