"""The single reach kernel, the heap orderers, the pruning exact oracles, the
one-pass validator and the sorted-adjacency graph builder and writer against
the earlier reach, orderer, greedy, exact-search, validator and graph I/O code;
and the readers of graph, DIMACS, ordering and colouring files against the
earlier line readers."""

import random
from functools import partial
from itertools import chain, combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfcolour import (
    Colouring,
    GenSpec,
    VertexOrdering,
    back_reach_profile,
    build_graph,
    degeneracy_order,
    exact_chromatic,
    exact_scol,
    generate,
    greedy_cf_colouring,
    load_colouring,
    load_graph,
    load_ordering,
    make_ordering,
    min_backreach_order,
    save_colouring,
    save_graph,
    save_ordering,
    verify_colouring,
)
from cfcolour.colouring import CRITERIA, _violations
import cfcolour.graph as graph_module
from cfcolour.graph import DataLines
from cfcolour.reach import _peel, _reach, _reach2, _within
from oracles import (
    ReferenceVertexOrdering,
    all_graphs,
    reference_bfs_greedy_cf_colouring,
    reference_build_graph,
    reference_degeneracy_order,
    reference_counter_exact_chromatic,
    reference_exact_chromatic,
    reference_exact_scol,
    reference_greedy_cf_colouring,
    reference_incremental_min_backreach_order,
    reference_line_ints,
    reference_list_reach2,
    reference_mask_within,
    reference_min_backreach_order,
    reference_parse_colouring,
    reference_parse_dimacs,
    reference_parse_edgelist,
    reference_parse_ordering,
    reference_pos_profile,
    reference_profile_sizes,
    reference_save_graph,
    reference_two_path_build_graph,
    reference_unpeeled_exact_scol,
    reference_verify_colouring,
    reference_within,
    whole_ints,
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
            sizes = back_reach_profile(g, ordering, s)
            assert sizes[0] == 0
            assert dict(zip(g.vertices, sizes[1:], strict=True)) == reference_profile_sizes(g, ordering, s)


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


corpus_families = pytest.mark.parametrize(
    "family,params", [("planar3tree", (300,)), ("gnp", (300, 0.02))], ids=["planar3tree", "gnp"]
)


def assert_orderers_match_references(g):
    assert degeneracy_order(g) == reference_degeneracy_order(g)
    assert min_backreach_order(g) == reference_min_backreach_order(g)


@settings(max_examples=100, deadline=None)
@given(hub_heavy_graph())
def test_heap_orderers_match_reference_code(g):
    assert_orderers_match_references(g)


@pytest.mark.parametrize("seed", range(5))
@corpus_families
def test_heap_orderers_match_reference_code_on_corpus_families(family, params, seed):
    assert_orderers_match_references(generate(GenSpec(family, params, seed)))


@pytest.mark.parametrize(
    "spec",
    [GenSpec("grid", (50, 60))]
    + [GenSpec(family, params, seed) for family, params in [("planar3tree", (3000,)), ("gnp", (3000, 0.001))]
       for seed in (1, 2, 3)]
    + [GenSpec("complete_bipartite", (5, 400)), GenSpec("star", (2000,))],
    ids=lambda spec: spec.graph_id,
)
def test_heap_orderers_match_reference_code_at_corpus_scale(spec):
    # At the bench corpus's size, n = 3000, and on hubs (a star, a complete
    # bipartite graph), where min_backreach_order's kept reach sets grow largest.
    g = generate(spec)
    assert min_backreach_order(g) == reference_incremental_min_backreach_order(g)
    assert degeneracy_order(g) == reference_degeneracy_order(g)


def assert_greedy_matches_references(g, ordering):
    # The radius-2 profile comes from the greedy's walk, and sets its palette.
    col = greedy_cf_colouring(g, ordering)
    assert col == reference_bfs_greedy_cf_colouring(g, ordering)
    assert col == reference_greedy_cf_colouring(g, ordering)
    sizes = back_reach_profile(g, ordering, 2)
    assert sizes[1:] == tuple(reference_profile_sizes(g, ordering, 2).values())
    assert col.palette == 2 * max(sizes) - 1


@settings(max_examples=100, deadline=None)
@given(hub_heavy_graph(), st.integers(0, 2**32))
def test_greedy_matches_reference_code(g, seed):
    # On hubs the kept lists of coloured neighbours grow longest.
    for ordering in (VertexOrdering.shuffled(g.n, seed), degeneracy_order(g)[0], min_backreach_order(g)):
        assert_greedy_matches_references(g, ordering)


@pytest.mark.parametrize("seed", range(5))
@corpus_families
def test_greedy_matches_reference_code_on_corpus_families(family, params, seed):
    g = generate(GenSpec(family, params, seed))
    for strategy in ("degeneracy", "min_backreach", f"random({seed})"):
        assert_greedy_matches_references(g, make_ordering(g, strategy))


walk_cases = pytest.mark.parametrize(
    "spec, strategy",
    [
        (spec, strategy)
        for spec in (GenSpec("grid", (50, 60)), GenSpec("planar3tree", (3000,), 1), GenSpec("gnp", (3000, 0.001), 1))
        for strategy in ("degeneracy", "min_backreach", "random(1)")
    ]
    + [(GenSpec("star", (2000,)), "reverse"), (GenSpec("complete_bipartite", (5, 400)), "reverse")],
    ids=lambda x: x.graph_id if isinstance(x, GenSpec) else x,
)


@walk_cases
def test_tuple_walk_matches_the_list_walk(spec, strategy):
    # The bench corpus's three graphs under its three strategies, and hubs
    # placed last, where each hub's tuple of coloured neighbours is copied on
    # every append.  The two walks are compared a step at a time, so the
    # hubs' large reach sets are never all held at once.
    g = generate(spec)
    ordering = make_ordering(g, strategy)
    walks = zip(_reach2(g.adjacency, ordering), reference_list_reach2(g.adjacency, ordering), strict=True)
    for (v, reach, earlier), (w, want, want_earlier) in walks:
        assert (v, reach, list(earlier)) == (w, want, list(want_earlier))


@walk_cases
def test_profile_off_the_walk_matches_the_positions_profile(spec, strategy):
    # At radii other than 2 the profile's BFS reads "at or before v" from
    # flags the walk sets, where it compared positions.  Hubs placed last
    # are expanded from every earlier vertex, so every flag is read.
    g = generate(spec)
    ordering = make_ordering(g, strategy)
    for radius in (1, 3, 4):
        assert back_reach_profile(g, ordering, radius) == reference_pos_profile(g, ordering, radius), radius


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 9).flatmap(
        lambda n: st.one_of(st.permutations(range(1, n + 1)), st.lists(st.integers(-1, n + 2), min_size=n, max_size=n))
    )
)
def test_ordering_check_matches_the_sorting_check(seq):
    # Any length, entries from -1..n+2 with repeats, and the permutations the
    # random lists seldom hit: the one-pass check accepts the same tuples and
    # refuses the rest with the same message.
    seq = tuple(seq)
    try:
        ReferenceVertexOrdering(seq)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            VertexOrdering(seq)
        assert str(got.value) == str(err)
    else:
        VertexOrdering(seq)


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
    assert max(back_reach_profile(g, ordering, radius)) == value
    chi, col = exact_chromatic(g, variant)
    assert chi == reference_exact_chromatic(g, variant)[0]
    assert col.palette == chi
    assert verify_colouring(g, col, "proper").ok
    assert verify_colouring(g, col, variant).ok


def test_exact_chromatic_matches_the_counter_search():
    # The mask search gives the Counter search's value and witness, the first
    # colouring found in id order: every graph on at most 5 vertices and the
    # exact workload's chromatic inputs (gnp at seeds 0-2), under every criterion.
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [generate(GenSpec("cycle", (14,))), generate(GenSpec("grid", (3, 5)))]
    graphs += [generate(GenSpec("gnp", (12, 0.3), seed=seed)) for seed in range(3)]
    for g in graphs:
        for variant in CRITERIA:
            want = reference_counter_exact_chromatic(g, variant, limit=g.n)
            assert exact_chromatic(g, variant, limit=g.n) == want, (g, variant)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10), st.floats(0, 1), st.integers(0, 2**32), st.sampled_from(CRITERIA))
def test_exact_chromatic_matches_the_counter_search_on_gnp(n, p, seed, variant):
    g = generate(GenSpec("gnp", (n, p), seed))
    assert exact_chromatic(g, variant, limit=10) == reference_counter_exact_chromatic(g, variant, limit=10)


# Graphs where degeneracy + 1 < scol_s < the min_backreach back-reach, so the
# search both rules out some k and finds an ordering better than the heuristic's.
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
    assert degeneracy_order(g)[1] + 1 < value < max(back_reach_profile(g, min_backreach_order(g), radius))
    assert value == reference_exact_scol(g, radius, limit=10)[0]
    assert max(back_reach_profile(g, ordering, radius)) == value


def test_exact_scol_searches_without_the_heuristic(monkeypatch):
    # Every value and witness comes from the search alone.
    graphs = [generate(GenSpec("cycle", (5,))), generate(GenSpec("gnp", (10, 0.5), 32))]
    want = [reference_exact_scol(g, 2)[0] for g in graphs]

    def banned(*args):
        raise AssertionError("exact_scol must not call the min_backreach heuristic")

    monkeypatch.setattr("cfcolour.reach.min_backreach_order", banned)
    monkeypatch.setattr("cfcolour.reach.back_reach_profile", banned)
    assert [exact_scol(g, 2)[0] for g in graphs] == want


def test_exact_scol_matches_the_list_search():
    # The int-set search over the whole graph gives the list search's value
    # and witness: every graph on 5 vertices, the empty graph and the exact
    # workload's panel.  exact_scol, which searches only the core left by the
    # peel, gives the same value with a witness that attains it.
    graphs = [*all_graphs(5), build_graph(0, [])]
    for s in range(3):
        graphs += [generate(GenSpec("planar3tree", (17,), seed=s)), generate(GenSpec("gnp", (20, 0.2), seed=s))]
    for g in graphs:
        for radius in (1, 2, 3):
            k = min(degeneracy_order(g)[1] + 1, g.n)
            while (placed_rtl := reference_within(g.adjacency, g.n, radius, k)) is None:
                k += 1
            value, witness = reference_unpeeled_exact_scol(g, radius, limit=g.n)
            assert (value, witness.seq) == (k, tuple(reversed(placed_rtl))), (g, radius)
            value, witness = exact_scol(g, radius, limit=g.n)
            assert value == k == max(back_reach_profile(g, witness, radius), default=0), (g, radius)


def test_exact_scol_matches_the_int_set_search_on_deeper_graphs():
    # The search that keeps each depth's reach sets gives the value and
    # witness of the one that recomputes them all, past the panel's n = 20,
    # both over the whole graph; exact_scol on the core gives the same value.
    cases = [
        (GenSpec("gnp", (24, 0.2), seed=1), {1: 4, 2: 6, 3: 7}),
        (GenSpec("gnp", (26, 0.15), seed=1), {1: 4, 2: 5}),
    ]
    for spec, values in cases:
        g = generate(spec)
        nbrs = [sum(1 << w for w in a) for a in g.adjacency]
        for radius, value in values.items():
            k = min(degeneracy_order(g)[1] + 1, g.n)
            while (placed_rtl := reference_mask_within(nbrs, g.n, radius, k)) is None:
                k += 1
            got, witness = reference_unpeeled_exact_scol(g, radius, limit=g.n)
            assert (got, witness.seq) == (value, tuple(reversed(placed_rtl))) and k == value, (spec, radius)
            got, witness = exact_scol(g, radius, limit=g.n)
            assert got == value == max(back_reach_profile(g, witness, radius)), (spec, radius)


def test_exact_scol_peels_to_the_same_value():
    # Searching only the core left by peeling gives the value of the search
    # over all orderings, with a witness that attains it: every graph on 5
    # vertices and a seeded sample of those on 6, at radii 1-3.  Chordal
    # graphs peel away whole at k = d + 1, which is then the value.
    pairs = list(combinations(range(1, 7), 2))
    rng = random.Random(6)
    graphs = [*all_graphs(5)]
    graphs += [build_graph(6, [e for e in pairs if rng.random() < 0.5]) for _ in range(1000)]
    for g in graphs:
        for radius in (1, 2, 3):
            value, witness = exact_scol(g, radius)
            assert value == reference_exact_scol(g, radius)[0], (g, radius)
            assert max(back_reach_profile(g, witness, radius), default=0) == value, (g, radius)
    for spec in (GenSpec("complete", (12,)), GenSpec("path", (500,)), GenSpec("planar3tree", (300,), seed=1)):
        g = generate(spec)
        d = degeneracy_order(g)[1]
        nbrs = [sum(1 << w for w in a) for a in g.adjacency]
        core, peeled = _peel(nbrs, d + 1)
        assert core == 0 and sorted(peeled) == list(g.vertices), spec
        value, witness = exact_scol(g, 2, limit=g.n)
        assert value == d + 1 == max(back_reach_profile(g, witness, 2)), spec


def test_within_never_sees_neighbours_outside_the_core():
    # exact_scol passes every neighbour mask whole: at each k it tries, the
    # search on the core gives what it gives with the masks cut to the core.
    graphs = [*all_graphs(5)]
    for s in range(3):
        graphs += [generate(GenSpec("planar3tree", (17,), seed=s)), generate(GenSpec("gnp", (20, 0.2), seed=s))]
    for g in graphs:
        nbrs = [sum(1 << w for w in a) for a in g.adjacency]
        for radius in (1, 2, 3):
            value = exact_scol(g, radius, limit=g.n)[0]
            for k in range(min(degeneracy_order(g)[1] + 1, g.n), value + 1):
                core = _peel(nbrs, k)[0]
                cut = [m & core for m in nbrs]
                assert _within(nbrs, core, radius, k) == _within(cut, core, radius, k), (g, radius, k)


def test_exact_scol_searches_without_a_reach_bfs(monkeypatch):
    # The search sizes each reach set from int masks; the list BFS is left
    # to back_reach_profile at radii other than 2.
    graphs = [generate(GenSpec("cycle", (5,))), generate(GenSpec("gnp", (10, 0.5), 32))]
    want = [reference_exact_scol(g, s)[0] for g in graphs for s in (1, 2, 3)]

    def banned(*args):
        raise AssertionError("the exact search must not run the reach BFS")

    monkeypatch.setattr(_reach, "__code__", banned.__code__)
    with pytest.raises(AssertionError, match="reach BFS"):
        back_reach_profile(graphs[0], VertexOrdering.identity(5), 3)
    assert [exact_scol(g, s)[0] for g in graphs for s in (1, 2, 3)] == want


def test_greedy_colours_without_a_reach_search(monkeypatch):
    # The greedy and the radius-2 profile read each reach set off the
    # coloured-neighbour lists of one walk; other radii still search.
    # Swapping _reach's code object reaches every name bound to it, including
    # one imported by name.
    cases = []
    for spec in (GenSpec("grid", (30, 40)), GenSpec("planar3tree", (500,), seed=1)):
        g = generate(spec)
        for strategy in ("identity", "random(1)"):
            ordering = make_ordering(g, strategy)
            want = reference_greedy_cf_colouring(g, ordering)
            cases.append((g, ordering, want, back_reach_profile(g, ordering, 2)))

    def banned(*args):
        raise AssertionError("the radius-2 walk must not run the reach BFS")

    monkeypatch.setattr(_reach, "__code__", banned.__code__)
    g, ordering, _, _ = cases[0]
    with pytest.raises(AssertionError, match="reach BFS"):
        back_reach_profile(g, ordering, 3)
    for g, ordering, want, sizes in cases:
        assert greedy_cf_colouring(g, ordering) == want
        assert back_reach_profile(g, ordering, 2) == sizes


@st.composite
def graph_and_colouring(draw, max_n=12):
    # Random colourings with 1-4 colours fail most checks; half the draws
    # take the greedy colouring of a random ordering instead, which passes.
    g, ordering = draw(graph_and_order(max_n))
    if draw(st.booleans()):
        return g, greedy_cf_colouring(g, ordering)
    palette = draw(st.integers(1, 4))
    colours = draw(st.lists(st.integers(1, palette), min_size=g.n, max_size=g.n))
    return g, Colouring(tuple(colours), palette)


@settings(max_examples=300, deadline=None)
@given(graph_and_colouring())
def test_one_pass_validator_matches_reference_code(t):
    g, col = t
    for criterion in CRITERIA:
        assert verify_colouring(g, col, criterion) == reference_verify_colouring(g, col, criterion)


class RecordingColours(tuple):
    """A colour tuple that records which indices were read."""

    def __new__(cls, colours):
        self = super().__new__(cls, colours)
        self.read = set()
        return self

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_each_criterion_fails_at_its_own_vertex_and_the_pass_stops():
    # conflict_free fails first, at 1 (colour 2 three times, odd); odd at 2
    # (colour 3 twice); proper at 3, whose edge (3, 9) is monochromatic.
    # Vertices 10-12 fail all three again, but the pass has stopped by then.
    edges = [(1, 4), (1, 5), (1, 6), (2, 7), (2, 8), (3, 9), (10, 11), (10, 12)]
    g = build_graph(12, edges)
    col = Colouring((1, 1, 4, 2, 2, 2, 3, 3, 4, 1, 1, 1), 4)
    want = {
        "proper": (3, "edge (3,9) is monochromatic in colour 4"),
        "odd": (2, "every colour in the neighbourhood of 2 appears an even number of times"),
        "conflict_free": (1, "no colour appears exactly once in the neighbourhood of 1"),
    }
    for criterion, (witness, detail) in want.items():
        verdict = verify_colouring(g, col, criterion)
        assert verdict == reference_verify_colouring(g, col, criterion)
        assert (verdict.ok, verdict.witness, verdict.detail) == (False, witness, detail)
    colours = RecordingColours(col.colours)
    assert _violations(g, colours) == {"proper": 3, "odd": 2, "conflict_free": 1}
    assert max(colours.read) == 9 - 1  # the colour of vertex 9, read at vertex 3


@st.composite
def simple_edge_list(draw, max_n=12):
    # The edges of a random simple graph, in drawn order and orientations.
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


def build_message(build, n, edges):
    with pytest.raises(ValueError) as err:
        build(n, edges)
    return str(err.value)


@settings(max_examples=200, deadline=None)
@given(simple_edge_list())
def test_builder_and_writer_match_reference_code(t):
    n, edges = t
    g = build_graph(n, edges)
    assert g == reference_build_graph(n, edges)
    for fmt in ("edgelist", "dimacs"):
        assert save_graph(g, fmt) == reference_save_graph(g, fmt)


@settings(max_examples=300, deadline=None)
@given(simple_edge_list(), st.data())
def test_builder_names_a_single_fault_as_the_reference_code_does(t, data):
    n, edges = t
    kinds = ["loop", "endpoint"] if n else []
    kinds += ["repeat"] if edges else []
    assume(kinds)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "repeat":
        u, v = data.draw(st.sampled_from(edges))
        fault = data.draw(st.sampled_from([(u, v), (v, u)]))
    elif kind == "loop":
        v = data.draw(st.integers(1, n))
        fault = (v, v)
    else:
        bad, good = data.draw(st.sampled_from([0, n + 1])), data.draw(st.integers(1, n))
        fault = data.draw(st.sampled_from([(bad, good), (good, bad)]))
    at = data.draw(st.integers(0, len(edges)))
    planted = edges[:at] + [fault] + edges[at:]
    assert build_message(build_graph, n, planted) == build_message(reference_build_graph, n, planted)


def build_outcome(build, n, edges):
    """The graph built, or the message of the ValueError raised."""
    try:
        return build(n, edges)
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(-1, n + 2), st.integers(-1, n + 2))))
), st.booleans())
def test_builder_accepts_what_the_reference_code_accepts(t, one_shot):
    # The lists often hold several faults.  The set-based builder names the
    # first repeat, so only its verdict is compared; the two-path builder names
    # the smallest duplicate pair, so its message or graph must be equal.  Half
    # the draws are handed over as an iterator that can be read once.
    n, edges = t
    got = build_outcome(build_graph, n, iter(edges) if one_shot else edges)
    try:
        want = reference_build_graph(n, edges)
    except ValueError:
        assert isinstance(got, str)
    else:
        assert got == want
    assert got == build_outcome(reference_two_path_build_graph, n, edges)


# --- readers against the earlier line readers -----------------------------

# Per file kind: the loader, the line reader it replaced, and whether the
# first line is a header.  The loader parses a chunk in the shape the package
# writes by JSON, and splits any other chunk into rows; a DIMACS text is
# always split into rows.
READERS = {
    "graph": (load_graph, reference_parse_edgelist, True),
    "dimacs": (partial(load_graph, fmt="dimacs"), reference_parse_dimacs, True),
    "ordering": (load_ordering, reference_parse_ordering, False),
    "colouring": (load_colouring, reference_parse_colouring, True),
}
ONE_PASS_KINDS = ["colouring", "graph", "ordering"]


@st.composite
def written_file(draw, kinds=sorted(READERS)):
    """A file kind, the text the package writes for a random object of that kind,
    and the object."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 12))
    if kind in ("graph", "dimacs"):
        pairs = list(combinations(range(1, n + 1), 2))
        obj = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1)))
        return kind, save_graph(obj, "dimacs" if kind == "dimacs" else "edgelist"), obj
    if kind == "ordering":
        obj = VertexOrdering(tuple(draw(st.permutations(range(1, n + 1)))))
        return kind, save_ordering(obj), obj
    palette = draw(st.integers(1, 5))
    obj = Colouring(tuple(draw(st.lists(st.integers(1, palette), min_size=n, max_size=n))), palette)
    return kind, save_colouring(obj), obj


def mutate(text, kind, mutation, data):
    """``text`` with one ``mutation`` applied to a line drawn from ``data``.  A
    DIMACS line starts with a tag, which the field mutations leave alone."""
    lines = text.split("\n")[:-1]
    header = READERS[kind][2]
    tags = 1 if kind == "dimacs" else 0  # "e u v", under "p edge n m"
    body = range(1 if header else 0, len(lines))
    i = data.draw(st.sampled_from(body))
    fields = lines[i].split(" ")
    n = int(lines[0].split()[2 * tags]) if kind in ("graph", "dimacs") else len(body)
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    if mutation == "no final newline":
        return text[:-1]
    if mutation == "leading zero":
        fields[-1] = "0" + fields[-1]
    elif mutation == "plus":
        fields[tags] = "+" + fields[tags]
    elif mutation == "negative vertex":
        fields[tags] = "-" + fields[tags]
    elif mutation == "tab":
        lines[i] = "\t".join(fields) if len(fields) > 1 else lines[i] + "\t"
    elif mutation == "double space":
        lines[i] = "  ".join(fields) if len(fields) > 1 else " " + lines[i]
    elif mutation == "trailing space":
        lines[i] += " "
    elif mutation == "blank line":
        lines.insert(i, "")
    elif mutation == "comment line":
        lines.insert(i, "c note" if tags else "# note")
    elif mutation == "swapped lines":
        j = data.draw(st.sampled_from(body))
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "reversed line":
        fields[tags:] = reversed(fields[tags:])
    elif mutation == "duplicated line":
        lines.insert(i, lines[i])
    elif mutation == "dropped line":
        del lines[i]
    elif mutation == "count off by one":
        head = lines[0].split(" ")
        k = 2 * tags + 1 if kind in ("graph", "dimacs") else 0
        head[k] = str(int(head[k]) + data.draw(st.sampled_from([-1, 1])))
        lines[0] = " ".join(head)
    elif mutation == "vertex 0 or n+1":
        fields[data.draw(st.sampled_from([tags, -1] if kind in ("graph", "dimacs") else [0]))] = data.draw(
            st.sampled_from(["0", str(n + 1)])
        )
    elif mutation == "self-loop":
        fields[-1] = fields[tags]
    elif mutation == "non-integer field":
        fields[data.draw(st.sampled_from(range(tags, len(fields))))] = "x"
    elif mutation == "dropped field":
        del fields[-1]
    if mutation in ("leading zero", "plus", "negative vertex", "reversed line", "vertex 0 or n+1", "self-loop",
                    "non-integer field", "dropped field"):
        lines[i] = " ".join(fields)
    return "".join(line + "\n" for line in lines)


MUTATIONS = [
    "leading zero", "plus", "negative vertex", "tab", "double space", "trailing space", "crlf",
    "no final newline", "blank line", "comment line", "swapped lines", "reversed line",
    "duplicated line", "dropped line", "count off by one", "vertex 0 or n+1", "self-loop",
    "non-integer field", "dropped field",
]


def outcome(read, text):
    try:
        return read(text)
    except ValueError as err:
        return ("ValueError", str(err))


@settings(max_examples=600, deadline=None)
@given(written_file(), st.sampled_from(MUTATIONS), st.data())
def test_one_pass_readers_match_the_line_reader_on_mutated_files(written, mutation, data):
    kind, text, _ = written
    if mutation == "count off by one" and not READERS[kind][2]:
        mutation = "vertex 0 or n+1"
    mutated = mutate(text, kind, mutation, data)
    load, parse_lines, _ = READERS[kind]
    assert outcome(load, mutated) == outcome(parse_lines, mutated)


def no_rows(self, chunk):
    raise AssertionError("a file in the written shape was split into rows")


def text_lines(text, cols):
    """DataLines on ``text`` as a body of ``cols`` fields a line, with no header."""
    return DataLines("text", text, cols, " ".join("v" * cols))


def written_chunks(text, cols):
    """The chunks that text_lines reads, every one parsed by JSON: a chunk split into rows fails."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataLines, "data_rows", no_rows)
        return list(text_lines(text, cols).chunks())


@settings(max_examples=150, deadline=None)
@given(written_file(ONE_PASS_KINDS))
def test_written_files_are_read_in_one_pass(written):
    kind, text, obj = written
    load, parse_lines, _ = READERS[kind]
    assert parse_lines(text) == obj
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataLines, "data_rows", no_rows)
        assert load(text) == obj


# --- the chunked reader on texts of several chunks --------------------------

def large_written_text(kind, seed=1):
    """A text the package writes, of three to four chunks of graph._CHUNK."""
    if kind == "graph":
        return save_graph(generate(GenSpec("planar3tree", (6000,), seed)))
    n = 40000 if kind == "ordering" else 25000
    ordering = VertexOrdering.shuffled(n, seed)
    if kind == "ordering":
        return save_ordering(ordering)
    return save_colouring(Colouring(tuple(v % 7 + 1 for v in ordering.seq), 7))


def with_fault(text, kind, fault, i):
    """``text`` with ``fault`` on its line i, counted from 0."""
    lines = text.split("\n")[:-1]
    fields = lines[i].split(" ")
    n = int(lines[0].split()[0]) if kind == "graph" else len(lines) - (kind == "colouring")
    if fault == "leading zero":
        lines[i] = " ".join(fields[:-1] + ["0" + fields[-1]])
    elif fault == "crlf":
        lines[i] += "\r"
    elif fault == "comment line":
        lines.insert(i, "# note")
    elif fault == "blank line":
        lines.insert(i, "")
    elif fault == "tab":
        lines[i] = "\t".join(fields) if len(fields) > 1 else lines[i] + "\t"
    elif fault == "field above n":
        lines[i] = " ".join([str(n + 1)] + fields[1:])
    elif fault == "self-loop":
        lines[i] = " ".join([fields[0], fields[0]])
    elif fault == "duplicate":  # an edge or a vertex repeated, the count kept
        lines[i] = lines[i - 1]
    elif fault == "count mismatch":
        del lines[i]
    elif fault == "malformed":
        lines[i] = " ".join(fields[:-1] + ["x"])
    elif fault == "swapped lines":  # in the written shape, out of the written order
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "".join(line + "\n" for line in lines)


CHUNK_FAULTS = ["leading zero", "crlf", "comment line", "blank line", "tab", "field above n", "self-loop",
                "duplicate", "count mismatch", "malformed", "swapped lines"]


def line_at(text, offset):
    """The index of the line of ``text`` that holds character ``offset``."""
    return text.count("\n", 0, offset)


@pytest.mark.parametrize("kind", ONE_PASS_KINDS)
def test_chunked_readers_match_the_line_reader_with_a_fault_in_any_chunk(kind):
    # A fault on a line of the first, a middle and the last chunk: every load
    # gives the line reader's graph, ordering or colouring, or its error
    # message with the same line.
    text = large_written_text(kind)
    assert len(written_chunks(text, 1 if kind == "ordering" else 2)) >= 3
    load, parse_lines, _ = READERS[kind]
    assert load(text) == parse_lines(text)
    lines = [line_at(text, 100), line_at(text, 3 * graph_module._CHUNK // 2), text.count("\n") - 2]
    for fault in CHUNK_FAULTS:
        if fault == "self-loop" and kind != "graph":
            continue
        for i in lines:
            faulty = with_fault(text, kind, fault, i)
            assert outcome(load, faulty) == outcome(parse_lines, faulty), (fault, i)


def test_chunked_reader_sorts_a_reversed_edge_list():
    text = large_written_text("graph")
    lines = text.split("\n")[:-1]
    reversed_text = "".join(line + "\n" for line in lines[:1] + lines[:0:-1])
    assert load_graph(reversed_text) == load_graph(text) == reference_parse_edgelist(reversed_text)


def test_chunked_reader_at_a_line_that_ends_on_a_chunk_boundary():
    # The seed is searched for a text whose first chunk is exactly _CHUNK
    # characters: its last line ends on the boundary.
    chunk = graph_module._CHUNK
    text = next(t for t in map(large_written_text, ["graph"] * 200, range(200)) if t[chunk - 1] == "\n")
    first = written_chunks(text, 2)[0]
    assert len(first) == 2 * text.count("\n", 0, chunk)
    assert load_graph(text) == reference_parse_edgelist(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DataLines, "data_rows", no_rows)
        assert load_graph(text) == reference_parse_edgelist(text)
    for i in (line_at(text, chunk - 1), line_at(text, chunk)):
        for fault in CHUNK_FAULTS:
            faulty = with_fault(text, "graph", fault, i)
            assert outcome(load_graph, faulty) == outcome(reference_parse_edgelist, faulty), (fault, i)


def test_an_out_of_range_endpoint_in_the_first_chunk_does_not_hide_a_later_malformed_line():
    # Body syntax comes before content: the endpoint above n in chunk 1 stops
    # only the shared-int mapping, and the malformed line in the last chunk is named.
    text = large_written_text("graph")
    last = text.count("\n") - 2
    faulty = with_fault(with_fault(text, "graph", "field above n", 5), "graph", "malformed", last)
    row = faulty.split("\n")[last]
    assert outcome(load_graph, faulty) == ("ValueError", f"edgelist: malformed line {row!r} at line {last + 1}, expected 'u v'")
    assert outcome(load_graph, faulty) == outcome(reference_parse_edgelist, faulty)


@settings(max_examples=60, deadline=None)
@given(written_file(ONE_PASS_KINDS), st.sampled_from(MUTATIONS), st.data())
def test_chunk_size_does_not_change_any_read(written, mutation, data):
    # Every chunk size from one character up to the whole text: the chunks'
    # fields join into the line reader's, a text in the written shape is
    # parsed by JSON in every chunk into the whole-text reader's fields, and a
    # mutated text loads as the line reader reads it, wherever the chunk
    # boundaries fall.
    kind, text, _ = written
    if mutation == "count off by one" and not READERS[kind][2]:
        mutation = "vertex 0 or n+1"
    mutated = mutate(text, kind, mutation, data)
    cols = 1 if kind == "ordering" else 2
    load, parse_lines, _ = READERS[kind]
    want, lined, whole = outcome(parse_lines, mutated), reference_line_ints(mutated, cols), whole_ints(mutated, cols)
    assert graph_module._written_fields(mutated, 0, len(mutated), cols) == whole
    with pytest.MonkeyPatch.context() as patch:
        for size in range(1, len(mutated) + 2):
            patch.setattr(graph_module, "_CHUNK", size)
            reader = text_lines(mutated, cols)
            fields = list(chain.from_iterable(reader.chunks()))
            assert (fields if reader.bad is None else None) == lined, size
            if whole is not None:
                assert list(chain.from_iterable(written_chunks(mutated, cols))) == whole, size
            assert outcome(load, mutated) == want, size


def small_written_text(kind):
    """A text the package writes, of a few hundred lines; an ordering's last
    line is one digit."""
    if kind in ("graph", "dimacs"):
        return save_graph(generate(GenSpec("planar3tree", (60,), 1)), "dimacs" if kind == "dimacs" else "edgelist")
    ordering = VertexOrdering.reverse(200)
    if kind == "ordering":
        return save_ordering(ordering)
    return save_colouring(Colouring(tuple(v % 5 + 1 for v in ordering.seq), 5))


@pytest.mark.parametrize("kind", ONE_PASS_KINDS)
def test_a_last_line_with_no_newline_alone_in_its_chunk_is_read(kind):
    # A chunk ends at the first newline at or past _CHUNK - 1 characters on,
    # so the first chunk ends just before the last line, which has no final
    # newline: it must not parse as a written chunk of no lines.
    text = small_written_text(kind)[:-1]
    load, parse_lines, _ = READERS[kind]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_CHUNK", text.rindex("\n") + 1)
        assert load(text) == parse_lines(text)


HEADER_FAULTS = {
    "valid header": lambda head: head,
    "malformed header": lambda head: head + " x",
    "count mismatch": lambda head: head[:-1] + str(int(head[-1]) + 1),
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
@pytest.mark.parametrize("kind", ["colouring", "dimacs", "graph"])
def test_a_header_past_the_first_chunk_is_read(kind, fault):
    # About 2000 comment lines ahead of the header fill more than one chunk,
    # so the first data line, the header, lies in a later one.
    text = small_written_text(kind)
    head, body = text.split("\n", 1)
    comments = f"{'c' if kind == 'dimacs' else '#'} a comment line, one of 2000 ahead of the header\n" * 2000
    assert len(comments) > graph_module._CHUNK
    faulty = comments + HEADER_FAULTS[fault](head) + "\n" + body
    load, parse_lines, _ = READERS[kind]
    assert outcome(load, faulty) == outcome(parse_lines, faulty)
    if fault == "valid header":
        assert load(faulty) == parse_lines(text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["dimacs", "graph"]), st.integers(300, 500), st.data())
def test_negative_and_above_n_fields_in_line_read_chunks_load_as_the_line_reader_reads_them(kind, n, data):
    # Chunks split into lines (by a comment line with a hyphen, a CRLF ending
    # or DIMACS tags) next to chunks in the written shape, with negative fields
    # and fields above n: mapping to the shared ints changes no field, so each
    # load gives the line reader's graph or message.  A loaded graph holds one
    # int per vertex; the vertices above 256 are no cached small ints.
    dimacs = kind == "dimacs"
    g = generate(GenSpec("planar3tree", (n,), data.draw(st.integers(0, 9))))
    lines = save_graph(g, "dimacs" if dimacs else "edgelist").split("\n")[:-1]
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(1, len(lines) - 1))
        fault = data.draw(st.sampled_from(["negative", "above n", "crlf", "comment line"]))
        if fault == "crlf":
            lines[i] += "\r"
        elif fault == "comment line":
            lines.insert(i, "c a-b" if dimacs else "# a-b")
        else:
            words = lines[i].split(" ")
            value = -data.draw(st.integers(0, n + 1)) if fault == "negative" else n + data.draw(st.integers(1, 2))
            words[data.draw(st.sampled_from([-2, -1]))] = str(value)
            lines[i] = " ".join(words)
    faulty = "".join(line + "\n" for line in lines)
    load, parse_lines, _ = READERS[kind]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_CHUNK", data.draw(st.sampled_from([1, 64, 1000, 4096])))
        got = outcome(load, faulty)
    assert got == outcome(parse_lines, faulty)
    if not isinstance(got, tuple):
        assert len(set(map(id, chain.from_iterable(got.adjacency)))) == n
