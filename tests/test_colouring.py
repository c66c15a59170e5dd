from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import cfcolour.colouring
from cfcolour import (
    Colouring,
    GenSpec,
    VertexOrdering,
    back_reach_profile,
    build_graph,
    exact_chromatic,
    exact_scol,
    generate,
    greedy_cf_colouring,
    load_colouring,
    min_backreach_order,
    save_colouring,
    verify_colouring,
)
from oracles import all_graphs, enumerate_chromatic, square_greedy


def path(n):
    return generate(GenSpec("path", (n,)))


def cycle(n):
    return generate(GenSpec("cycle", (n,)))


def complete(n):
    return generate(GenSpec("complete", (n,)))


def star(m):
    return generate(GenSpec("star", (m,)))


# --- Colouring type and file format ----------------------------------------


def test_colouring_rejects_out_of_palette():
    with pytest.raises(ValueError, match="outside"):
        Colouring((1, 3), palette=2)


@pytest.mark.parametrize(
    "colours, message",
    [
        ((1, 3, 0, 5), "vertex 2 has colour 3 outside 1..2"),
        ((2, 2, 0, 5), "vertex 3 has colour 0 outside 1..2"),
        ((1, 2, 2, 5), "vertex 4 has colour 5 outside 1..2"),
    ],
)
def test_colouring_names_the_first_vertex_outside_the_palette(colours, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Colouring(colours, palette=2)


def test_colouring_used_counts_distinct():
    col = Colouring((1, 1, 3), palette=4)
    assert col.used == 2


def test_colouring_file_round_trip():
    col = Colouring((2, 1, 2), palette=3)
    text = save_colouring(col)
    assert text == "3 3\n1 2\n2 1\n3 2\n"
    assert load_colouring(text) == col
    assert load_colouring("3 3\n3 2\n1 2\n2 1\n") == Colouring((2, 1, 2), 3)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing"),
        ("2 2\n1 1\n", "declares 2 vertices"),
        ("2 2\n1 1\n1 2\n", "listed twice"),
        ("1 1\n5 1\n", "out of range"),
        ("2 2\n-1 1\n2 1\n", "vertex -1 out of range 1..2"),
        ("1 1\n1 1 1\n", "malformed line"),
        ("x 2\n", "colouring file: malformed header"),
        ("1 2\n1 a\n", "colouring file: malformed line"),
        ("# n c\n\nx 2\n", "colouring file: malformed header 'x 2' at line 3, expected 'n c'"),
        ("1 2\n# v colour\n1 a\n", "colouring file: malformed line '1 a' at line 3, expected 'v colour'"),
        ("0 -5\n", "palette must be >= 0, got -5"),
        # A wrong body length or a negative palette is named with the header's
        # line; the palette is checked after every vertex.
        ("# n c\n0 -5\n", "colouring file: palette must be >= 0, got -5 at line 2"),
        ("2 -1\n1 1\n2 1\n", "colouring file: palette must be >= 0, got -1 at line 1"),
        ("1 -5\n2 1\n", "colouring file: vertex 2 out of range 1..1 at line 2"),
        ("# n c\n2 2\n1 1\n", "colouring file: header declares 2 vertices, body has 1 lines at line 2"),
        # A vertex out of range, listed twice or outside the palette is named with its line.
        ("2 2\n1 1\n# v colour\n1 2\n", "colouring file: vertex 1 listed twice at line 4"),
        ("2 2\n3 1\n1 1\n", "colouring file: vertex 3 out of range 1..2 at line 2"),
        ("2 2\n1 1\n2 0\n", "colouring file: vertex 2 has colour 0 outside 1..2 at line 3"),
        ("3 2\n3 9\n1 1\n2 0\n", "colouring file: vertex 2 has colour 0 outside 1..2 at line 4"),
        # A header far beyond the body is refused before any list of that size exists.
        ("99999999999999 1\n1 1\n", "header declares 99999999999999 vertices, body has 1 lines"),
    ],
)
def test_colouring_file_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_colouring(text)


# --- greedy_cf_colouring ----------------------------------------------------


def test_greedy_k2():
    col = greedy_cf_colouring(complete(2), VertexOrdering.identity(2))
    assert col.colours == (1, 2)
    assert col.used <= col.palette == 3


def test_greedy_p4_meets_bound_with_equality():
    col = greedy_cf_colouring(path(4), VertexOrdering.identity(4))
    assert col.colours == (1, 2, 3, 1)
    assert col.used == col.palette == 3


def test_greedy_star_centre_first():
    col = greedy_cf_colouring(star(3), VertexOrdering.identity(4))
    assert col.colours == (1, 2, 3, 3)
    assert col.used == 3 <= col.palette


def test_greedy_edgeless_uses_one_colour():
    g = build_graph(3, [])
    for seq in [(1, 2, 3), (3, 1, 2)]:
        col = greedy_cf_colouring(g, VertexOrdering(seq))
        assert col.colours == (1, 1, 1)
        assert col.palette == 1


def test_greedy_empty_graph():
    col = greedy_cf_colouring(build_graph(0, []), VertexOrdering(()))
    assert col.colours == () and col.palette == 0 and col.used == 0


def test_greedy_is_deterministic():
    g = generate(GenSpec("gnp", (9, 0.4), seed=2))
    o = VertexOrdering.shuffled(9, 5)
    assert greedy_cf_colouring(g, o) == greedy_cf_colouring(g, o)


def test_greedy_rejects_mismatched_ordering():
    with pytest.raises(ValueError, match="ordering covers"):
        greedy_cf_colouring(path(3), VertexOrdering.identity(4))


def test_greedy_palette_guard_is_live(monkeypatch):
    # A walk that shrinks every reach set to {v} gives a palette of 1, and
    # vertex 3 of the path takes colour 2 for its earlier neighbour's
    # leftmost neighbour; the result must fail as a bug, not come back.
    walk = cfcolour.colouring._reach2
    monkeypatch.setattr("cfcolour.colouring._reach2", lambda adj, o: ((v, {v}, e) for v, _, e in walk(adj, o)))
    with pytest.raises(RuntimeError, match="indicates a bug"):
        greedy_cf_colouring(path(3), VertexOrdering.identity(3))


# --- verify_colouring -------------------------------------------------------


def test_verify_conflict_free_c4_alternating_fails():
    verdict = verify_colouring(cycle(4), Colouring((1, 2, 1, 2), 2), "conflict_free")
    assert not verdict.ok
    assert verdict.witness == 1


def test_verify_odd_c4_alternating_fails():
    verdict = verify_colouring(cycle(4), Colouring((1, 2, 1, 2), 2), "odd")
    assert not verdict.ok
    assert verdict.witness is not None


def test_verify_proper_monochromatic_edge():
    verdict = verify_colouring(complete(2), Colouring((1, 1), 1), "proper")
    assert not verdict.ok
    assert verdict.witness in (1, 2)


def test_verify_p4_hand_colouring_passes_all():
    col = Colouring((1, 2, 3, 1), 3)
    for criterion in ("proper", "odd", "conflict_free"):
        assert verify_colouring(path(4), col, criterion).ok


def test_verify_exempts_isolated_vertices():
    g = build_graph(3, [(1, 2)])
    col = Colouring((1, 2, 1), 2)
    for criterion in ("proper", "odd", "conflict_free"):
        assert verify_colouring(g, col, criterion).ok


def test_verify_empty_graph_ok():
    g = build_graph(0, [])
    col = Colouring((), 0)
    for criterion in ("proper", "odd", "conflict_free"):
        assert verify_colouring(g, col, criterion).ok


def test_verify_size_mismatch():
    with pytest.raises(ValueError, match="colouring covers"):
        verify_colouring(path(3), Colouring((1, 2), 2), "proper")


def test_verify_unknown_criterion():
    with pytest.raises(ValueError, match="unknown criterion"):
        verify_colouring(path(3), Colouring((1, 2, 1), 2), "rainbow")


# --- exact_chromatic --------------------------------------------------------


@pytest.mark.parametrize(
    "g, variant, want",
    [
        (cycle(5), "conflict_free", 5),
        (path(4), "conflict_free", 3),
        (path(3), "odd", 3),
        (complete(4), "proper", 4),
        (complete(4), "odd", 4),
        (complete(4), "conflict_free", 4),
    ],
)
def test_exact_chromatic_examples(g, variant, want):
    value, witness = exact_chromatic(g, variant)
    assert value == want
    assert witness.palette == value
    assert verify_colouring(g, witness, "proper").ok
    if variant != "proper":
        assert verify_colouring(g, witness, variant).ok


def test_exact_chromatic_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        exact_chromatic(path(3), "rainbow")


def test_exact_chromatic_empty_and_edgeless():
    assert exact_chromatic(build_graph(0, []), "conflict_free")[0] == 0
    assert exact_chromatic(build_graph(3, []), "conflict_free")[0] == 1


def test_exact_chromatic_limit():
    g = generate(GenSpec("gnp", (9, 0.3), seed=0))
    with pytest.raises(ValueError, match="exceeds limit"):
        exact_chromatic(g, "proper")
    assert exact_chromatic(g, "proper", limit=9)[0] >= 1


def test_exact_chromatic_matches_exhaustive_enumeration_n4():
    for g in all_graphs(4):
        for variant in ("proper", "odd", "conflict_free"):
            assert exact_chromatic(g, variant)[0] == enumerate_chromatic(g, variant)


def test_exact_chromatic_matches_exhaustive_enumeration_n5_sample():
    specs = [GenSpec("gnp", (5, p), seed=s) for s in range(5) for p in (0.3, 0.6)]
    for spec in specs:
        g = generate(spec)
        for variant in ("proper", "odd", "conflict_free"):
            assert exact_chromatic(g, variant)[0] == enumerate_chromatic(g, variant)


def test_gap_between_cf_number_and_radius_one_value():
    # The conflict-free number can exceed the radius-1 strong colouring
    # number; stars and their subdivisions already show a gap at desk scale.
    g = star(3)
    assert exact_chromatic(g, "conflict_free")[0] == 3 > exact_scol(g, 1)[0] == 2
    legs = build_graph(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    assert exact_chromatic(legs, "conflict_free")[0] == 3 > exact_scol(legs, 1)[0] == 2


# --- greedy contract properties --------------------------------------------


@st.composite
def graph_and_ordering(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, edges)
    ordering = VertexOrdering(tuple(draw(st.permutations(list(range(1, n + 1))))))
    return g, ordering


@settings(max_examples=150)
@given(graph_and_ordering())
def test_greedy_output_is_proper_odd_and_conflict_free(t):
    g, ordering = t
    col = greedy_cf_colouring(g, ordering)
    r = max(back_reach_profile(g, ordering, 2))
    assert col.palette == max(1, 2 * r - 1)
    assert col.used <= col.palette
    for criterion in ("proper", "odd", "conflict_free"):
        assert verify_colouring(g, col, criterion).ok


@settings(max_examples=150)
@given(graph_and_ordering())
def test_square_greedy_passes_every_criterion_with_at_least_max_degree_plus_one_colours(t):
    g, ordering = t
    col = square_greedy(g, ordering)
    for criterion in ("proper", "odd", "conflict_free"):
        assert verify_colouring(g, col, criterion).ok
    assert col.used >= max(map(len, g.adjacency)) + 1


def test_theorem_1_greedy_uses_fewer_colours_than_the_square_greedy():
    # planar3tree has hubs: Δ = 99 here, so the square needs at least 100
    # colours, while along min_backreach the palette 2 * r2 - 1 is 7.  They
    # used 7 and 100 (Python 3.11).
    g = generate(GenSpec("planar3tree", (1000,), 1))
    ordering = min_backreach_order(g)
    assert greedy_cf_colouring(g, ordering).used < square_greedy(g, ordering).used


@settings(max_examples=100)
@given(graph_and_ordering(max_n=6), st.data())
def test_conflict_free_implies_odd(t, data):
    g, _ = t
    colours = tuple(data.draw(st.integers(1, 4)) for _ in range(g.n))
    col = Colouring(colours, 4)
    if verify_colouring(g, col, "conflict_free").ok:
        assert verify_colouring(g, col, "odd").ok
