import gc
import random
import re
import sys
import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from cfcolour import (
    GenSpec,
    VertexOrdering,
    build_graph,
    generate,
    greedy_cf_colouring,
    load_colouring,
    load_graph,
    load_ordering,
    save_colouring,
    save_graph,
    save_ordering,
)
from cfcolour.graph import MAX_VERTICES, DataLines, _written_fields
from oracles import reference_fenwick_planar3tree_edges, reference_grid_edges, reference_line_ints, whole_ints


def test_build_two_vertices_one_edge():
    g = build_graph(2, [(1, 2)])
    assert g.m == 1
    assert g.adjacency[1] == (2,)
    assert g.adjacency[2] == (1,)


def test_build_edgeless():
    g = build_graph(3, [])
    assert g.m == 0
    assert all(g.adjacency[v] == () for v in g.vertices)


def test_build_edge_order_irrelevant():
    a = build_graph(4, [(1, 2), (3, 4), (2, 3)])
    b = build_graph(4, [(2, 3), (1, 2), (4, 3)])
    assert a == b


@pytest.mark.parametrize(
    "n, edges, fragment",
    [
        pytest.param(3, [(1, 2), (2, 1)], "duplicate edge (1, 2)", id="edges0-duplicate edge (1, 2)"),
        pytest.param(3, [(1, 1)], "self-loop", id="edges1-self-loop"),
        pytest.param(3, [(0, 2)], "out of range", id="edges2-out of range"),
        pytest.param(3, [(1, 4)], "endpoint 4", id="edges3-endpoint 4"),
        # Two duplicates: the smallest pair is named, not the first repeated one.
        pytest.param(4, [(3, 4), (1, 2), (4, 3), (2, 1)], "duplicate edge (1, 2)",
                     id="edges4-smallest duplicate edge (1, 2)"),
        pytest.param(4, [(1, 4), (1, 2), (4, 1), (2, 1)], "duplicate edge (1, 2)",
                     id="edges5-smallest duplicate edge (1, 2) at one vertex"),
        # A repeat in increasing order: the order test must be strict.
        pytest.param(3, [(1, 2), (1, 2)], "duplicate edge (1, 2)", id="edges6-repeat in order"),
        # A range fault or self-loop is named before an earlier duplicate.
        pytest.param(3, [(1, 2), (2, 1), (1, 9)], "edge (1,9): endpoint 9 out of range 1..3",
                     id="edges7-range fault after a duplicate"),
        pytest.param(3, [(1, 2), (2, 1), (3, 3)], "edge (3,3): self-loop", id="edges8-self-loop after a duplicate"),
    ],
)
def test_build_rejects_bad_edges(n, edges, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        build_graph(n, edges)


@pytest.mark.parametrize("wrap", [list, iter], ids=["list", "iterator"])
def test_build_takes_a_list_or_a_one_shot_iterator(wrap):
    assert build_graph(3, wrap([(1, 2), (3, 2)])) == build_graph(3, [(1, 2), (2, 3)])


@pytest.mark.parametrize("family, params", [("planar3tree", (20000,)), ("grid", (100, 200))])
def test_build_graph_keeps_no_copy_of_the_edges(family, params):
    # The endpoint lists in the order the family's old edge lists gave them:
    # planar3tree's do not increase, grid's do.  The graph's size is summed
    # with getsizeof: the traced memory it keeps drops when freed tuples are
    # reused.  Measured on Python 3.11, the one pass peaks at 1.8-2.3x that
    # size, and a copy of the edge list, one tuple per edge, at 3.7-4.3x.
    want = generate(GenSpec(family, params, 1))
    edges = {"planar3tree": reference_fenwick_planar3tree_edges, "grid": reference_grid_edges}[family]
    us, vs = map(list, zip(*edges(*params, random.Random(1))))
    tracemalloc.start()
    try:
        g = build_graph(want.n, zip(us, vs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == want
    kept = sys.getsizeof(g.adjacency) + sum(map(sys.getsizeof, g.adjacency))
    assert peak < 3 * kept, peak / kept


@pytest.mark.parametrize("family, params, bound", [("planar3tree", (20000,), 3), ("grid", (100, 200), 2.5)])
def test_generate_keeps_no_edge_list(family, params, bound):
    # grid and planar3tree build their sorted adjacency directly.  Measured on
    # Python 3.11 against the graph's getsizeof as above, generate peaks at
    # 2.3x (planar3tree: its lists, then its faces, three ints each) and 1.6x
    # (grid: its tuples); through an edge list and build_graph, one tuple per
    # edge, they peaked at 4.1x and 3.4x.
    tracemalloc.start()
    try:
        g = generate(GenSpec(family, params, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sys.getsizeof(g.adjacency) + sum(map(sys.getsizeof, g.adjacency))
    assert peak < bound * kept, peak / kept


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collecting(request):
    """Run the test with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()


@pytest.mark.parametrize(
    "n, edges, fragment",
    [
        pytest.param(3, [(1, 2), (2, 3)], None, id="increasing"),
        pytest.param(3, [(2, 3), (1, 2)], None, id="checked"),
        pytest.param(3, [(1, 4)], "endpoint 4", id="out of range"),
        pytest.param(3, [(2, 2)], "self-loop", id="self-loop"),
        pytest.param(3, [(1, 2), (2, 1)], "duplicate edge (1, 2)", id="duplicate"),
    ],
)
def test_build_graph_leaves_the_collector_as_it_found_it(collecting, n, edges, fragment):
    if fragment is None:
        build_graph(n, edges)
    else:
        with pytest.raises(ValueError, match=re.escape(fragment)):
            build_graph(n, edges)
    assert gc.isenabled() is collecting


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param(save_graph(generate(GenSpec("grid", (3, 4)))), None, id="written"),
        pytest.param("3 2\n1 2\n2 4\n", "edge (2,4): endpoint 4 out of range 1..3", id="field n+1"),
    ],
)
def test_load_graph_leaves_the_collector_as_it_found_it(collecting, text, fragment):
    if fragment is None:
        assert load_graph(text) == generate(GenSpec("grid", (3, 4)))
    else:
        with pytest.raises(ValueError, match=re.escape(fragment)):
            load_graph(text)
    assert gc.isenabled() is collecting


def test_build_graph_pauses_the_collector_while_it_builds(collecting):
    states = set()

    def edges():
        for v in range(1, 10):
            states.add(gc.isenabled())
            yield (v, v + 1)

    assert build_graph(10, edges()).m == 9
    assert states == {False} and gc.isenabled() is collecting


def test_load_edgelist_path():
    g = load_graph("3 2\n1 2\n2 3\n", "edgelist")
    assert g == build_graph(3, [(1, 2), (2, 3)])


def test_load_edgelist_comments_allowed():
    g = load_graph("# a path\n3 2\n1 2\n# middle\n2 3\n", "edgelist")
    assert g.m == 2


def test_load_dimacs_triangle():
    g = load_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "dimacs")
    assert g == build_graph(3, [(1, 2), (2, 3), (1, 3)])


def test_load_edgelist_out_of_range_endpoint():
    with pytest.raises(ValueError, match="endpoint 3 out of range"):
        load_graph("2 1\n1 3\n", "edgelist")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing"),
        ("3\n", "malformed header"),
        ("3 2\n1 2\n", "declares 2 edges"),
        ("3 1\n1 2\n2 3\n", "declares 1 edges"),
        # A count mismatch names the header's line, in a written file and in
        # one split into lines.
        ("3 1\n1 2\n2 3\n", "edgelist: header declares 1 edges but body has 2 lines at line 1"),
        ("# n m\n3 2\n1 2\n", "edgelist: header declares 2 edges but body has 1 lines at line 2"),
        ("# n m\n\n3\n", "edgelist: malformed header '3' at line 3, expected 'n m'"),
        ("3 2\n1 2\n# next\n2 x\n", "edgelist: malformed line '2 x' at line 4, expected 'u v'"),
        ("3 1\n\n1 2 3\n", "malformed line '1 2 3' at line 3"),
        # -1 is a field of a split line, and an endpoint out of range.  An
        # endpoint out of range or a self-loop is named with its line, in a
        # written chunk or a split one; a duplicate edge or a negative vertex
        # count is no one line's fault.
        pytest.param("3 1\n-1 2\n", re.escape("edgelist: edge (-1,2): endpoint -1 out of range 1..3 at line 2") + "$",
                     id="negative field"),
        pytest.param("3 2\n1 2\n2 5\n", re.escape("edgelist: edge (2,5): endpoint 5 out of range 1..3 at line 3") + "$",
                     id="one pass"),
        pytest.param("# a path\n3 2\n1 2\n3 3\n", re.escape("edgelist: edge (3,3): self-loop at line 4") + "$",
                     id="comment line"),
        pytest.param("3 2\n2 1\n1 2\n", re.escape("duplicate edge (1, 2)") + "$", id="duplicate"),
        pytest.param("-1 1\n1 2\n", "^vertex count must be non-negative, got -1$", id="negative count"),
    ],
)
def test_load_edgelist_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_graph(text, "edgelist")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", "before 'p edge"),
        ("p edge 2 1\nx 1 2\n", "unknown line prefix"),
        # Every line's prefix is checked before the size bound.
        ("p edge 10000000000 0\nx 1 2\n", "dimacs: unknown line prefix 'x' at line 2"),
        ("p edge 2 2\ne 1 2\n", "declares 2 edges"),
        ("c\np edge 2 2\ne 1 2\n", "dimacs: problem line declares 2 edges but found 1 at line 2"),
        ("p foo 2 1\ne 1 2\n", "malformed problem line"),
        ("p edge 2 1\ne 1 2\np edge 2 1\n", "repeated"),
        ("c hi\ne 1 2\n", "dimacs: edge line before 'p edge n m' line at line 2"),
        ("p edge 2 1\n\nx 1 2\n", "dimacs: unknown line prefix 'x' at line 3"),
        ("c\np foo 2 1\ne 1 2\n", "dimacs: malformed problem line 'p foo 2 1' at line 2, expected 'p edge n m'"),
        ("c\np edge 2\n", "malformed problem line 'p edge 2' at line 2"),
        ("p edge 2 1\nc\ne 1 2\np edge 2 1\n", "dimacs: repeated 'p' line at line 4"),
        ("p edge 2 1\nc\ne 1 x\n", "dimacs: malformed line 'e 1 x' at line 3, expected 'e u v'"),
        ("p edge 4 3\ne 1 2\ne 2 3\ne 3 x\n", "dimacs: malformed line 'e 3 x' at line 4, expected 'e u v'"),
        ("c a path\np edge 3 2\ne 0 2\ne 1 2\n", re.escape("dimacs: edge (0,2): endpoint 0 out of range 1..3 at line 3")),
    ],
)
def test_load_dimacs_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_graph(text, "dimacs")


@pytest.mark.parametrize(
    "fmt, text",
    [("edgelist", "10000000000 0\n"), ("dimacs", "c huge\np edge 10000000000 0\n")],
)
def test_vertex_count_limit_rejects_before_allocating(fmt, text):
    line = text.count("\n")
    message, peak = load_error_and_peak(text, fmt)
    assert message == f"{fmt}: vertex count 10000000000 exceeds the limit of 1000000 at line {line}"
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "fmt, text",
    [("edgelist", "10 10000000000\n"), ("dimacs", "p edge 10 10000000000\n"), ("edgelist", "# big\n3163 5000001\n")],
)
def test_edge_count_limit_rejects_before_allocating(fmt, text):
    line, m = text.count("\n"), text.split()[-1]
    message, peak = load_error_and_peak(text, fmt)
    assert message == f"{fmt}: edge count {m} exceeds the limit of 5000000 at line {line}"
    assert peak < 1 << 16


def test_a_count_mismatch_rejects_before_allocating():
    # A header within the size bound, over a body of the wrong length, written
    # or after a comment line: the text has fewer than m + 1 newlines, so the
    # shared ints of its 10^6 vertices are never made.
    for text, line in [("1000000 5\n1 2\n", 1), ("# c\n1000000 5\n1 2\n", 2)]:
        message, peak = load_error_and_peak(text, "edgelist")
        assert message == f"edgelist: header declares 5 edges but body has 1 lines at line {line}"
        assert peak < 1 << 16, text


def load_error_and_peak(text, fmt):
    """The message of the ValueError that loading raises, and the peak traced allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            load_graph(text, fmt)
        return str(err.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kept_bytes(g):
    """The bytes a graph keeps: its tuples and distinct ints summed with
    getsizeof (traced memory drops when freed tuples are reused)."""
    ints = {id(v): v for v in chain.from_iterable(g.adjacency)}.values()
    return sys.getsizeof(g.adjacency) + sum(map(sys.getsizeof, chain(g.adjacency, ints)))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_and_save_peak_memory_stays_a_small_multiple_of_the_text():
    # Traced peaks over the length of the text read or written, measured on
    # Python 3.10-3.13: about 6.9x for load_graph, 4.0x for save_graph, 1.6x
    # for save_ordering, 7.7x for save_colouring and 8.4-8.9x for load_ordering;
    # 6.0x for load_colouring, which keeps only each chunk's colours (8.2x when
    # the chunks were joined into one list; Python 3.11).  Reading the whole
    # text at once took load_graph to 10.3x, a line list took the writers to
    # 7.8x, 12.6x and 9.8x, and checking an ordering by a sort against a range
    # list took its load to 17x.  Split into rows as a whole text, the three
    # loads reached 18x, 21x and 18x (Python 3.11); a chunk off the written
    # shape is now split on its own (see the next test).  The graph
    # that load_graph keeps is about 4.2x: one int object per vertex, not one
    # per adjacency entry (8.2x).
    g = generate(GenSpec("planar3tree", (20000,), 1))
    ordering = VertexOrdering.identity(g.n)
    colouring = greedy_cf_colouring(g, ordering)
    texts = [save_graph(g), save_ordering(ordering), save_colouring(colouring)]
    calls = [
        (lambda: load_graph(texts[0]), texts[0], 8),
        (lambda: save_graph(g), texts[0], 5),
        (lambda: load_ordering(texts[1]), texts[1], 10),
        (lambda: save_ordering(ordering), texts[1], 2.5),
        (lambda: load_colouring(texts[2]), texts[2], 9),
        (lambda: save_colouring(colouring), texts[2], 9),
    ]
    peaks = [traced_peak(call) / len(text) for call, text, _ in calls]
    assert all(peak < bound for peak, (_, _, bound) in zip(peaks, calls)), peaks
    kept = kept_bytes(load_graph(texts[0]))
    assert kept < 6 * len(texts[0]), kept / len(texts[0])


def test_hand_written_loads_peak_at_a_small_multiple_of_the_text():
    # A chunk off the written shape is split into lines, a chunk of about 64
    # KiB at a time, and a graph's fields are mapped to one int per vertex.
    # Measured on Python 3.11: 6.6x for the edgelist with a comment line, 5.1x
    # for DIMACS and 10.0x for the ordering with CRLF endings, where the
    # chunk's lines weigh more against this short a text (9.5-10.0x on
    # 3.10-3.13; 5.9x at 10^5 vertices on 3.11).  With line-read chunks left
    # unmapped the two graphs peaked at 10.3x and 8.1x, and split whole the
    # edgelist and the ordering at 18.5x and 17.8x.
    g = generate(GenSpec("planar3tree", (20000,), 1))
    commented = "# a comment line\n" + save_graph(g)
    dimacs = save_graph(g, "dimacs")
    crlf = save_ordering(VertexOrdering.identity(g.n)).replace("\n", "\r\n")
    calls = [(lambda: load_graph(commented), commented, 8), (lambda: load_graph(dimacs, "dimacs"), dimacs, 6),
             (lambda: load_ordering(crlf), crlf, 12)]
    peaks = [traced_peak(call) / len(text) for call, text, _ in calls]
    assert all(peak < bound for peak, (_, _, bound) in zip(peaks, calls)), peaks


def test_load_graph_peaks_near_the_graph_it_keeps():
    # The text is read and mapped a chunk at a time, the parsed chunks are
    # freed as the build reads them, and the adjacency lists are frozen into
    # tuples a block at a time: about 1.65x the graph kept on Python
    # 3.10-3.13.  Reading the whole text at once peaked at 2.5x.
    text = save_graph(generate(GenSpec("planar3tree", (20000,), 1)))
    peak = traced_peak(lambda: load_graph(text))
    kept = kept_bytes(load_graph(text))
    assert peak < 2 * kept, peak / kept


def test_loaded_graph_holds_one_int_object_per_vertex():
    # Every chunk is mapped to the shared ints, whether read by JSON or split
    # into lines: a written file, one with a comment line, one with CRLF
    # endings, and a DIMACS file.
    g = generate(GenSpec("grid", (250, 400)))
    written = save_graph(g)
    texts = {
        "written": (written, "edgelist"),
        "comment line": ("# a comment line\n" + written, "edgelist"),
        "crlf": (written.replace("\n", "\r\n"), "edgelist"),
        "dimacs": (save_graph(g, "dimacs"), "dimacs"),
    }
    for kind, (text, fmt) in texts.items():
        g = load_graph(text, fmt)
        assert len(set(map(id, chain.from_iterable(g.adjacency)))) == g.n, kind


def test_generated_grid_holds_one_int_object_per_vertex():
    # Its builder zips slices of one list of ids, so each neighbour is the
    # shared int of its vertex.
    g = generate(GenSpec("grid", (250, 400)))
    assert len(set(map(id, chain.from_iterable(g.adjacency)))) == g.n


@pytest.mark.parametrize(
    "text, cols, fields",
    [
        ("3 2\n1 2\n2 3\n", 2, [3, 2, 1, 2, 2, 3]),
        ("2\n10\n1\n", 1, [2, 10, 1]),
        ("0 0\n", 2, [0, 0]),
        ("", 2, None),  # no final newline
        ("\n", 1, None),  # an empty field
        ("3 2\n1 2\n2 3", 2, None),
        ("3 2\n1 2\n2 34", 2, None),
        ("3 2\n1 02\n", 2, None),  # a leading zero: int() reads it, JSON does not
        ("3 2\n1  2\n", 2, None),
        ("3 2\n1 2 \n", 2, None),
        ("3 2\n 1 2\n", 2, None),
        ("3 2\n1\t2\n", 2, None),
        ("3 2\r\n1 2\r\n", 2, None),
        ("3 2\n\n1 2\n", 2, None),
        ("# c\n3 2\n", 2, None),
        ("3 2\n+1 2\n", 2, None),
        ("3 2\n-1 2\n", 2, None),
        ("3 2\n1 2 3\n", 2, None),
        ("3 2\n1\n", 2, None),
        ("3 2\n1 \u0662\n", 2, None),  # a non-ASCII digit
        ("3 2\n1 2e0\n", 2, None),
    ],
)
def test_whole_ints_reads_only_the_written_shape(text, cols, fields):
    # The chunk reader's JSON path takes the same texts as the whole-text
    # reader, and the chunks' fields are the line reader's.
    assert whole_ints(text, cols) == fields
    assert _written_fields(text, 0, len(text), cols) == fields
    reader = DataLines("text", text, cols, " ".join("v" * cols))
    chunked = list(chain.from_iterable(reader.chunks()))
    assert (chunked if reader.bad is None else None) == reference_line_ints(text, cols)


def test_build_graph_rejects_too_many_vertices():
    with pytest.raises(ValueError, match="exceeds the limit of 1000000"):
        build_graph(MAX_VERTICES + 1, [])


def test_save_k2_edgelist():
    assert save_graph(build_graph(2, [(1, 2)]), "edgelist") == "2 1\n1 2\n"


def test_save_single_vertex_dimacs():
    assert save_graph(build_graph(1, []), "dimacs") == "p edge 1 0\n"


def test_unknown_format_rejected():
    g = build_graph(1, [])
    with pytest.raises(ValueError, match="unknown graph format"):
        save_graph(g, "gml")
    with pytest.raises(ValueError, match="unknown graph format"):
        load_graph("1 0\n", "gml")


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@given(graphs(), st.sampled_from(["edgelist", "dimacs"]))
def test_round_trip_identity(g, fmt):
    assert load_graph(save_graph(g, fmt), fmt) == g


@given(graphs())
def test_graph_invariants(g):
    for v in g.vertices:
        assert v not in g.adjacency[v]
        assert list(g.adjacency[v]) == sorted(set(g.adjacency[v]))
        for w in g.adjacency[v]:
            assert v in g.adjacency[w]
    assert 2 * g.m == sum(len(g.adjacency[v]) for v in g.vertices)
