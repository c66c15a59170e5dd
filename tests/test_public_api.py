"""The public surface: the package's names and the public members of its
vertex-indexed classes.  A change here is an API change, so it has to be made
on purpose, here and in the README's Library section."""

import cfcolour
from cfcolour import Colouring, GenSpec, VertexOrdering, generate


def public(obj):
    # dir() on an instance, so dataclass fields without a class default count.
    return {name for name in dir(obj) if not name.startswith("_")}


def test_public_surface_is_pinned():
    assert sorted(cfcolour.__all__) == [
        "BenchRecord", "Colouring", "FAMILIES", "GenSpec", "Graph", "Verdict",
        "VertexOrdering", "back_reach_profile", "bound", "build_graph",
        "degeneracy_order", "exact_chromatic", "exact_scol", "generate",
        "greedy_cf_colouring", "load_colouring", "load_corpus", "load_graph",
        "load_ordering", "make_ordering", "min_backreach_order", "parse_genspec",
        "records_to_csv", "run_corpus", "save_colouring", "save_graph",
        "save_ordering", "verify_colouring",
    ]
    assert public(generate(GenSpec("path", (3,)))) == {"adjacency", "edges", "m", "n", "vertices"}
    assert public(VertexOrdering.identity(3)) == {"identity", "n", "reverse", "seq", "shuffled"}
    assert public(Colouring((1, 2, 1), palette=2)) == {"colours", "n", "palette", "used"}
