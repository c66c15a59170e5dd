"""Conflict-free graph colouring toolkit built on back-reach vertex orderings."""

from .bench import BenchRecord, bound, load_corpus, records_to_csv, run_corpus
from .colouring import (
    Colouring,
    Verdict,
    exact_chromatic,
    greedy_cf_colouring,
    load_colouring,
    save_colouring,
    verify_colouring,
)
from .generators import FAMILIES, GenSpec, generate, parse_genspec
from .graph import Graph, build_graph, load_graph, save_graph
from .reach import (
    VertexOrdering,
    back_reach_profile,
    degeneracy_order,
    exact_scol,
    load_ordering,
    make_ordering,
    min_backreach_order,
    save_ordering,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "Colouring",
    "FAMILIES",
    "GenSpec",
    "Graph",
    "Verdict",
    "VertexOrdering",
    "back_reach_profile",
    "bound",
    "build_graph",
    "degeneracy_order",
    "exact_chromatic",
    "exact_scol",
    "generate",
    "greedy_cf_colouring",
    "load_colouring",
    "load_corpus",
    "load_graph",
    "load_ordering",
    "make_ordering",
    "min_backreach_order",
    "parse_genspec",
    "records_to_csv",
    "run_corpus",
    "save_colouring",
    "save_graph",
    "save_ordering",
    "verify_colouring",
]
