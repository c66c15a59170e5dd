"""Outputs at the benchmark's scale, pinned by digest.

The differential tests compare against the reference code at n <= 40.  These
digests were recorded once at n = 3000 (the corpus workload's graphs and
strategies), at 10^5 vertices (the given-order workload's grid) and at
n = 12-20 (the exact workload's exact_chromatic and exact_scol inputs), so a
speed-up that changes an ordering's tie-break, a reach size, a colour or an
exact witness at scale fails here.
"""

import hashlib

from cfcolour import (
    GenSpec,
    VertexOrdering,
    back_reach_profile,
    degeneracy_order,
    exact_chromatic,
    exact_scol,
    generate,
    greedy_cf_colouring,
    make_ordering,
    min_backreach_order,
    records_to_csv,
    run_corpus,
    save_colouring,
    save_ordering,
)
from oracles import reference_unpeeled_exact_scol

CORPUS = [
    GenSpec("grid", (50, 60)),
    GenSpec("planar3tree", (3000,), seed=1),
    GenSpec("gnp", (3000, 0.001), seed=1),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_records_are_pinned():
    csv_text = records_to_csv(run_corpus(CORPUS, ["degeneracy", "min_backreach", "random(1)"]))
    stripped = "".join(row.rsplit(",", 1)[0] + "\n" for row in csv_text.splitlines())  # runtime_ms dropped
    assert sha256(stripped) == "5b63ee6513142878d492617f8f29ffe451fcbf191056277f14fdeb1ba443ca11"


def test_corpus_orderings_are_pinned():
    parts = []
    for spec in CORPUS:
        g = generate(spec)
        ordering, d = degeneracy_order(g)
        parts += [f"{d}\n", save_ordering(ordering), save_ordering(min_backreach_order(g))]
    assert sha256("".join(parts)) == "8ca660f4186cace4dfb2587aa6c2f00c46a9b1a4cdd8c9d64e16315b5214a79a"


def test_greedy_colouring_of_the_given_order_grid_is_pinned():
    g = generate(GenSpec("grid", (250, 400)))
    col = greedy_cf_colouring(g, VertexOrdering.identity(g.n))
    assert sha256(save_colouring(col)) == "911de389afbbd282595289b102953dae6b55627dea7132f8f4877f267ae882af"


def test_greedy_colouring_with_hubs_is_pinned():
    # A random ordering keeps hubs early: r2 = 334 here, against 4 for both
    # orderers, so the greedy's kept neighbour lists grow long.
    g = generate(GenSpec("planar3tree", (3000,), seed=1))
    col = greedy_cf_colouring(g, make_ordering(g, "random(1)"))
    assert sha256(save_colouring(col)) == "f7f210f50003d2876b2cfc465f48aa4cf67c82adbf6298479d167668a6008eed"


def test_back_reach_profiles_are_pinned():
    # The hub case along random(1) at radius 2, and the given-order grid's scol
    # cells at radii 2 and 3: back-reaches 334, 4 and 5.
    p3t = generate(GenSpec("planar3tree", (3000,), seed=1))
    grid = generate(GenSpec("grid", (250, 400)))
    cases = [(p3t, make_ordering(p3t, "random(1)"), 2)]
    cases += [(grid, VertexOrdering.identity(grid.n), s) for s in (2, 3)]
    text = "".join(f"{size}\n" for g, ordering, s in cases for size in back_reach_profile(g, ordering, s))
    assert sha256(text) == "bed9309934abf7a5c821da06a2cf67608b5e30f88852c5926e0eba1cf42727e7"


EXACT_PANEL = [
    GenSpec(family, params, seed=seed)
    for seed in range(3)
    for family, params in (("planar3tree", (17,)), ("gnp", (20, 0.2)))
]


def test_exact_scol_values_are_pinned():
    # The exact workload's panel at radius 2.  Values are unique, so they
    # stay pinned whatever witness the search finds; each witness attains its value.
    values = []
    for spec in EXACT_PANEL:
        g = generate(spec)
        value, witness = exact_scol(g, 2, limit=g.n)
        assert max(back_reach_profile(g, witness, 2)) == value, spec
        values.append(value)
    assert values == [4, 4, 4, 5, 4, 5]


def test_exact_scol_witnesses_are_pinned():
    # The same panel's witnesses, from the search on the peeled core, and
    # those of the search over the whole graph (recorded before the peel).
    for search, want in (
        (exact_scol, "2fb9bea91752b881f256d63f21bd9314f4b651ca5031ae8e125359b490c3361f"),
        (reference_unpeeled_exact_scol, "7689ba0964e5c251db0119f7b578fe754a700062c3276f44f57508f9f85760fe"),
    ):
        parts = []
        for spec in EXACT_PANEL:
            g = generate(spec)
            value, witness = search(g, 2, limit=g.n)
            parts.append(f"{value}\n" + save_ordering(witness))
        assert sha256("".join(parts)) == want, search.__name__


def test_exact_chromatic_witnesses_are_pinned():
    # The exact workload's chromatic inputs (gnp at seeds 0-2), under every
    # criterion: each value with the colouring the search finds first.
    specs = [GenSpec("cycle", (14,)), GenSpec("grid", (3, 5))]
    specs += [GenSpec("gnp", (12, 0.3), seed=seed) for seed in range(3)]
    parts = []
    for spec in specs:
        g = generate(spec)
        for variant in ("proper", "odd", "conflict_free"):
            value, col = exact_chromatic(g, variant, limit=g.n)
            parts.append(f"{value}\n" + save_colouring(col))
    assert sha256("".join(parts)) == "278249daed24b7905bfc5e70f3c6086ed53ff5f2ebe3da10d4e0bff862c64661"
