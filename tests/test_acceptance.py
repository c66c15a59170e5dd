"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

from cfcolour import (
    GenSpec,
    back_reach_profile,
    bound,
    degeneracy_order,
    exact_chromatic,
    exact_scol,
    generate,
    greedy_cf_colouring,
    load_graph,
    make_ordering,
    records_to_csv,
    run_corpus,
    save_graph,
    verify_colouring,
)
from cfcolour.cli import main as cli_main
from cfcolour.reach import _reach
from oracles import all_graphs, enumerate_reach, prefix_flags

CRITERIA = ("proper", "odd", "conflict_free")

DEMO_CORPUS = [
    GenSpec("path", (12,)),
    GenSpec("cycle", (9,)),
    GenSpec("complete", (6,)),
    GenSpec("star", (7,)),
    GenSpec("complete_bipartite", (3, 4)),
    GenSpec("grid", (5, 8)),
    GenSpec("gnp", (16, 0.25), seed=11),
    GenSpec("planar3tree", (30,), seed=5),
]


def _report(name, failures, checks):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} {name} [{checks} checks]")
    assert ok, f"{name}: {len(failures)} failed, first: {failures[:5]}"


def _strategies(i):
    return ["identity", "reverse", f"random({i})", "degeneracy", "min_backreach"]


def test_criterion_1_greedy_contract_property_suite():
    started = time.perf_counter()
    corpus = [(f"n5#{i}", g) for i, g in enumerate(all_graphs(5))]
    corpus += [
        (spec.graph_id, generate(spec))
        for i in range(200)
        for spec in [GenSpec("gnp", (8, (i % 9 + 1) / 10), seed=i)]
    ]
    corpus += [
        (spec.graph_id, generate(spec))
        for i in range(50)
        for spec in [GenSpec("planar3tree", (50,), seed=i)]
    ]
    failures = []
    checks = 0
    for i, (gid, g) in enumerate(corpus):
        for strategy in _strategies(i):
            ordering = make_ordering(g, strategy)
            r2 = max(back_reach_profile(g, ordering, 2))
            col = greedy_cf_colouring(g, ordering)
            checks += 1
            if col.used > max(1, 2 * r2 - 1) or not all(
                verify_colouring(g, col, c).ok for c in CRITERIA
            ):
                failures.append((gid, strategy))
    elapsed = time.perf_counter() - started
    _report(
        f"criterion 1: greedy is proper/odd/conflict-free within 2*r2-1 ({elapsed:.1f}s)",
        failures,
        checks,
    )
    assert elapsed < 60.0


def test_criterion_2_exact_chain_on_all_five_vertex_graphs():
    started = time.perf_counter()
    failures = []
    checks = 0
    for i, g in enumerate(all_graphs(5)):
        chi = exact_chromatic(g, "proper")[0]
        chi_odd = exact_chromatic(g, "odd")[0]
        chi_cf = exact_chromatic(g, "conflict_free")[0]
        scol2 = exact_scol(g, 2)[0]
        scol1 = exact_scol(g, 1)[0]
        degeneracy = degeneracy_order(g)[1]
        checks += 1
        ok = chi <= chi_odd <= chi_cf and chi <= scol1 and scol1 == degeneracy + 1
        if g.m > 0:
            ok = ok and chi_cf <= 2 * scol2 - 1
        if not ok:
            failures.append((i, chi, chi_odd, chi_cf, scol1, scol2, degeneracy))
    elapsed = time.perf_counter() - started
    _report(
        f"criterion 2: chromatic chain and scol1 = degeneracy + 1 ({elapsed:.1f}s)",
        failures,
        checks,
    )
    assert elapsed < 120.0


def test_criterion_3_tightness_witnesses():
    failures = []
    c5 = generate(GenSpec("cycle", (5,)))
    if not (exact_chromatic(c5, "conflict_free")[0] == 5 == 2 * exact_scol(c5, 2)[0] - 1):
        failures.append("C5")
    p4 = generate(GenSpec("path", (4,)))
    if not (exact_chromatic(p4, "conflict_free")[0] == 3 == 2 * exact_scol(p4, 2)[0] - 1):
        failures.append("P4")
    _report("criterion 3: bound met with equality on C5 and P4", failures, 2)


def test_criterion_4_reach_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    checks = 0
    for i in range(100):
        g = generate(GenSpec("gnp", (8, 0.4), seed=i))
        for j in range(3):
            ordering = make_ordering(g, f"random({1000 + 3 * i + j})")
            for s in (1, 2, 3):
                for v in g.vertices:
                    checks += 1
                    if _reach(g.adjacency, prefix_flags(ordering, v), v, s) != enumerate_reach(g, ordering, v, s):
                        failures.append((i, j, s, v))
    elapsed = time.perf_counter() - started
    _report(
        f"criterion 4: breadth-first reach equals path enumeration ({elapsed:.1f}s)",
        failures,
        checks,
    )
    assert elapsed < 30.0


def test_criterion_5_grids_sit_far_below_the_kplanar_constant():
    started = time.perf_counter()
    failures = []
    for rows, cols in ((20, 50), (40, 25)):
        g = generate(GenSpec("grid", (rows, cols)))
        ordering = make_ordering(g, "identity")
        r2 = max(back_reach_profile(g, ordering, 2))
        col = greedy_cf_colouring(g, ordering)
        if not (r2 <= 4 and col.used <= 7 < bound("kplanar", 0) == 59):
            failures.append((rows, cols, r2, col.used))
    elapsed = time.perf_counter() - started
    _report(f"criterion 5: row-major grids give r2<=4, colours<=7 ({elapsed:.1f}s)", failures, 2)
    assert elapsed < 10.0


def test_criterion_6_bound_constants():
    failures = []
    for kind, x, want in [
        ("scol2", 2, 3),
        ("scol2", 1, 1),
        ("scol2", 10, 19),
        ("kplanar", 0, 59),
        ("kplanar", 1, 119),
        ("kplanar", 4, 299),
    ]:
        if bound(kind, x) != want:
            failures.append((kind, x, bound(kind, x), want))
    _report("criterion 6: bound formulas 2r-1, 60k+59", failures, 6)


def test_criterion_7_tooling_round_trips(tmp_path):
    failures = []
    checks = 0

    # save/load identity on both formats for every corpus graph
    for spec in DEMO_CORPUS:
        g = generate(spec)
        for fmt in ("edgelist", "dimacs"):
            checks += 1
            if load_graph(save_graph(g, fmt), fmt) != g:
                failures.append(("round-trip", spec.graph_id, fmt))

    # colour output is always accepted by verify, through the CLI
    for spec in DEMO_CORPUS:
        graph_path = tmp_path / f"{spec.family}.el"
        graph_path.write_text(save_graph(generate(spec)))
        for strategy in ("identity", "degeneracy", "min_backreach"):
            colouring_path = tmp_path / f"{spec.family}-{strategy}.colouring"
            if cli_main(["colour", "--graph", str(graph_path), "--strategy", strategy,
                         "-o", str(colouring_path)]) != 0:
                failures.append(("colour", spec.graph_id, strategy))
                continue
            for criterion in CRITERIA:
                checks += 1
                if cli_main(["verify", "--graph", str(graph_path),
                             "--colouring", str(colouring_path),
                             "--criterion", criterion]) != 0:
                    failures.append(("verify", spec.graph_id, strategy, criterion))

    # bench CSV is byte-identical across runs once runtime_ms is dropped
    strategies = ["identity", "reverse", "random(13)", "degeneracy", "min_backreach"]

    def stripped_csv():
        rows = records_to_csv(run_corpus(DEMO_CORPUS, strategies, exact_up_to=6)).splitlines()
        return [r.rsplit(",", 1)[0] for r in rows]

    checks += 1
    if stripped_csv() != stripped_csv():
        failures.append(("bench-determinism",))

    _report("criterion 7: save/load, colour|verify, and bench CSV round-trips", failures, checks)
