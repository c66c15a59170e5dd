import re
from dataclasses import replace
from pathlib import Path

import pytest

from cfcolour import (
    Colouring,
    GenSpec,
    bound,
    generate,
    load_corpus,
    records_to_csv,
    run_corpus,
    save_graph,
)
from cfcolour import bench
from cfcolour.bench import CSV_HEADER, BenchRecord
from oracles import reference_verify_colouring


def test_bound_values():
    assert bound("scol2", 2) == 3
    assert bound("scol2", 1) == 1
    assert bound("kplanar", 0) == 59
    assert bound("kplanar", 1) == 119


@pytest.mark.parametrize(
    "kind, x",
    [("scol2", 0), ("kplanar", -1), ("minor", 1), ("minor", 2), ("minor", 3), ("nope", 3)],
)
def test_bound_rejects_out_of_domain(kind, x):
    with pytest.raises(ValueError):
        bound(kind, x)


def test_run_corpus_path4_identity():
    (rec,) = run_corpus([GenSpec("path", (4,))], ["identity"])
    assert rec.graph_id == "path(4)"
    assert rec.family == "path"
    assert (rec.n, rec.m) == (4, 3)
    assert rec.r2 == 2
    assert rec.colours_used == 3
    assert rec.bound_thm1 == 3
    assert rec.proper_ok and rec.odd_ok and rec.cf_ok
    assert rec.exact_cf is None


def test_run_corpus_empty():
    assert run_corpus([], ["identity"]) == []


def test_run_corpus_on_the_empty_graph():
    # No vertex, so no reach set: r2 is 0, the greedy's palette is 0 and the
    # bound reads 1; every criterion holds vacuously and exact_cf is skipped.
    records = run_corpus([GenSpec("gnp", (0, 0.5))], ["identity", "min_backreach"], exact_up_to=6)
    assert [r.strategy for r in records] == ["identity", "min_backreach"]
    for rec in records:
        assert (rec.n, rec.m, rec.r2, rec.colours_used, rec.bound_thm1) == (0, 0, 0, 0, 1)
        assert rec.proper_ok and rec.odd_ok and rec.cf_ok
        assert rec.exact_cf is None


def test_run_corpus_requires_strategy():
    with pytest.raises(ValueError, match="strategy"):
        run_corpus([GenSpec("path", (4,))], [])


def test_run_corpus_exact_column():
    (rec,) = run_corpus([GenSpec("cycle", (5,))], ["identity"], exact_up_to=5)
    assert rec.exact_cf == 5
    assert rec.r2 == 3
    assert rec.bound_thm1 == 5


def test_run_corpus_record_invariants():
    specs = [
        GenSpec("path", (6,)),
        GenSpec("cycle", (6,)),
        GenSpec("star", (4,)),
        GenSpec("gnp", (8, 0.4), seed=3),
        GenSpec("planar3tree", (12,), seed=1),
        GenSpec("gnp", (5, 0.0)),  # edgeless: r2 = 1, so one colour and a bound of 1
    ]
    strategies = ["identity", "reverse", "random(9)", "degeneracy", "min_backreach"]
    records = run_corpus(specs, strategies, exact_up_to=6)
    assert len(records) == len(specs) * len(strategies)
    for rec in records:
        assert rec.cf_ok and rec.odd_ok and rec.proper_ok
        assert rec.colours_used <= rec.bound_thm1
        if rec.exact_cf is not None:
            assert rec.exact_cf <= rec.colours_used


def test_run_corpus_loads_files(tmp_path):
    p = tmp_path / "tri.col"
    p.write_text(save_graph(generate(GenSpec("cycle", (3,))), "dimacs"))
    (rec,) = run_corpus([str(p)], ["identity"])
    assert rec.family == "file"
    assert rec.graph_id == str(p)
    assert (rec.n, rec.m) == (3, 3)


def test_run_corpus_file_errors_carry_context(tmp_path):
    missing = tmp_path / "nope.el"
    with pytest.raises(ValueError, match="nope.el"):
        run_corpus([str(missing)], ["identity"])
    undecodable = tmp_path / "latin1.el"
    undecodable.write_bytes(b"3 1\n1 \xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{undecodable}: 'utf-8' codec can't decode byte 0xff")):
        run_corpus([str(undecodable)], ["identity"])


def test_csv_header_and_shape():
    records = run_corpus([GenSpec("path", (4,)), GenSpec("complete", (3,))], ["identity"])
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("path(4),path,4,3,identity,2,3,3,true,true,true,,")


def test_csv_header_and_cells_come_from_the_record_fields():
    assert CSV_HEADER == (
        "graph_id,family,n,m,strategy,r2,colours_used,bound_thm1,"
        "proper_ok,odd_ok,cf_ok,exact_cf,runtime_ms"
    )
    rec = BenchRecord("path(4)", "path", 4, 3, "identity", 2, 3, 3, True, False, True, None, 1.23456)
    assert rec.csv_row() == ["path(4)", "path", "4", "3", "identity", "2", "3", "3",
                             "true", "false", "true", "", "1.235"]
    assert records_to_csv([rec]).splitlines()[1].endswith(",true,false,true,,1.235")
    assert replace(rec, exact_cf=7, runtime_ms=0.0).csv_row()[-2:] == ["7", "0.000"]


@pytest.mark.parametrize(
    "spec, colours, want",
    [
        # Alternating C4: proper, but neither odd nor conflict-free.
        (GenSpec("cycle", (4,)), (1, 2, 1, 2), [True, False, False]),
        # Monochromatic K_{1,3}: the centre sees one colour three times.
        (GenSpec("star", (3,)), (2, 2, 2, 2), [False, True, False]),
    ],
    ids=["c4", "star3"],
)
def test_run_corpus_flags_match_the_validators(monkeypatch, spec, colours, want):
    # The flags come from one pass; with a failing colouring each must agree
    # with the reference validator of its own criterion.
    bad = Colouring(colours, 2)
    monkeypatch.setattr(bench, "greedy_cf_colouring", lambda graph, ordering: bad)
    (rec,) = run_corpus([spec], ["identity"])
    g = generate(spec)
    flags = [reference_verify_colouring(g, bad, c).ok for c in ("proper", "odd", "conflict_free")]
    assert [rec.proper_ok, rec.odd_ok, rec.cf_ok] == flags == want


def test_csv_deterministic_modulo_runtime():
    specs = [GenSpec("gnp", (8, 0.5), seed=2), GenSpec("planar3tree", (9,), seed=4)]
    strategies = ["random(3)", "degeneracy"]

    def stripped():
        rows = records_to_csv(run_corpus(specs, strategies, exact_up_to=8)).splitlines()
        return [r.rsplit(",", 1)[0] for r in rows]

    assert stripped() == stripped()


def test_load_corpus_mixed(tmp_path):
    text = "# demo corpus\npath(4)\n\ngnp(8,0.3,seed=7)\ngraphs/foo.el\n"
    items = load_corpus(text)
    assert items[0] == GenSpec("path", (4,))
    assert items[1] == GenSpec("gnp", (8, 0.3), seed=7)
    assert items[2] == "graphs/foo.el"


def test_demo_corpus_matches_golden_csv():
    # Recorded from corpus/demo.txt with runtime_ms dropped; any change in
    # orderings, reach sizes or colourings shows up here.
    root = Path(__file__).resolve().parents[1]
    items = load_corpus((root / "corpus" / "demo.txt").read_text(encoding="utf-8"))
    strategies = ["identity", "reverse", "random", "random(7)", "degeneracy", "min_backreach"]
    csv_text = records_to_csv(run_corpus(items, strategies, exact_up_to=6))
    stripped = "".join(row.rsplit(",", 1)[0] + "\n" for row in csv_text.splitlines())
    assert stripped == (root / "tests" / "data" / "demo_bench.csv").read_text(encoding="utf-8")
