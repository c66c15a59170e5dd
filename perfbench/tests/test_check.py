"""The benchmark's checker must catch wrong outputs, so fail_ratio cannot read 0
by accident.  Each test runs one small pass in-process, corrupts an output, and
expects the run's failed-cell count to rise.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from plan import Input, Plan, build, cell_id  # noqa: E402
from tracing import Tracer  # noqa: E402

GIVEN_ORDER = Plan("given-order", (
    Input("grid-4x5.txt", "grid", (4, 5), 0, ("scol2", "scol3", "colour", "verify")),
    Input("planar3tree-40.txt", "planar3tree", (40,), 1, ("scol2", "colour", "verify")),
))
EXACT = Plan("exact", (
    Input("path-4.txt", "path", (4,), 0, ("odd", "conflict_free")),
    Input("gnp-8.txt", "gnp", (8, 0.4), 3, ("scol2",)),
))
CORPUS = Plan("corpus", (
    Input("grid-3x4.txt", "grid", (3, 4), 0, ("degeneracy", "random(1)")),
))


def run_once(plan: Plan, tmp_path: Path, monkeypatch, tracer=None) -> list[dict]:
    monkeypatch.chdir(tmp_path)
    worker.setup(plan, None)
    return worker.time_passes(plan, 0.0, tracer)["passes"]


def failed_cells(plan: Plan, passes: list[dict], tmp_path: Path) -> int:
    attempted, failed = run.tally(plan, passes, check.check(plan, tmp_path))
    assert attempted == len(plan.cells()) * len(passes)
    return failed


def test_given_order_flags_a_corrupted_colouring(tmp_path, monkeypatch):
    passes = run_once(GIVEN_ORDER, tmp_path, monkeypatch)
    assert failed_cells(GIVEN_ORDER, passes, tmp_path) == 0
    path = tmp_path / "grid-4x5.colouring"
    lines = path.read_text().splitlines()
    first = lines[1].split()[1]
    lines[2] = f"2 {first}"  # vertex 2 takes vertex 1's colour across an edge
    path.write_text("\n".join(lines) + "\n")
    faults = check.check(GIVEN_ORDER, tmp_path)
    assert cell_id(GIVEN_ORDER.inputs[0], "colour") in faults
    assert failed_cells(GIVEN_ORDER, passes, tmp_path) > 0


def test_given_order_flags_a_wrong_back_reach(tmp_path, monkeypatch):
    passes = run_once(GIVEN_ORDER, tmp_path, monkeypatch)
    outputs = json.loads((tmp_path / "outputs.json").read_text())
    outputs[cell_id(GIVEN_ORDER.inputs[1], "scol2")]["stdout"] = "99\n"
    (tmp_path / "outputs.json").write_text(json.dumps(outputs))
    assert failed_cells(GIVEN_ORDER, passes, tmp_path) > 0


@pytest.mark.parametrize("task", ["conflict_free", "scol2"])
def test_exact_flags_a_wrong_value(tmp_path, monkeypatch, task):
    passes = run_once(EXACT, tmp_path, monkeypatch)
    assert failed_cells(EXACT, passes, tmp_path) == 0
    cell = next(cell_id(i, task) for i in EXACT.inputs if task in i.tasks)
    outputs = json.loads((tmp_path / "outputs.json").read_text())
    outputs[cell]["value"] += 1
    (tmp_path / "outputs.json").write_text(json.dumps(outputs))
    assert cell in check.check(EXACT, tmp_path)
    assert failed_cells(EXACT, passes, tmp_path) > 0


def test_exact_flags_an_answer_that_is_attained_but_not_minimal(tmp_path, monkeypatch):
    passes = run_once(EXACT, tmp_path, monkeypatch)
    outputs = json.loads((tmp_path / "outputs.json").read_text())
    cf = cell_id(EXACT.inputs[0], "conflict_free")
    outputs[cf].update(value=4, witness=[1, 2, 3, 4])  # valid, but 3 colours suffice
    scol = cell_id(EXACT.inputs[1], "scol2")
    adj = check.read_graph(tmp_path / EXACT.inputs[1].file)
    rng = random.Random(0)
    while True:
        order = rng.sample(range(1, len(adj)), len(adj) - 1)
        if check.back_reach(adj, order, 2) > outputs[scol]["value"]:
            break
    outputs[scol].update(value=check.back_reach(adj, order, 2), witness=order)
    (tmp_path / "outputs.json").write_text(json.dumps(outputs))
    faults = check.check(EXACT, tmp_path)
    assert cf in faults and scol in faults
    assert failed_cells(EXACT, passes, tmp_path) > 0


def test_corpus_flags_a_false_validity_flag(tmp_path, monkeypatch):
    passes = run_once(CORPUS, tmp_path, monkeypatch)
    assert failed_cells(CORPUS, passes, tmp_path) == 0
    path = tmp_path / "corpus.csv"
    path.write_text(path.read_text().replace(",true,true,true,", ",true,false,true,", 1))
    assert failed_cells(CORPUS, passes, tmp_path) > 0


def test_a_pass_whose_output_differs_from_the_last_counts_as_failed():
    plan = build("exact", 1)
    cells = plan.cells()
    same = {"ok": dict.fromkeys(cells, True), "fingerprint": dict.fromkeys(cells, "a")}
    other = {"ok": dict.fromkeys(cells, True), "fingerprint": {**same["fingerprint"], cells[0]: "b"}}
    assert run.tally(plan, [same, same], {}) == (2 * len(cells), 0)
    assert run.tally(plan, [other, same], {}) == (2 * len(cells), 1)


def test_tracer_records_calls_across_modules(tmp_path, monkeypatch):
    tracer = Tracer()
    passes = run_once(GIVEN_ORDER, tmp_path, monkeypatch, tracer)
    assert [p["traced"] for p in passes] == [False, True]
    summary = tracer.summary()
    n = sum(i.n for i in GIVEN_ORDER.inputs)
    # scol 2 and 3 on the grid, scol 2 on the other graph, and the greedy's
    # own profile plus one reach set per vertex for each colouring.
    assert summary["reach.reach_set"][0] == 20 + 3 * n
    assert summary["cli.main"][0] == 7
    for calls, total_s, self_s in summary.values():
        assert 0.0 <= self_s <= total_s + 1e-9
    assert summary["cli.main"][2] < summary["cli.main"][1]
