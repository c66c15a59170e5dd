import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cfcolour.bench
import cfcolour.colouring
from cfcolour import GenSpec, generate, load_colouring, load_graph, save_graph
from cfcolour.cli import main
from cfcolour.reach import STRATEGIES


def write_graph(tmp_path, name, spec, fmt="edgelist"):
    p = tmp_path / name
    p.write_text(save_graph(generate(spec), fmt))
    return str(p)


def test_gen_writes_edgelist(tmp_path, capsys):
    out = tmp_path / "p4.el"
    assert main(["gen", "--family", "path", "--params", "4", "-o", str(out)]) == 0
    assert out.read_text() == "4 3\n1 2\n2 3\n3 4\n"


def test_gen_dimacs_to_stdout(capsys):
    assert main(["gen", "--family", "cycle", "--params", "3", "--format", "dimacs"]) == 0
    assert capsys.readouterr().out == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_gen_seed_determinism(capsys):
    main(["gen", "--family", "gnp", "--params", "8,0.4", "--seed", "5"])
    first = capsys.readouterr().out
    main(["gen", "--family", "gnp", "--params", "8,0.4", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_gen_without_a_seed_writes_the_seed_0_graph(capsys):
    assert main(["gen", "--family", "gnp", "--params", "16,0.25"]) == 0
    out = capsys.readouterr().out
    assert out == save_graph(generate(GenSpec("gnp", (16, 0.25), seed=0)))
    assert out != save_graph(generate(GenSpec("gnp", (16, 0.25), seed=1)))


def test_gen_missing_params_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "path"])
    assert exc.value.code == 2


def test_gen_bad_params_exit_2(capsys):
    assert main(["gen", "--family", "path", "--params", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_non_numeric_params_exit_2(capsys):
    assert main(["gen", "--family", "path", "--params", "x"]) == 2
    assert "malformed parameters 'x'" in capsys.readouterr().err


def test_gen_non_finite_params_exit_2(capsys):
    assert main(["gen", "--family", "path", "--params", "1e999"]) == 2
    assert capsys.readouterr().err == "error: expected integer parameter, got inf\n"


def test_too_many_vertices_exit_2(tmp_path, capsys):
    assert main(["gen", "--family", "path", "--params", "1e300"]) == 2
    assert "exceeds the limit of 1000000" in capsys.readouterr().err
    for fmt, text in (("edgelist", "10000000000 0\n"), ("dimacs", "p edge 10000000000 0\n")):
        path = tmp_path / f"huge.{fmt}"
        path.write_text(text)
        assert main(["scol", "--graph", str(path), "--format", fmt, "--s", "2", "--strategy", "identity"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {fmt}: vertex count 10000000000 exceeds the limit of 1000000 at line 1\n"
        )


def test_too_many_edges_exit_2(tmp_path, capsys):
    assert main(["gen", "--family", "complete", "--params", "3163"]) == 2
    assert capsys.readouterr().err == "error: edge count 5000703 exceeds the limit of 5000000\n"
    assert main(["gen", "--family", "gnp", "--params", "10000,0.0001"]) == 2
    assert capsys.readouterr().err == "error: vertex pair count 49995000 exceeds the limit of 5000000\n"
    for fmt, text in (("edgelist", "10 10000000000\n"), ("dimacs", "p edge 10 10000000000\n")):
        path = tmp_path / f"dense.{fmt}"
        path.write_text(text)
        assert main(["scol", "--graph", str(path), "--format", fmt, "--s", "2", "--strategy", "identity"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {fmt}: edge count 10000000000 exceeds the limit of 5000000 at line 1\n"
        )


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr("cfcolour.cli._cmd_gen", broken)
    assert main(["gen", "--family", "path", "--params", "4"]) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


def test_exhausted_greedy_palette_is_internal_error(tmp_path, monkeypatch, capsys):
    # The walk of test_greedy_palette_guard_is_live: vertex 3 takes colour 2
    # against a palette of 1.
    walk = cfcolour.colouring._reach2
    monkeypatch.setattr("cfcolour.colouring._reach2", lambda adj, o: ((v, {v}, e) for v, _, e in walk(adj, o)))
    graph = write_graph(tmp_path, "p3.el", GenSpec("path", (3,)))
    assert main(["colour", "--graph", graph, "--strategy", "identity", "-o", str(tmp_path / "p3.col")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError") and err.endswith("this indicates a bug\n")


@pytest.mark.parametrize("command", ["scol", "colour"])
def test_strategy_help_lists_every_strategy(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"--strategy STRATEGY {', '.join(STRATEGIES)}, or random(seed)" in text


def test_scol_strategy(tmp_path, capsys):
    graph = write_graph(tmp_path, "c5.el", GenSpec("cycle", (5,)))
    assert main(["scol", "--graph", graph, "--s", "2", "--strategy", "identity"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_scol_huge_radius(tmp_path, capsys):
    # Radius 10^6 comes first and is timed, so code that runs every level
    # even on an empty frontier fails here instead of running for minutes.
    graph = write_graph(tmp_path, "grid.el", GenSpec("grid", (4, 5)))
    assert main(["scol", "--graph", graph, "--s", "20", "--strategy", "random(3)"]) == 0
    want = capsys.readouterr().out
    assert want == "8\n"  # 6 at radius 2: long detours add to the reach sets
    for s in ("1000000", "1000000000"):
        start = time.perf_counter()
        assert main(["scol", "--graph", graph, "--s", s, "--strategy", "random(3)"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == want


def test_scol_verbose_lists_sizes(tmp_path, capsys):
    graph = write_graph(tmp_path, "c5.el", GenSpec("cycle", (5,)))
    main(["scol", "--graph", graph, "--s", "2", "--strategy", "identity", "--verbose"])
    assert capsys.readouterr().out == "3\n1 1\n2 2\n3 2\n4 3\n5 3\n"


@pytest.mark.parametrize(
    "spec, want", [(GenSpec("gnp", (0, 0.5)), "0\n"), (GenSpec("path", (1,)), "1\n1 1\n")], ids=["empty", "path1"]
)
def test_scol_verbose_smallest_graphs(tmp_path, capsys, spec, want):
    # One line per vertex 1..n after the back-reach: none for the empty graph.
    graph = write_graph(tmp_path, "g.el", spec)
    assert main(["scol", "--graph", graph, "--s", "2", "--strategy", "identity", "--verbose"]) == 0
    assert capsys.readouterr().out == want


def test_scol_exact(tmp_path, capsys):
    graph = write_graph(tmp_path, "c5.el", GenSpec("cycle", (5,)))
    assert main(["scol", "--graph", graph, "--s", "2", "--exact"]) == 0
    assert capsys.readouterr().out == "3\n"
    # --verbose adds the exact witness's reach size of each vertex.
    assert main(["scol", "--graph", graph, "--s", "2", "--exact", "--verbose"]) == 0
    first, *rest = capsys.readouterr().out.splitlines()
    assert first == "3"
    assert [line.split()[0] for line in rest] == ["1", "2", "3", "4", "5"]
    assert max(int(line.split()[1]) for line in rest) == 3


def test_scol_order_file(tmp_path, capsys):
    graph = write_graph(tmp_path, "s3.el", GenSpec("star", (3,)))
    centre_last = tmp_path / "centre_last.ord"
    centre_last.write_text("2\n3\n4\n1\n")
    assert main(["scol", "--graph", graph, "--s", "2", "--order", str(centre_last)]) == 0
    assert capsys.readouterr().out == "4\n"
    centre_first = tmp_path / "centre_first.ord"
    centre_first.write_text("1\n2\n3\n4\n")
    assert main(["scol", "--graph", graph, "--s", "2", "--order", str(centre_first)]) == 0
    assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize("command", [["scol", "--s", "2"], ["colour"]], ids=["scol", "colour"])
def test_scol_order_length_mismatch(tmp_path, capsys, command):
    graph = write_graph(tmp_path, "p4.el", GenSpec("path", (4,)))
    order = tmp_path / "short.ord"
    order.write_text("1\n2\n3\n")
    assert main([*command, "--graph", graph, "--order", str(order)]) == 2
    assert "error: ordering covers 3 vertices, graph has 4" in capsys.readouterr().err


def test_colour_prints_summary_and_verifies(tmp_path, capsys):
    graph = write_graph(tmp_path, "p4.el", GenSpec("path", (4,)))
    colouring = tmp_path / "p4.colouring"
    assert main(["colour", "--graph", graph, "--strategy", "identity", "-o", str(colouring)]) == 0
    assert capsys.readouterr().out == "colours=3 bound=3\n"
    for criterion in ("proper", "odd", "conflict_free"):
        assert main(["verify", "--graph", graph, "--colouring", str(colouring),
                     "--criterion", criterion]) == 0
        assert capsys.readouterr().out == "ok\n"


def test_colour_to_stdout_keeps_summary_on_stderr(tmp_path, capsys):
    graph = write_graph(tmp_path, "p4.el", GenSpec("path", (4,)))
    assert main(["colour", "--graph", graph, "--strategy", "identity"]) == 0
    captured = capsys.readouterr()
    col = load_colouring(captured.out)
    assert col.colours == (1, 2, 3, 1)
    assert captured.err == "colours=3 bound=3\n"


def test_verify_failure_prints_witness(tmp_path, capsys):
    graph = write_graph(tmp_path, "c4.el", GenSpec("cycle", (4,)))
    bad = tmp_path / "alt.colouring"
    bad.write_text("4 2\n1 1\n2 2\n3 1\n4 2\n")
    code = main(["verify", "--graph", graph, "--colouring", str(bad),
                 "--criterion", "conflict_free"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("fail witness=1")


def test_verify_negative_palette_exit_2(tmp_path, capsys):
    graph = tmp_path / "empty.el"
    graph.write_text("0 0\n")
    bad = tmp_path / "neg.colouring"
    bad.write_text("0 -5\n")
    code = main(["verify", "--graph", str(graph), "--colouring", str(bad), "--criterion", "proper"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: colouring file: palette must be >= 0, got -5 at line 1\n"


def test_input_errors_name_file_and_line(tmp_path, monkeypatch, capsys):
    graph = write_graph(tmp_path, "p4.el", GenSpec("path", (4,)))
    bad = tmp_path / "bad.colouring"
    bad.write_text("4 3\n# colours\n1 1\n2 two\n3 1\n4 2\n")
    assert main(["verify", "--graph", graph, "--colouring", str(bad), "--criterion", "odd"]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: colouring file: malformed line '2 two' at line 4, expected 'v colour'\n"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("4 3\n1 2\n\n2 3 4\n3 4\n"))
    assert main(["colour", "--graph", "-", "--strategy", "identity"]) == 2
    assert capsys.readouterr().err == (
        "error: <stdin>: edgelist: malformed line '2 3 4' at line 4, expected 'u v'\n"
    )


def test_graph_content_errors_name_file_and_line(tmp_path, capsys):
    graph = tmp_path / "bad.el"
    graph.write_text("3 2\n1 2\n2 5\n")
    assert main(["scol", "--graph", str(graph), "--s", "2", "--strategy", "identity"]) == 2
    assert capsys.readouterr().err == (
        f"error: {graph}: edgelist: edge (2,5): endpoint 5 out of range 1..3 at line 3\n"
    )


def test_exact_variants(tmp_path, capsys):
    graph = write_graph(tmp_path, "c5.el", GenSpec("cycle", (5,)))
    assert main(["exact", "--graph", graph, "--variant", "conflict_free"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert main(["exact", "--graph", graph, "--variant", "proper"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_exact_limit_exceeded_is_input_error(tmp_path, capsys):
    graph = write_graph(tmp_path, "big.el", GenSpec("grid", (3, 4)))
    assert main(["exact", "--graph", graph, "--variant", "proper"]) == 2
    assert "raise limit" in capsys.readouterr().err
    assert main(["exact", "--graph", graph, "--variant", "proper", "--limit", "12"]) == 0


def test_exact_searches_are_iterative_on_long_paths(tmp_path, capsys):
    graph = write_graph(tmp_path, "p1500.el", GenSpec("path", (1500,)))
    assert main(["exact", "--graph", graph, "--variant", "proper", "--limit", "5000"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["scol", "--graph", graph, "--s", "2", "--exact", "--limit", "5000"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_exact_recursion_overflow_is_internal_error(tmp_path, monkeypatch, capsys):
    def too_deep(g, variant, limit):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("cfcolour.cli.exact_chromatic", too_deep)
    graph = write_graph(tmp_path, "p4.el", GenSpec("path", (4,)))
    assert main(["exact", "--graph", graph, "--variant", "proper"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RecursionError")
    assert len(err.splitlines()) == 1


def test_graph_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("4 3\n1 2\n2 3\n3 4\n"))
    assert main(["colour", "--graph", "-", "--strategy", "degeneracy"]) == 0
    assert "colours=" in capsys.readouterr().err


def stdin_twice(monkeypatch, capsys, argv, other):
    # Both inputs on stdin are a usage error, raised before stdin is read.
    stdin = io.StringIO("3 2\n1 2\n2 3\n")
    monkeypatch.setattr("sys.stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: --graph and {other} cannot both read standard input\n")
    assert stdin.tell() == 0


def test_scol_graph_and_order_from_stdin_is_usage_error(monkeypatch, capsys):
    stdin_twice(monkeypatch, capsys, ["scol", "--graph", "-", "--order", "-", "--s", "2"], "--order")


def test_colour_graph_and_order_from_stdin_is_usage_error(monkeypatch, capsys):
    stdin_twice(monkeypatch, capsys, ["colour", "--graph", "-", "--order", "-"], "--order")
    # Writing the colouring to stdout is not a second input.
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n"))
    assert main(["colour", "--graph", "-", "--strategy", "identity", "-o", "-"]) == 0
    assert capsys.readouterr().out == "3 3\n1 1\n2 2\n3 3\n"


def test_verify_graph_and_colouring_from_stdin_is_usage_error(monkeypatch, capsys):
    argv = ["verify", "--graph", "-", "--colouring", "-", "--criterion", "proper"]
    stdin_twice(monkeypatch, capsys, argv, "--colouring")


def test_dimacs_graph_input(tmp_path, capsys):
    graph = write_graph(tmp_path, "k3.col", GenSpec("complete", (3,)), fmt="dimacs")
    assert main(["scol", "--graph", graph, "--format", "dimacs", "--s", "1",
                 "--strategy", "identity"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_bench_csv_and_exit(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("path(4)\ncycle(5)\n")
    out = tmp_path / "records.csv"
    code = main(["bench", "--corpus", str(corpus), "--strategies", "identity,degeneracy",
                 "--exact-up-to", "5", "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("graph_id,family,n,m,strategy,")
    assert len(lines) == 5
    assert lines[1].split(",")[:8] == ["path(4)", "path", "4", "3", "identity", "2", "3", "3"]


@pytest.mark.parametrize("criterion, column", [("proper", 8), ("odd", 9), ("conflict_free", 10)])
def test_bench_exits_1_and_writes_the_csv_when_a_record_fails(tmp_path, monkeypatch, criterion, column):
    # The greedy never fails a criterion, so vertex 2 is reported violating one.
    def violations(g, colours):
        return {**dict.fromkeys(("proper", "odd", "conflict_free")), criterion: 2}

    monkeypatch.setattr(cfcolour.bench, "_violations", violations)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("path(4)\n")
    out = tmp_path / "records.csv"
    assert main(["bench", "--corpus", str(corpus), "--strategies", "identity", "-o", str(out)]) == 1
    header, row = out.read_text().splitlines()
    assert header.split(",")[8:11] == ["proper_ok", "odd_ok", "cf_ok"]
    assert row.split(",")[8:11] == ["false" if i == column else "true" for i in range(8, 11)]


def test_bench_unknown_strategy_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("path(4)\n")
    assert main(["bench", "--corpus", str(corpus), "--strategies", "sideways"]) == 2


def test_bench_missing_graph_file_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("no/such/file.el\n")
    assert main(["bench", "--corpus", str(corpus), "--strategies", "identity"]) == 2
    assert "file.el" in capsys.readouterr().err


def test_closed_stdout_ends_quietly_with_exit_0(tmp_path):
    # As `scol --verbose | head -n 1` does: the reader takes the first line of
    # about 360 KB of output, far more than a pipe buffers, and leaves, so a
    # later write meets a closed pipe.  The command runs in its own process,
    # so the interpreter's exit flush is checked too.
    graph = write_graph(tmp_path, "grid.el", GenSpec("grid", (200, 200)))
    src = str(Path(cfcolour.colouring.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ["scol", "--graph", graph, "--s", "2", "--strategy", "identity", "--verbose"]
    with subprocess.Popen(
        [sys.executable, "-m", "cfcolour", *command], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline() == b"4\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_pipe_gen_into_colour(monkeypatch, capsys):
    text = save_graph(generate(GenSpec("planar3tree", (12,), seed=3)))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["colour", "--graph", "-", "--strategy", "min_backreach"]) == 0
    captured = capsys.readouterr()
    assert load_colouring(captured.out).n == 12


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec("path", (6,)),
        GenSpec("cycle", (6,)),
        GenSpec("complete", (5,)),
        GenSpec("star", (4,)),
        GenSpec("complete_bipartite", (2, 3)),
        GenSpec("grid", (3, 4)),
        GenSpec("gnp", (9, 0.4), seed=2),
        GenSpec("planar3tree", (9,), seed=2),
    ],
    ids=lambda s: s.family,
)
def test_every_family_pipes_through_colour(monkeypatch, capsys, spec):
    monkeypatch.setattr("sys.stdin", io.StringIO(save_graph(generate(spec))))
    assert main(["colour", "--graph", "-", "--strategy", "degeneracy"]) == 0
    assert load_colouring(capsys.readouterr().out).n == generate(spec).n


def test_load_graph_matches_cli_gen(tmp_path):
    out = tmp_path / "g.el"
    main(["gen", "--family", "complete_bipartite", "--params", "2,3", "-o", str(out)])
    g = load_graph(out.read_text())
    assert (g.n, g.m) == (5, 6)
