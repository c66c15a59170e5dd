"""Child process of the benchmark: build a workload's input files, or time its
calls into cfcolour.  run.py starts it with the run directory as the working
directory:

    python3 perfbench/worker.py setup --workload W --seed N [--spans FILE]
    python3 perfbench/worker.py timed --workload W --seed N --seconds S [--spans FILE]

It prints one JSON object on standard output.  With ``--spans`` the calls are
traced and the spans are written to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from check import back_reach
from plan import Plan, build, cell_id
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("bench", "cli", "colouring", "generators", "graph", "reach")


def _grid(side: int) -> list[list[int]]:
    """Adjacency lists of a side x side grid graph; index 0 unused."""
    adj: list[list[int]] = [[] for _ in range(side * side + 1)]
    for v in range(1, side * side + 1):
        for w in (v + 1 if v % side else 0, v + side if v + side <= side * side else 0):
            if w:
                adj[v].append(w)
                adj[w].append(v)
    return adj


class HostSpeed:
    """Times a block of code, and converts the time to reference-host seconds.

    The shared host's speed drifts by up to 2x within seconds, for CPU time as
    much as for wall time.  So while the block runs, a SIGALRM handler times a
    small fixed pure-Python reach computation every INTERVAL_S, with the
    collector off so the block's heap does not count.  ``scaled_s`` is the
    block's wall time less those samples, times REFERENCE_S over their mean.
    The mean, unlike the median, weighs slow spells by how long they last.
    The handler runs in the one thread, between bytecodes of the block.
    """

    INTERVAL_S = 0.05
    # Mean sample time inside the workloads on the reference host (a 2-vCPU
    # Linux VM running CPython 3.11), so that scaled_s reads as seconds there.
    REFERENCE_S = 0.001
    GRID = _grid(20)
    ORDER = list(range(1, len(GRID)))

    def __enter__(self) -> HostSpeed:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        work = self.wall_s - sum(self.samples)
        if not self.samples:  # the block ended before the first tick
            self._sample()
        self.scaled_s = work * self.REFERENCE_S / statistics.fmean(self.samples)

    def _sample(self, *_) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        back_reach(self.GRID, self.ORDER, 2)
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()


def import_cfcolour() -> dict:
    """Import the cfcolour checked out next to the benchmark, never an installed one."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("cfcolour")
    if Path(package.__file__).resolve().parent != SRC / "cfcolour":
        raise ImportError(f"cfcolour imported from {package.__file__}, expected {SRC / 'cfcolour'}")
    return {name: importlib.import_module(f"cfcolour.{name}") for name in MODULES}


def setup(plan: Plan, tracer: Tracer | None) -> dict[str, float]:
    """Import cfcolour, then generate and write the workload's files."""
    with HostSpeed() as speed:
        cf = import_cfcolour()
        if tracer is not None:
            tracer.install()
        generators, graph, reach = cf["generators"], cf["graph"], cf["reach"]
        for inp in plan.inputs:
            g = generators.generate(generators.GenSpec(inp.family, inp.params, inp.seed))
            Path(inp.file).write_text(graph.save_graph(g), encoding="utf-8")
            if plan.workload == "given-order":
                ordering = reach.save_ordering(reach.VertexOrdering.identity(g.n))
                Path(f"{inp.stem}.order").write_text(ordering, encoding="utf-8")
    return {"wall_s": speed.wall_s, "scaled_s": speed.scaled_s}


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _call_cli(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising cell fails; the others still run
            return _error(exc)
    return {"error": None, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def pass_corpus(plan: Plan, cf: dict) -> dict[str, dict]:
    bench = cf["bench"]
    try:
        records = bench.run_corpus([i.file for i in plan.inputs], plan.inputs[0].tasks)
        Path("corpus.csv").write_text(bench.records_to_csv(records), encoding="utf-8")
    except Exception as exc:  # one run_corpus call covers every cell
        return {cell: _error(exc) for cell in plan.cells()}
    return {cell: {"error": None} for cell in plan.cells()}


def pass_given_order(plan: Plan, cf: dict) -> dict[str, dict]:
    out = {}
    for inp in plan.inputs:
        order, colouring = f"{inp.stem}.order", f"{inp.stem}.colouring"
        for task in inp.tasks:
            if task.startswith("scol"):
                argv = ["scol", "--graph", inp.file, "--s", task[4:], "--order", order]
            elif task == "colour":
                argv = ["colour", "--graph", inp.file, "--order", order, "-o", colouring]
            else:
                argv = ["verify", "--graph", inp.file, "--colouring", colouring,
                        "--criterion", "conflict_free"]
            out[cell_id(inp, task)] = _call_cli(cf["cli"], argv)
    return out


def pass_exact(plan: Plan, cf: dict) -> dict[str, dict]:
    graph, reach, colouring = cf["graph"], cf["reach"], cf["colouring"]
    out = {}
    for inp in plan.inputs:
        try:
            g = graph.load_graph(Path(inp.file).read_text(encoding="utf-8"))
        except Exception as exc:
            out.update({cell_id(inp, t): _error(exc) for t in inp.tasks})
            continue
        for task in inp.tasks:
            try:
                if task == "scol2":
                    value, ordering = reach.exact_scol(g, 2, limit=g.n)
                    witness = list(ordering.seq)
                else:
                    value, col = colouring.exact_chromatic(g, task, limit=g.n)
                    witness = list(col.colours)
                out[cell_id(inp, task)] = {"error": None, "value": value, "witness": witness}
            except Exception as exc:
                out[cell_id(inp, task)] = _error(exc)
    return out


PASSES = {"corpus": pass_corpus, "given-order": pass_given_order, "exact": pass_exact}


def _output_files(plan: Plan) -> list[Path]:
    if plan.workload == "corpus":
        return [Path("corpus.csv")]
    if plan.workload == "given-order":
        return [Path(f"{inp.stem}.colouring") for inp in plan.inputs]
    return []


def _attach_files(plan: Plan, records: dict[str, dict]) -> None:
    # Written files are part of a cell's output, so fold them into its record:
    # the cell's CSV row without runtime_ms, or the colouring file's hash.
    if plan.workload == "corpus":
        path = Path("corpus.csv")
        rows = csv.reader(io.StringIO(path.read_text(encoding="utf-8"))) if path.exists() else []
        by_cell = {f"{r[0]}:{r[4]}": r[:-1] for r in rows if len(r) > 4}
        for cell, record in records.items():
            record["row"] = by_cell.get(cell)
    elif plan.workload == "given-order":
        for inp in plan.inputs:
            path = Path(f"{inp.stem}.colouring")
            data = path.read_bytes() if path.exists() else b""
            records[cell_id(inp, "colour")]["file_sha256"] = hashlib.sha256(data).hexdigest()


def _fingerprint(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def time_passes(plan: Plan, seconds: float, tracer: Tracer | None) -> dict:
    """Run whole passes over the workload until ``seconds`` have gone by.

    With a tracer, passes alternate untraced and traced, at least one of each.
    The last pass's outputs stay on disk and in outputs.json for the checker.
    """
    cf = import_cfcolour()
    passes: list[dict] = []
    records: dict[str, dict] = {}
    started = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - started < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        for path in _output_files(plan):
            path.unlink(missing_ok=True)
        gc.collect()
        if traced:
            tracer.current_request = len(passes)
            tracer.install()
        with HostSpeed() as speed:
            records = PASSES[plan.workload](plan, cf)
        if traced:
            tracer.uninstall()
        _attach_files(plan, records)
        passes.append({
            "wall_s": speed.wall_s,
            "scaled_s": speed.scaled_s,
            "traced": traced,
            "ok": {c: r["error"] is None and r.get("code", 0) == 0 for c, r in records.items()},
            "fingerprint": {c: _fingerprint(r) for c, r in records.items()},
        })
    Path("outputs.json").write_text(json.dumps(records, sort_keys=True), encoding="utf-8")
    return {"passes": passes}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace the calls and write spans here")
    args = parser.parse_args()
    plan = build(args.workload, args.seed)
    tracer = Tracer() if args.spans else None
    if args.mode == "setup":
        result = setup(plan, tracer)
    else:
        result = time_passes(plan, args.seconds, tracer)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
