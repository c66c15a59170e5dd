"""cfcolour benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a cfcolour checkout; it times the package under ./src.
Every call into cfcolour happens in a fresh child process (perfbench/worker.py),
one thread, one call at a time.  The inputs are generated from --seed in a
scratch directory under .perfbench/, set up several times to time set-up, then
timed in whole passes for --seconds.  The checker in check.py then re-reads
the outputs.  The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s, setup_s (both in reference-host seconds,
see worker.HostSpeed) and peak_rss_mb.  With --trace 1 they are the
per-function span totals listed in BENCHMARK.json, and the spans are written to
.perfbench/<workload>.{setup,timed}.spans.tsv.  The lines before it give the run
context, fail_ratio and the output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from plan import WORKLOADS, Plan, build
from tracing import SPAN_NAMES

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 3
# Each run must end within 180 s; leave room for the checker and clean-up.
CHILD_DEADLINE_S = 150.0


def run_worker(args: list[str], cwd: Path, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tally(plan: Plan, passes: list[dict], faults: dict[str, str]) -> tuple[int, int]:
    """(attempted, failed) cells over all passes.  A cell fails in a pass when it
    raised or exited non-zero, when its output differs from the last pass's, or
    when the checker rejects the last pass's output."""
    cells = plan.cells()
    last = passes[-1]["fingerprint"]
    failed = sum(
        1
        for p in passes
        for c in cells
        if not p["ok"].get(c) or p["fingerprint"].get(c) != last.get(c) or c in faults
    )
    return len(cells) * len(passes), failed


def per_layer(plan: Plan, setup_trace: dict, timed: dict) -> dict[str, dict]:
    """Span totals of one traced set-up plus the mean over the traced passes."""
    traced = [p["scaled_s"] for p in timed["passes"] if p["traced"]]
    untraced = [p["scaled_s"] for p in timed["passes"] if not p["traced"]]
    metrics = {}
    for name in SPAN_NAMES:
        s, t = setup_trace[name], timed["trace"][name]
        calls, total_s, self_s = (s[i] + t[i] / len(traced) for i in range(3))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.total_s"] = {"value": total_s, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    reach_calls = timed["trace"]["reach.reach_set"][0] / len(traced)
    metrics["reach.reach_set.calls_per_vertex"] = {
        "value": reach_calls / plan.vertex_count, "unit": "calls/vertex"}
    metrics["trace.overhead"] = {
        "value": statistics.median(traced) / statistics.median(untraced), "unit": "ratio"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one cfcolour benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cfcolour" / "__init__.py").is_file():
        print(f"error: no cfcolour source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_DEADLINE_S
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    plan = build(args.workload, args.seed)
    scratch = ROOT / ".perfbench"
    run_dir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        def worker_args(mode: str) -> list[str]:
            spans = [f"--spans={scratch / args.workload}.{mode}.spans.tsv"] if args.trace else []
            return [mode, "--workload", args.workload, "--seed", str(args.seed), *spans]

        # A traced run reports no set-up time, so one traced set-up will do.
        setups = [run_worker(worker_args("setup"), run_dir, deadline)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        timed = run_worker([*worker_args("timed"), "--seconds", str(args.seconds)], run_dir, deadline)
        faults = check.check(plan, run_dir)
        out_digest = check.digest(plan, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    context["loadavg_end"] = os.getloadavg()

    attempted, failed = tally(plan, timed["passes"], faults)
    for cell, reason in sorted(faults.items()):
        print(f"fault {cell}: {reason}", file=sys.stderr)
    untraced = [p for p in timed["passes"] if not p["traced"]]
    context["passes"] = len(timed["passes"])
    print("context " + json.dumps(context))
    print(f"fail_ratio {failed / attempted} failed/attempted ({failed} of {attempted} cells)")
    print(f"digest sha256:{out_digest}")
    if args.trace:
        metrics = per_layer(plan, setups[0]["trace"], timed)
        print(f"trace_overhead {metrics['trace.overhead']['value']:.3f} ratio (traced / untraced wall_s)")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["scaled_s"] for p in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(s["scaled_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
        raw_wall = statistics.median(p["wall_s"] for p in untraced)
        raw_setup = statistics.median(s["wall_s"] for s in setups)
        print(f"unscaled wall_s {raw_wall} s, setup_s {raw_setup} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
