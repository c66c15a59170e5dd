"""Theorem 1 at scale: the greedy colouring along either orderer and a random
ordering is proper, odd and conflict-free within a palette of 2r - 1, and the
orderers and the exact oracles stay fast."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cfcolour
from cfcolour import (
    GenSpec,
    back_reach_profile,
    degeneracy_order,
    exact_chromatic,
    exact_scol,
    generate,
    greedy_cf_colouring,
    make_ordering,
    min_backreach_order,
    verify_colouring,
)

# The heap orderers take well under a second on both graphs together; the
# quadratic scans they replaced needed tens of seconds.  The bound leaves
# room for a slow host without letting an O(n^2) regression through.
ORDERER_BOUND_S = 10.0

# The pruning exact oracles take at most about 25 ms per call below and well
# under 0.1 s in all.  Checking the odd and conflict-free conditions only at
# full colourings took 0.7 to 0.8 s per cycle(14) call, and the unbounded DP
# over right-sets up to 1.3 s per planar3tree(17) call: the per-call bound
# catches either on its own, which the total bound alone would not.
EXACT_BOUND_S = 2.0
EXACT_CALL_BOUND_S = 0.25

# planar3tree's edges at n = 2*10^5 took 1.0-1.1 s on a 2-vCPU VM with the
# chunked Fenwick tree, and 5.6-6.1 s with the quadratic list pops it replaced.
# generate builds the sorted adjacency with no edge list; the whole call took
# 0.82-0.91 s there (0.98-1.18 s through the edge list and build_graph).
PLANAR3TREE_BOUND_S = 3.0


@pytest.mark.parametrize(
    "spec",
    [GenSpec("planar3tree", (20000,), seed=1), GenSpec("grid", (100, 100))],
    ids=["planar3tree(20000)", "grid(100,100)"],
)
def test_theorem1_contract_at_scale(spec):
    g = generate(spec)
    started = time.perf_counter()
    orderings = {"degeneracy": degeneracy_order(g)[0], "min_backreach": min_backreach_order(g)}
    elapsed = time.perf_counter() - started
    assert elapsed < ORDERER_BOUND_S, f"orderers took {elapsed:.1f}s on n={g.n}"
    # A random ordering keeps hubs early, which gives the greedy its longest
    # kept lists: a palette of 2207 on planar3tree(20000).
    orderings["random(1)"] = make_ordering(g, "random(1)")
    for name, ordering in orderings.items():
        col = greedy_cf_colouring(g, ordering)
        r = max(back_reach_profile(g, ordering, 2))
        assert col.palette == 2 * r - 1, name
        assert col.used <= col.palette, name
        for criterion in ("proper", "odd", "conflict_free"):
            verdict = verify_colouring(g, col, criterion)
            assert verdict.ok, (name, criterion, verdict.witness, verdict.detail)


def test_exact_oracles_prune_during_the_search():
    cycle = generate(GenSpec("cycle", (14,)))
    calls = [(f"{variant} cycle(14)", lambda v=variant: exact_chromatic(cycle, v, limit=14)[0])
             for variant in ("odd", "conflict_free")]
    for s in range(3):
        for family, params in (("planar3tree", (17,)), ("gnp", (20, 0.2))):
            g = generate(GenSpec(family, params, s))
            calls.append((f"scol2 {family}{params} seed {s}", lambda g=g: exact_scol(g, 2, limit=g.n)[0]))
    values, seconds = {}, {}
    for label, call in calls:
        started = time.perf_counter()
        values[label] = call()
        seconds[label] = time.perf_counter() - started
    assert sum(seconds.values()) < EXACT_BOUND_S, seconds
    assert max(seconds.values()) < EXACT_CALL_BOUND_S, seconds
    assert list(values.values()) == [4, 4, 4, 4, 4, 5, 4, 5]


def test_planar3tree_generation_is_near_linear():
    started = time.perf_counter()
    g = generate(GenSpec("planar3tree", (200000,), seed=1))
    elapsed = time.perf_counter() - started
    assert g.m == 3 * 200000 - 6
    assert elapsed < PLANAR3TREE_BOUND_S, f"planar3tree(200000) took {elapsed:.1f}s"


# The opt-in runs at the vertex bound, each in a child process so that its
# ru_maxrss is the run's alone.  Theorem 1 on grid(1000, 1000): on a 2-vCPU VM
# the child took 14-19 s and peaked at 291-299 MB on Python 3.10-3.13, when the
# generated graph and its text set the peak.  With the graph generated as
# sorted adjacency, min_backreach_order sets it: 259 MB on Python 3.11.  With
# the writers' line lists and a reader of the whole text at once it peaked at
# 368 MB.
SCALE_OPT_IN = "CFCOLOUR_SCALE_TEST"
SCALE_BOUND_S = 120.0
SCALE_BOUND_MB = 360

SCALE_CHILD = """
import json, resource, sys
from cfcolour import (GenSpec, back_reach_profile, generate, greedy_cf_colouring, load_graph,
                      min_backreach_order, save_graph, verify_colouring)
text = save_graph(generate(GenSpec("grid", (1000, 1000))))
g = load_graph(text)
del text
ordering = min_backreach_order(g)
r = max(back_reach_profile(g, ordering, 2))
col = greedy_cf_colouring(g, ordering)
verdicts = {c: verify_colouring(g, col, c).ok for c in ("proper", "odd", "conflict_free")}
json.dump({"n": g.n, "r": r, "used": col.used, "palette": col.palette, "verdicts": verdicts,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, sys.stdout)
"""

# Generating planar3tree(10^6, seed=1) alone took the child 5.4-7.7 s and
# 245-262 MB on Python 3.11 on the same VM.  Through an edge list, one tuple
# per edge, and build_graph's sort it took 7.1-8.1 s and 484 MB.
PLANAR3TREE_SCALE_BOUND_S = 60.0
PLANAR3TREE_SCALE_BOUND_MB = 300

PLANAR3TREE_SCALE_CHILD = """
import json, resource, sys
from cfcolour import GenSpec, generate
g = generate(GenSpec("planar3tree", (10**6,), seed=1))
json.dump({"n": g.n, "m": g.m, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, sys.stdout)
"""

# A DIMACS file of planar3tree(10^6, seed=1), written by one child and loaded by
# another: the loaded graph holds one int per vertex, as a written edgelist's
# does.  When only chunks in the written edgelist shape were mapped to shared
# ints, the load peaked at 416 MB with 5,905,386 distinct ints (Python 3.11).
DIMACS_SCALE_BOUND_S = 60.0
DIMACS_SCALE_BOUND_MB = 300

DIMACS_WRITE_CHILD = """
import sys
from cfcolour import GenSpec, generate, save_graph
with open(sys.argv[1], "w") as f:
    print(f.write(save_graph(generate(GenSpec("planar3tree", (10**6,), seed=1)), "dimacs")))
"""

DIMACS_LOAD_CHILD = """
import json, resource, sys
from itertools import chain
from cfcolour import load_graph
with open(sys.argv[1]) as f:
    g = load_graph(f.read(), "dimacs")
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ints = len(set(map(id, chain.from_iterable(g.adjacency))))
json.dump({"n": g.n, "m": g.m, "ints": ints, "maxrss_kb": maxrss_kb}, sys.stdout)
"""

opt_in = pytest.mark.skipif(os.environ.get(SCALE_OPT_IN) != "1", reason=f"opt-in: set {SCALE_OPT_IN}=1")


def run_child(code, bound_s, *args):
    """The JSON the child prints, run with ``args``, and the seconds it took."""
    src = str(Path(cfcolour.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    started = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
                           timeout=2 * bound_s, check=True)
    return json.loads(child.stdout), time.perf_counter() - started


@opt_in
def test_theorem1_at_the_vertex_bound_in_bounded_memory():
    # grid(1000, 1000) is generated, written and read back; then min_backreach and the greedy.
    got, elapsed = run_child(SCALE_CHILD, SCALE_BOUND_S)
    assert got["n"] == 10**6
    assert got["verdicts"] == {"proper": True, "odd": True, "conflict_free": True}
    assert got["palette"] == 2 * got["r"] - 1
    assert got["used"] <= 2 * got["r"] - 1
    assert elapsed < SCALE_BOUND_S, f"the child took {elapsed:.0f}s"
    # ru_maxrss is in KiB on Linux.
    assert got["maxrss_kb"] < SCALE_BOUND_MB * 1024, got["maxrss_kb"] / 1024


@opt_in
def test_planar3tree_generation_at_the_vertex_bound_in_bounded_memory():
    got, elapsed = run_child(PLANAR3TREE_SCALE_CHILD, PLANAR3TREE_SCALE_BOUND_S)
    assert (got["n"], got["m"]) == (10**6, 3 * 10**6 - 6)
    assert elapsed < PLANAR3TREE_SCALE_BOUND_S, f"the child took {elapsed:.0f}s"
    # ru_maxrss is in KiB on Linux.
    assert got["maxrss_kb"] < PLANAR3TREE_SCALE_BOUND_MB * 1024, got["maxrss_kb"] / 1024


@opt_in
def test_dimacs_load_at_the_vertex_bound_in_bounded_memory(tmp_path):
    path = tmp_path / "planar3tree.dimacs"
    run_child(DIMACS_WRITE_CHILD, DIMACS_SCALE_BOUND_S, str(path))
    got, elapsed = run_child(DIMACS_LOAD_CHILD, DIMACS_SCALE_BOUND_S, str(path))
    assert (got["n"], got["m"], got["ints"]) == (10**6, 3 * 10**6 - 6, 10**6)
    assert elapsed < DIMACS_SCALE_BOUND_S, f"the child took {elapsed:.0f}s"
    # ru_maxrss is in KiB on Linux.
    assert got["maxrss_kb"] < DIMACS_SCALE_BOUND_MB * 1024, got["maxrss_kb"] / 1024
