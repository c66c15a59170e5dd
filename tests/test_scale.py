"""Theorem 1 at scale: the greedy colouring along either orderer and a random
ordering is proper, odd and conflict-free within a palette of 2r - 1, and the
orderers and the exact oracles stay fast."""

import random
import time

import pytest

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
from cfcolour.generators import TABLE

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
    edges = TABLE["planar3tree"].edges(200000, random.Random(1))
    elapsed = time.perf_counter() - started
    assert len(edges) == 3 * 200000 - 6
    assert elapsed < PLANAR3TREE_BOUND_S, f"planar3tree(200000) edges took {elapsed:.1f}s"
