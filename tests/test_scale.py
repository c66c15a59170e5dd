"""Theorem 1 at scale: the greedy colouring along either orderer is proper, odd
and conflict-free within a palette of 2r - 1, and the orderers stay fast."""

import time

import pytest

from cfcolour import (
    GenSpec,
    back_reach_profile,
    degeneracy_order,
    generate,
    greedy_cf_colouring,
    min_backreach_order,
    verify_colouring,
)

# The heap orderers take well under a second on both graphs together; the
# quadratic scans they replaced needed tens of seconds.  The bound leaves
# room for a slow host without letting an O(n^2) regression through.
ORDERER_BOUND_S = 10.0


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
    for name, ordering in orderings.items():
        col = greedy_cf_colouring(g, ordering)
        r = back_reach_profile(g, ordering, 2).max
        assert col.palette == 2 * r - 1, name
        assert col.used <= col.palette, name
        for criterion in ("proper", "odd", "conflict_free"):
            verdict = verify_colouring(g, col, criterion)
            assert verdict.ok, (name, criterion, verdict.witness, verdict.detail)
