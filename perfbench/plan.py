"""What each workload generates and calls, derived from the workload seed.

This module imports nothing from cfcolour: the worker uses it to build and
run the inputs, and the checker uses it to know which cells to expect.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("corpus", "given-order", "exact")

# Exact-search time on one planar3tree(17) or gnp(20,0.2) graph varies 5x to 30x
# with the graph's seed, far more than host noise, so exact_scol runs on a fixed
# panel of seeds; the workload seed varies gnp(12,0.3).
EXACT_SCOL_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Input:
    """One generated graph file and the tasks the workload runs on it.

    A cell is one (file, task) pair; it is the unit that can fail.
    """

    file: str
    family: str
    params: tuple[int | float, ...]
    seed: int
    tasks: tuple[str, ...]

    @property
    def n(self) -> int:
        if self.family == "grid":
            return int(self.params[0]) * int(self.params[1])
        return int(self.params[0])

    @property
    def stem(self) -> str:
        return self.file.removesuffix(".txt")


@dataclass(frozen=True)
class Plan:
    workload: str
    inputs: tuple[Input, ...]

    def cells(self) -> list[str]:
        return [cell_id(i, t) for i in self.inputs for t in i.tasks]

    @property
    def vertex_count(self) -> int:
        """Sum of n over the (graph, ordering) pairs the workload profiles or
        colours; over the graphs alone where it builds no ordering."""
        if self.workload == "corpus":
            return sum(i.n * len(i.tasks) for i in self.inputs)
        return sum(i.n for i in self.inputs)


def cell_id(inp: Input, task: str) -> str:
    return f"{inp.file}:{task}"


def build(workload: str, seed: int) -> Plan:
    if workload == "corpus":
        strategies = ("degeneracy", "min_backreach", f"random({seed})")
        inputs = (
            Input("grid-50x60.txt", "grid", (50, 60), 0, strategies),
            Input("planar3tree-3000.txt", "planar3tree", (3000,), seed, strategies),
            Input("gnp-3000.txt", "gnp", (3000, 3 / 3000), seed, strategies),
        )
    elif workload == "given-order":
        inputs = (
            Input("grid-250x400.txt", "grid", (250, 400), 0, ("scol2", "scol3", "colour", "verify")),
            Input("planar3tree-100000.txt", "planar3tree", (100000,), seed, ("scol2", "colour", "verify")),
        )
    elif workload == "exact":
        variants = ("odd", "conflict_free")
        inputs = (
            Input("cycle-14.txt", "cycle", (14,), 0, variants),
            Input("grid-3x5.txt", "grid", (3, 5), 0, variants),
            Input("gnp-12.txt", "gnp", (12, 0.3), seed, variants),
        )
        for s in EXACT_SCOL_SEEDS:
            inputs += (
                Input(f"planar3tree-17-seed{s}.txt", "planar3tree", (17,), s, ("scol2",)),
                Input(f"gnp-20-seed{s}.txt", "gnp", (20, 0.2), s, ("scol2",)),
            )
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return Plan(workload, inputs)
