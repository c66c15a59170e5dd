"""Spans around cfcolour's public functions, installed from outside the package.

The tracer replaces every module attribute through which cfcolour's modules
reach a traced function (``cfcolour.bench.make_ordering``,
``cfcolour.colouring.reach_set``, ``cfcolour.cli.load_graph``, ...) with a
timing wrapper, so calls between modules are recorded without touching the
package's source.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

TRACED = {
    "generators": ("generate",),
    "graph": ("load_graph", "save_graph"),
    "reach": (
        "make_ordering",
        "degeneracy_order",
        "min_backreach_order",
        "back_reach_profile",
        "reach_set",
        "exact_scol",
        "load_ordering",
        "save_ordering",
    ),
    "colouring": (
        "greedy_cf_colouring",
        "verify_colouring",
        "exact_chromatic",
        "load_colouring",
        "save_colouring",
    ),
    "bench": ("run_corpus", "records_to_csv"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records (request, name, start, end, parent) for each traced call."""

    def __init__(self) -> None:
        self.request = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current_request = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.request.append(self.current_request)
            self.name.append(name_id)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced function that exists; a missing one records no calls."""
        modules = [importlib.import_module("cfcolour")]
        modules += [importlib.import_module(f"cfcolour.{mod}") for mod in TRACED]
        for name_id, full in enumerate(SPAN_NAMES):
            mod, fn = full.split(".")
            original = getattr(sys.modules[f"cfcolour.{mod}"], fn, None)
            if original is None:
                continue
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, list[float]]:
        """Per span name: [calls, total_s, self_s].  Self time is a span's
        duration minus the durations of the spans directly nested in it."""
        count = len(self.start)
        covered = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i in range(count):
            row = out[SPAN_NAMES[self.name[i]]]
            duration = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\trequest\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.request[i]}\t{SPAN_NAMES[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
