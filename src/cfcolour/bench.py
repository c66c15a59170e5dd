"""Corpus runner: greedy colouring vs. the guaranteed bounds, as CSV records."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Iterable, Sequence

from .colouring import _violations, exact_chromatic, greedy_cf_colouring
from .generators import GenSpec, generate, parse_genspec
from .graph import DataLines, Graph, load_graph
from .reach import make_ordering

BOUND_KINDS = ("scol2", "kplanar", "minor")


def bound(kind: str, x: int) -> int:
    """Palette-size guarantees: by back-reach at radius 2, by crossings per
    edge for k-planar graphs, and by excluded-clique-minor order."""
    if kind == "scol2":
        if x < 1:
            raise ValueError(f"scol2 bound needs x >= 1, got {x}")
        return 2 * x - 1
    if kind == "kplanar":
        if x < 0:
            raise ValueError(f"kplanar bound needs x >= 0, got {x}")
        return 60 * x + 59
    if kind == "minor":
        if x < 2:
            raise ValueError(f"minor bound needs x >= 2, got {x}")
        return 5 * (x - 1) * (x - 2) - 1
    raise ValueError(f"unknown bound kind {kind!r}, expected one of {BOUND_KINDS}")


@dataclass(frozen=True)
class BenchRecord:
    """One corpus observation: colours used by the greedy against its bound."""

    graph_id: str
    family: str
    n: int
    m: int
    strategy: str
    r2: int
    colours_used: int
    bound_thm1: int
    proper_ok: bool
    odd_ok: bool
    cf_ok: bool
    exact_cf: int | None
    runtime_ms: float

    def csv_row(self) -> list[str]:
        return [_cell(getattr(self, f.name)) for f in fields(self)]


def _cell(value: object) -> str:
    # Booleans as true/false, None as empty, floats (runtime_ms) to 3 places.
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.3f}"
    return "" if value is None else str(value)


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _resolve(item: GenSpec | str | Path) -> tuple[str, str, Graph]:
    """Return (graph_id, family, graph) for a generator spec or a file path."""
    if isinstance(item, GenSpec):
        return item.graph_id, item.family, generate(item)
    path = Path(item)
    fmt = "dimacs" if path.suffix == ".col" else "edgelist"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return str(item), "file", load_graph(fh, fmt)
    except (OSError, ValueError) as err:
        raise ValueError(f"{item}: {err}") from err


def run_corpus(
    items: Iterable[GenSpec | str | Path],
    strategies: Sequence[str],
    exact_up_to: int = 0,
) -> list[BenchRecord]:
    """Colour every (graph, strategy) cell and record the outcome.

    Records come out in (graph, strategy) input order.  Validation failures
    are recorded, not raised; callers decide how loudly to fail.
    """
    if not strategies:
        raise ValueError("at least one ordering strategy is required")
    records = []
    for item in items:
        graph_id, family, g = _resolve(item)
        exact_cf = None
        if 0 < g.n <= exact_up_to:
            exact_cf = exact_chromatic(g, "conflict_free", limit=exact_up_to)[0]
        for strategy in strategies:
            start = time.perf_counter()
            ordering = make_ordering(g, strategy)
            col = greedy_cf_colouring(g, ordering)
            r2 = (col.palette + 1) // 2  # the palette is max(1, 2 * r2 - 1)
            first = _violations(g, col.colours)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            records.append(
                BenchRecord(
                    graph_id=graph_id,
                    family=family,
                    n=g.n,
                    m=g.m,
                    strategy=strategy,
                    r2=r2,
                    colours_used=col.used,
                    bound_thm1=bound("scol2", r2) if r2 >= 1 else 1,
                    proper_ok=first["proper"] is None,
                    odd_ok=first["odd"] is None,
                    cf_ok=first["conflict_free"] is None,
                    exact_cf=exact_cf,
                    runtime_ms=elapsed_ms,
                )
            )
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def load_corpus(source: str | bytes | IO) -> list[GenSpec | str]:
    """Read a corpus file: one generator spec (``family(args)``) or graph file
    path per line; '#' lines are comments."""
    lines = DataLines("corpus", source)
    items: list[GenSpec | str] = []
    for i, ln in enumerate(lines.rows):
        if "(" in ln and ln.endswith(")"):
            try:
                items.append(parse_genspec(ln))
            except ValueError as err:
                raise lines.error(i, str(err)) from None
        else:
            items.append(ln)
    return items
