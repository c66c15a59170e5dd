"""Output checker and output digest for one run, independent of cfcolour.

Nothing here imports cfcolour: graphs, orderings and colourings are re-read
from the run directory with this module's own parsers, and reach sets and the
colouring criteria are recomputed with this module's own code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

from plan import Plan, cell_id


def read_graph(path: Path) -> list[list[int]]:
    """Adjacency lists of an edgelist file ("n m" header, then "u v" lines); index 0 unused."""
    rows = [ln.split() for ln in path.read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.startswith("#")]
    adj: list[list[int]] = [[] for _ in range(int(rows[0][0]) + 1)]
    for u, v in rows[1:]:
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    return adj


def read_colouring(path: Path, n: int) -> list[int] | None:
    """Colours indexed by vertex (index 0 unused), or None unless every vertex
    of 1..n is listed exactly once."""
    rows = [ln.split() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not rows or int(rows[0][0]) != n or len(rows) != n + 1:
        return None
    colours = [0] * (n + 1)
    for v, c in rows[1:]:
        if not 1 <= int(v) <= n or colours[int(v)]:
            return None
        colours[int(v)] = int(c)
    return colours


def back_reach(adj: list[list[int]], seq: list[int], radius: int) -> int:
    """Largest reach set along the ordering ``seq``: from each v, a BFS of depth
    ``radius`` that expands only vertices placed after v and counts the others."""
    pos = [0] * len(adj)
    for i, v in enumerate(seq, start=1):
        pos[v] = i
    best = 0
    for v in range(1, len(adj)):
        pv, seen, frontier, size = pos[v], {v}, [v], 1
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        if pos[w] <= pv:
                            size += 1
                        else:
                            nxt.append(w)
            frontier = nxt
        best = max(best, size)
    return best


def broken_criteria(adj: list[list[int]], colours: list[int]) -> set[str]:
    """Which of proper, odd and conflict_free the colouring violates."""
    broken = set()
    for v in range(1, len(adj)):
        if not adj[v]:
            continue
        counts = Counter(colours[w] for w in adj[v])
        if colours[v] in counts:
            broken.add("proper")
        if all(k % 2 == 0 for k in counts.values()):
            broken.add("odd")
        if 1 not in counts.values():
            broken.add("conflict_free")
    return broken


def _reach_size(adj: list[list[int]], v: int, right: int, radius: int) -> int:
    # Reach-set size of v when the bitmask ``right`` holds exactly the vertices after v.
    seen, frontier, size = {v}, [v], 1
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    if right >> w & 1:
                        nxt.append(w)
                    else:
                        size += 1
        frontier = nxt
    return size


def ordering_within(adj: list[list[int]], radius: int, bound: int) -> bool:
    """Whether some ordering has back-reach at most ``bound``.

    Fixes the order right to left, never placing a vertex whose reach set
    (settled once the vertices to its right are fixed) exceeds the bound, and
    remembers the right-sets that cannot be completed.
    """
    full = (1 << len(adj)) - 1  # bit v is vertex v; bit 0 is always set
    dead: set[int] = set()

    def extend(right: int) -> bool:
        if right == full:
            return True
        if right in dead:
            return False
        for v in range(1, len(adj)):
            if not right >> v & 1 and _reach_size(adj, v, right, radius) <= bound \
                    and extend(right | 1 << v):
                return True
        dead.add(right)
        return False

    return extend(1)


def colouring_within(adj: list[list[int]], criterion: str, palette: int) -> bool:
    """Whether a proper colouring with at most ``palette`` colours satisfies
    ``criterion`` ("odd" or "conflict_free").

    Backtracks over vertices in id order, taking new colours in order of first
    use, and checks a vertex's neighbourhood as soon as its last neighbour has
    a colour.
    """
    n = len(adj) - 1
    settles: list[list[int]] = [[] for _ in range(n + 1)]
    for w in range(1, n + 1):
        if adj[w]:
            settles[max(adj[w])].append(w)
    colour = [0] * (n + 1)

    def satisfied(w: int) -> bool:
        counts = Counter(colour[x] for x in adj[w]).values()
        return any(k % 2 for k in counts) if criterion == "odd" else 1 in counts

    def place(v: int, used: int) -> bool:
        if v > n:
            return True
        for c in range(1, min(used + 1, palette) + 1):
            if any(colour[w] == c for w in adj[v] if w < v):
                continue
            colour[v] = c
            if all(satisfied(w) for w in settles[v]) and place(v + 1, max(used, c)):
                return True
        colour[v] = 0
        return False

    return place(1, 0)


def _first_int(text: str) -> int | None:
    words = text.split()
    return int(words[0]) if words and words[0].isdigit() else None


def _check_corpus(plan: Plan, run_dir: Path, faults: dict[str, str]) -> None:
    path = run_dir / "corpus.csv"
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))) if path.exists() else []
    by_cell = {f"{r['graph_id']}:{r['strategy']}": r for r in rows}
    for inp in plan.inputs:
        for task in inp.tasks:
            cell, row = cell_id(inp, task), by_cell.get(cell_id(inp, task))
            if row is None:
                faults[cell] = "no CSV record"
            elif int(row["n"]) != inp.n:
                faults[cell] = f"n={row['n']}, expected {inp.n}"
            elif not all(row[k] == "true" for k in ("proper_ok", "odd_ok", "cf_ok")):
                faults[cell] = "a validity flag is false"
            elif int(row["colours_used"]) > int(row["bound_thm1"]):
                faults[cell] = f"colours_used {row['colours_used']} > bound_thm1 {row['bound_thm1']}"


def _check_given_order(plan: Plan, run_dir: Path, outputs: dict, faults: dict[str, str]) -> None:
    for inp in plan.inputs:
        adj = read_graph(run_dir / inp.file)
        seq = [int(x) for x in (run_dir / f"{inp.stem}.order").read_text(encoding="utf-8").split()]
        r2 = back_reach(adj, seq, 2)
        path = run_dir / f"{inp.stem}.colouring"
        colours = read_colouring(path, len(adj) - 1) if path.exists() else None
        broken = broken_criteria(adj, colours) if colours else {"unreadable"}
        for task in inp.tasks:
            cell = cell_id(inp, task)
            out = outputs.get(cell, {"error": "no output"})
            if out["error"] is not None or out["code"] != 0:
                faults[cell] = out["error"] or f"exit code {out['code']}"
            elif task.startswith("scol"):
                reported = _first_int(out["stdout"])
                own = r2 if task == "scol2" else back_reach(adj, seq, int(task[4:]))
                if reported != own:
                    faults[cell] = f"printed back-reach {reported}, recomputed {own}"
            elif task == "colour":
                reported = _first_int(outputs.get(cell_id(inp, "scol2"), {}).get("stdout", ""))
                used = len(set(colours[1:])) if colours else 0
                if broken:
                    faults[cell] = f"colouring breaks {sorted(broken)}"
                elif reported != r2 or used > 2 * r2 - 1:
                    faults[cell] = f"{used} colours, r2 printed {reported}, recomputed {r2}"
            elif out["stdout"].strip() != "ok" or "conflict_free" in broken or "unreadable" in broken:
                faults[cell] = f"verify printed {out['stdout'].strip()!r}, colouring breaks {sorted(broken)}"


def _check_exact(plan: Plan, run_dir: Path, outputs: dict, faults: dict[str, str]) -> None:
    for inp in plan.inputs:
        adj = read_graph(run_dir / inp.file)
        n = len(adj) - 1
        values = {}
        for task in inp.tasks:
            cell = cell_id(inp, task)
            out = outputs.get(cell, {"error": "no output"})
            if out["error"] is not None:
                faults[cell] = out["error"]
                continue
            value, witness = out["value"], out["witness"]
            if task == "scol2":
                if sorted(witness) != list(range(1, n + 1)):
                    faults[cell] = "witness is not an ordering of the vertices"
                elif back_reach(adj, witness, 2) != value:
                    faults[cell] = f"witness back-reach {back_reach(adj, witness, 2)} != value {value}"
                elif ordering_within(adj, 2, value - 1):
                    faults[cell] = f"an ordering with back-reach below {value} exists"
                continue
            colours = [0] + witness
            broken = broken_criteria(adj, colours) & {"proper", task}
            if len(witness) != n or broken or len(set(witness)) != value:
                faults[cell] = f"witness uses {len(set(witness))} colours for value {value}, breaks {sorted(broken)}"
            elif colouring_within(adj, task, value - 1):
                faults[cell] = f"a {task} colouring with fewer than {value} colours exists"
            else:
                values[task] = value
        if values.get("odd", 0) > values.get("conflict_free", n):
            for task in ("odd", "conflict_free"):
                faults[cell_id(inp, task)] = f"chi_odd {values['odd']} > chi_cf {values['conflict_free']}"


def check(plan: Plan, run_dir: Path) -> dict[str, str]:
    """Cells whose final output is wrong, each with the reason."""
    faults: dict[str, str] = {}
    if plan.workload == "corpus":
        _check_corpus(plan, run_dir, faults)
        return faults
    path = run_dir / "outputs.json"
    outputs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if plan.workload == "given-order":
        _check_given_order(plan, run_dir, outputs, faults)
    else:
        _check_exact(plan, run_dir, outputs, faults)
    return faults


def digest(plan: Plan, run_dir: Path) -> str:
    """sha256 over the outputs that must not change for a given seed: the corpus
    CSV without runtime_ms, the given-order colourings and scol outputs, and
    the exact values (not the witnesses, which need not be unique)."""
    h = hashlib.sha256()
    if plan.workload == "corpus":
        for row in csv.reader(io.StringIO((run_dir / "corpus.csv").read_text(encoding="utf-8"))):
            h.update((",".join(row[:-1]) + "\n").encode())
        return h.hexdigest()
    outputs = json.loads((run_dir / "outputs.json").read_text(encoding="utf-8"))
    for inp in plan.inputs:
        for task in inp.tasks:
            out = outputs[cell_id(inp, task)]
            if plan.workload == "exact":
                part = str(out.get("value"))
            elif task.startswith("scol"):
                part = out.get("stdout", "")
            elif task == "colour":
                path = run_dir / f"{inp.stem}.colouring"
                part = path.read_text(encoding="utf-8") if path.exists() else ""
            else:
                continue
            h.update(f"{cell_id(inp, task)}\n{part}\n".encode())
    return h.hexdigest()
