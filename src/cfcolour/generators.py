"""Deterministic graph generators supplying the test corpus."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, build_graph, too_many_vertices

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "star",
    "complete_bipartite",
    "grid",
    "gnp",
    "planar3tree",
)

RANDOM_FAMILIES = ("gnp", "planar3tree")


@dataclass(frozen=True)
class GenSpec:
    """A generator request: family name, family-specific params, RNG seed.

    The seed only matters for the randomized families (gnp, planar3tree);
    given equal (family, params, seed) the generated graph is identical.
    """

    family: str
    params: tuple[int | float, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        _validate_params(self.family, self.params)

    @property
    def graph_id(self) -> str:
        args = ",".join(_fmt_num(p) for p in self.params)
        if self.family in RANDOM_FAMILIES:
            args += f",seed={self.seed}"
        return f"{self.family}({args})"


def _fmt_num(x: int | float) -> str:
    return str(int(x)) if isinstance(x, int) or x == int(x) else repr(x)


def _ints(params: tuple[int | float, ...]) -> list[int]:
    out = []
    for p in params:
        if isinstance(p, float) and not p.is_integer():  # inf and nan included
            raise ValueError(f"expected integer parameter, got {p}")
        out.append(int(p))
    return out


def _validate_params(family: str, params: tuple[int | float, ...]) -> None:
    def need(count: int, names: str) -> None:
        if len(params) != count:
            raise ValueError(f"{family} takes {count} parameter(s) ({names}), got {len(params)}")

    if family == "path":
        need(1, "n")
        (n,) = _ints(params)
        if n < 1:
            raise ValueError("path requires n >= 1")
    elif family == "cycle":
        need(1, "n")
        (n,) = _ints(params)
        if n < 3:
            raise ValueError("cycle requires n >= 3")
    elif family == "complete":
        need(1, "n")
        (n,) = _ints(params)
        if n < 1:
            raise ValueError("complete requires n >= 1")
    elif family == "star":
        need(1, "leaves")
        n = _ints(params)[0] + 1
        if n < 1:
            raise ValueError("star requires leaves >= 0")
    elif family == "complete_bipartite":
        need(2, "a, b")
        a, b = _ints(params)
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite requires a >= 1 and b >= 1")
        n = a + b
    elif family == "grid":
        need(2, "rows, cols")
        r, c = _ints(params)
        if r < 1 or c < 1:
            raise ValueError("grid requires rows >= 1 and cols >= 1")
        n = r * c
    elif family == "gnp":
        need(2, "n, p")
        if isinstance(params[0], float) and not params[0].is_integer():
            raise ValueError("gnp requires integer n")
        n = int(params[0])
        if n < 0:
            raise ValueError("gnp requires n >= 0")
        p = float(params[1])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"gnp requires 0 <= p <= 1, got {p}")
    else:  # planar3tree
        need(1, "n")
        (n,) = _ints(params)
        if n < 3:
            raise ValueError("planar3tree requires n >= 3")
    if n > MAX_VERTICES:
        raise ValueError(too_many_vertices(n))


def generate(spec: GenSpec) -> Graph:
    """Generate the graph described by ``spec``; deterministic per (family, params, seed)."""
    f = spec.family
    if f == "path":
        (n,) = _ints(spec.params)
        return build_graph(n, [(i, i + 1) for i in range(1, n)])
    if f == "cycle":
        (n,) = _ints(spec.params)
        return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    if f == "complete":
        (n,) = _ints(spec.params)
        return build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    if f == "star":
        (leaves,) = _ints(spec.params)
        return build_graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])
    if f == "complete_bipartite":
        a, b = _ints(spec.params)
        return build_graph(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])
    if f == "grid":
        r, c = _ints(spec.params)
        edges = []
        for i in range(r):
            for j in range(c):
                v = i * c + j + 1  # row-major numbering
                if j + 1 < c:
                    edges.append((v, v + 1))
                if i + 1 < r:
                    edges.append((v, v + c))
        return build_graph(r * c, edges)
    if f == "gnp":
        n = int(spec.params[0])
        p = float(spec.params[1])
        rng = random.Random(spec.seed)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        return build_graph(n, edges)
    if f == "planar3tree":
        (n,) = _ints(spec.params)
        rng = random.Random(spec.seed)
        edges = [(1, 2), (2, 3), (1, 3)]
        faces = [(1, 2, 3)]
        for v in range(4, n + 1):
            a, b, c = faces.pop(rng.randrange(len(faces)))
            edges += [(a, v), (b, v), (c, v)]
            faces += [(a, b, v), (a, c, v), (b, c, v)]
        return build_graph(n, edges)
    raise AssertionError(f"unhandled family {f!r}")


_SPEC_RE = re.compile(r"^([a-z_][a-z0-9_]*)\((.*)\)$")


def _number(arg: str) -> int | float:
    # A number with a '.' or an exponent is a float, anything else an int.
    return float(arg) if "." in arg or "e" in arg.lower() else int(arg)


def parse_params(text: str) -> tuple[int | float, ...]:
    """Parse comma-separated family parameters such as ``20,50`` or ``8,0.3``;
    blank text gives ()."""
    try:
        return tuple(_number(p.strip()) for p in text.split(",")) if text.strip() else ()
    except ValueError:
        raise ValueError(f"malformed parameters {text!r}, expected comma-separated numbers") from None


def parse_genspec(text: str) -> GenSpec:
    """Parse the textual form, e.g. ``path(4)`` or ``gnp(8,0.3,seed=7)``."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed generator spec {text!r}, expected 'family(args)'")
    family, argstr = m.group(1), m.group(2)
    params: list[int | float] = []
    seed = 0
    args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    for arg in args:
        try:
            if arg.startswith("seed="):
                seed = int(arg[len("seed="):])
            else:
                params.append(_number(arg))
        except ValueError:
            raise ValueError(f"malformed generator spec {text!r}: {arg!r} is not a number") from None
    try:
        return GenSpec(family=family, params=tuple(params), seed=seed)
    except ValueError as err:
        raise ValueError(f"malformed generator spec {text!r}: {err}") from None
