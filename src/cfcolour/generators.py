"""Deterministic graph generators supplying the test corpus."""

from __future__ import annotations

import math
import random
import re
import struct
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, NamedTuple

from .graph import Graph, build_graph, graph_of_lists, size_error


class Family(NamedTuple):
    """One generator family.

    ``params`` gives each parameter's name and minimum, or None for a
    probability in [0, 1]; ``size`` maps the parameters to (vertices, edges),
    or to (vertices, vertex pairs drawn) when ``counts`` says so; ``graph``
    maps the parameters and a seeded ``random.Random`` to the graph.
    """

    params: tuple[tuple[str, int | None], ...]
    seeded: bool
    size: Callable[..., tuple[int, int]]
    graph: Callable[..., Graph]
    counts: str = "edge"


def _grid(r: int, c: int) -> list[tuple[int, ...]]:
    """Row-major numbering: v's neighbours are those of v - c, v - 1, v + 1
    and v + c on the grid, in that order, so each tuple is sorted as made.  A
    row's tuples are zipped at once from the slices of ids above, left of,
    right of and below it; the left and right ids that fall off the row's two
    ends are then cut out.  The ids come from one list, so the graph holds one
    int object per vertex."""
    n = r * c
    ids = list(range(n + 2))
    adj: list[tuple[int, ...]] = [()]
    for s in range(0, n, c):  # the row s + 1 .. s + c
        sources = [ids[s + 1 - c:s + 1]] if s else []
        if c > 1:
            sources += [ids[s:s + c], ids[s + 2:s + c + 2]]
        if s + c < n:
            sources.append(ids[s + c + 1:s + 2 * c + 1])
        row = list(zip(*sources)) if sources else [()]
        if c > 1:
            k = 1 if s else 0  # the left id's index in each tuple
            head, tail = row[0], row[-1]
            row[0], row[-1] = head[:k] + head[k + 1:], tail[:k + 1] + tail[k + 2:]
        adj += row
    return adj


# gnp draws its vertex pairs this many at a time, with one getrandbits call.
PAIR_BLOCK = 1 << 12
_WORDS = struct.Struct("<2I").unpack_from


def _gnp(n: int, p: float, rng: random.Random) -> list[list[int]]:
    """The sorted adjacency of the graph whose edges are the pairs u < v, in
    lexicographic order, for which ``rng.random() < p``: the same draws from
    the same stream, a block of pairs per ``getrandbits`` call.

    ``random()`` is X / 2**53 for X = (a >> 5) << 26 | b >> 6, where a and b
    are the generator's next two 32-bit words, and ``getrandbits(64 * k)``
    holds the next 2k words, the first in the lowest bits.  So a pair is an
    edge exactly when X < t = ceil(p * 2**53).  X's top 8 bits are a's top
    byte, so the pair is an edge if that byte is below t >> 45 and no edge if
    it is above; only a tie unpacks the two words.  Splitting the block's
    byte per pair at its edges gives the gaps between them, so a pair costs a
    few C-level steps and only an edge costs Python steps.  The edges come in
    order, so each list is sorted as made, and its ints come from one list."""
    t = math.ceil(p * 2**53)
    tie = t >> 45
    classes = (b"\x01" * tie + b"\x02" + bytes(255))[:256]  # top byte -> edge 1, tie 2, no edge 0
    ids = list(range(n + 1))
    adj: list[list[int]] = [[] for _ in ids]
    pairs = n * (n - 1) // 2
    u = end = 0  # the pairs of rows 1..u are those numbered below end
    for start in range(0, pairs, PAIR_BLOCK):
        k = min(PAIR_BLOCK, pairs - start)
        words = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        edge = bytearray(words[3::8].translate(classes))
        j = edge.find(2)
        while j >= 0:
            a, b = _WORDS(words, 8 * j)
            edge[j] = (a >> 5 << 26 | b >> 6) < t
            j = edge.find(2, j + 1)
        # Split as bytes, whose empty and one-byte parts are shared objects.
        gaps = bytes(edge).split(b"\x01")
        gaps.pop()  # the non-edges after the block's last edge
        i = start - 1
        for gap in map(len, gaps):
            i += gap + 1  # the number of the next edge's pair
            while i >= end:
                u += 1
                end += n - u
                add, w, shift = adj[u].append, ids[u], n + 1 - end
            v = ids[i + shift]
            add(v)
            adj[v].append(w)
    return adj


# Insertions per face chunk in planar3tree: a face is three ints in its chunk,
# so a pop moves at most 9 * FACE_CHUNK pointers, and the Fenwick tree has one
# node per chunk.  At n = 10^5 the time was flat for 256 to 1024 and rose by
# 14%, 49% and 110% at 2048, 4096 and 8192; at 10^6, 256 and 512 read within 4%.
FACE_CHUNK = 1024


def _planar3tree(n: int, rng: random.Random) -> list[list[int]]:
    """Insert each vertex v >= 4 into the live face ``randrange(2v - 7)``, the
    live faces counted in creation order.  The faces are kept in chunks, and
    a Fenwick tree (Fenwick, SPE 1994) over the chunks' live counts finds the
    one drawn in O(log n) steps.

    A face's corners a < b < c are kept in that order, and the faces v makes,
    (a, b, v), (a, c, v) and (b, c, v), keep it too.  So v's list starts as
    its face's corners, and every later neighbour is appended in increasing
    order: each list is sorted as it is made."""
    adj = [[], [2, 3], [1, 3], [1, 2]]
    size = 1 << (max(n - 4, 0) // FACE_CHUNK).bit_length()  # a power of two, at least the chunk count
    # Chunk j holds the faces made by the vertices 4 + j * FACE_CHUNK up to
    # 3 + (j + 1) * FACE_CHUNK, chunk 0 also the first face, as flat runs of
    # three corners.  Every chunk counts as full from the start: randrange
    # draws below the live count, so the descent never passes the chunk
    # being filled.
    chunks: list[list[int]] = [[] for _ in range(size)]
    chunks[0] += (1, 2, 3)
    tree = [3 * FACE_CHUNK] * (size + 1)  # tree[j] sums chunks j - (j & -j) .. j - 1
    tree[1] += 1
    for j in range(1, size):
        tree[j + (j & -j)] += tree[j]
    steps = [size >> k for k in range(1, size.bit_length())]  # tree[size] exceeds every draw
    for v in range(4, n + 1):
        i, j = rng.randrange(2 * v - 7), 0
        for step in steps:
            if tree[j + step] <= i:
                j += step
                i -= tree[j]
        faces, i = chunks[j], 3 * i
        a, b, c = faces[i:i + 3]
        del faces[i:i + 3]
        j += 1
        while j <= size:
            tree[j] -= 1
            j += j & -j
        adj[a].append(v)
        adj[b].append(v)
        adj[c].append(v)
        adj.append([a, b, c])
        chunks[(v - 4) // FACE_CHUNK] += (a, b, v, a, c, v, b, c, v)
    return adj


# gnp draws two words per vertex pair, in lexicographic order, whatever p is;
# so its size counts the pairs, and the edge bound limits its time as well.
TABLE = {
    "path": Family((("n", 1),), False, lambda n: (n, n - 1),
                   lambda n, rng: build_graph(n, [(i, i + 1) for i in range(1, n)])),
    "cycle": Family((("n", 3),), False, lambda n: (n, n),
                    lambda n, rng: build_graph(n, [(1, 2), (1, n)] + [(i, i + 1) for i in range(2, n)])),
    "complete": Family((("n", 1),), False, lambda n: (n, n * (n - 1) // 2),
                       lambda n, rng: build_graph(n, combinations(range(1, n + 1), 2))),
    "star": Family((("leaves", 0),), False, lambda k: (k + 1, k),
                   lambda k, rng: build_graph(k + 1, [(1, v) for v in range(2, k + 2)])),
    "complete_bipartite": Family((("a", 1), ("b", 1)), False, lambda a, b: (a + b, a * b),
                                 lambda a, b, rng: build_graph(a + b, product(range(1, a + 1),
                                                                              range(a + 1, a + b + 1)))),
    "grid": Family((("rows", 1), ("cols", 1)), False, lambda r, c: (r * c, r * (c - 1) + c * (r - 1)),
                   lambda r, c, rng: graph_of_lists(lambda: _grid(r, c))),
    "gnp": Family((("n", 0), ("p", None)), True, lambda n, p: (n, n * (n - 1) // 2),
                  lambda n, p, rng: graph_of_lists(lambda: _gnp(n, p, rng)), "vertex pair"),
    "planar3tree": Family((("n", 3),), True, lambda n: (n, 3 * n - 6),
                          lambda n, rng: graph_of_lists(lambda: _planar3tree(n, rng))),
}

FAMILIES = tuple(TABLE)


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
        _checked(self)

    @property
    def graph_id(self) -> str:
        args = ",".join(_fmt_num(p) for p in self.params)
        if TABLE[self.family].seeded:
            args += f",seed={self.seed}"
        return f"{self.family}({args})"


def _fmt_num(x: int | float) -> str:
    return str(int(x)) if isinstance(x, int) or x == int(x) else repr(x)


def _checked(spec: GenSpec) -> tuple[Family, list[int | float]]:
    """The spec's family and its converted parameters; raises
    ValueError unless every parameter is in range and the size within the bounds."""
    family = TABLE.get(spec.family)
    if family is None:
        raise ValueError(f"unknown family {spec.family!r}, expected one of {FAMILIES}")
    count, names = len(family.params), ", ".join(name for name, _ in family.params)
    if len(spec.params) != count:
        raise ValueError(f"{spec.family} takes {count} parameter(s) ({names}), got {len(spec.params)}")
    args: list[int | float] = []
    for (name, low), x in zip(family.params, spec.params):
        if low is None:
            if not 0 <= x <= 1:  # compared before float(), which overflows on huge ints
                raise ValueError(f"{spec.family} requires 0 <= {name} <= 1, got {x}")
            x = float(x)
        else:
            if isinstance(x, float) and not x.is_integer():  # inf and nan included
                raise ValueError(f"expected integer parameter, got {x}")
            x = int(x)
            if x < low:
                raise ValueError(f"{spec.family} requires {name} >= {low}")
        args.append(x)
    n, m = family.size(*args)
    if reason := size_error(n, m, family.counts):
        raise ValueError(reason)
    return family, args


def generate(spec: GenSpec) -> Graph:
    """Generate the graph described by ``spec``; deterministic per (family, params, seed)."""
    family, args = _checked(spec)
    return family.graph(*args, random.Random(spec.seed))


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
    args = [a.strip() for a in argstr.split(",")]  # [""] for "f()", which parse_params reads as ()
    seeds = [a for a in args if a.startswith("seed=")]
    if len(seeds) > 1:
        raise ValueError(f"malformed generator spec {text!r}: seed given twice")
    try:
        seed = int(seeds[0][len("seed="):]) if seeds else 0
    except ValueError:
        raise ValueError(f"malformed generator spec {text!r}: {seeds[0]!r} is not a number") from None
    try:
        params = parse_params(",".join(a for a in args if not a.startswith("seed=")))
        return GenSpec(family=family, params=params, seed=seed)
    except ValueError as err:
        raise ValueError(f"malformed generator spec {text!r}: {err}") from None
