"""Command-line front end: gen, scol, colour, verify, exact, bench.

Paths given as "-" read standard input or write standard output, and at most
one input may be "-".  Exit codes: 0 on success, also when the reader of
standard output leaves early (``| head``), 1 when a verification or bound
predicate fails, 2 on usage or input errors (a parse error names the file and
line), 3 on an internal error (any other exception).

The exact searches are iterative, so no n within ``--limit`` reaches the
recursion limit.  ``scol --exact`` profiles the witness ordering of
:func:`cfcolour.reach.exact_scol`, where the search is described: one optimal
witness of many, with the peeled vertices last.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import load_corpus, records_to_csv, run_corpus
from .colouring import (
    CRITERIA,
    exact_chromatic,
    greedy_cf_colouring,
    load_colouring,
    save_colouring,
    verify_colouring,
)
from .generators import FAMILIES, GenSpec, generate, parse_params
from .graph import FORMATS, load_graph, save_graph
from .reach import STRATEGIES, back_reach_profile, exact_scol, load_ordering, make_ordering


def _load(path: str, parse, *args):
    """Read ``path`` ('-' for stdin) and parse it; a ValueError names the file."""
    try:
        return parse(sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8"), *args)
    except ValueError as err:  # UnicodeDecodeError included
        raise ValueError(f"{'<stdin>' if path == '-' else path}: {err}") from None


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _ordering_for(args: argparse.Namespace, g):
    # A length mismatch is caught where the ordering is used.
    return _load(args.order, load_ordering) if args.order else make_ordering(g, args.strategy)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(family=args.family, params=parse_params(args.params), seed=args.seed)
    _write(args.output, save_graph(generate(spec), args.format))
    return 0


def _cmd_scol(args: argparse.Namespace) -> int:
    g = _load(args.graph, load_graph, args.format)
    # The exact witness's back-reach is the exact value.
    ordering = exact_scol(g, args.s, limit=args.limit)[1] if args.exact else _ordering_for(args, g)
    sizes = back_reach_profile(g, ordering, args.s)
    print(max(sizes))
    if args.verbose:
        for v in g.vertices:
            print(f"{v} {sizes[v]}")
    return 0


def _cmd_colour(args: argparse.Namespace) -> int:
    g = _load(args.graph, load_graph, args.format)
    col = greedy_cf_colouring(g, _ordering_for(args, g))
    summary = f"colours={col.used} bound={col.palette}"
    _write(args.output, save_colouring(col))
    # Keep the summary off the data stream when the colouring goes to stdout.
    print(summary, file=sys.stderr if args.output == "-" else sys.stdout)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.graph, load_graph, args.format)
    col = _load(args.colouring, load_colouring)
    verdict = verify_colouring(g, col, args.criterion)
    if verdict.ok:
        print("ok")
        return 0
    print(f"fail witness={verdict.witness} ({verdict.detail})")
    return 1


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _load(args.graph, load_graph, args.format)
    value, _ = exact_chromatic(g, args.variant, limit=args.limit)
    print(value)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    items = _load(args.corpus, load_corpus)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    records = run_corpus(items, strategies, exact_up_to=args.exact_up_to)
    _write(args.output, records_to_csv(records))
    failed = any(
        not (r.proper_ok and r.odd_ok and r.cf_ok)
        or r.colours_used > r.bound_thm1
        for r in records
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcolour",
        description="Conflict-free colouring toolkit: orderings, bounds, and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", required=True, help="graph file, '-' for stdin")
        p.add_argument("--format", choices=FORMATS, default="edgelist")

    def add_ordering_group(p: argparse.ArgumentParser):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--order", help="ordering file, '-' for stdin")
        group.add_argument("--strategy", help=f"{', '.join(STRATEGIES)}, or random(seed); random is random(0)")
        return group

    p = sub.add_parser("gen", help="generate a corpus graph")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--params", required=True, help="comma-separated family parameters, e.g. '20,50'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=FORMATS, default="edgelist")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("scol", help="back-reach of an ordering, or the exact strong colouring number")
    add_graph_arg(p)
    p.add_argument("--s", type=int, required=True, help="path-length radius")
    add_ordering_group(p).add_argument("--exact", action="store_true", help="exact minimum over all orderings")
    p.add_argument("--limit", type=int, default=10, help="max n for --exact")
    p.add_argument("--verbose", action="store_true", help="also print per-vertex reach sizes")
    p.set_defaults(func=_cmd_scol)

    p = sub.add_parser("colour", help="greedy conflict-free colouring along an ordering")
    add_graph_arg(p)
    add_ordering_group(p)
    p.add_argument("--output", "-o", default="-", help="colouring file destination")
    p.set_defaults(func=_cmd_colour)

    p = sub.add_parser("verify", help="check a colouring against one criterion")
    add_graph_arg(p)
    p.add_argument("--colouring", required=True, help="colouring file, '-' for stdin")
    p.add_argument("--criterion", required=True, choices=CRITERIA)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact chromatic number of a variant")
    add_graph_arg(p)
    p.add_argument("--variant", required=True, choices=CRITERIA)
    p.add_argument("--limit", type=int, default=8, help="max n for the exact search")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bench", help="run a corpus of graphs against ordering strategies")
    p.add_argument("--corpus", required=True, help="corpus file, '-' for stdin")
    p.add_argument("--strategies", required=True, help="comma-separated strategy names")
    p.add_argument("--exact-up-to", type=int, default=0, help="compute exact_cf when n is at most this")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # One stream holds one file: a second reader would see nothing, or the
    # first file's text, and fail with a misleading parse error.
    stdin = [f"--{name}" for name in ("graph", "order", "colouring") if getattr(args, name, None) == "-"]
    if len(stdin) > 1:
        parser.error(f"{' and '.join(stdin)} cannot both read standard input")
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left: point stdout at devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, not of its input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3

