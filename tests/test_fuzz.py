"""The five text parsers on arbitrary and on nearly valid input: each returns
or raises ValueError, and a malformed line is named by its line number."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cfcolour import (
    GenSpec,
    generate,
    greedy_cf_colouring,
    load_colouring,
    load_corpus,
    load_graph,
    load_ordering,
    make_ordering,
    save_colouring,
    save_graph,
    save_ordering,
)

PARSERS = {
    "edgelist": lambda text: load_graph(text, "edgelist"),
    "dimacs": lambda text: load_graph(text, "dimacs"),
    "ordering": load_ordering,
    "colouring": load_colouring,
    "corpus": load_corpus,
}

_G = generate(GenSpec("planar3tree", (7,), seed=1))
VALID = {
    "edgelist": "# planar3tree(7)\n" + save_graph(_G, "edgelist"),
    "dimacs": "c planar3tree(7)\n" + save_graph(_G, "dimacs"),
    "ordering": "# random(2)\n" + save_ordering(make_ordering(_G, "random(2)")),
    "colouring": "# greedy\n" + save_colouring(greedy_cf_colouring(_G, make_ordering(_G, "identity"))),
    "corpus": "# specs and paths\npath(4)\n\ngrid(2,3)\ngnp(8,0.3,seed=2)\nplanar3tree(9,seed=1)\ng/k4.el\n",
}

# Decimal digits come only from these tokens. Their integers are tiny, or too
# long for int() to convert, so no parse asks build_graph for a huge graph.
TOKENS = [
    "0", "1", "2", "7", "-1", "+3", "9" * 5000, "1.5", "1e999", "x", "e", "p", "edge", "c", "#",
    "path(3)", "path(1e999)", "grid(2,1e400)", "gnp(1e999,0.3)", "gnp(8,0.3,seed=x)", "(", ")", ",",
]
# One line of arbitrary text: no line breaks, no decimal digits.
_CHARS = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Nd"))
LINE = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join),
    st.text(_CHARS, max_size=12),
)
TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Nd"))),
    st.lists(LINE, max_size=8).map("\n".join),
)


@pytest.mark.parametrize("fmt", PARSERS)
def test_valid_files_parse(fmt):
    PARSERS[fmt](VALID[fmt])


@pytest.mark.parametrize("fmt", PARSERS)
@settings(max_examples=150, deadline=None)
@given(text=TEXT)
@example(text="1e999")
@example(text="path(1e999)\n")
@example(text="1e999 1\n1 2\n")
def test_parsers_raise_only_value_error(fmt, text):
    try:
        PARSERS[fmt](text)
    except ValueError:
        pass


@st.composite
def one_line_mutated(draw):
    fmt = draw(st.sampled_from(sorted(VALID)))
    lines = VALID[fmt].splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = draw(LINE)
    return fmt, i + 1, "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(one_line_mutated())
@example(("corpus", 3, "path(4)\n\npath(1e999)\n"))
def test_malformed_line_is_named(case):
    fmt, lineno, text = case
    try:
        PARSERS[fmt](text)
    except ValueError as err:
        message = str(err)
        if message.split(": ", 1)[-1].startswith("malformed"):
            assert int(re.findall(r"at line (\d+)", message)[-1]) == lineno, message
