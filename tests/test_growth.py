"""Growth gate: the exact counters of every layer at most double when a
linear program family doubles in size.

Each counter is read from the stages themselves (`_scan`, `grammar_stage`,
`simplify_stage`, `search_stage`, `classify_stage`), not from the
benchmark's tracer.  A counter that is linear in the size, `a + b*s` with
`a >= 0`, at most doubles from s to 2s; a quadratic or exponential one
does not, once s is past a few steps.  The counters already known to grow
faster are pinned at their exact counts in `KNOWN_GROWTH`, and may only
fall.
"""

from __future__ import annotations

import dataclasses
import random
import re
import sys
from pathlib import Path

import pytest

from atomguard import parse_program
from atomguard.frontend.lexer import _scan, tokenize
from atomguard.verifier import classify_stage, grammar_stage, search_stage, simplify_stage
from oracles import reference_tokenize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

FLAG_SETS = [(), ("--class-scope",), ("--no-points-to",)]
# family and the smaller size s; each is checked at s and 2s
SIZES = {"straight": 40, "chain": 10, "sites": 4, "helper": 6}
CALL_LINE = re.compile(r"[ \t]*[A-Za-z_]\w*\.[A-Za-z_]\w*\(\);")
# Counters that grow faster than linear, pinned at their exact counts: a
# change may lower a count, never raise it.  The GLR search's branches grow
# exponentially with the if/else diamonds and the loops of a thread, and
# under --class-scope the LR(0) states of a call chain hold quadratically
# many items and goto entries.  (family, flags, size) -> {counter: count}
KNOWN_GROWTH = {
    ("diamonds", (), 4): {"branches": 77},
    ("diamonds", (), 8): {"branches": 1061},
    ("loops", (), 3): {"branches": 126},
    ("loops", (), 6): {"branches": 3126},
    ("chain", ("--class-scope",), 10): {"LR(0) items": 200, "goto entries": 77},
    ("chain", ("--class-scope",), 20): {"LR(0) items": 695, "goto entries": 252},
}


def make(family: str, size: int, flags: tuple[str, ...]) -> families.Case:
    build = getattr(families, family)
    if family in ("helper", "diamonds", "loops"):  # take no flags of their own
        return dataclasses.replace(build(random.Random(5), size), flags=flags)
    return build(random.Random(5), size, flags)


def symbols(grammar) -> int:
    """Symbols of the grammar's rules, heads included."""
    return sum(1 + len(p.body) for p in grammar.productions)


def counters(case: families.Case) -> dict[str, int]:
    program = parse_program(case.text, "t.mg")
    options = dict(
        class_scope="--class-scope" in case.flags, points_to="--no-points-to" not in case.flags
    )
    raw = list(grammar_stage(program, **options))
    tasks = list(simplify_stage(raw))
    checks = list(search_stage(tasks))
    _, stats = classify_stage(program, checks)
    # a base grammar is shared by its sites' tasks, a table by same-shape checks
    raw_grammars = {id(t.grammar): t.grammar for t in raw}.values()
    tables = {id(c.table): c.table for c in checks}.values()
    words = {id(t.words): t.words for t in raw}.values()  # one module's, shared by its tasks
    return {
        "scanned tuples": len(_scan(case.text, "t.mg")),
        "contract words": sum(len(expanded) for clauses in words for _, expanded in clauses),
        "raw production symbols": sum(map(symbols, raw_grammars)),
        "simplified production symbols": sum(symbols(t.grammar) for t in tasks),
        "LR(0) states": sum(len(table.states) for table in tables),
        "LR(0) items": sum(len(state) for table in tables for state in table.states),
        "goto entries": sum(len(table.goto) for table in tables),
        "branches": stats.branches,
        "trees": stats.trees,
    }


@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: "+".join(f) or "default")
@pytest.mark.parametrize("family", SIZES)
def test_counters_at_most_double_with_the_size(family, flags):
    size = SIZES[family]
    small, big = counters(make(family, size, flags)), counters(make(family, 2 * size, flags))
    pinned = {name for (f, fl, _), counts in KNOWN_GROWTH.items() if (f, fl) == (family, flags)
              for name in counts}
    grown = {name: (small[name], big[name])
             for name in small if name not in pinned and big[name] > 2 * small[name]}
    assert not grown, f"{family} {size} -> {2 * size}: {grown}"
    assert all(small.values()), small


@pytest.mark.parametrize(
    "case", KNOWN_GROWTH, ids=lambda case: "-".join([case[0], str(case[2]), *case[1]])
)
def test_known_growth_does_not_rise(case):
    family, flags, size = case
    got = counters(make(family, size, flags))
    risen = {name: (count, got[name]) for name, count in KNOWN_GROWTH[case].items()
             if got[name] > count}
    assert not risen, f"above the pinned count: {risen}"


# the families' text as written, and respelled where the newline lexeme
# takes the next line's blanks and call statement with it
SPELLINGS = {
    "as-is": lambda text: text,
    "tabs": lambda text: re.sub(r"(?m)^(?:  )+", lambda m: "\t" * (len(m[0]) // 2), text),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank-lines": lambda text: text.replace("\n", "\n \t\n"),
}


@pytest.mark.parametrize("family", SIZES)
def test_scan_fuses_each_call_statement_line(family):
    # one `call` tuple per line that is exactly `x.m();`, at that line and column
    for spell in SPELLINGS.values():
        text = spell(make(family, SIZES[family], ()).text)
        want = []
        for i, line in enumerate(text.splitlines(), 1):
            if CALL_LINE.fullmatch(line):
                receiver, method = line.strip(" \t")[:-3].split(".")
                want.append((i, len(line) - len(line.lstrip(" \t")) + 1, receiver, method))
        got = [(t[2], t[3], t[1], t[4]) for t in _scan(text, "t.mg") if t[0] == "call"]
        assert got == want and len(want) >= 2
        assert tokenize(text) == reference_tokenize(text)
