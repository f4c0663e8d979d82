"""Growth gate: the exact counters of every layer at most double when a
linear program family doubles in size.

Each counter is read from the stages themselves (`_scan`, `grammar_stage`,
`simplify_stage`, `search_stage`, `classify_stage`), not from the
benchmark's tracer.  A counter that is linear in the size, `a + b*s` with
`a >= 0`, at most doubles from s to 2s; a quadratic or exponential one
does not, once s is past a few steps.
"""

from __future__ import annotations

import dataclasses
import random
import re
import sys
from pathlib import Path

import pytest

from atomguard import parse_program
from atomguard.frontend.lexer import _scan
from atomguard.verifier import classify_stage, grammar_stage, search_stage, simplify_stage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

FLAG_SETS = [(), ("--class-scope",), ("--no-points-to",)]
# family and the smaller size s; each is checked at s and 2s
SIZES = {"straight": 40, "chain": 10, "sites": 4, "helper": 6}
CALL_LINE = re.compile(r"[ \t]*[A-Za-z_]\w*\.[A-Za-z_]\w*\(\);")


def make(family: str, size: int, flags: tuple[str, ...]) -> families.Case:
    if family == "helper":  # takes no flags of its own
        return dataclasses.replace(families.helper(random.Random(5), size), flags=flags)
    return getattr(families, family)(random.Random(5), size, flags)


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
    return {
        "scanned tuples": len(_scan(case.text, "t.mg")),
        "raw production symbols": sum(map(symbols, raw_grammars)),
        "simplified production symbols": sum(symbols(t.grammar) for t in tasks),
        "LR(0) states": sum(len(table.states) for table in tables),
        "branches": stats.branches,
        "trees": stats.trees,
    }


@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: "+".join(f) or "default")
@pytest.mark.parametrize("family", SIZES)
def test_counters_at_most_double_with_the_size(family, flags):
    size = SIZES[family]
    small, big = counters(make(family, size, flags)), counters(make(family, 2 * size, flags))
    grown = {name: (small[name], big[name]) for name in small if big[name] > 2 * small[name]}
    assert not grown, f"{family} {size} -> {2 * size}: {grown}"
    assert all(small.values()), small


@pytest.mark.parametrize("family", SIZES)
def test_scan_fuses_each_call_statement_line(family):
    # one `call` tuple per line that is exactly `x.m();`, on that line
    text = make(family, SIZES[family], ()).text
    lines = [i for i, line in enumerate(text.splitlines(), 1) if CALL_LINE.fullmatch(line)]
    calls = [t[2] for t in _scan(text, "t.mg") if t[0] == "call"]
    assert calls == lines and len(lines) >= 2
