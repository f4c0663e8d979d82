"""Seeded random mini-programs for the oracle-equivalence suite.

The generated programs keep the shape the trace oracle can enumerate
exactly: the call graph is acyclic (a method only calls later-numbered
helpers), at most one method contains a loop, and bodies stay small.
"""

from __future__ import annotations

import random
import re

TERMINALS = ("a", "b", "c", "d")


def random_program(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """Build one random client program; returns (source text, module methods)."""
    terms = TERMINALS[: rng.randint(2, 4)]
    n_helpers = rng.randint(0, 3)
    names = [f"t{i}" for i in range(n_helpers + 1)]
    loop_owner = rng.randrange(len(names)) if rng.random() < 0.7 else None

    lines = [f'class M contract {{ "{terms[0]} {terms[-1]}" }} {{']
    for t in terms:
        lines.append(f"  atomic void {t}() {{ }}")
    lines.append("}")
    lines.append("")
    lines.append("class Client {")
    for i, name in enumerate(names):
        gen = _MethodGen(rng, terms, callees=names[i + 1 :], loop_ok=(loop_owner == i))
        atomic = "atomic " if rng.random() < (0.25 if i == 0 else 0.4) else ""
        thread = "thread " if i == 0 else ""
        lines.append(f"  {atomic}{thread}void {name}() {{")
        body = gen.body(indent="    ", min_stmts=1, max_stmts=3, depth=0)
        if i == 0:
            body.insert(0, "    m = new M();")
        lines.extend(body)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n", terms


def two_receivers(text: str, rng: random.Random) -> str:
    """A `random_program` text with a second module object: `n = new M();`
    follows `m = new M();` in t0, and `rng` moves about half of the calls on
    `m` to `n`.  Each call stays on a line of its own."""
    text = text.replace("    m = new M();\n", "    m = new M();\n    n = new M();\n", 1)
    return re.sub(r"\bm\.", lambda _: "n." if rng.random() < 0.5 else "m.", text)


class _MethodGen:
    def __init__(self, rng: random.Random, terms, callees, loop_ok: bool):
        self.rng = rng
        self.terms = terms
        self.callees = list(callees)
        self.loop_ok = loop_ok
        self.branch_budget = 3
        self.var_count = 0

    def body(self, indent: str, min_stmts: int, max_stmts: int, depth: int) -> list[str]:
        out: list[str] = []
        for _ in range(self.rng.randint(min_stmts, max_stmts)):
            out.extend(self.statement(indent, depth))
        return out

    def statement(self, indent: str, depth: int) -> list[str]:
        rng = self.rng
        roll = rng.random()
        nested_ok = depth < 2 and self.branch_budget > 0
        if roll < 0.40 or not nested_ok:
            call = f"m.{rng.choice(self.terms)}();"
            if rng.random() < 0.2:
                self.var_count += 1
                return [f"{indent}var v{self.var_count} = {call[:-1]};"]
            return [indent + call]
        if roll < 0.55 and self.callees:
            return [f"{indent}{rng.choice(self.callees)}();"]
        if roll < 0.85 or not self.loop_ok:
            self.branch_budget -= 1
            cond = f"m.{rng.choice(self.terms)}()" if rng.random() < 0.25 else "cond"
            out = [f"{indent}if ({cond}) {{"]
            out.extend(self.body(indent + "  ", 1, 2, depth + 1))
            if rng.random() < 0.5:
                out.append(f"{indent}}} else {{")
                out.extend(self.body(indent + "  ", 1, 2, depth + 1))
            out.append(indent + "}")
            return out
        self.branch_budget -= 1
        self.loop_ok = False
        cond = f"m.{rng.choice(self.terms)}()" if rng.random() < 0.25 else "cond"
        out = [f"{indent}while ({cond}) {{"]
        out.extend(self.body(indent + "  ", 1, 2, depth + 1))
        out.append(indent + "}")
        return out


def random_word(
    rng: random.Random, terms: tuple[str, ...], traces=None
) -> tuple[str, ...]:
    """A random word of length 1..4; half the time sampled from a real trace."""
    if traces and rng.random() < 0.5:
        trace = rng.choice(sorted(traces, key=len, reverse=True)[: max(1, len(traces) // 2)])
        if trace:
            length = rng.randint(1, min(4, len(trace)))
            start = rng.randrange(len(trace) - length + 1)
            return tuple(e.method for e in trace[start : start + length])
    return tuple(rng.choice(terms) for _ in range(rng.randint(1, 4)))
