"""Generated client programs whose answers are known by construction.

Each family builds one `.mg` program of a given size together with the
report the checker must give for it: the exit code and, for every violation,
the thread, the contract word, the method of the lowest common ancestor and
the source lines of the calls.  None of these answers comes from atomguard.
Random draws are not known by construction; their answers come from the
independent trace oracle in `tests/oracles.py` (see `random_draw`).

The seed picks the module method names and where comment lines are
inserted, so the call lines of every known answer move with the seed while
the grammar each program yields keeps the same shape and size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (thread label, word, lca method, call lines) for one expected violation
Expected = tuple[str, tuple[str, ...], str, tuple[int, ...]]

NAME_POOL = (
    "get", "put", "take", "peek", "add", "remove", "size", "clear",
    "open", "close", "read", "write", "push", "pop", "lock", "scan",
)
PAD_EVERY = 8  # one seeded comment line per this many program lines


@dataclass(frozen=True)
class Case:
    """One program to check and the answer the checker must give."""

    name: str  # unique within a workload, e.g. "diamonds-14"
    family: str
    size: int
    text: str
    flags: tuple[str, ...] = ()
    exit_code: int = 0
    # exact violation list, sorted; None when only lca_methods is known
    violations: tuple[Expected, ...] | None = None
    # sorted lca methods of the reported violations (oracle-checked draws)
    lca_methods: tuple[str, ...] | None = None
    # sha256 of the report bytes (bundled corpus)
    digest: str | None = None
    # an existing file to check instead of writing `text` out
    path: str | None = None

    @property
    def lines(self) -> int:
        return self.text.count("\n")


class _Source:
    """Program text whose tagged lines can be located after padding."""

    def __init__(self) -> None:
        self._lines: list[tuple[str, object]] = []

    def add(self, text: str, tag: object = None) -> None:
        self._lines.append((text, tag))

    def render(self, rng: random.Random) -> tuple[str, dict[object, int]]:
        n = len(self._lines)
        pads = set(rng.sample(range(1, n), (n - 1) // PAD_EVERY)) if n > 1 else set()
        out: list[str] = []
        where: dict[object, int] = {}
        for i, (text, tag) in enumerate(self._lines):
            if i in pads:
                out.append("  // padding")
            out.append(text)
            if tag is not None:
                where[tag] = len(out)
        return "\n".join(out) + "\n", where


def _module(src: _Source, name: str, methods: tuple[str, ...], contract: str) -> None:
    src.add(f"class {name} contract {{ {contract} }} {{")
    for m in methods:
        src.add(f"  atomic void {m}() {{ }}")
    src.add("}")


def _finish(
    name: str, family: str, size: int, src: _Source, rng: random.Random,
    expect, flags: tuple[str, ...] = (),
) -> Case:
    text, where = src.render(rng)
    violations = tuple(sorted(expect(where)))
    return Case(
        name=name, family=family, size=size, text=text, flags=flags,
        exit_code=1 if violations else 0, violations=violations,
    )


# --------------------------------------------------------------------------
# branchy families: GLR search cost grows with the branching


def diamonds(rng: random.Random, k: int) -> Case:
    """k sequential if/else diamonds, one `a` or `b` call per arm.

    Contract "a b": the `a` of diamond i followed by the `b` of diamond i+1
    gives k-1 violations, all with ancestor `run`.
    """
    a, b = rng.sample(NAME_POOL, 2)
    src = _Source()
    _module(src, "M", (a, b), f'"{a} {b}"')
    src.add("class Client {")
    src.add("  thread void run() {")
    src.add("    m = new M();")
    for i in range(k):
        src.add("    if (cond) {")
        src.add(f"      m.{a}();", ("a", i))
        src.add("    } else {")
        src.add(f"      m.{b}();", ("b", i))
        src.add("    }")
    src.add("  }")
    src.add("}")
    return _finish(
        f"diamonds-{k}", "diamonds", k, src, rng,
        lambda w: [("run", (a, b), "run", (w["a", i], w["b", i + 1])) for i in range(k - 1)],
    )


def loops(rng: random.Random, k: int) -> Case:
    """k sequential `while (cond) { a; if (cond) { b; } else { c; } }` loops.

    Contract "a b; b a".  Each loop's `a` followed by its own `b` gives k
    violations.  The `b` of loop i is followed by the `a` of the next
    iteration or, when the loops in between run zero times, of any later
    loop j: k(k+1)/2 more.  The ancestor is always `run`.
    """
    a, b, c = rng.sample(NAME_POOL, 3)
    src = _Source()
    _module(src, "M", (a, b, c), f'"{a} {b}"; "{b} {a}"')
    src.add("class Client {")
    src.add("  thread void run() {")
    src.add("    m = new M();")
    for i in range(k):
        src.add("    while (cond) {")
        src.add(f"      m.{a}();", ("a", i))
        src.add("      if (cond) {")
        src.add(f"        m.{b}();", ("b", i))
        src.add("      } else {")
        src.add(f"        m.{c}();")
        src.add("      }")
        src.add("    }")
    src.add("  }")
    src.add("}")
    return _finish(
        f"loops-{k}", "loops", k, src, rng,
        lambda w: [("run", (a, b), "run", (w["a", i], w["b", i])) for i in range(k)]
        + [("run", (b, a), "run", (w["b", i], w["a", j])) for i in range(k) for j in range(i, k)],
    )


def helper(rng: random.Random, k: int) -> Case:
    """One helper `h() { a; b; }` called from k sites of the thread.

    Contract "a b; b a".  Every call gives the same `a b` inside `h`, so
    one violation with ancestor `h`; with k > 1 every pair of consecutive
    calls gives the same `b a`, one more violation with ancestor `run`.
    """
    a, b = rng.sample(NAME_POOL, 2)
    src = _Source()
    _module(src, "M", (a, b), f'"{a} {b}"; "{b} {a}"')
    src.add("class Client {")
    src.add("  thread void run() {")
    src.add("    m = new M();")
    for _ in range(k):
        src.add("    h();")
    src.add("  }")
    src.add("  void h() {")
    src.add(f"    m.{a}();", "a")
    src.add(f"    m.{b}();", "b")
    src.add("  }")
    src.add("}")
    return _finish(
        f"helper-{k}", "helper", k, src, rng,
        lambda w: [("run", (a, b), "h", (w["a"], w["b"]))]
        + [("run", (b, a), "run", (w["b"], w["a"]))] * (k > 1),
    )


# --------------------------------------------------------------------------
# wide families: grammar size grows with the program, GLR work stays linear


def straight(rng: random.Random, n: int, flags: tuple[str, ...] = ()) -> Case:
    """n straight-line `m.a(); m.b();` pairs: n violations with ancestor `run`."""
    a, b = rng.sample(NAME_POOL, 2)
    src = _Source()
    _module(src, "M", (a, b), f'"{a} {b}"')
    src.add("class Client {")
    src.add("  thread void run() {")
    src.add("    m = new M();")
    for i in range(n):
        src.add(f"    m.{a}();", ("a", i))
        src.add(f"    m.{b}();", ("b", i))
    src.add("  }")
    src.add("}")
    thread = "class:Client" if "--class-scope" in flags else "run"
    return _finish(
        _flagged(f"straight-{n}", flags), "straight", n, src, rng,
        lambda w: [(thread, (a, b), "run", (w["a", i], w["b", i])) for i in range(n)],
        flags,
    )


def chain(rng: random.Random, d: int, flags: tuple[str, ...] = ()) -> Case:
    """A call chain run -> f1 -> ... -> fd; each fi does `a; b;` then calls on.

    Contract "a b": one violation per link, with ancestor `fi`.
    """
    a, b = rng.sample(NAME_POOL, 2)
    src = _Source()
    _module(src, "M", (a, b), f'"{a} {b}"')
    src.add("class Client {")
    src.add("  thread void run() {")
    src.add("    m = new M();")
    src.add("    f1();")
    src.add("  }")
    for i in range(1, d + 1):
        src.add(f"  void f{i}() {{")
        src.add(f"    m.{a}();", ("a", i))
        src.add(f"    m.{b}();", ("b", i))
        if i < d:
            src.add(f"    f{i + 1}();")
        src.add("  }")
    src.add("}")
    thread = "class:Client" if "--class-scope" in flags else "run"
    return _finish(
        _flagged(f"chain-{d}", flags), "chain", d, src, rng,
        lambda w: [(thread, (a, b), f"f{i}", (w["a", i], w["b", i])) for i in range(1, d + 1)],
        flags,
    )


def sites(rng: random.Random, s: int, flags: tuple[str, ...] = ()) -> Case:
    """s allocation sites of each of two modules, used by two threads.

    Thread t1 (class P) allocates `xi = new M()` and `yi = new N()`; both t1
    and t2 (class Q) then call `xi.a(); yi.c();` for every i and afterwards
    `xi.b(); yi.d();` for every i.  Contracts: M "a b", N "c d".

    With points-to, each site's grammar keeps only that site's calls, so
    each (thread, module, site) gives one violation: 4s in all.  Without it,
    a module's calls read a^s b^s and only the last `a` meets the first `b`:
    one violation per (thread, module), 4 in all.
    """
    a, b, c, d = rng.sample(NAME_POOL, 4)
    src = _Source()
    _module(src, "M", (a, b), f'"{a} {b}"')
    _module(src, "N", (c, d), f'"{c} {d}"')
    for cls, thread in (("P", "t1"), ("Q", "t2")):
        src.add(f"class {cls} {{")
        src.add(f"  thread void {thread}() {{")
        if thread == "t1":
            for i in range(s):
                src.add(f"    x{i} = new M();")
                src.add(f"    y{i} = new N();")
        for i in range(s):
            src.add(f"    x{i}.{a}();", (thread, a, i))
            src.add(f"    y{i}.{c}();", (thread, c, i))
        for i in range(s):
            src.add(f"    x{i}.{b}();", (thread, b, i))
            src.add(f"    y{i}.{d}();", (thread, d, i))
        src.add("  }")
        src.add("}")
    class_scope = "--class-scope" in flags
    per_site = "--no-points-to" not in flags

    def expect(w):
        out = []
        for cls, thread in (("P", "t1"), ("Q", "t2")):
            label = f"class:{cls}" if class_scope else thread
            for first, second in ((a, b), (c, d)):
                pairs = [(i, i) for i in range(s)] if per_site else [(s - 1, 0)]
                for i, j in pairs:
                    lines = (w[thread, first, i], w[thread, second, j])
                    out.append((label, (first, second), thread, lines))
        return out

    return _finish(_flagged(f"sites-{s}", flags), "sites", s, src, rng, expect, flags)


def _flagged(name: str, flags: tuple[str, ...]) -> str:
    return name + "".join(f"+{f.lstrip('-')}" for f in flags)


# --------------------------------------------------------------------------
# random draws, answered by the trace oracle


def random_draw(rng: random.Random, index: int, loop_bound: int = 2) -> Case:
    """One seeded random program of the oracle battle (`tests/generators.py`)
    with its answer from the independent trace oracle (`tests/oracles.py`).

    The contract is one two-call clause and `t0` the only thread, so the
    reported ancestors are exactly the oracle's violating ancestors.  A
    two-call occurrence spans at most two iterations of any loop, so
    unrolling loops twice finds every one.
    """
    from atomguard.frontend.parser import parse_program
    from generators import random_program
    from oracles import oracle_results

    text, terms = random_program(rng)
    name = f"random-{index}"
    word = (terms[0], terms[-1])
    results = oracle_results(parse_program(text, filename=name), "t0", word, loop_bound)
    bad = tuple(sorted({m for m, is_bad in results if is_bad}))
    return Case(
        name=name, family="random", size=index, text=text,
        exit_code=1 if bad else 0, lca_methods=bad,
    )
