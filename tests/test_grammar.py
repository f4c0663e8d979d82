"""Behavior grammar construction, simplification, and refinement."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomguard.grammar
from atomguard import AtomguardError, grammar_stage, parse_program, simplify_stage
from atomguard.contracts import parse_contract
from atomguard.frontend.cfg import build_cfg
from atomguard.frontend.syntax import While
from atomguard.grammar import (
    BehaviorGrammar,
    CallSite,
    Production,
    _reachable_methods,
    build_behavior_grammar,
    build_behavior_grammar_pointsto,
    build_class_scope_grammar,
    dump_grammar,
    simplify_grammar,
    site_restrictor,
    symbol_method,
)
from atomguard.pointsto import compute_pointsto, module_alloc_sites
from atomguard.verifier import _grammar, _units
from conftest import CORPUS, PROGRAMS, deadline, load_program
from generators import random_program, two_receivers
from goldens import LOOP_BRANCH_GRAMMAR, RECURSIVE_PAIR_GRAMMAR
from oracles import (
    bounded_language,
    find_nonterminal_bijection,
    parse_dump,
    reference_build,
    reference_build_cfg,
    reference_simplify_grammar,
    rules_by_head,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

MODULE = 'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'


def grammar_of(name: str, entry: str):
    prog = load_program(name)
    return build_behavior_grammar(prog, entry, prog.modules[0])


def heads_bodies(grammar) -> set[tuple[str, tuple[str, ...]]]:
    return {(p.head, p.body) for p in grammar.productions}


# ---------------------------------------------------------------------------
# reference grammars


def test_recursive_pair_matches_reference():
    grammar = grammar_of("recursive_pair.mg", "f")
    golden = parse_dump(RECURSIVE_PAIR_GRAMMAR)
    mapping = find_nonterminal_bijection(grammar, golden)
    assert mapping is not None, "no renaming reproduces the reference grammar"
    assert mapping["@f"] == "F'"
    assert mapping["@g"] == "G'"


def test_loop_branch_matches_reference():
    grammar = grammar_of("loop_branch.mg", "f")
    golden = parse_dump(LOOP_BRANCH_GRAMMAR)
    assert find_nonterminal_bijection(grammar, golden) is not None


def test_one_production_per_node_and_method():
    src = MODULE + (
        "class C {\n"
        "  thread void f() { m.a(); g(); }\n"
        "  void g() { m.b(); }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    grammar = build_behavior_grammar(prog, "f", prog.modules[0])
    assert grammar.start == "@f"
    assert grammar.terminals == frozenset({"a", "b"})
    assert heads_bodies(grammar) == {
        ("@f", ("f.0",)),
        ("f.0", ("f.1",)),
        ("f.1", ("a", "f.2")),
        ("f.2", ("@g", "f.3")),
        ("f.3", ()),
        ("@g", ("g.0",)),
        ("g.0", ("g.1",)),
        ("g.1", ("b", "g.2")),
        ("g.2", ()),
    }


def test_empty_method_grammar_is_an_epsilon_chain():
    src = MODULE + "class C {\n  thread void f() { }\n}\n"
    prog = parse_program(src, "t.mg")
    grammar = build_behavior_grammar(prog, "f", prog.modules[0])
    assert heads_bodies(grammar) == {
        ("@f", ("f.0",)),
        ("f.0", ("f.1",)),
        ("f.1", ()),
    }
    assert bounded_language(grammar, 4) == {()}


def test_terminal_occurrences_carry_call_sites():
    grammar = grammar_of("recursive_pair.mg", "f")
    seen = 0
    for p in grammar.productions:
        for i, sym in enumerate(p.body):
            if sym in grammar.terminals:
                site = p.sites[i]
                assert site is not None
                assert site.method == sym
                assert site.file == "recursive_pair.mg" and site.line > 0
                seen += 1
    assert seen == 4


def test_symbol_method_naming():
    assert symbol_method("@f") == "f"
    assert symbol_method("f.3") == "f"
    assert symbol_method("$start:C") is None
    assert symbol_method("a") is None


# ---------------------------------------------------------------------------
# dumping


def test_dump_round_trip():
    grammar = grammar_of("recursive_pair.mg", "f")
    text = dump_grammar(grammar)
    again = parse_dump(text)
    assert again.start == grammar.start
    assert heads_bodies(again) == heads_bodies(grammar)
    assert dump_grammar(again) == text


# ---------------------------------------------------------------------------
# simplification


def test_simplify_inlines_unit_chains():
    grammar = parse_dump("Start: A\nA -> B\nA -> C\nB -> D\nC -> D\n")
    assert heads_bodies(simplify_grammar(grammar)) == {("A", ("D",))}


def test_simplify_keeps_method_symbols():
    prog = load_program("branching_client.mg")
    grammar = simplify_grammar(build_behavior_grammar(prog, "run", prog.modules[0]))
    symbols = {p.head for p in grammar.productions}
    assert {"@f", "@g"} <= symbols
    assert "run.0" not in symbols, "plain node chains should be inlined"


BUNDLED_ENTRIES = [
    ("recursive_pair.mg", "f"),
    ("loop_branch.mg", "f"),
    ("nested_calls.mg", "run"),
    ("branching_client.mg", "run"),
    ("alternating_loop.mg", "main"),
    ("straight_line.mg", "run"),
]


@pytest.mark.parametrize("name,entry", BUNDLED_ENTRIES)
def test_simplify_preserves_bounded_language(name, entry):
    grammar = grammar_of(name, entry)
    simplified = simplify_grammar(grammar)
    assert bounded_language(simplified, 6) == bounded_language(grammar, 6)
    assert len(simplified.productions) <= len(grammar.productions)


@pytest.mark.parametrize("name,entry", BUNDLED_ENTRIES)
def test_simplify_is_idempotent(name, entry):
    once = simplify_grammar(grammar_of(name, entry))
    assert heads_bodies(simplify_grammar(once)) == heads_bodies(once)


def test_simplify_preserves_language_on_random_programs():
    for seed in range(25):
        text, _ = random_program(random.Random(seed))
        prog = parse_program(text, f"seed{seed}.mg")
        grammar = build_behavior_grammar(prog, "t0", prog.modules[0])
        assert bounded_language(simplify_grammar(grammar), 5) == bounded_language(
            grammar, 5
        )


def every_grammar(prog):
    """Plain, per-site and class-scope grammars of every module, with and
    without each allocation site."""
    result = compute_pointsto(prog)
    for module in prog.modules:
        for entry in sorted(m.name for m in prog.client_methods.values() if m.is_thread):
            yield build_behavior_grammar(prog, entry, module)
            for site in result.sites:
                yield build_behavior_grammar_pointsto(prog, entry, module, site, result)
        for cls in prog.client_classes:
            if cls.methods:
                yield build_class_scope_grammar(prog, cls, module)
                for site in result.sites:
                    yield build_class_scope_grammar(
                        prog, cls, module, site=site, pointsto=result
                    )


def single_rule_node_heads(grammar) -> dict[str, Production]:
    """The heads `simplify_grammar` inlines, with their rules: node symbols
    other than the start that head a single rule."""
    return {
        head: rules[0]
        for head, rules in rules_by_head(grammar).items()
        if len(rules) == 1 and head != grammar.start and not head.startswith(("@", "$start:"))
    }


def derives_itself(rules: dict[str, Production], head: str) -> bool:
    """Whether `head` is on a cycle of the heads in `rules`, each named in
    the rule of the one before: a depth-first search from its rule."""
    seen: set[str] = set()
    todo = [head]
    while todo:
        for sym in rules[todo.pop()].body:
            if sym == head:
                return True
            if sym in rules and sym not in seen:
                seen.add(sym)
                todo.append(sym)
    return False


def assert_simplifies_like_reference(grammar):
    """`simplify_grammar` gives the reference's result, or it raises, and
    it raises exactly when the reference keeps a single-rule node head: one
    on a cycle of such heads that the start reaches.  The error names a
    head of that cycle."""
    want = reference_simplify_grammar(grammar)
    rules = single_rule_node_heads(grammar)
    if rules.keys().isdisjoint(p.head for p in want.productions):
        got = simplify_grammar(grammar)
        assert dump_grammar(got) == dump_grammar(want)
        assert [p.sites for p in got.productions] == [p.sites for p in want.productions]
        return
    with pytest.raises(AtomguardError, match="derives itself") as error:
        simplify_grammar(grammar)
    (named,) = [head for head in rules if f"node {head!r} " in str(error.value)]
    assert derives_itself(rules, named)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_simplify_matches_reference_on_random_programs(seed):
    text, _ = random_program(random.Random(seed))
    prog = parse_program(text, f"seed{seed}.mg")
    grammars = list(every_grammar(prog))
    assert len(grammars) >= 4, "plain, per-site and class-scope, with and without site"
    for grammar in grammars:
        assert len(set(grammar.productions)) == len(grammar.productions)
        assert_simplifies_like_reference(grammar)


def test_simplify_matches_reference_on_bundled_programs():
    paths = sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))
    count = 0
    for path in paths:
        for grammar in every_grammar(parse_program(path.read_text(), path.name)):
            assert len(set(grammar.productions)) == len(grammar.productions)
            assert_simplifies_like_reference(grammar)
            count += 1
    assert count > 100


@pytest.mark.parametrize("flags", [(), ("--class-scope",), ("--no-points-to",)],
                         ids=["default", "class-scope", "no-points-to"])
def test_simplify_matches_reference_on_bench_families(flags):
    # long straight runs of calls, where most inlined rules are a call
    # node's `n -> h succ`; each task's raw grammar, restricted to its site
    # where it carries its unit's base, and each base
    options = {"class_scope": "--class-scope" in flags, "points_to": "--no-points-to" not in flags}
    rng = random.Random(7)
    cases = [families.straight(rng, n, flags) for n in (1, 10, 30)]
    cases += [families.chain(rng, d, flags) for d in (1, 5, 12)]
    cases += [families.sites(rng, s, flags) for s in (1, 3, 5)]
    compared = 0
    for case in cases:
        prog = parse_program(case.text, f"{case.name}.mg")
        for task in grammar_stage(prog, **options):
            grammars = [task.grammar]
            if task.drop is not None:
                grammars.append(site_restrictor(task.grammar, task.drop.tracked)(task.drop.own))
            for grammar in grammars:
                assert_simplifies_like_reference(grammar)
                compared += 1
    assert compared >= len(cases)


def test_simplify_rejects_a_cycle_of_single_rule_nodes():
    # The reference, inlining X first, keeps Y with a rule that derives no
    # finite word; the one pass names X, where the start enters the cycle.
    grammar = parse_dump("Start: S\nS -> X\nX -> Y a\nY -> X b\n")
    assert dump_grammar(reference_simplify_grammar(grammar)) == "Start: S\nS -> Y a\nY -> Y a b\n"
    with pytest.raises(AtomguardError, match="^grammar node 'X' has a single rule and derives itself"):
        simplify_grammar(grammar)


def test_simplify_splices_every_occurrence_with_its_sites():
    def site(method, line):
        return CallSite("n", method, "t.mg", line, (), None)

    a, b, c = site("a", 1), site("b", 2), site("c", 3)
    grammar = BehaviorGrammar(
        start="@f",
        terminals=frozenset("abc"),
        productions=(
            Production("@f", ("n", "n", "c"), (None, None, c)),
            Production("n", ("m", "b"), (None, b)),
            Production("m", ("a",), (a,)),
        ),
    )
    (rule,) = simplify_grammar(grammar).productions
    assert rule.body == ("a", "b", "a", "b", "c")
    assert rule.sites == (a, b, a, b, c)


# Symbols of the random grammars: node symbols that sort unlike their
# numbers, method symbols, a scope start and two terminals.  Sites come from
# a small pool with two equal sites that are distinct objects.
RANDOM_HEADS = ("n.0", "n.1", "n.2", "n.10", "x", "@f", "@g", "$start:C")
RANDOM_TERMINALS = ("a", "b")
RANDOM_SITES = (
    None,
    CallSite("n.1", "a", "r.mg", 1, (), None),
    CallSite("n.1", "a", "r.mg", 1, (), None),
    CallSite("n.2", "b", "r.mg", 2, ("x",), "y"),
)


@st.composite
def small_grammars(draw):
    """Up to 8 heads with 0 to 2 rules each, mostly 1 so that single-rule
    heads form cycles often, and some rules repeated.  Bodies name heads
    twice as often as terminals; each body symbol carries a site from the
    pool."""
    heads = draw(st.lists(st.sampled_from(RANDOM_HEADS), min_size=1, max_size=8, unique=True))
    symbol = st.tuples(
        st.sampled_from(heads * 2 + list(RANDOM_TERMINALS)), st.sampled_from(RANDOM_SITES)
    )
    rules = [
        (head, draw(st.lists(symbol, max_size=4)))
        for head in heads
        for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2))))
    ]
    rules += draw(st.lists(st.sampled_from(rules), max_size=3)) if rules else []
    rules = draw(st.permutations(rules))
    productions = tuple(
        Production(head, tuple(s for s, _ in body), tuple(site for _, site in body))
        for head, body in rules
    )
    return BehaviorGrammar(
        start=draw(st.sampled_from(heads)),
        terminals=frozenset(RANDOM_TERMINALS),
        productions=productions,
    )


@settings(max_examples=600, deadline=None)
@given(small_grammars())
def test_simplify_matches_reference_on_random_grammars(grammar):
    assert_simplifies_like_reference(grammar)


@pytest.mark.parametrize(
    "dump",
    [
        "Start: S\nS -> X\nX -> X a\n",  # a single-rule self-loop
        "Start: S\nS -> X b\nX -> Y\nY -> Z a\nZ -> X\n",  # a single-rule 3-cycle
        "Start: S\nS -> n.2 n.10\nn.2 -> n.10 a\nn.10 -> n.2 b\n",  # entered twice
        "Start: S\nS -> X Y\nX -> Y a Y\nY -> X\nY -> b\n",  # a cycle through two rules
        "Start: S\nS -> X X epsilon\nX -> epsilon\n",
        "Start: S\nS -> X S a\nS -> epsilon\nX -> Y\nY -> b\n",  # the start in a body
        "Start: @f\n@f -> n.0\nn.0 -> @g a\n@g -> n.1\nn.1 -> @f\n",
        "Start: $start:C\n$start:C -> @f\n@f -> n.0\nn.0 -> $start:C\n",
        "Start: S\nS -> X\nS -> X\nX -> a a\n",  # a repeated rule
        "Start: X\nX -> Y\nY -> a\nZ -> Z\n",  # an unreachable self-loop
        "Start: S\nS -> Y\nX -> X Y\nY -> X b\n",  # a cycle through a self-loop
    ],
)
def test_simplify_matches_reference_on_cycles_and_edge_cases(dump):
    assert_simplifies_like_reference(parse_dump(dump))


# The one-pass simplification relies on this: every control-flow cycle
# passes through a `while` node, whose two distinct successors give its head
# two rules under every call and skip selection, so no builder grammar has a
# cycle of single-rule node heads.
OPTION_SETS = ({}, {"class_scope": True}, {"points_to": False})


def assert_single_rule_heads_form_no_cycle(prog) -> tuple[int, int, int]:
    """Every raw grammar that `grammar_stage` yields under each option set,
    a base grammar carried by site tasks included, has no single-rule node
    head on a cycle of such heads, and every `while` node of the program has
    two distinct successors; returns the numbers of grammars, of tasks
    carrying a base grammar and of `while` nodes."""
    loops = 0
    for method in prog.client_methods.values():
        cfg = build_cfg(method)
        for ref in reference_build_cfg(method):  # which node is a `while`
            if ref.stmt.__class__ is While:
                node = cfg[ref.index]
                assert len(node.succ) == 2 and node.succ[0] != node.succ[1], (method.name, node)
                loops += 1
    grammars: dict[int, BehaviorGrammar] = {}
    drops = 0
    for options in OPTION_SETS:
        for task in grammar_stage(prog, **options):
            grammars[id(task.grammar)] = task.grammar
            drops += task.drop is not None
    for grammar in grammars.values():
        rules = single_rule_node_heads(grammar)
        assert [head for head in rules if derives_itself(rules, head)] == [], grammar.start
    return len(grammars), drops, loops


def test_builder_grammars_have_no_cycle_of_single_rule_nodes():
    paths = sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))
    progs = [parse_program(path.read_text(), path.name) for path in paths]
    for seed in range(200):
        text, _ = random_program(random.Random(seed))
        progs.append(parse_program(text, f"seed{seed}.mg"))
        text = two_receivers(text, random.Random(f"receivers{seed}"))
        progs.append(parse_program(text, f"receivers{seed}.mg"))
    counts = [assert_single_rule_heads_form_no_cycle(prog) for prog in progs]
    grammars, drops, loops = map(sum, zip(*counts))
    assert grammars > 1000 and drops > 500 and loops > 100


@pytest.mark.parametrize(
    "body",
    [
        "while (cond) { }",
        "m.a(); while (cond) { m.b(); }",
        "while (cond) { while (m.a()) { m.b(); } m.a(); }",
        "while (cond) { while (cond) { } }",
        "m.a(); return; while (cond) { m.b(); }",
        "while (cond) { if (cond) { } else { } }",
        "while (cond) { if (cond) { m.a(); } }",
    ],
    ids=["empty-body", "last", "nested", "nested-empty", "after-return", "empty-if", "if"],
)
def test_loop_shapes_give_while_nodes_two_successors(body):
    prog = parse_program(MODULE + "class C {\n  thread void f() { m = new M(); " + body + " }\n}\n", "t.mg")
    grammars, _, loops = assert_single_rule_heads_form_no_cycle(prog)
    assert grammars == len(OPTION_SETS) and loops == body.count("while")


def test_simplify_is_linear_on_a_long_chain():
    # Splicing each link into a body that keeps growing takes seconds here.
    n = 40_000
    grammar = BehaviorGrammar(
        start="@t",
        terminals=frozenset({"a"}),
        productions=(Production("@t", ("t.0",)),)
        + tuple(Production(f"t.{i}", ("a", f"t.{i + 1}")) for i in range(n - 1))
        + (Production(f"t.{n - 1}", ("a",)),),
    )
    with deadline(1.0):
        (rule,) = simplify_grammar(grammar).productions
    assert rule.head == "@t"
    assert rule.body == ("a",) * n


@contextmanager
def builds_checked_against_reference():
    """Within the block every grammar build is compared with the reference
    builder on the same arguments; yields the list of grammars built."""
    built = []
    original = atomguard.grammar._build

    def checked(*args, **kwargs):
        got = original(*args, **kwargs)
        want = reference_build(*args, **kwargs)
        assert dump_grammar(got) == dump_grammar(want)
        assert [p.sites for p in got.productions] == [p.sites for p in want.productions]
        built.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(atomguard.grammar, "_build", checked)
        yield built


def assert_builds_like_reference(prog) -> int:
    """Build every grammar of the program, through the checker's stream (one
    shared lowering per run) and standalone, and compare each with the
    reference; returns how many were compared."""
    with builds_checked_against_reference() as built:
        for options in ({}, {"class_scope": True}, {"points_to": False}):
            for _ in grammar_stage(prog, **options):
                pass
        for _ in every_grammar(prog):
            pass
    return len(built)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_builders_match_reference_on_random_programs(seed):
    text, _ = random_program(random.Random(seed))
    for variant in (text, two_receivers(text, random.Random(seed))):
        prog = parse_program(variant, f"seed{seed}.mg")
        assert assert_builds_like_reference(prog) >= 7


def test_builders_match_reference_on_bundled_programs():
    paths = sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))
    count = sum(
        assert_builds_like_reference(parse_program(path.read_text(), path.name))
        for path in paths
    )
    assert count > 200


def test_builders_match_reference_on_every_selection():
    # receivers that may be either of two sites (m), that no allocation
    # reaches (u), that hold another module (k), and a call leaving the class
    src = MODULE + (
        'class N contract { "c c" } {\n  void c() { }\n}\n'
        "class C {\n"
        "  thread void run() {\n"
        "    m = cond ? new M() : new M();\n"
        "    var k = new N();\n"
        "    m.a(); k.c(); f();\n"
        "    if (cond) { return; }\n"
        "    m.b();\n"
        "  }\n"
        "  void f() { u.a(); u.b(); g(); }\n"
        "}\n"
        "class D {\n"
        "  void g() { m.b(); }\n"
        "}\n"
    )
    assert assert_builds_like_reference(parse_program(src, "t.mg")) > 20


# ---------------------------------------------------------------------------
# allocation-site refinement


def test_single_site_grammar_equals_plain():
    prog = load_program("nested_calls.mg")
    module = prog.modules[0]
    result = compute_pointsto(prog)
    sites = result.sites
    assert len(sites) == 1
    refined = build_behavior_grammar_pointsto(prog, "run", module, sites[0], result)
    plain = build_behavior_grammar(prog, "run", module)
    assert heads_bodies(refined) == heads_bodies(plain)


def test_ambiguous_receiver_keeps_call_and_skip():
    src = MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    m = cond ? new M() : new M();\n"
        "    m.a();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    result = compute_pointsto(prog)
    for site in result.sites:
        grammar = build_behavior_grammar_pointsto(
            prog, "run", prog.modules[0], site, result
        )
        assert bounded_language(grammar, 2) == {(), ("a",)}


def test_foreign_receiver_calls_are_skipped():
    src = MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    m = new M();\n"
        "    n = new M();\n"
        "    m.a();\n"
        "    n.b();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    result = compute_pointsto(prog)
    sites = result.sites
    languages = [
        bounded_language(
            build_behavior_grammar_pointsto(prog, "run", prog.modules[0], s, result), 3
        )
        for s in sites
    ]
    assert languages == [{("a",)}, {("b",)}]


def test_unknown_receiver_keeps_both_alternatives():
    src = MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    var m = new M();\n"
        "    f();\n"
        "  }\n"
        "  void f() {\n"
        "    m.a();\n"
        "    m.b();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    result = compute_pointsto(prog)
    (site,) = result.sites
    assert result.may_sites("f", "m") == frozenset(), "global m is never assigned"
    grammar = build_behavior_grammar_pointsto(prog, "run", prog.modules[0], site, result)
    assert bounded_language(grammar, 3) == {(), ("a",), ("b",), ("a", "b")}


# ---------------------------------------------------------------------------
# class-scope grammars


def test_class_scope_offers_every_method_as_a_start():
    src = MODULE + (
        "class C {\n"
        "  thread void f() { m = new M(); m.a(); }\n"
        "  void g() { m.b(); }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    grammar = build_class_scope_grammar(prog, prog.client_classes[0], prog.modules[0])
    starts = {p.body for p in grammar.productions if p.head == grammar.start}
    assert starts == {("@f",), ("@g",)}
    assert bounded_language(grammar, 2) == {("a",), ("b",)}


def test_class_scope_ignores_escaping_calls():
    src = MODULE + (
        "class C1 {\n"
        "  thread void run() { m = new M(); m.a(); helper(); }\n"
        "}\n"
        "class C2 {\n"
        "  void helper() { m.b(); }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    module = prog.modules[0]
    c1, c2 = prog.client_classes
    assert bounded_language(build_class_scope_grammar(prog, c1, module), 3) == {("a",)}
    assert bounded_language(build_class_scope_grammar(prog, c2, module), 3) == {("b",)}


def test_builders_reject_a_missing_entry_and_an_empty_class():
    prog = parse_program(MODULE + "class C {\n  thread void run() { }\n}\nclass E { }\n", "t.mg")
    module = prog.modules[0]
    with pytest.raises(AtomguardError, match="no client method named 'nope'"):
        build_behavior_grammar(prog, "nope", module)
    with pytest.raises(AtomguardError, match="class 'E' has no methods"):
        build_class_scope_grammar(prog, prog.client_classes[1], module)


# ---------------------------------------------------------------------------
# per-site grammars by restriction of one base grammar per unit


def own_grammars(prog, options):
    """The grammar of every (module, unit, site) in report order, each built
    on its own by the site's builder: what a restricted grammar must equal."""
    pointsto = compute_pointsto(prog) if options.get("points_to", True) else None
    for mod in prog.modules:
        if not parse_contract(mod.contract_text or "", {m.name for m in mod.methods}):
            continue
        for unit in _units(prog, options.get("class_scope", False)):
            sites = []
            if pointsto is not None:
                methods = _reachable_methods(prog, unit.roots, unit.scope)
                sites = module_alloc_sites(prog, methods, mod, pointsto)
            for site in sites or [None]:
                yield _grammar(prog, mod, unit, site, pointsto)


def assert_same_grammar(got, want):
    assert dump_grammar(got) == dump_grammar(want)
    assert [p.sites for p in got.productions] == [p.sites for p in want.productions]


def assert_sites_restrict_exactly(prog, **options) -> tuple[int, int]:
    """Each task's raw and simplified grammar equal those of the site's own
    builder grammar; returns how many site tasks were restricted from their
    unit's base grammar and how many got a grammar of their own (a unit's
    only site does)."""
    tasks = list(grammar_stage(prog, **options))
    wants = list(own_grammars(prog, options))
    assert len(tasks) == len(wants)
    restricted = own = 0
    for task, simplified, want in zip(tasks, simplify_stage(tasks), wants):
        raw = task.grammar
        if task.drop is not None:
            raw = site_restrictor(raw, task.drop.tracked)(task.drop.own)
            restricted += 1
        elif task.site is not None:
            own += 1
        assert_same_grammar(raw, want)
        assert_same_grammar(simplified.grammar, simplify_grammar(want))
        assert simplified.drop is None
    return restricted, own


def assert_programs_restrict_exactly(progs, option_sets=({}, {"class_scope": True})):
    restricted = own = 0
    for prog in progs:
        for options in option_sets:
            r, o = assert_sites_restrict_exactly(prog, **options)
            restricted += r
            own += o
    return restricted, own


def test_site_grammars_restrict_exactly_on_bundled_programs():
    paths = sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))
    progs = [parse_program(path.read_text(), path.name) for path in paths]
    restricted, own = assert_programs_restrict_exactly(progs)
    assert restricted == 0 and own == 80, "no bundled unit has two sites"


def test_site_grammars_restrict_exactly_on_random_programs():
    progs = []
    for seed in range(500):
        text, _ = random_program(random.Random(seed))
        progs.append(parse_program(text, f"seed{seed}.mg"))
        if seed < 300:
            text = two_receivers(text, random.Random(f"receivers{seed}"))
            progs.append(parse_program(text, f"receivers{seed}.mg"))
    restricted, _ = assert_programs_restrict_exactly(progs)
    assert restricted > 1000


def test_site_grammars_restrict_exactly_on_bench_families():
    rng = random.Random(7)
    cases = [families.sites(rng, s) for s in (2, 3, 5, 10, 30)]
    cases += [families.chain(rng, d) for d in (5, 10, 20, 30, 60)]
    progs = [parse_program(case.text, f"{case.name}.mg") for case in cases]
    # sites: two modules and two units of s sites each; chain: one site
    assert assert_programs_restrict_exactly(progs) == (2 * 4 * (2 + 3 + 5 + 10 + 30), 2 * 5)


@pytest.mark.parametrize(
    "body",
    [
        # a ternary of two allocations: m may be either site
        "thread void run() { m = cond ? new M() : new M(); m.a(); m.b(); }",
        # one parameter fed two sites
        "thread void run() { var x = new M(); var y = new M(); use(x); use(y); }\n"
        "  void use(M p) { p.a(); p.b(); }",
    ],
    ids=["ternary", "parameter"],
)
def test_sites_that_share_a_call_get_their_own_grammar(body):
    prog = parse_program(MODULE + "class C {\n  " + body + "\n}\n", "t.mg")
    tasks = list(grammar_stage(prog))
    assert len(tasks) == 2 and all(task.drop is None for task in tasks)
    assert assert_programs_restrict_exactly([prog]) == (0, 4)
