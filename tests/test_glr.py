"""Parse table construction and subword parsing."""

from __future__ import annotations

import random
import re
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomguard import (
    ParseStats,
    ParseTable,
    build_behavior_grammar,
    build_parse_table,
    dump_tree,
    parse_program,
    parse_subword_until_lca,
    simplify_grammar,
    symbol_method,
    tree_sites,
    verify_with_stats,
)
from atomguard.verifier import grammar_stage, search_stage, simplify_stage
from conftest import CORPUS, PROGRAMS, deadline, load_program
from generators import random_program
from oracles import (
    assert_tree_pruned,
    bounded_language,
    parse_dump,
    reference_build_parse_table,
    reference_key,
    reference_leaf_sites,
    reference_parse,
    reference_sites,
    sited_key,
    tree_word,
    tree_word_count,
)
from test_grammar import small_grammars
from test_growth import SIZES as GROWTH_SIZES
from test_growth import make as growth_case

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402


def table_for(name: str, entry: str):
    prog = load_program(name)
    grammar = simplify_grammar(build_behavior_grammar(prog, entry, prog.modules[0]))
    return build_parse_table(grammar), grammar


def assert_minimal_cover(tree) -> None:
    """No internal node below the root may already cover the whole word."""

    def walk(node, is_root):
        if node.children is None:
            return
        if not is_root:
            assert tree_word_count(node) < tree_word_count(tree)
        for child in node.children:
            walk(child, False)

    if tree_word_count(tree) > 1:
        walk(tree, True)


# ---------------------------------------------------------------------------
# tables


def test_single_production_table():
    table = build_parse_table(parse_dump("Start: S\nS -> a\n"))
    assert len(table.states) == 3
    assert table.goto[(0, "a")] == 2, "state 0 shifts a"
    assert not table.reduce_mid[0], "and has nothing to reduce"
    reduce_states = [s for s in range(3) if table.reduce_mid[s]]
    assert reduce_states, "the completed item must be recorded somewhere"


def test_conflicting_actions_are_kept_as_data():
    table, grammar = table_for("branching_client.mg", "run")
    conflicted = [
        (s, t)
        for s in range(len(table.states))
        for t in grammar.terminals
        if ((s, t) in table.goto) + len(table.reduce_mid[s]) >= 2
    ]
    assert conflicted, "the ambiguous client must produce a conflict state"
    assert any(len(table.reduce_mid[s]) >= 2 for s in range(len(table.states)))


# ---------------------------------------------------------------------------
# subword parsing against the grammar language


def test_membership_agrees_with_bounded_enumeration():
    # the search finds a word exactly when it is a factor of some word of the
    # language; recursive_pair.mg is left out, as its words outgrow any bound
    words = 0
    for name, entry in [
        ("nested_calls.mg", "run"),
        ("branching_client.mg", "run"),
        ("loop_branch.mg", "f"),
    ]:
        table, grammar = table_for(name, entry)
        factors = {
            w[i:j]
            for w in bounded_language(grammar, 6)
            for i in range(len(w))
            for j in range(i + 1, len(w) + 1)
        }
        terms = sorted(grammar.terminals)
        for length in range(1, 5):
            for word in product(terms, repeat=length):
                found = bool(parse_subword_until_lca(table, word))
                assert found == (word in factors), (name, word)
                words += 1
    assert words == 490


def test_occurrence_counts_on_reference_programs():
    table4, _ = table_for("nested_calls.mg", "run")
    assert len(parse_subword_until_lca(table4, ("a", "b", "b", "c"))) == 1

    table5, _ = table_for("branching_client.mg", "run")
    assert len(parse_subword_until_lca(table5, ("a", "b"))) == 2

    table_line, _ = table_for("straight_line.mg", "run")
    assert len(parse_subword_until_lca(table_line, ("b", "c"))) == 1


def test_repeated_terminal_nests_in_the_loop():
    table, _ = table_for("nested_calls.mg", "run")
    (tree,) = parse_subword_until_lca(table, ("a", "b", "b", "c"))

    def depths(node, term, depth=0):
        if node.children is None:
            return [depth] if node.symbol == term else []
        out = []
        for child in node.children:
            out.extend(depths(child, term, depth + 1))
        return out

    first, second = sorted(depths(tree, "b"))
    assert first != second, "loop iterations must nest, not sit side by side"


# ---------------------------------------------------------------------------
# lowest common ancestors


def test_full_parse_lca():
    table, grammar = table_for("nested_calls.mg", "run")
    word = ("a", "b", "b", "c")
    (full,) = reference_parse(table, word, False, None)
    (lca,) = parse_subword_until_lca(table, word)
    assert symbol_method(lca.symbol) == "run"

    def covering(node):
        # nodes of the full parse that cover the whole word, root first
        if node.children is None or node.count < len(word):
            return []
        return [node] + [n for child in node.children for n in covering(child)]

    # the deepest covering node of the full parse is the until-LCA root
    assert covering(full)[-1].key == sited_key(lca, grammar)


def test_until_lca_roots_are_the_ancestors():
    table4, _ = table_for("nested_calls.mg", "run")
    (tree,) = parse_subword_until_lca(table4, ("a", "b", "b", "c"))
    assert symbol_method(tree.symbol) == "run"
    assert tree_word(tree) == ("a", "b", "b", "c")

    table5, _ = table_for("branching_client.mg", "run")
    trees = parse_subword_until_lca(table5, ("a", "b"))
    assert {symbol_method(t.symbol) for t in trees} == {"f", "run"}


def test_single_call_word_names_the_enclosing_method():
    table, _ = table_for("branching_client.mg", "run")
    trees = parse_subword_until_lca(table, ("b",))
    assert len(trees) == 1
    assert symbol_method(trees[0].symbol) == "g"


def test_elision_bookkeeping_on_straight_line():
    table, grammar = table_for("straight_line.mg", "run")
    (tree,) = parse_subword_until_lca(table, ("b", "c"))
    assert tree.elided_left == 1, "the leading a() is context, not word"
    assert tree.elided_right == 1, "the trailing d() is context, not word"
    assert tree_word(tree) == ("b", "c")
    assert [s.method for s in tree_sites(tree, grammar)] == ["b", "c"]


def test_unmatchable_words_return_nothing():
    table, _ = table_for("nested_calls.mg", "run")
    assert parse_subword_until_lca(table, ("a", "a")) == []
    assert parse_subword_until_lca(table, ("z",)) == []
    table2, _ = table_for("recursive_pair.mg", "f")
    assert parse_subword_until_lca(table2, ("b", "a")) == []


# ---------------------------------------------------------------------------
# recursion, loops, termination


def test_recursive_grammar_terminates_and_prunes():
    table, _ = table_for("recursive_pair.mg", "f")
    trees = parse_subword_until_lca(table, ("a", "b"))
    assert trees
    assert {symbol_method(t.symbol) for t in trees} == {"f"}
    for tree in trees:
        assert_tree_pruned(tree)
        assert_minimal_cover(tree)


def test_loop_grammar_terminates_and_prunes():
    table, _ = table_for("alternating_loop.mg", "main")
    trees = parse_subword_until_lca(table, ("a", "b", "c"))
    assert trees
    # One occurrence crosses the loop and f(); the other sits inside g().
    assert {symbol_method(t.symbol) for t in trees} == {"main", "g"}
    for tree in trees:
        assert_tree_pruned(tree)
        assert_minimal_cover(tree)


def test_all_reference_parses_are_pruned_and_minimal():
    cases = [
        ("nested_calls.mg", "run", ("a", "b", "b", "c")),
        ("branching_client.mg", "run", ("a", "b")),
        ("branching_client.mg", "run", ("b",)),
        ("straight_line.mg", "run", ("b", "c")),
        ("loop_branch.mg", "f", ("b", "c")),
        ("loop_branch.mg", "f", ("a", "b")),
    ]
    for name, entry, word in cases:
        table, _ = table_for(name, entry)
        for tree in parse_subword_until_lca(table, word):
            assert_tree_pruned(tree)
            assert_minimal_cover(tree)
        for tree in reference_parse(table, word, False, None):
            assert_tree_pruned(tree)


# ---------------------------------------------------------------------------
# bookkeeping


def test_parse_stats_count_trees_and_branches():
    table, _ = table_for("branching_client.mg", "run")
    stats = ParseStats()
    trees = parse_subword_until_lca(table, ("a", "b"), stats)
    assert stats.trees == len(trees) == 2
    assert stats.branches >= stats.trees


def test_parsing_is_deterministic():
    table, grammar = table_for("branching_client.mg", "run")
    first = [dump_tree(t, grammar) for t in parse_subword_until_lca(table, ("a", "b"))]
    second = [dump_tree(t, grammar) for t in parse_subword_until_lca(table, ("a", "b"))]
    assert first == second


# ---------------------------------------------------------------------------
# search size: exact branch counts


# thread body and helpers, clause -> (violations, trees, branches)
SEARCH_SHAPES = {
    # an epsilon-recursive helper in a loop: the zero-count push guard
    # (under state, symbol) is all that keeps this search from running on and on
    "epsilon-recursion": (
        "thread void run() { while (cond) { e(); m.a(); } m.b(); }\n"
        "  void e() { if (cond) { e(); e(); } }",
        "a b",
        (1, 1, 9),
    ),
    # mutual recursion through an empty alternative: without the repeated
    # push guard (under state, symbol, depth) the search finds 5 trees in 2,014 branches and
    # reports the same two violations in the other order
    "hidden-left-recursion": (
        "thread void run() { f(); m.b(); }\n"
        "  void f() { if (cond) { f(); m.a(); } else { g(); } }\n"
        "  void g() { if (cond) { g(); f(); } }",
        "a a a",
        (2, 4, 1694),
    ),
    "diamonds-3": (
        "thread void run() {\n" + "    if (cond) { m.a(); } else { m.b(); }\n" * 3 + "  }",
        "a b",
        (2, 2, 39),
    ),
    "diamonds-5": (
        "thread void run() {\n" + "    if (cond) { m.a(); } else { m.b(); }\n" * 5 + "  }",
        "a b",
        (4, 4, 147),
    ),
    "loop-with-branch": (
        "thread void run() { while (cond) { if (cond) { m.a(); } else { m.b(); } } }",
        "a b",
        (1, 1, 60),
    ),
    "shared-helper": (
        "thread void run() { h(); m.b(); h(); m.b(); h(); }\n  void h() { m.a(); }",
        "a b",
        (1, 2, 21),
    ),
    "optional-helper": (
        "thread void run() { h(); h(); h(); h(); m.b(); }\n"
        "  void h() { if (cond) { m.a(); } }",
        "a b",
        (1, 4, 340),
    ),
}


@pytest.mark.parametrize("shape", sorted(SEARCH_SHAPES))
def test_search_branch_counts_are_pinned(shape):
    # A change to the search that explores more (or fewer) branches shows
    # here as an exact count, long before it shows in wall time.
    body, clause, expected = SEARCH_SHAPES[shape]
    module = f'class M contract {{ "{clause}" }} {{\n  void a() {{ }}\n  void b() {{ }}\n}}\n'
    program = parse_program(module + "class C {\n  " + body + "\n}\n", f"{shape}.mg")
    with deadline(2.0):
        violations, stats = verify_with_stats(program)
    assert (len(violations), stats.trees, stats.branches) == expected


# ---------------------------------------------------------------------------
# the search against the original one (a record per branch, eager keys)

FLAGS = {
    "default": {},
    "class-scope": {"class_scope": True},
    "no-points-to": {"points_to": False},
}


def searches(program, **options):
    """(table, word) of every search `verify_with_stats` makes on the program."""
    for task in simplify_stage(grammar_stage(program, **options)):
        table = build_parse_table(task.grammar)
        for _, words in task.words:
            for word in words:
                yield table, word.methods


def tree_fields(tree, key, sites):
    return (
        key, tree.symbol, tree.count, tree.production, tree.elided_left, tree.elided_right, sites,
    )


def assert_search_like_reference(table, word) -> None:
    """Both searches find the same trees in the same order, over the same
    number of branches; the search's trees, read with the table's grammar,
    have the reference's keys and call sites."""
    got_stats, want_stats = ParseStats(), ParseStats()
    got = parse_subword_until_lca(table, word, got_stats)
    want = reference_parse(table, word, True, want_stats)
    grammar = table.grammar
    assert [
        tree_fields(t, sited_key(t, grammar), tree_sites(t, grammar)) for t in got
    ] == [tree_fields(t, t.key, reference_sites(t)) for t in want], word
    assert (got_stats.branches, got_stats.trees) == (want_stats.branches, want_stats.trees)


@pytest.mark.parametrize("flags", sorted(FLAGS))
def test_search_matches_reference_on_bundled_programs(flags):
    searched = 0
    for path in sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg")):
        program = parse_program(path.read_text(), path.name)
        for table, word in searches(program, **FLAGS[flags]):
            assert_search_like_reference(table, word)
            searched += 1
    assert searched > 40, searched


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_search_matches_reference_on_random_programs(seed):
    text, _ = random_program(random.Random(seed))
    for table, word in searches(parse_program(text, f"seed{seed}.mg")):
        assert_search_like_reference(table, word)


@pytest.mark.parametrize("shape", sorted(SEARCH_SHAPES))
def test_search_matches_reference_on_search_shapes(shape):
    body, clause, _ = SEARCH_SHAPES[shape]
    module = f'class M contract {{ "{clause}" }} {{\n  void a() {{ }}\n  void b() {{ }}\n}}\n'
    program = parse_program(module + "class C {\n  " + body + "\n}\n", f"{shape}.mg")
    for table, word in searches(program):
        assert_search_like_reference(table, word)


@pytest.mark.parametrize("flags", sorted(FLAGS))
def test_every_found_tree_has_its_reference_key_and_sites(flags):
    # every tree the checks find, shared same-shape searches included (each
    # read with its own check's grammar): the key the search gave it in
    # place, and its call sites in the order `dump_tree` prints its leaves
    texts = [(path.name, path.read_text())
             for path in sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))]
    # three-call words: straight on one line, and across an `if`
    texts.append(("abc.mg", 'class M contract { "a b c"; "c a b" } {\n'
                  "  void a() { }\n  void b() { }\n  void c() { }\n}\n"
                  "class C {\n  thread void run() {\n    m = new M();\n"
                  "    m.a(); m.b(); m.c();\n    if (cond) { m.a(); }\n    m.b();\n  }\n}\n"))
    cli_flags = () if flags == "default" else (f"--{flags}",)
    for family, size in GROWTH_SIZES.items():
        texts += [(f"{family}-{s}.mg", growth_case(family, s, cli_flags).text)
                  for s in (size, 2 * size)]
    found = 0
    for name, text in texts:
        program = parse_program(text, name)
        for check in search_stage(simplify_stage(grammar_stage(program, **FLAGS[flags]))):
            grammar = check.task.grammar
            for _, _, trees in check.trees:
                assert len({tree.key for tree in trees}) == len(trees)
                for tree in trees:
                    assert tree.key == reference_key(tree)
                    sites = tree_sites(tree, grammar)
                    assert sites == reference_leaf_sites(tree, grammar)
                    dumped = re.findall(r"\[(\S+):(\d+)\]$", dump_tree(tree, grammar), re.M)
                    assert [(s.file, str(s.line)) for s in sites] == dumped
                    found += 1
    assert found > 200, found


def test_repr_of_a_deep_tree_is_shallow():
    # 1,500 levels of calls make a tree 1,500 levels deep; a repr that
    # descended into the children would overflow the recursion limit
    methods = "".join(f"  void f{i}() {{ f{i + 1}(); }}\n" for i in range(1, 1500))
    program = parse_program(
        'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'
        "class C {\n  thread void run() { m = new M(); f1(); m.b(); }\n"
        + methods
        + "  void f1500() { m.a(); }\n}\n",
        "chain.mg",
    )
    ((table, word),) = searches(program)
    (tree,) = parse_subword_until_lca(table, word)
    depth, node = 0, tree
    while node.children:
        depth, node = depth + 1, node.children[0]
    assert depth > 1500
    assert repr(tree) == (
        f"ParseTree('@run', count=2, production={tree.production}, elided=0/0, 2 children)"
    )
    assert repr(node) == "ParseTree('a', count=1, production=None, elided=0/0, leaf)"


# ---------------------------------------------------------------------------
# the table against the original construction (closures item by item)

CLI_FLAGS = {"--class-scope": {"class_scope": True}, "--no-points-to": {"points_to": False}}


def assert_table_like_reference(grammar) -> None:
    """Every field equal, the dictionaries in the same order too."""
    got, want = build_parse_table(grammar), reference_build_parse_table(grammar)
    for field in ParseTable._fields:
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine == theirs, field
        if isinstance(mine, dict):
            assert list(mine.items()) == list(theirs.items()), field


def assert_tables_like_reference(program, **options) -> int:
    """The tables of every grammar a check of the program searches."""
    tasks = list(simplify_stage(grammar_stage(program, **options)))
    for task in tasks:
        assert_table_like_reference(task.grammar)
    return len(tasks)


@pytest.mark.parametrize("flags", sorted(FLAGS))
def test_tables_match_reference_on_bundled_programs(flags):
    built = 0
    for path in sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg")):
        built += assert_tables_like_reference(parse_program(path.read_text(), path.name), **FLAGS[flags])
    assert built > 30, built


@pytest.mark.parametrize("flags", sorted(FLAGS))
def test_tables_match_reference_on_random_programs(flags):
    for seed in range(200):
        text, _ = random_program(random.Random(seed))
        assert_tables_like_reference(parse_program(text, f"seed{seed}.mg"), **FLAGS[flags])


def test_tables_match_reference_on_bench_families():
    rng = random.Random(7)
    cases = [families.diamonds(rng, k) for k in (1, 3, 5)]
    cases += [families.loops(rng, k) for k in (1, 3)]
    cases += [families.helper(rng, k) for k in (1, 3)]
    cases += [families.random_draw(rng, i) for i in range(3)]
    for flags in ((), ("--no-points-to",), ("--class-scope",)):
        cases += [families.straight(rng, n, flags) for n in (1, 10)]
        cases += [families.chain(rng, d, flags) for d in (1, 5)]
        cases += [families.sites(rng, s, flags) for s in (1, 3)]
    for case in cases:
        options = {}
        for flag in case.flags:
            options.update(CLI_FLAGS[flag])
        assert assert_tables_like_reference(parse_program(case.text, f"{case.name}.mg"), **options)


@settings(max_examples=300, deadline=None)
@given(small_grammars())
def test_tables_match_reference_on_random_grammars(grammar):
    assert_table_like_reference(grammar)
