"""Parse table construction and subword parsing."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from itertools import product

import pytest

from atomguard import (
    ParseStats,
    bounded_language,
    build_behavior_grammar,
    build_parse_table,
    dump_tree,
    parse_dump,
    parse_program,
    parse_subword,
    parse_subword_until_lca,
    simplify_grammar,
    symbol_method,
    tree_sites,
    tree_word,
    verify_with_stats,
)
from conftest import load_program
from oracles import assert_tree_pruned, tree_word_count


def table_for(name: str, entry: str):
    prog = load_program(name)
    grammar = simplify_grammar(build_behavior_grammar(prog, entry, prog.modules[0]))
    return build_parse_table(grammar), grammar


def total_elisions(tree) -> int:
    total = tree.elided_left + tree.elided_right
    for child in tree.children or ():
        total += total_elisions(child)
    return total


def assert_minimal_cover(tree) -> None:
    """No internal node below the root may already cover the whole word."""

    def walk(node, is_root):
        if node.is_leaf:
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
    assert not table.complete[0], "and has nothing to reduce"
    reduce_states = [s for s in range(3) if table.complete[s]]
    assert reduce_states, "the completed item must be recorded somewhere"


def test_conflicting_actions_are_kept_as_data():
    table, grammar = table_for("branching_client.mg", "run")
    conflicted = [
        (s, t)
        for s in range(len(table.states))
        for t in grammar.terminals
        if ((s, t) in table.goto) + len(table.complete[s]) >= 2
    ]
    assert conflicted, "the ambiguous client must produce a conflict state"
    assert any(len(table.complete[s]) >= 2 for s in range(len(table.states)))


# ---------------------------------------------------------------------------
# subword parsing against the grammar language


def test_membership_agrees_with_bounded_enumeration():
    table, grammar = table_for("nested_calls.mg", "run")
    language = bounded_language(grammar, 5)
    terms = sorted(grammar.terminals)
    for length in range(1, 5):
        for word in product(terms, repeat=length):
            trees = parse_subword(table, word)
            member = any(total_elisions(t) == 0 for t in trees)
            assert member == (word in language), word


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
        if node.is_leaf:
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
    table, _ = table_for("nested_calls.mg", "run")
    word = ("a", "b", "b", "c")
    (full,) = parse_subword(table, word)
    (lca,) = parse_subword_until_lca(table, word)
    assert symbol_method(lca.symbol) == "run"

    def covering(node):
        # nodes of the full parse that cover the whole word, root first
        if node.is_leaf or node.count < len(word):
            return []
        return [node] + [n for child in node.children for n in covering(child)]

    # the deepest covering node of the full parse is the until-LCA root
    assert covering(full)[-1].key == lca.key


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
    table, _ = table_for("straight_line.mg", "run")
    (tree,) = parse_subword_until_lca(table, ("b", "c"))
    assert tree.elided_left == 1, "the leading a() is context, not word"
    assert tree.elided_right == 1, "the trailing d() is context, not word"
    assert tree_word(tree) == ("b", "c")
    assert [s.method for s in tree_sites(tree)] == ["b", "c"]


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
        for tree in parse_subword(table, word):
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
    table, _ = table_for("branching_client.mg", "run")
    first = [dump_tree(t) for t in parse_subword_until_lca(table, ("a", "b"))]
    second = [dump_tree(t) for t in parse_subword_until_lca(table, ("a", "b"))]
    assert first == second


# ---------------------------------------------------------------------------
# search size: exact branch counts


# thread body and helpers, clause -> (violations, trees, branches)
SEARCH_SHAPES = {
    # an epsilon-recursive helper in a loop: the zero-count push guard
    # (rec_empty) is all that keeps this search from running on and on
    "epsilon-recursion": (
        "thread void run() { while (cond) { e(); m.a(); } m.b(); }\n"
        "  void e() { if (cond) { e(); e(); } }",
        "a b",
        (1, 1, 9),
    ),
    # mutual recursion through an empty alternative: without the repeated
    # push guard (rec_depth) the search finds 5 trees in 2,014 branches and
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


@contextmanager
def deadline(seconds: float):
    """Fail, instead of hanging, when the block runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"search still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
