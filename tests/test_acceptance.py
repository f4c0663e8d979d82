"""Acceptance criteria for the analyzer, one test per criterion.

These run after the rest of the suite (see conftest) so the final timing
check covers the whole run.  Large-scale throughput claims (thousands of
library classes, wall-clock numbers from server hardware) are not
reproducible at desk scale; they are substituted here by the randomized
oracle battle, the structural invariants, and the suite-wide time budget.
"""

from __future__ import annotations

import random
import time

import conftest
from atomguard import (
    build_behavior_grammar,
    build_parse_table,
    compute_atomically_executed,
    expand_clause,
    parse_contract,
    parse_program,
    parse_subword_until_lca,
    simplify_grammar,
    symbol_method,
    verify,
    verify_with_stats,
)
from conftest import CORPUS, load_program
from generators import random_program, random_word, two_receivers
from goldens import (
    ALTERNATING_LOOP_OPTIMIZED,
    ALTERNATING_LOOP_RAW,
    CORPUS_EXPECTED,
    LOOP_BRANCH_GRAMMAR,
    RECURSIVE_PAIR_GRAMMAR,
)
from oracles import (
    assert_tree_pruned,
    bounded_language,
    bounded_traces,
    find_nonterminal_bijection,
    oracle_receiver_violations,
    oracle_results,
    parse_dump,
)


def grammar_of(name: str, entry: str):
    prog = load_program(name)
    return build_behavior_grammar(prog, entry, prog.modules[0])


def test_criterion_1_reference_grammars():
    """Grammar extraction reproduces both reference grammars exactly,
    modulo nonterminal renaming."""
    start = time.monotonic()
    straight = grammar_of("recursive_pair.mg", "f")
    looped = grammar_of("loop_branch.mg", "f")
    assert find_nonterminal_bijection(straight, parse_dump(RECURSIVE_PAIR_GRAMMAR))
    assert find_nonterminal_bijection(looped, parse_dump(LOOP_BRANCH_GRAMMAR))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS reference grammars matched ({elapsed:.3f}s)")


def test_criterion_2_atomic_ancestor_accepted():
    """The nested-calls client satisfies its contract: the single occurrence
    of the word is anchored at the atomically executed run()."""
    start = time.monotonic()
    prog = load_program("nested_calls.mg")
    violations, stats = verify_with_stats(prog)
    assert violations == []
    assert stats.trees == 1
    grammar = simplify_grammar(build_behavior_grammar(prog, "run", prog.modules[0]))
    trees = parse_subword_until_lca(build_parse_table(grammar), ("a", "b", "b", "c"))
    assert [symbol_method(t.symbol) for t in trees] == ["run"]
    assert "run" in compute_atomically_executed(prog)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 2: PASS contract respected with one occurrence ({elapsed:.3f}s)")


def test_criterion_3_ambiguous_occurrence_flagged():
    """The branching client yields two parse trees for the word; the one
    rooted outside the atomic helper is reported against run()."""
    start = time.monotonic()
    violations, stats = verify_with_stats(load_program("branching_client.mg"))
    assert stats.trees == 2
    assert len(violations) == 1
    assert violations[0].lca_method == "run"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"criterion 3: PASS ambiguous occurrence flagged ({elapsed:.3f}s)")


def test_criterion_4_loop_grammar_language():
    """The alternating-loop behavior grammar accepts the same bounded
    language as the independently written reference, before and after
    simplification."""
    start = time.monotonic()
    grammar = grammar_of("alternating_loop.mg", "main")
    raw_ref = parse_dump(ALTERNATING_LOOP_RAW)
    opt_ref = parse_dump(ALTERNATING_LOOP_OPTIMIZED)
    assert bounded_language(grammar, 6) == bounded_language(raw_ref, 6)
    simplified = simplify_grammar(grammar)
    assert bounded_language(simplified, 6) == bounded_language(opt_ref, 6)
    assert len(simplified.productions) <= len(opt_ref.productions)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 4: PASS loop language matches reference ({elapsed:.3f}s)")


def test_criterion_5_corpus_reproduced():
    """Every corpus pair behaves as recorded: clause counts, violation
    counts, ancestor methods, and silent fixed variants."""
    start = time.monotonic()
    singles = sorted(c for c, v, _ in CORPUS_EXPECTED.values() if v == 1)
    doubles = sorted(c for c, v, _ in CORPUS_EXPECTED.values() if v == 2)
    assert singles == [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 4]
    assert doubles == [2, 2, 2, 4]

    total = 0
    for name, (clauses, count, lcas) in sorted(CORPUS_EXPECTED.items()):
        bad = parse_program((CORPUS / f"{name}.bad.mg").read_text(), name)
        fixed = parse_program((CORPUS / f"{name}.fixed.mg").read_text(), name)
        module = bad.modules[0]
        contract = parse_contract(
            module.contract_text or "", {m.name for m in module.methods}
        )
        assert len(contract.clauses) == clauses, name
        violations = verify(bad)
        assert len(violations) == count, name
        assert {v.lca_method for v in violations} == lcas, name
        assert verify(fixed) == [], name
        total += count
    assert total == 19
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 5: PASS 15 corpus pairs reproduced ({elapsed:.3f}s)")


def with_contract(text: str, clause: str) -> str:
    """A `random_program` text with its module's contract replaced by one
    clause."""
    header, rest = text.split("\n", 1)
    assert header.startswith("class M contract {"), header
    return f'class M contract {{ "{clause}" }} {{\n' + rest


def test_criterion_6_randomized_oracle_battle():
    """On at least 500 random program/word cases, the set of (ancestor
    method, violation?) answers matches exhaustive bounded-trace
    enumeration, and the full pipeline, given the word as the program's own
    contract, reports exactly the bad ancestors.  In one case of three the
    contract is an alternation of two words, and the pipeline reports the
    bad ancestors of both."""
    start = time.monotonic()
    cases = 0
    for seed in range(180):
        rng = random.Random(seed)
        text, terms = random_program(rng)
        program = parse_program(text, f"seed{seed}.mg")
        module = program.modules[0]
        traces = bounded_traces(program, "t0", loop_bound=4)
        grammar = simplify_grammar(build_behavior_grammar(program, "t0", module))
        table = build_parse_table(grammar)
        ae = compute_atomically_executed(program)
        for case in range(3):
            words = [random_word(rng, terms, traces)]
            if case == 2:
                words.append(random_word(rng, terms, traces))
            bad = set()
            for word in words:
                expected = oracle_results(program, "t0", word, loop_bound=4)
                got = set()
                for tree in parse_subword_until_lca(table, word):
                    assert_tree_pruned(tree)
                    method = symbol_method(tree.symbol)
                    got.add((method, method not in ae))
                assert got == expected, (seed, word)
                bad |= {m for m, is_bad in expected if is_bad}
            clause = " | ".join(" ".join(word) for word in words)
            if len(words) > 1:
                clause = f"({clause})"
            contracted = parse_program(with_contract(text, clause), f"seed{seed}.mg")
            reported = {v.lca_method for v in verify(contracted)}
            assert reported == bad, (seed, clause)
            cases += 1
    elapsed = time.monotonic() - start
    assert cases >= 500
    print(f"criterion 6: PASS {cases} random cases matched the oracle ({elapsed:.1f}s)")


def test_criterion_6_per_site_oracle_battle():
    """With two module objects in every random program, the full pipeline's
    per-site grammars report exactly the violations that projecting each
    bounded trace onto one object's calls finds."""
    start = time.monotonic()
    reports = 0
    for seed in range(150):
        text, terms = random_program(random.Random(seed))
        text = two_receivers(text, random.Random(f"receivers{seed}"))
        program = parse_program(text, f"seed{seed}.mg")
        word = (terms[0], terms[-1])  # the contract clause
        expected = oracle_receiver_violations(program, "t0", word, loop_bound=4)
        violations, _ = verify_with_stats(program)
        got = {(v.word, v.lca_method, tuple(c.line for c in v.calls)) for v in violations}
        assert got == expected, seed
        reports += len(got)
    elapsed = time.monotonic() - start
    assert reports > 50, "the battle must actually find violations"
    print(f"criterion 6: PASS {reports} per-site violations matched the oracle ({elapsed:.1f}s)")


def test_criterion_7_trees_are_loop_pruned():
    """No parse tree anywhere in the curated inventory repeats a
    nonterminal along a path without covering new terminals."""
    inventory = [
        ("recursive_pair.mg", "f"),
        ("loop_branch.mg", "f"),
        ("nested_calls.mg", "run"),
        ("branching_client.mg", "run"),
        ("alternating_loop.mg", "main"),
        ("straight_line.mg", "run"),
        ("scheduler.mg", "schedule"),
    ]
    programs = [load_program(name) for name, _ in inventory]
    entries = [entry for _, entry in inventory]
    for path in sorted(CORPUS.glob("*.mg")):
        prog = parse_program(path.read_text(), path.name)
        programs.append(prog)
        entries.append(None)

    checked = 0
    for prog, entry in zip(programs, entries):
        module = prog.modules[0]
        contract = parse_contract(
            module.contract_text or "", {m.name for m in module.methods}
        )
        roots = [entry] if entry else sorted(
            m.name for m in prog.client_methods.values() if m.is_thread
        )
        for root in roots:
            grammar = simplify_grammar(build_behavior_grammar(prog, root, module))
            table = build_parse_table(grammar)
            for clause in contract.clauses:
                for word in expand_clause(clause):
                    for tree in parse_subword_until_lca(table, word.methods):
                        assert_tree_pruned(tree)
                        checked += 1
    assert checked > 40, "the inventory must actually produce trees"
    print(f"criterion 7: PASS {checked} parse trees verified loop-free")


def test_criterion_8_fixes_close_the_reports():
    """For every corpus violation, making the named method atomic removes
    that violation without introducing new ones."""
    for path in sorted(CORPUS.glob("*.bad.mg")):
        text = path.read_text()
        baseline = verify(parse_program(text, path.name))
        assert baseline, path.name
        fixed_prog = parse_program(text, path.name)
        for method in {v.lca_method for v in baseline}:
            fixed_prog.client_methods[method].is_atomic = True
        after = verify(fixed_prog)
        old = {(v.word, tuple((c.file, c.line) for c in v.calls)) for v in baseline}
        new = {(v.word, tuple((c.file, c.line) for c in v.calls)) for v in after}
        assert not (old & new), path.name
        assert after == [], path.name
    print("criterion 8: PASS every corpus report is closed by its suggestion")


def test_criterion_9_suite_time_budget():
    """The whole suite stays inside a desk-scale time budget.  Wall-clock
    throughput of the original large-library measurements is out of reach
    here; criteria 5 through 8 plus this budget stand in for them."""
    quick = time.monotonic()
    verify(load_program("branching_client.mg"))
    single = time.monotonic() - quick
    assert single < 0.5, "one small program must verify in well under a second"
    elapsed = time.monotonic() - conftest.SESSION_START
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(f"criterion 9: PASS suite finished in {elapsed:.1f}s")
