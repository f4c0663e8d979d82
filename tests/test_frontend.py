"""Parsing, control-flow graphs, thread entries, and atomic execution."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomguard import (
    DuplicateMethodError,
    NoEntryPointsError,
    SourceSyntaxError,
    UnresolvedMethodError,
    compute_atomically_executed,
    find_thread_entries,
    parse_program,
    verify,
)
from atomguard.frontend import NodeKind, build_cfg, tokenize
from atomguard.frontend.lexer import KEYWORDS, PUNCT
from atomguard.frontend.syntax import Block, If, Return, While
from conftest import CORPUS, PROGRAMS, deadline, load_program
from generators import random_program
from oracles import oracle_atomically_executed, reference_parse_program, reference_tokenize

MODULE = 'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'


def client(body: str) -> str:
    return MODULE + "class C {\n" + body + "\n}\n"


# ---------------------------------------------------------------------------
# parsing and resolution


def test_parse_minimal_program():
    prog = parse_program(client("  thread void main() { }"), "t.mg")
    assert [c.name for c in prog.modules] == ["M"]
    assert [c.name for c in prog.client_classes] == ["C"]
    assert prog.modules[0].contract_text == '"a b"'
    assert sorted(prog.module_methods) == ["a", "b"]
    assert "main" in prog.client_methods


def test_parse_collects_methods_and_modifiers():
    prog = load_program("recursive_pair.mg")
    module = prog.modules[0]
    assert {m.name for m in module.methods} == {"a", "b", "c", "d"}
    f = prog.client_methods["f"]
    g = prog.client_methods["g"]
    assert f.is_thread and not f.is_atomic
    assert not g.is_thread and not g.is_atomic
    assert f.class_name == "Client"


def test_unresolved_client_call():
    with pytest.raises(UnresolvedMethodError):
        parse_program(client("  thread void f() { g(); }"), "t.mg")


def test_unknown_class_in_new():
    with pytest.raises(UnresolvedMethodError):
        parse_program(client("  thread void f() { x = new Zed(); }"), "t.mg")


@pytest.mark.parametrize(
    "body, unknown, line",
    [
        ("x = new P() + new Q();", "P", 8),
        ("x = -(cond ? new P() : new Q()) * new R();", "P", 8),
        ("g(new Q(), new P());", "Q", 8),
        ("m.a(1 + new Q(), new P());", "Q", 8),
        ("return new Q() + new P();", "Q", 8),
        ("x = nope(new Q());", "Q", 8),  # before the unknown callee
        ("if (g(new Q(), m)) {\n  x = new P();\n}", "Q", 8),
        ("while (cond) {\n  x = new P();\n}\ny = new Q();", "P", 9),
        ("if (cond) {\n  if (cond) { x = new Q(); }\n}\nx = new P();", "Q", 9),
    ],
)
def test_first_unknown_class_is_reported(body, unknown, line):
    # statements in order, outer before nested; within one, left to right
    text = MODULE + "class C {\n  void g(M p, M q) { }\n  thread void t() {\n" + body + "\n}\n}\n"
    with pytest.raises(UnresolvedMethodError) as caught:
        parse_program(text, "t.mg")
    assert str(caught.value) == f"unknown class {unknown!r} in new (at t.mg:{line})"


def test_duplicate_method_in_class():
    with pytest.raises(DuplicateMethodError):
        parse_program(client("  thread void f() { }\n  void f() { }"), "t.mg")


def test_duplicate_method_across_client_classes():
    src = client("  thread void f() { }") + "class D {\n  void f() { }\n}\n"
    with pytest.raises(DuplicateMethodError):
        parse_program(src, "t.mg")


def test_lexer_error_carries_position():
    src = MODULE + "class C {\n  thread void f() { $ }\n}\n"
    with pytest.raises(SourceSyntaxError) as exc:
        parse_program(src, "t.mg")
    assert exc.value.line == 6
    assert exc.value.column > 0
    assert "t.mg:6" in str(exc.value)


def test_parser_error_on_truncated_input():
    with pytest.raises(SourceSyntaxError):
        parse_program(MODULE + "class C {\n  thread void f() {", "t.mg")


# ---------------------------------------------------------------------------
# tokenizing

LEXEMES = sorted(KEYWORDS) + list(PUNCT) + ["x", "_a1", "0", "42", '"a b"', '""', " ", "/"]
# non-ASCII digits, letters and numbers, characters no lexeme starts with,
# a lone quote, a comment opener and every whitespace character
EDGE_CHARACTERS = ["²", "½", "é", "一", "٣", "\x0b", "\f", "$", '"', "//", "\r", "\t", "\n"]


def lex_outcome(tokenizer, source: str):
    """The token list, or the error's message and position."""
    try:
        return tokenizer(source, "t.mg")
    except SourceSyntaxError as e:
        return (str(e), e.line, e.column)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES + EDGE_CHARACTERS), max_size=40).map("".join))
def test_tokenize_matches_reference_on_random_text(source):
    assert lex_outcome(tokenize, source) == lex_outcome(reference_tokenize, source)


def test_tokenize_matches_reference_on_bundled_and_generated_programs():
    sources = [path.read_text() for path in sorted(PROGRAMS.glob("*.mg"))]
    sources += [path.read_text() for path in sorted(CORPUS.glob("*.mg"))]
    sources += [random_program(random.Random(seed))[0] for seed in range(300)]
    for source in sources:
        assert tokenize(source) == reference_tokenize(source)


@pytest.mark.parametrize(
    "source, outcome",
    [
        ("class" + " " * 100_000 + "$", ("unexpected character '$'", 1, 100_006)),
        ("x // " + "c" * 100_000, ["x", ""]),
        ('x = "' + "s" * 100_000, ("unterminated string", 1, 5)),
        ("x" + "\t\r" * 50_000 + "y", ["x", "y", ""]),
        ("x" + " \t" * 50_000, ["x", ""]),
    ],
    ids=[
        "blanks-then-bad-character", "long-comment", "unterminated-string", "tabs-and-crs",
        "trailing-blanks",
    ],
)
def test_tokenize_is_linear_on_long_runs(source, outcome):
    # A pattern that backtracks over a run takes seconds or more here.
    with deadline(1.0):
        try:
            result = [t.text for t in tokenize(source, "t.mg")]
        except SourceSyntaxError as e:
            result = (str(e).split(": ", 1)[1], e.line, e.column)
    assert result == outcome


def test_lexical_rules():
    tokens = tokenize('xé _1 ٣٣ 1² "a // b" // c', "t.mg")
    assert [(t.kind, t.text) for t in tokens] == [
        ("ident", "xé"), ("ident", "_1"), ("int", "٣٣"), ("int", "1²"), ("string", "a // b"),
        ("eof", ""),
    ]
    assert lex_outcome(tokenize, "x\x0by")[0] == "t.mg:1:2: unexpected character '\\x0b'"
    assert lex_outcome(tokenize, "x ½")[0] == "t.mg:1:3: unexpected character '½'"
    # a digit run lexes; `int()` rejects the superscript and the parser says so
    with pytest.raises(SourceSyntaxError, match="invalid integer literal"):
        parse_program(client("  thread void f() { x = 1²; }"), "t.mg")


# ---------------------------------------------------------------------------
# parsing and resolving against the original parser (a statement walk)


def parse_outcome(parse, source: str):
    """The program, or the error's type, message and position."""
    try:
        return parse(source, "t.mg")
    except (SourceSyntaxError, DuplicateMethodError, UnresolvedMethodError) as e:
        return (type(e), str(e), getattr(e, "line", None), getattr(e, "column", None))


def assert_parses_like_reference(source: str) -> None:
    assert parse_outcome(parse_program, source) == parse_outcome(reference_parse_program, source)


def test_parse_matches_reference_on_bundled_and_generated_programs():
    sources = [path.read_text() for path in sorted(PROGRAMS.glob("*.mg"))]
    sources += [path.read_text() for path in sorted(CORPUS.glob("*.mg"))]
    sources += [random_program(random.Random(seed))[0] for seed in range(300)]
    for source in sources:
        program, reference = parse_program(source, "t.mg"), reference_parse_program(source, "t.mg")
        assert program == reference  # `calls` and `client_methods` too
        assert list(program.calls) == list(reference.calls)


# Tokens and statements around a module `M` (methods a, b), a client method
# `g(M p)` and names that resolve to nothing (`Z`, `h`); a soup is mostly
# whole statements (or, at class level, whole methods) with a few stray
# tokens among them.
SOUP = sorted(KEYWORDS) + [
    "m", "p", "a", "b", "g", "h", "M", "Z", "1", '"s"', "{", "}", "(", ")", ";", ",", ".",
    "=", "++", "?", ":", "&&", "+", "-", "*", "<", "==", "!",
]
STATEMENTS = [
    "m = new M();", "m.a();", "m.b();", "g(m);", "g();", "g(m, m);", "h();", "a();", "m.h();",
    "x = new Z();", "x = g(new Z());", "if (m.b()) {", "while (cond) {", "}", "var y = 1 + 2;",
    "return;", "x = cond ? new M() : m;",
]
METHODS = [
    "void g(M p) { }", "thread void f() { m.a(); }", "void h() { }", "atomic void a() { }",
    "}\nclass C {", "}\nclass D {", "}\nclass M {", "void t() { x = new Z(); }",
]


def soups(pieces):
    return st.tuples(
        st.lists(st.sampled_from(pieces), max_size=12),
        st.lists(st.tuples(st.integers(0, 12), st.sampled_from(SOUP)), max_size=2),
    ).map(lambda drawn: " ".join(_stir(*drawn)))


def _stir(pieces, tokens):
    for at, token in tokens:
        pieces.insert(at, token)
    return pieces


@settings(max_examples=300, deadline=None)
@given(soups(STATEMENTS), soups(METHODS))
def test_parse_matches_reference_on_token_soups(statements, methods):
    assert_parses_like_reference(client(f"  thread void f() {{ {statements} }}\n  void g(M p) {{ }}"))
    assert_parses_like_reference(client(f"  void g(M p) {{ }}\n  {methods}"))


def test_parse_matches_reference_on_one_token_mutations():
    # every token deleted, and a token drawn from SOUP inserted before it
    # and put in its place
    rng = random.Random(13)
    for path in sorted(CORPUS.glob("*.mg")):
        source = path.read_text()
        starts = [0]
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        for tok in tokenize(source)[:-1]:
            start = starts[tok.line - 1] + tok.column - 1
            end = start + len(tok.text) + 2 * (tok.kind == "string")
            before, after = source[:start], source[end:]
            assert_parses_like_reference(before + after)
            assert_parses_like_reference(f"{before} {rng.choice(SOUP)} {source[start:]}")
            assert_parses_like_reference(f"{before} {rng.choice(SOUP)} {after}")


# ---------------------------------------------------------------------------
# control-flow graphs


def test_cfg_branch_shape():
    prog = load_program("recursive_pair.mg")
    cfg = build_cfg(prog.client_methods["f"])
    kinds = [n.kind for n in cfg.nodes]
    assert kinds == [
        NodeKind.ENTRY,
        NodeKind.MODULE_CALL,
        NodeKind.OTHER,
        NodeKind.CLIENT_CALL,
        NodeKind.MODULE_CALL,
        NodeKind.RETURN,
    ]
    assert cfg.nodes[1].call.method == "a"
    assert set(cfg.nodes[2].succ) == {3, 4}, "branch must fork to both arms"
    assert cfg.nodes[3].succ == [4], "then-arm rejoins before the final call"
    assert cfg.nodes[4].call.method == "b"


def test_cfg_loop_shape():
    prog = load_program("loop_branch.mg")
    cfg = build_cfg(prog.client_methods["f"])
    assert len(cfg.nodes) == 8
    head = cfg.nodes[1]
    assert head.kind is NodeKind.MODULE_CALL and head.call.method == "a"
    assert set(head.succ) == {2, 6}, "loop head exits to body and to the tail"
    assert cfg.nodes[5].succ == [1], "loop body wires back to the head"
    assert cfg.nodes[6].call.method == "d"
    assert cfg.nodes[7].kind is NodeKind.RETURN


def test_cfg_empty_body():
    prog = parse_program(client("  thread void f() { }"), "t.mg")
    cfg = build_cfg(prog.client_methods["f"])
    assert [n.kind for n in cfg.nodes] == [NodeKind.ENTRY, NodeKind.RETURN]
    assert cfg.nodes[0].succ == [1]


def test_cfg_return_statement_has_no_successors():
    src = client("  thread void f() { m.a(); return; m.b(); }")
    prog = parse_program(src, "t.mg")
    cfg = build_cfg(prog.client_methods["f"])
    explicit = [n for n in cfg.nodes if n.kind is NodeKind.RETURN and n.stmt is not None]
    assert len(explicit) == 1
    assert explicit[0].succ == []


def test_cfg_result_variable_recorded():
    src = client("  thread void f() { var x = m.a(); }")
    prog = parse_program(src, "t.mg")
    cfg = build_cfg(prog.client_methods["f"])
    call_node = next(n for n in cfg.nodes if n.kind is NodeKind.MODULE_CALL)
    assert call_node.result_var == "x"


# ---------------------------------------------------------------------------
# execution paths are CFG paths

_LOOP_BOUND = 2


def _paths_one(stmt, bound):
    """(emitted statements, fell through?) for every bounded execution."""
    if isinstance(stmt, Block):
        return _paths_seq(stmt.stmts, bound)
    if isinstance(stmt, Return):
        return [([stmt], False)]
    if isinstance(stmt, If):
        out = []
        for branch in (stmt.then, stmt.orelse):
            if branch is None:
                out.append(([stmt], True))
                continue
            for tail, alive in _paths_one(branch, bound):
                out.append(([stmt] + tail, alive))
        return out
    if isinstance(stmt, While):
        body = _paths_one(stmt.body, bound)
        out = [([stmt], True)]
        frontier = [[stmt]]
        for _ in range(bound):
            grown = []
            for prefix in frontier:
                for tail, alive in body:
                    if alive:
                        grown.append(prefix + tail + [stmt])
                    else:
                        out.append((prefix + tail, False))
            frontier = grown
            out.extend((list(p), True) for p in frontier)
        return out
    return [([stmt], True)]


def _paths_seq(stmts, bound):
    paths = [([], True)]
    for stmt in stmts:
        grown = []
        for prefix, alive in paths:
            if not alive:
                grown.append((prefix, alive))
                continue
            for tail, alive2 in _paths_one(stmt, bound):
                grown.append((prefix + tail, alive2))
        paths = grown
    return paths


def assert_cfg_covers_paths(method):
    cfg = build_cfg(method)
    implicit = next(
        (n for n in cfg.nodes if n.kind is NodeKind.RETURN and n.stmt is None), None
    )
    paths = _paths_seq(method.body.stmts, _LOOP_BOUND)
    assert paths
    for stmts, fell_through in paths:
        nodes = [cfg.nodes[0]]
        for s in stmts:
            node = next((n for n in cfg.nodes if n.stmt is s), None)
            assert node is not None, f"{method.name}: statement without a node"
            nodes.append(node)
        if fell_through:
            assert implicit is not None
            nodes.append(implicit)
        for a, b in zip(nodes, nodes[1:]):
            assert b.index in a.succ, (
                f"{method.name}: no edge {a.index} -> {b.index}"
            )


BUNDLED = [
    "recursive_pair.mg",
    "loop_branch.mg",
    "nested_calls.mg",
    "branching_client.mg",
    "alternating_loop.mg",
    "straight_line.mg",
    "scheduler.mg",
]


@pytest.mark.parametrize("name", BUNDLED)
def test_cfg_covers_executions_bundled(name):
    prog = load_program(name)
    for method in prog.client_methods.values():
        assert_cfg_covers_paths(method)


def test_cfg_covers_executions_random():
    for seed in range(30):
        text, _ = random_program(random.Random(seed))
        prog = parse_program(text, f"seed{seed}.mg")
        for method in prog.client_methods.values():
            assert_cfg_covers_paths(method)


# ---------------------------------------------------------------------------
# thread entries


def test_thread_entries_marked():
    prog = load_program("recursive_pair.mg")
    assert [m.name for m in find_thread_entries(prog)] == ["f"]


def test_main_counts_as_entry():
    prog = parse_program(client("  void main() { m.a(); }"), "t.mg")
    assert [m.name for m in find_thread_entries(prog)] == ["main"]


def test_thread_entries_combine_with_main():
    body = "  thread void f() { }\n  thread void g() { }\n  void main() { }"
    prog = parse_program(client(body), "t.mg")
    assert {m.name for m in find_thread_entries(prog)} == {"f", "g", "main"}


def test_no_entries_is_an_error_for_verify():
    prog = parse_program(client("  void f() { m.a(); }"), "t.mg")
    assert find_thread_entries(prog) == []
    with pytest.raises(NoEntryPointsError):
        verify(prog)


# ---------------------------------------------------------------------------
# atomically executed methods


def test_atomic_entry_covers_callees():
    prog = load_program("nested_calls.mg")
    assert compute_atomically_executed(prog) == {"run", "f", "g"}


def test_non_atomic_entry_leaves_only_atomic_methods():
    prog = load_program("branching_client.mg")
    assert compute_atomically_executed(prog) == {"f", "g"}


def test_atomic_methods_always_included():
    for seed in range(30):
        text, _ = random_program(random.Random(seed))
        prog = parse_program(text, f"seed{seed}.mg")
        ae = compute_atomically_executed(prog)
        for name, decl in prog.client_methods.items():
            if decl.is_atomic:
                assert name in ae


def test_atomically_executed_matches_fixpoint_oracle():
    for seed in range(40):
        text, _ = random_program(random.Random(seed))
        prog = parse_program(text, f"seed{seed}.mg")
        assert compute_atomically_executed(prog) == oracle_atomically_executed(prog)


def test_marking_a_method_atomic_never_shrinks_the_set():
    for seed in range(30):
        rng = random.Random(seed)
        text, _ = random_program(rng)
        prog = parse_program(text, f"seed{seed}.mg")
        before = compute_atomically_executed(prog)
        candidates = [n for n, d in prog.client_methods.items() if not d.is_atomic]
        if not candidates:
            continue
        prog.client_methods[rng.choice(candidates)].is_atomic = True
        assert before <= compute_atomically_executed(prog)
