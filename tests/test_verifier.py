"""End-to-end contract checking and report rendering."""

from __future__ import annotations

import json
from collections import Counter

import pytest

import atomguard.grammar

from atomguard import (
    AtomguardError,
    compute_atomically_executed,
    parse_program,
    render_report,
    verify,
    verify_with_stats,
)
from conftest import CORPUS, load_program
from goldens import BRANCHING_CLIENT_REPORT

MODULE = 'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'

VECTOR_MODULE = (
    'class V contract { "contains(X) Y=indexOf(X) set(Y, _)" } {\n'
    "  int contains(int o) { return 1; }\n"
    "  int indexOf(int o) { return 1; }\n"
    "  void set(int i, int n) { }\n"
    "}\n"
)


# ---------------------------------------------------------------------------
# the reference programs


def test_atomic_ancestor_passes():
    violations, stats = verify_with_stats(load_program("nested_calls.mg"))
    assert violations == []
    assert stats.trees == 1, "the word occurs exactly once"


def test_non_atomic_ancestor_fails():
    prog = load_program("branching_client.mg")
    violations, stats = verify_with_stats(prog)
    assert stats.trees == 2, "one occurrence inside f, one across the else branch"
    assert len(violations) == 1
    v = violations[0]
    assert v.lca_method == "run"
    assert v.thread == "run"
    assert v.word == ("a", "b")
    assert [(c.line, c.method) for c in v.calls] == [(14, "a"), (25, "b")]
    assert v.suggestion == "make run atomic"


def test_scheduler_names_the_fix():
    violations = verify(load_program("scheduler.mg"))
    assert len(violations) == 1
    assert violations[0].suggestion == "make schedule atomic"
    assert violations[0].word == ("isReady", "run")


def test_respected_contracts_stay_silent():
    for name in ("recursive_pair.mg", "loop_branch.mg"):
        assert verify(load_program(name)) == [], name


# ---------------------------------------------------------------------------
# unification of parameterized clauses


def _vector_client(calls: str) -> str:
    return VECTOR_MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    v = new V();\n"
        f"{calls}"
        "  }\n"
        "}\n"
    )


def test_unification_binds_consistent_terms():
    src = _vector_client(
        "    v.contains(o);\n    var i = v.indexOf(o);\n    v.set(i, n);\n"
    )
    violations = verify(parse_program(src, "t.mg"))
    assert [v.lca_method for v in violations] == ["run"]
    assert violations[0].word == ("contains", "indexOf", "set")


def test_unification_rejects_mismatched_terms():
    src = _vector_client(
        "    v.contains(o);\n    var i = v.indexOf(o + 1);\n    v.set(i, n);\n"
    )
    assert verify(parse_program(src, "t.mg")) == []


def test_unification_rejects_result_flowing_elsewhere():
    src = _vector_client(
        "    v.contains(o);\n    var j = v.indexOf(o);\n    v.set(k, n);\n"
    )
    assert verify(parse_program(src, "t.mg")) == []


def test_wildcards_always_unify():
    src = (
        'class V contract { "contains(_) _=indexOf(_)" } {\n'
        "  int contains(int o) { return 1; }\n"
        "  int indexOf(int o) { return 1; }\n"
        "}\n"
        "class C {\n"
        "  thread void run() {\n"
        "    v = new V();\n"
        "    v.contains(x);\n"
        "    var j = v.indexOf(y);\n"
        "  }\n"
        "}\n"
    )
    violations = verify(parse_program(src, "t.mg"))
    assert [v.lca_method for v in violations] == ["run"]


# ---------------------------------------------------------------------------
# one CFG per method per check

SITES_PROGRAM = (
    'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'
    'class N contract { "c d" } {\n  void c() { }\n  void d() { }\n}\n'
    "class P {\n"
    "  thread void t1() { x = new M(); y = new N(); z = new M(); use(); }\n"
    "  void use() { x.a(); y.c(); z.a(); x.b(); y.d(); z.b(); idle(); }\n"
    "  void idle() { }\n"
    "  void unused() { x.a(); }\n"
    "}\n"
    "class Q {\n"
    "  thread void t2() { use(); z.b(); }\n"
    "}\n"
)


@pytest.mark.parametrize("class_scope", [False, True])
def test_each_method_cfg_is_built_once_per_check(monkeypatch, class_scope):
    built: Counter[str] = Counter()
    original = atomguard.grammar.build_cfg

    def counting(method):
        built[method.name] += 1
        return original(method)

    monkeypatch.setattr(atomguard.grammar, "build_cfg", counting)
    prog = parse_program(SITES_PROGRAM, "t.mg")
    violations, stats = verify_with_stats(prog, class_scope=class_scope)
    assert violations and stats.grammars > 4, "several modules, units and sites"
    reachable = {"t1", "t2", "use", "idle"} | ({"unused"} if class_scope else set())
    assert built == Counter(dict.fromkeys(reachable, 1))

    verify_with_stats(prog, class_scope=class_scope)
    assert built == Counter(dict.fromkeys(reachable, 2)), "no CFG outlives its check"


# ---------------------------------------------------------------------------
# deduplication, fixes, failure modes


def test_identical_occurrences_are_deduplicated():
    src = (
        'class M contract { "a b"; "a b" } {\n'
        "  void a() { }\n  void b() { }\n}\n"
        "class C {\n"
        "  thread void run() {\n"
        "    m = new M();\n"
        "    m.a();\n"
        "    m.b();\n"
        "  }\n"
        "}\n"
    )
    violations = verify(parse_program(src, "t.mg"))
    assert len(violations) == 1


def test_mark_atomic_fixes_the_report():
    prog = load_program("branching_client.mg")
    (violation,) = verify(prog)
    prog.client_methods[violation.lca_method].is_atomic = True
    assert verify(prog) == []


def test_verify_requires_a_module():
    prog = parse_program("class C {\n  thread void run() { }\n}\n", "t.mg")
    with pytest.raises(AtomguardError, match="no module with a contract"):
        verify(prog)


def test_contract_needs_its_module():
    """Each module is checked against the contract in its own annotation,
    and only on calls to its own objects."""
    reversed_ab = 'class N contract { "b a" } {\n  void a() { }\n  void b() { }\n}\n'
    client = (
        "class C {\n  thread void run() {\n    m = new M(); n = new N();\n"
        "    m.b(); m.a();\n    n.b(); n.a();\n  }\n}\n"
    )
    violations = verify(parse_program(MODULE + reversed_ab + client, "t.mg"))
    assert [(v.word, [c.line for c in v.calls]) for v in violations] == [(("b", "a"), [13, 13])]
    assert verify(parse_program(MODULE + client.replace("N", "M"), "t.mg")) == []


def test_violation_fields_are_consistent():
    for bad in sorted(CORPUS.glob("*.bad.mg")):
        prog = parse_program(bad.read_text(), bad.name)
        ae = compute_atomically_executed(prog)
        for v in verify(prog):
            assert v.lca_method not in ae
            assert len(v.calls) == len(v.word)
            assert tuple(c.method for c in v.calls) == v.word
            assert v.suggestion == f"make {v.lca_method} atomic"
            assert all(c.line > 0 and c.file == bad.name for c in v.calls)


# ---------------------------------------------------------------------------
# class-scope checking


def test_class_scope_labels_units_by_class():
    violations = verify(load_program("branching_client.mg"), class_scope=True)
    assert [(v.thread, v.lca_method) for v in violations] == [("class:Client", "run")]


def test_class_scope_ignores_cross_class_sequences():
    src = MODULE + (
        "class C1 {\n"
        "  thread void run() { m = new M(); m.a(); helper(); }\n"
        "}\n"
        "class C2 {\n"
        "  void helper() { m.b(); }\n"
        "}\n"
    )
    whole = parse_program(src, "t.mg")
    scoped = parse_program(src, "t.mg")
    assert [v.lca_method for v in verify(whole)] == ["run"]
    assert verify(scoped, class_scope=True) == []


# ---------------------------------------------------------------------------
# reports


def test_empty_report_text():
    assert render_report([], "text") == "OK: contract respected\n"


def test_single_violation_report_text():
    violations, stats = verify_with_stats(load_program("branching_client.mg"))
    assert render_report(violations, "text", stats) == BRANCHING_CLIENT_REPORT


def test_color_wraps_without_changing_content():
    violations = verify(load_program("branching_client.mg"))
    plain = render_report(violations, "text")
    colored = render_report(violations, "text", color=True)
    assert "\x1b[31m" in colored
    assert colored.replace("\x1b[31m", "").replace("\x1b[0m", "") == plain
    assert "\x1b[32m" in render_report([], "text", color=True)


def test_json_schema_for_two_violations():
    bad = CORPUS / "account_transfer.bad.mg"
    prog = parse_program(bad.read_text(), bad.name)
    violations, stats = verify_with_stats(prog)
    payload = json.loads(render_report(violations, "json", stats))
    assert set(payload) == {"violations", "stats"}
    assert len(payload["violations"]) == 2
    for item in payload["violations"]:
        assert set(item) == {
            "clause",
            "word",
            "thread",
            "site",
            "calls",
            "lca",
            "suggestion",
        }
        assert isinstance(item["word"], list)
        for call in item["calls"]:
            assert set(call) == {"file", "line", "method"}
    assert set(payload["stats"]) == {"grammars", "trees", "branches"}


def test_unknown_format_is_rejected():
    with pytest.raises(AtomguardError):
        render_report([], "yaml")


def test_reports_are_deterministic():
    first_prog = load_program("branching_client.mg")
    second_prog = load_program("branching_client.mg")
    first, fs = verify_with_stats(first_prog)
    second, ss = verify_with_stats(second_prog)
    assert render_report(first, "json", fs) == render_report(second, "json", ss)
    assert render_report(first, "text", fs) == render_report(second, "text", ss)
