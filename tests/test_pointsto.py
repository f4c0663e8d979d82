"""Allocation sites and the may-point-to fixpoint."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomguard.pointsto
from atomguard import parse_program, verify
from atomguard.pointsto import compute_pointsto, module_alloc_sites
from conftest import CORPUS, PROGRAMS, load_program
from generators import random_program
from oracles import reference_pointsto

MODULE = 'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'


def test_single_assignment_is_a_must_point():
    src = MODULE + "class C {\n  thread void run() {\n    m = new M();\n    m.a();\n  }\n}\n"
    prog = parse_program(src, "t.mg")
    sites = compute_pointsto(prog).sites
    assert len(sites) == 1
    site = sites[0]
    assert site.class_name == "M"
    assert site.method == "run"
    assert site.label == "M@t.mg:7"
    assert compute_pointsto(prog).may_sites("run", "m") == frozenset({site.index})


def test_ternary_assignment_is_a_may_point():
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
    assert result.may_sites("run", "m") == frozenset({0, 1})


def test_parameter_inherits_the_caller_set():
    src = MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    var t = new M();\n"
        "    work(t);\n"
        "  }\n"
        "  void work(M p) {\n"
        "    p.a();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    result = compute_pointsto(prog)
    assert result.may_sites("work", "p") == result.may_sites("run", "t") != frozenset()


def test_return_value_flows_to_the_caller():
    src = MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    var m = make();\n"
        "    m.a();\n"
        "  }\n"
        "  M make() {\n"
        "    return new M();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    assert compute_pointsto(prog).may_sites("run", "m") == frozenset({0})


def test_locals_do_not_leak_into_globals():
    src = MODULE + (
        "class C {\n"
        "  thread void run() {\n"
        "    var m = new M();\n"
        "    m.a();\n"
        "    f();\n"
        "  }\n"
        "  void f() {\n"
        "    m.b();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    result = compute_pointsto(prog)
    assert result.may_sites("run", "m") == frozenset({0})
    assert result.may_sites("f", "m") == frozenset(), "the global m was never assigned"


def test_globals_are_shared_across_threads():
    src = MODULE + (
        "class C {\n"
        "  thread void t1() {\n"
        "    m = new M();\n"
        "    m.a();\n"
        "  }\n"
        "  thread void t2() {\n"
        "    m.b();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    result = compute_pointsto(prog)
    assert result.may_sites("t1", "m") == result.may_sites("t2", "m") == frozenset({0})


def test_only_module_allocations_are_tracked():
    src = MODULE + (
        "class H {\n  void h() { }\n}\n"
        "class C {\n"
        "  thread void run() {\n"
        "    var x = new H();\n"
        "    m = new M();\n"
        "    m.a();\n"
        "  }\n"
        "}\n"
    )
    prog = parse_program(src, "t.mg")
    sites = compute_pointsto(prog).sites
    assert [s.class_name for s in sites] == ["M"]


def test_module_alloc_sites_require_a_pointing_receiver():
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
    module = prog.modules[0]
    assert result.sites, "the allocation itself is visible"
    assert module_alloc_sites(prog, ["run", "f"], module, result) == []
    # The analysis falls back to the unrefined grammar and still reports.
    assert [v.lca_method for v in verify(prog)] == ["f"]


def _identities(program, points_to: bool) -> set:
    """What `classify_stage` deduplicates a violation by."""
    return {(v.thread, v.word, v.lca_method, tuple([c.line for c in v.calls]))
            for v in verify(program, points_to=points_to)}


def test_refinement_never_adds_violations_with_shared_receivers():
    """With one allocation site per program, refinement must not invent
    occurrences that the unrefined analysis lacks."""
    names = [
        "nested_calls.mg",
        "branching_client.mg",
        "alternating_loop.mg",
        "straight_line.mg",
        "scheduler.mg",
    ]
    for name in names:
        prog_on = load_program(name)
        prog_off = load_program(name)
        assert _identities(prog_on, True) <= _identities(prog_off, False), name
    for bad in sorted(CORPUS.glob("*.bad.mg")):
        text = bad.read_text()
        on = parse_program(text, bad.name)
        off = parse_program(text, bad.name)
        assert _identities(on, True) <= _identities(off, False), bad.name
    for seed in range(20):
        text, _ = random_program(random.Random(seed))
        on = parse_program(text, f"seed{seed}.mg")
        off = parse_program(text, f"seed{seed}.mg")
        assert _identities(on, True) <= _identities(off, False), seed


# ---------------------------------------------------------------------------
# the single walk against the three-walk reference


def assert_pointsto_like_reference(prog):
    got, want = compute_pointsto(prog), reference_pointsto(prog)
    assert got.sites == want.sites
    assert got.may == want.may
    assert got._locals == want._locals


# Client classes with several allocation sites each, in the expression
# positions the walk treats differently.
SHAPES = {
    "ternary-branch": (
        "class C {\n"
        "  thread void run() {\n"
        "    var n = new M();\n"
        "    m = cond ? new M() : (cond ? n : new M());\n"
        "    m.a();\n"
        "  }\n"
        "}\n"
    ),
    "client-call-argument": (
        "class C {\n"
        "  thread void run() {\n"
        "    var m = new M();\n"
        "    use(new M(), m);\n"
        "    x = pick(m, cond ? new M() : m);\n"
        "    x.b();\n"
        "  }\n"
        "  void use(M p, M q) {\n"
        "    p.a();\n"
        "    q.b();\n"
        "  }\n"
        "  M pick(M p, M q) {\n"
        "    return cond ? p : q;\n"
        "  }\n"
        "}\n"
    ),
    "module-call-argument": (
        "class C {\n"
        "  thread void run() {\n"
        "    m = new M();\n"
        "    m.a(new M());\n"
        "    x = m.b(cond ? new M() : m);\n"
        "    while (m.a(new M())) {\n"
        "      m.b();\n"
        "    }\n"
        "  }\n"
        "}\n"
    ),
    "returned-allocation": (
        "class C {\n"
        "  thread void run() {\n"
        "    var m = make();\n"
        "    m.a();\n"
        "    n = make();\n"
        "    n.b();\n"
        "  }\n"
        "  M make() {\n"
        "    if (cond) {\n"
        "      return new M();\n"
        "    }\n"
        "    return cond ? new M() : g;\n"
        "  }\n"
        "}\n"
    ),
    "var-after-assignment": (
        "class Z {\n"
        "  thread void run() {\n"
        "    m = new M();\n"
        "    m.a();\n"
        "    var m = new M();\n"
        "    m.b();\n"
        "    f();\n"
        "  }\n"
        "}\n"
        "class A {\n"
        "  void f() {\n"
        "    m.a();\n"
        "    m = new M();\n"
        "  }\n"
        "}\n"
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pointsto_matches_reference_on_multi_site_shapes(shape, monkeypatch):
    prog = parse_program(MODULE + SHAPES[shape], "t.mg")
    assert len(reference_pointsto(prog).sites) >= 2
    got = compute_pointsto(prog)
    assert_pointsto_like_reference(prog)

    def walk(method):
        raise AssertionError(f"points-to walked the statements of {method.name}")

    # it reads the parser's records (`Program.flows`) and walks no statement
    monkeypatch.setattr(atomguard.frontend.parser, "iter_method_statements", walk)
    assert compute_pointsto(prog) == got


def test_pointsto_matches_reference_on_bundled_programs():
    for path in sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg")):
        assert_pointsto_like_reference(parse_program(path.read_text(), path.name))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pointsto_matches_reference_on_random_programs(seed):
    text, _ = random_program(random.Random(seed))
    assert_pointsto_like_reference(parse_program(text, f"seed{seed}.mg"))
