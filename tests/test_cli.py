"""Command line behavior: exit codes, formats, dumps, and stability."""

from __future__ import annotations

import codecs
import gc
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import atomguard.cli
import atomguard.frontend.parser
import atomguard.grammar
import atomguard.verifier
from atomguard.cli import run, run_corpus
from conftest import CORPUS, PACKAGE_DATA, PROGRAMS
from generators import random_program
from goldens import BRANCHING_CLIENT_REPORT

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families  # noqa: E402

CLEAN = str(PROGRAMS / "nested_calls.mg")
DIRTY = str(PROGRAMS / "branching_client.mg")
REPO = PACKAGE_DATA.parent.parent.parent
ALL_DUMPS = ["--dump-grammar", "--dump-table", "--dump-trees"]

MODULE_AB = 'class M contract { "a b" } {\n  void a() { }\n  void b() { }\n}\n'


def client(body: str) -> str:
    """MODULE_AB plus one thread whose body starts on line 8, column 1."""
    return MODULE_AB + "class C {\n  thread void run() {\n    m = new M();\n" + body + "  }\n}\n"


# ---------------------------------------------------------------------------
# check


def test_clean_program_exits_zero(capsys):
    assert run(["check", CLEAN]) == 0
    assert capsys.readouterr().out == "OK: contract respected\n"


def test_violating_program_exits_one(capsys):
    assert run(["check", DIRTY]) == 1
    out = capsys.readouterr().out
    expected = BRANCHING_CLIENT_REPORT.replace(
        "branching_client.mg", DIRTY
    )
    assert out == expected


def test_missing_file_exits_two(capsys):
    assert run(["check", "no_such_program.mg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("atomguard:")


def test_multiple_files_aggregate(capsys):
    assert run(["check", "--format", "json", CLEAN, DIRTY]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["violations"]) == 1
    assert payload["stats"]["trees"] == 3
    assert payload["stats"]["grammars"] == 2


def test_json_output_is_schema_shaped(capsys):
    assert run(["check", "--format", "json", DIRTY]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"violations", "stats"}
    (violation,) = payload["violations"]
    assert violation["lca"] == "run"
    assert violation["word"] == ["a", "b"]
    assert [c["line"] for c in violation["calls"]] == [14, 25]


def test_expansion_cap_is_an_error(capsys):
    assert run(["check", "--max-clause-len", "1", DIRTY]) == 2
    assert capsys.readouterr().err.startswith("atomguard:")


def test_a_clause_of_too_many_words_is_an_error(tmp_path, capsys):
    groups = " ".join(["(a | b)"] * 17)  # 131,072 words of 17 calls
    path = tmp_path / "wide_clause.mg"
    path.write_text(MODULE_AB.replace('"a b"', f'"{groups}"') + "class C {\n"
                    "  thread void run() {\n    m = new M();\n    m.a();\n  }\n}\n")
    assert run(["check", "--max-clause-len", "17", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"atomguard: clause {groups!r} expands to more than 65,536 words;"
        " split it into smaller clauses\n"
    )
    assert run(["check", str(path)]) == 2
    assert "expands past 16 calls" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_a_word_length_bound_below_one_is_a_usage_error(capsys, bound):
    assert run(["check", "--max-clause-len", bound, DIRTY]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: atomguard check")
    assert f"argument --max-clause-len: must be at least 1, not {bound}" in err


def test_class_scope_flag(capsys):
    assert run(["check", "--class-scope", DIRTY]) == 1
    assert "class:Client" in capsys.readouterr().out


def test_no_points_to_flag(capsys):
    assert run(["check", "--no-points-to", DIRTY]) == 1
    out = capsys.readouterr().out
    assert "site:" not in out, "without refinement there is no site attribution"


def test_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.mg"
    bad.write_bytes(b'class M contract { "a b" } {\xff }\n')
    assert run(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"atomguard: {bad}: not UTF-8 text (byte 0xff at offset 28)\n"


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    source = tmp_path / "local_counter.bad.mg"
    plain = (CORPUS / "local_counter.bad.mg").read_bytes()
    outcomes = []
    for data in (plain, codecs.BOM_UTF8 + plain):
        source.write_bytes(data)
        outcomes.append((run(["check", str(source)]), capsys.readouterr()))
    assert outcomes[0][0] == 1 and outcomes[1] == outcomes[0]
    # a bad byte after the mark: its offset in the file, not after the mark
    source.write_bytes(codecs.BOM_UTF8 + b"ab\xff")
    assert run(["check", str(source)]) == 2
    assert capsys.readouterr().err == (
        f"atomguard: {source}: not UTF-8 text (byte 0xff at offset 5)\n"
    )


def test_deep_statement_nesting_exits_two(tmp_path, capsys):
    # the method body is level 1 and an `if` with a braced body opens two
    # more: 49 ifs reach level 99, and the block of the 50th `if` (line 57,
    # column 11) opens level 101
    ok = tmp_path / "ok.mg"
    ok.write_text(client("if (cond) {\n" * 49 + "m.a(); m.b();\n" + "}\n" * 49))
    assert run(["check", str(ok)]) == 1
    capsys.readouterr()

    deep = tmp_path / "deep.mg"
    deep.write_text(client("if (cond) {\n" * 400 + "m.a(); m.b();\n" + "}\n" * 400))
    assert run(["check", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"atomguard: {deep}:57:11: nesting deeper than 100 levels\n"


def test_deep_expression_nesting_exits_two(tmp_path, capsys):
    # the method body is level 1 and the assigned expression level 2; each
    # parenthesis opens one more, so 98 reach level 100 and the expression
    # inside the 99th, starting at the 100th parenthesis (column 104), is 101
    ok = tmp_path / "ok.mg"
    ok.write_text(client("x = " + "(" * 98 + "1" + ")" * 98 + ";\n"))
    assert run(["check", str(ok)]) == 0
    capsys.readouterr()

    deep = tmp_path / "deep.mg"
    deep.write_text(client("x = " + "(" * 150 + "1" + ")" * 150 + ";\n"))
    assert run(["check", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"atomguard: {deep}:8:104: nesting deeper than 100 levels\n"


def test_corpus_deep_nesting_exits_two(tmp_path, capsys):
    (tmp_path / "pair.bad.mg").write_text(client("x = " + "-" * 400 + "1;\n"))
    (tmp_path / "pair.fixed.mg").write_text(client(""))
    assert run(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("atomguard: pair: ") and "nesting deeper than 100 levels" in out


def call_chain(depth: int, end: str) -> str:
    """A thread `run` that calls `f1`, then `m.b()`, where `f1 -> ... -> f{depth}`
    and `f{depth}` ends the chain with `end`."""
    methods = [f"  void f{i}() {{ f{i + 1}(); }}\n" for i in range(1, depth)]
    return (
        MODULE_AB
        + "class C {\n  thread void run() { m = new M(); f1(); m.b(); }\n"
        + "".join(methods)
        + f"  void f{depth}() {{ {end} }}\n}}\n"
    )


@pytest.mark.parametrize("flags", [[], ["--dump-trees"], ["--format", "json"]], ids=["text", "dump", "json"])
def test_deep_call_chain_reports_one_violation(tmp_path, capsys, flags):
    # 1,500 levels of calls make parse trees 1,500 levels deep: walking,
    # keying and printing them must not recurse once per level
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "chain.mg"
    path.write_text(call_chain(1500, "m.a();"))
    assert run(["check", *flags, str(path)]) == 1
    out = capsys.readouterr().out
    if flags == ["--format", "json"]:
        (violation,) = json.loads(out)["violations"]
        assert violation["lca"] == "run"
    else:
        assert out.count("VIOLATION") == 1
        assert "lowest common ancestor: @run in method run " in out
    if flags == ["--dump-trees"]:
        assert "word 'a b' (1 found)" in out


def test_deep_duplicate_trees_are_compared_without_recursion(tmp_path, capsys):
    # a loop at the end of the chain makes the search find one 1,500-level
    # tree twice; telling the copies apart must not descend level by level
    path = tmp_path / "chain.mg"
    path.write_text(call_chain(1500, "while (cond) { m.a(); }"))
    assert run(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.count("VIOLATION") == 1
    assert "lowest common ancestor: @run in method run " in out


BAD_LITERALS = {"superscript-digit": "\u00b2", "5000-digits": "9" * 5000}


@pytest.mark.parametrize("literal", sorted(BAD_LITERALS))
def test_unreadable_integer_literal_exits_two(tmp_path, capsys, literal):
    # the lexer takes any str.isdigit() run; int() rejects some of them
    bad = tmp_path / "bad.mg"
    bad.write_text(client(f"x = {BAD_LITERALS[literal]};\n"))
    assert run(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"atomguard: {bad}:8:5: invalid integer literal\n"


@pytest.mark.parametrize("literal", sorted(BAD_LITERALS))
def test_corpus_unreadable_integer_literal_exits_two(tmp_path, capsys, literal):
    (tmp_path / "pair.bad.mg").write_text(client(f"x = {BAD_LITERALS[literal]};\n"))
    (tmp_path / "pair.fixed.mg").write_text(client(""))
    assert run(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("atomguard: pair: ") and "8:5: invalid integer literal" in out


def calling_use(args: str) -> str:
    """MODULE_AB and a thread calling `use(M p, M q)` with `args` at 8:5."""
    return client(f"    use({args});\n")[: -len("}\n")] + "  void use(M p, M q) { p.a(); q.b(); }\n}\n"


ARGUMENT_COUNTS = {
    "too-many": ("m, m, new M()", "use() takes 2 argument(s), got 3"),
    "too-few": ("", "use() takes 2 argument(s), got 0"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_COUNTS))
def test_client_call_argument_count_exits_two(tmp_path, capsys, case):
    args, message = ARGUMENT_COUNTS[case]
    bad = tmp_path / "bad.mg"
    bad.write_text(calling_use(args))
    assert run(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"atomguard: {bad}:8:5: {message}\n"


@pytest.mark.parametrize("case", sorted(ARGUMENT_COUNTS))
def test_corpus_client_call_argument_count_exits_two(tmp_path, capsys, case):
    args, message = ARGUMENT_COUNTS[case]
    (tmp_path / "pair.bad.mg").write_text(calling_use(args))
    (tmp_path / "pair.fixed.mg").write_text(calling_use("m, m"))
    assert run(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("atomguard: pair: ") and f"8:5: {message}" in out


def chain(op: str, terms: int, term: str = "1") -> str:
    return f" {op} ".join([term] * terms)


LONG_CHAINS = {
    "assignment": "x = " + chain("+", 2000) + ";\n",
    "call-argument": "m.a(" + chain("-", 2000) + ");\n",
    "return-value": "return " + chain("*", 2000) + ";\n",
    "condition": "if (" + chain("&&", 2000, "cond") + ") { m.a(); }\n",
}


@pytest.mark.parametrize("shape", sorted(LONG_CHAINS))
def test_long_operator_chain_exits_two(tmp_path, capsys, shape):
    # a flat chain parses to a left-deep tree, one level per operator
    deep = tmp_path / "deep.mg"
    deep.write_text(client(LONG_CHAINS[shape]))
    assert run(["check", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"atomguard: {deep}:8:")
    assert captured.err.endswith(": nesting deeper than 100 levels\n")


def test_operator_chain_limit(tmp_path, capsys):
    # the method body is level 1, the expression level 2 and each `+` one
    # more: 98 operators reach level 100; the 99th opens level 101 at the
    # term after it (column 5 + 4 * 99)
    ok = tmp_path / "ok.mg"
    ok.write_text(client("x = " + chain("+", 99) + ";\n"))
    assert run(["check", str(ok)]) == 0
    capsys.readouterr()

    deep = tmp_path / "deep.mg"
    deep.write_text(client("x = " + chain("+", 100) + ";\n"))
    assert run(["check", str(deep)]) == 2
    assert capsys.readouterr().err == f"atomguard: {deep}:8:401: nesting deeper than 100 levels\n"


def nested_clause_module(depth: int) -> str:
    """MODULE_AB with the clause `(a | (a | ... a)) b`, `depth` groups deep."""
    group = "a"
    for _ in range(depth):
        group = f"(a | {group})"
    return MODULE_AB.replace('"a b"', f'"{group} b"')


def test_deep_clause_nesting_exits_two(tmp_path, capsys):
    thread = "class C {\n  thread void run() { m = new M(); m.a(); m.b(); }\n}\n"
    ok = tmp_path / "ok.mg"
    ok.write_text(nested_clause_module(100) + thread)
    assert run(["check", str(ok)]) == 1
    capsys.readouterr()

    deep = tmp_path / "deep.mg"
    deep.write_text(nested_clause_module(400) + thread)
    assert run(["check", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "atomguard: groups nested deeper than 100 levels in clause '(a | (a | "
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        (client(LONG_CHAINS["assignment"]), "nesting deeper than 100 levels"),
        (
            nested_clause_module(400) + "class C {\n  thread void run() { m.a(); }\n}\n",
            "groups nested deeper than 100 levels",
        ),
    ],
    ids=["operator-chain", "clause-groups"],
)
def test_corpus_long_chain_and_deep_clause_exit_two(tmp_path, capsys, bad, message):
    (tmp_path / "pair.bad.mg").write_text(bad)
    (tmp_path / "pair.fixed.mg").write_text(client(""))
    assert run(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("atomguard: pair: ") and message in out


def test_bad_usage_exits_two(capsys):
    assert run([]) == 2
    assert run(["bogus"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# dumps


def test_dump_grammar_section(capsys):
    assert run(["check", "--dump-grammar", CLEAN]) == 0
    out = capsys.readouterr().out
    assert "# grammar:" in out
    assert "Start: @run" in out
    assert "# simplified:" in out


def test_dump_table_section(capsys):
    assert run(["check", "--dump-table", CLEAN]) == 0
    out = capsys.readouterr().out
    assert "# parse table:" in out
    assert "state 0:" in out


def test_dump_trees_section(capsys):
    assert run(["check", "--dump-trees", DIRTY]) == 1
    out = capsys.readouterr().out
    assert "word 'a b' (2 found)" in out
    assert "tree 1:" in out and "tree 2:" in out


LAYERS = ("compute_pointsto", "simplify_grammar", "build_parse_table", "parse_subword_until_lca")
BUILDERS = ("build_behavior_grammar", "build_behavior_grammar_pointsto", "build_class_scope_grammar")


def count_layer_calls(monkeypatch, home=atomguard.verifier, names=LAYERS) -> Counter:
    """Count the calls to each of `home`'s functions `names`, through every
    atomguard module that binds them."""
    counts: Counter = Counter()
    for name in names:
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("atomguard") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counting)
    return counts


def test_dumps_come_from_the_checked_run(tmp_path, monkeypatch, capsys):
    # two threads and two allocation sites: four grammars, one word each,
    # derived from one simplified base grammar per thread; t1's sites x and
    # y share the shape `@t1 -> a b`, so one table and one search serve
    # both, while t2's sites (`@t2 -> a`, `@t2 -> b`) differ
    prog = tmp_path / "sites.mg"
    prog.write_text(
        MODULE_AB
        + "class C {\n"
        "  thread void t1() { x = new M(); y = new M(); x.a(); y.a(); x.b(); y.b(); }\n"
        "  thread void t2() { x.a(); y.b(); }\n"
        "}\n"
    )
    counts = count_layer_calls(monkeypatch)
    assert run(["check", str(prog)]) == 1
    plain = dict(counts)
    report = capsys.readouterr().out
    counts.clear()
    assert run(["check", *ALL_DUMPS, str(prog)]) == 1
    assert dict(counts) == plain == {
        "compute_pointsto": 1,
        "simplify_grammar": 2,
        "build_parse_table": 3,
        "parse_subword_until_lca": 3,
    }
    out = capsys.readouterr().out
    assert out.endswith(report)
    assert out.count("# grammar: ") == out.count("# parse table: ") == 4


def sites_program(sites: int, shared: bool = False) -> str:
    """MODULE_AB and two threads; t1 allocates `sites` objects and calls a
    and b on each (with `shared`, copies each into `p` and calls a and b on
    `p` once), t2 calls them on the first."""
    names = [f"x{i}" for i in range(sites)]
    t1 = "".join(f"{x} = new M(); " for x in names)
    if shared:
        t1 += "".join(f"p = {x}; " for x in names) + "p.a(); p.b(); "
    else:
        t1 += "".join(f"{x}.a(); {x}.b(); " for x in names)
    return (
        MODULE_AB
        + "class C {\n"
        + f"  thread void t1() {{ {t1}}}\n"
        + "  thread void t2() { x0.a(); x0.b(); }\n"
        + "}\n"
    )


def test_statement_walks_do_not_grow_with_sites(tmp_path, monkeypatch, capsys):
    # the parser records what the resolver and points-to read, so no layer
    # walks a client method body: not once, per thread or per allocation site
    walks = count_layer_calls(monkeypatch, atomguard.frontend.parser, ["iter_method_statements"])
    per_size = {}
    for sites in (3, 12):
        prog = tmp_path / f"sites{sites}.mg"
        prog.write_text(sites_program(sites))
        walks.clear()
        assert run(["check", str(prog)]) == 1
        per_size[sites] = walks["iter_method_statements"]
    capsys.readouterr()
    assert per_size[3] == per_size[12] == 0, "no statement walk"


def test_call_sites_do_not_grow_with_sites(tmp_path, monkeypatch, capsys):
    # each module call's CallSite is built once per check and shared by every
    # grammar; `p` may point to any of t1's sites
    made = count_layer_calls(monkeypatch, atomguard.grammar, ["CallSite"])
    per_size = {}
    for sites in (3, 12):
        prog = tmp_path / f"sites{sites}.mg"
        prog.write_text(sites_program(sites, shared=True))
        made.clear()
        assert run(["check", str(prog)]) == 1
        per_size[sites] = made["CallSite"]
    capsys.readouterr()
    assert per_size[3] == per_size[12] == 4, "one per module call: p.a, p.b, x0.a, x0.b"


@pytest.mark.parametrize("shared", [False, True], ids=["own-sites", "shared-site"])
def test_simplifications_do_not_grow_with_sites(tmp_path, monkeypatch, capsys, shared):
    # one simplification per (module, unit): each site's grammar is restricted
    # from its unit's simplified base grammar, except where a call's receiver
    # (`p`, with `shared`) may point to the site and to others; a unit builds
    # its base grammar only when some site is restricted from it
    counts = count_layer_calls(monkeypatch, names=LAYERS + BUILDERS)
    per_size = {}
    for sites in (3, 12):
        prog = tmp_path / f"sites{sites}.mg"
        prog.write_text(sites_program(sites, shared))
        counts.clear()
        assert run(["check", str(prog)]) == 1
        builds = sum(counts[name] for name in BUILDERS)
        per_size[sites] = (counts["simplify_grammar"], builds)
    capsys.readouterr()
    if shared:
        # t1's sites each get their own grammar and t1 builds no base; t2
        # has one site, so one grammar
        assert per_size == {3: (3 + 1, 3 + 1), 12: (12 + 1, 12 + 1)}
    else:
        # per (module, unit): t1's base, and t2's one site
        assert per_size == {3: (2, 2), 12: (2, 2)}


def test_searches_do_not_grow_with_sites(tmp_path, monkeypatch, capsys):
    # t1's own sites all have the grammar `@t1 -> a b` and share one table
    # and one search; t2 has one site
    counts = count_layer_calls(monkeypatch)
    per_size = {}
    for sites in (3, 12):
        prog = tmp_path / f"sites{sites}.mg"
        prog.write_text(sites_program(sites))
        counts.clear()
        assert run(["check", str(prog)]) == 1
        per_size[sites] = (counts["build_parse_table"], counts["parse_subword_until_lca"])
    capsys.readouterr()
    assert per_size == {3: (2, 2), 12: (2, 2)}


def garbage_sweep_programs(tmp_path) -> list[Path]:
    """The bundled programs, generator seeds 0-199 and the benchmark
    families at small sizes, as files."""
    files = sorted(PACKAGE_DATA.rglob("*.mg"))
    texts = {f"seed{seed}.mg": random_program(random.Random(seed))[0] for seed in range(200)}
    rng = random.Random(1)
    cases = [families.diamonds(rng, k) for k in (1, 3, 5)]
    cases += [families.loops(rng, k) for k in (1, 3)]
    cases += [families.helper(rng, k) for k in (1, 3)]
    cases += [families.random_draw(rng, i) for i in range(3)]
    cases += [families.straight(rng, n) for n in (1, 10)]
    cases += [families.chain(rng, d) for d in (1, 5)]
    cases += [families.sites(rng, s) for s in (1, 3)]
    texts.update((f"{case.name}.mg", case.text) for case in cases)
    for name, text in texts.items():
        files.append(tmp_path / name)
        files[-1].write_text(text)
    return files


def test_checks_leave_no_cyclic_garbage(tmp_path, capsys):
    # a check frees what it built by reference counting alone: nothing it
    # leaves behind waits for the cyclic garbage collector, which `run`
    # pauses for that reason
    files = garbage_sweep_programs(tmp_path)
    run(["check", str(files[0])])  # builds the cached argument parser
    leftovers = {}
    codes = Counter()
    gc.collect()
    gc.freeze()  # collections below only look at what the checks allocate
    try:
        for flags in ([], ["--class-scope"], ["--no-points-to"]):
            for path in files:
                gc.collect()
                gc.disable()
                code = run(["check", *flags, str(path)])
                found = gc.collect()
                gc.enable()
                codes[code] += 1
                if found:
                    leftovers[" ".join([*flags, path.name])] = found
                capsys.readouterr()
    finally:
        gc.enable()
        gc.unfreeze()
    assert leftovers == {}
    assert set(codes) == {0, 1}, "every check succeeds"
    assert sum(codes.values()) == 3 * len(files) >= 3 * 250


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_restores_the_collector(enabled, tmp_path, monkeypatch, capsys):
    # `run` pauses the cyclic collector while it checks, and leaves it as it
    # found it on every way out
    broken = tmp_path / "broken.mg"
    broken.write_text("class {")
    argvs = {
        0: ["check", CLEAN],
        1: ["check", DIRTY],
        2: ["check", str(broken)],
    }
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for code, argv in argvs.items():
            assert run(argv) == code
            assert gc.isenabled() is enabled, argv
        for usage in ([], ["bogus"], ["check", "--format", "xml", CLEAN]):
            assert run(usage) == 2
            assert gc.isenabled() is enabled, usage
        assert run(["corpus", str(CORPUS)]) == 0
        assert gc.isenabled() is enabled
        # and when a check raises (the benchmark's CPU limit, say)
        def fail(*args, **kwargs):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(atomguard.cli, "verify_with_stats", fail)
        with pytest.raises(RuntimeError):
            run(["check", CLEAN])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()


def test_clause_less_module_gets_no_dump_section(tmp_path, capsys):
    prog = tmp_path / "quiet.mg"
    prog.write_text(
        MODULE_AB
        + "class N contract { } {\n  void c() { }\n}\n"
        + "class C {\n  thread void run() {\n"
        "    m = new M(); n = new N(); m.a(); n.c(); m.b();\n  }\n}\n"
    )
    assert run(["check", *ALL_DUMPS, str(prog)]) == 1
    out = capsys.readouterr().out
    assert "module M, run" in out
    assert "module N" not in out


# ---------------------------------------------------------------------------
# color


def test_color_forced_on(monkeypatch, capsys):
    monkeypatch.setenv("ATOMGUARD_COLOR", "1")
    assert run(["check", DIRTY]) == 1
    assert "\x1b[31m" in capsys.readouterr().out


def test_color_forced_off(monkeypatch, capsys):
    monkeypatch.setenv("ATOMGUARD_COLOR", "0")
    assert run(["check", DIRTY]) == 1
    assert "\x1b[" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# corpus


def test_bundled_corpus_passes():
    code, text = run_corpus(str(CORPUS))
    assert code == 0, text
    lines = text.splitlines()
    assert lines[-1] == "15 pairs, 0 failing"
    assert all(line.endswith("ok") for line in lines[:-1])


def test_corpus_requires_a_directory(tmp_path):
    code, text = run_corpus(str(tmp_path / "missing"))
    assert code == 2 and "not a directory" in text
    code, text = run_corpus(str(tmp_path))
    assert code == 2 and "no *.bad.mg" in text


def test_corpus_flags_a_broken_pair(tmp_path):
    dirty = (PROGRAMS / "branching_client.mg").read_text()
    (tmp_path / "pair.bad.mg").write_text(dirty)
    (tmp_path / "pair.fixed.mg").write_text(dirty)
    code, text = run_corpus(str(tmp_path))
    assert code == 1
    assert "FAIL" in text
    assert "1 pairs, 1 failing (pair)" in text


def test_corpus_rejects_incomplete_pairs(tmp_path):
    dirty = (PROGRAMS / "branching_client.mg").read_text()
    (tmp_path / "lonely.bad.mg").write_text(dirty)
    code, text = run_corpus(str(tmp_path))
    assert code == 2 and "lonely.fixed.mg" in text

    (tmp_path / "lonely.fixed.mg").write_text(dirty.replace("thread void run", "atomic thread void run"))
    (tmp_path / "stray.fixed.mg").write_text(dirty)
    code, text = run_corpus(str(tmp_path))
    assert code == 2 and "stray" in text


def test_corpus_non_utf8_file_exits_two(tmp_path, capsys):
    dirty = (PROGRAMS / "branching_client.mg").read_text()
    (tmp_path / "pair.bad.mg").write_bytes(b"// \xe9\n" + dirty.encode())
    (tmp_path / "pair.fixed.mg").write_text(dirty)
    assert run(["corpus", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("atomguard: pair: ") and "not UTF-8 text" in out


def test_corpus_command_line(capsys):
    assert run(["corpus", str(CORPUS)]) == 0
    assert "15 pairs, 0 failing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag", [["--format", "json"], ["--format", "text"], ["--dump-grammar"], ["--dump-trees"],
             ["--dump-table"]], ids=" ".join,
)
def test_corpus_rejects_the_flags_it_does_not_use(flag, capsys):
    # the corpus runner prints one line per pair, whatever a check would print
    assert run(["corpus", str(CORPUS), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err


@pytest.mark.parametrize(
    "flags", [["--class-scope"], ["--no-points-to"], ["--max-clause-len", "4"]], ids=" ".join
)
def test_corpus_takes_the_checker_options(flags, capsys):
    assert run(["corpus", str(CORPUS), *flags]) == 0
    assert capsys.readouterr().out.endswith("\n15 pairs, 0 failing\n")


# ---------------------------------------------------------------------------
# stability


def test_output_is_identical_across_runs(capsys):
    run(["check", "--format", "json", DIRTY])
    first = capsys.readouterr().out
    run(["check", "--format", "json", DIRTY])
    second = capsys.readouterr().out
    assert first == second

    run(["check", "--dump-grammar", "--dump-table", "--dump-trees", DIRTY])
    first = capsys.readouterr().out
    run(["check", "--dump-grammar", "--dump-table", "--dump-trees", DIRTY])
    second = capsys.readouterr().out
    assert first == second


def test_python_dash_m_runs_the_command_line(monkeypatch, capsys):
    monkeypatch.chdir(CORPUS)
    monkeypatch.setenv("ATOMGUARD_COLOR", "0")
    argv = ["check", "local_counter.bad.mg"]
    assert run(argv) == 1
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-m", "atomguard", *argv], env=env, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (1, capsys.readouterr().out.encode(), b"")


# Checks each program named on the command line under each flag set, as a
# plain text report and as `--dump-trees --format json`, and prints every
# run's exit code and output.
EVERY_CHECK = """
import contextlib, io, sys
from atomguard.cli import run
for path in sys.argv[1:]:
    for flags in ([], ["--class-scope"], ["--no-points-to"]):
        for dump in ([], ["--dump-trees", "--format", "json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = run(["check", path, *flags, *dump])
            print(path, *flags, *dump, "exit", code)
            print(out.getvalue())
"""


def test_output_is_identical_across_hash_seeds():
    # the caches keyed by strings and tuples (the lexer's lexemes, the
    # search's interned keys, the sets of symbols) must not leak their
    # hash order into a report or a dump
    paths = [str(p) for p in sorted(PROGRAMS.glob("*.mg")) + sorted(CORPUS.glob("*.mg"))]
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
        outputs.append(subprocess.run(
            [sys.executable, "-c", EVERY_CHECK, *paths], env=env, capture_output=True, check=True,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b" exit 1\n") >= 3 * 2 * 15, "every bad corpus program reports"
