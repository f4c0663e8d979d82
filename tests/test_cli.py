"""Command line behavior: exit codes, formats, dumps, and stability."""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

import pytest

import atomguard.frontend.parser
import atomguard.verifier
from atomguard.cli import run, run_corpus
from conftest import CORPUS, PACKAGE_DATA, PROGRAMS
from goldens import BRANCHING_CLIENT_REPORT, DUMP_DIGESTS

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


@pytest.mark.parametrize(
    "flags", ["", "--class-scope", "--no-points-to"], ids=["default", "class-scope", "no-points-to"]
)
def test_dumps_match_frozen_digests(flags, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("ATOMGUARD_COLOR", "0")
    files = sorted(p.relative_to(REPO).as_posix() for p in PACKAGE_DATA.rglob("*.mg"))
    assert files == sorted(name for f, name in DUMP_DIGESTS if f == flags)
    mismatched = []
    for name in files:
        code = run(["check", *ALL_DUMPS, *flags.split(), name])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (code, digest) != DUMP_DIGESTS[flags, name]:
            mismatched.append(name)
    assert mismatched == []


LAYERS = ("compute_pointsto", "simplify_grammar", "build_parse_table", "parse_subword_until_lca")


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
    # two threads and two allocation sites: four grammars, one word each
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
        "simplify_grammar": 4,
        "build_parse_table": 4,
        "parse_subword_until_lca": 4,
    }
    out = capsys.readouterr().out
    assert out.endswith(report)
    assert out.count("# grammar: ") == out.count("# parse table: ") == 4


def sites_program(sites: int) -> str:
    """MODULE_AB and two threads; t1 allocates `sites` objects and calls
    a and b on each, t2 calls them on the first."""
    names = [f"x{i}" for i in range(sites)]
    t1 = "".join(f"{x} = new M(); " for x in names) + "".join(f"{x}.a(); {x}.b(); " for x in names)
    return (
        MODULE_AB
        + "class C {\n"
        + f"  thread void t1() {{ {t1}}}\n"
        + "  thread void t2() { x0.a(); x0.b(); }\n"
        + "}\n"
    )


def test_statement_walks_do_not_grow_with_sites(tmp_path, monkeypatch, capsys):
    # calls are resolved once, by the parser; no later layer walks the
    # method bodies again per thread or per allocation site
    walks = count_layer_calls(monkeypatch, atomguard.frontend.parser, ["iter_method_statements"])
    per_size = {}
    for sites in (3, 12):
        prog = tmp_path / f"sites{sites}.mg"
        prog.write_text(sites_program(sites))
        walks.clear()
        assert run(["check", str(prog)]) == 1
        per_size[sites] = walks["iter_method_statements"]
    capsys.readouterr()
    assert per_size[3] == per_size[12] <= 4 * 2, "at most 4 walks per client method"


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
