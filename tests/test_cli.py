"""Command line behavior: exit codes, formats, dumps, and stability."""

from __future__ import annotations

import json

from atomguard.cli import run, run_corpus
from conftest import CORPUS, PROGRAMS
from goldens import BRANCHING_CLIENT_REPORT

CLEAN = str(PROGRAMS / "nested_calls.mg")
DIRTY = str(PROGRAMS / "branching_client.mg")


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
