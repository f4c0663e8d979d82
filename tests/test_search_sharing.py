"""One table and one search per run of same-shape site grammars.

`search_stage` builds one LR(0) table and runs one search per word for each
run of consecutive tasks of a (module, unit) whose simplified grammars
differ in call sites only, and each further site's check holds the first
check's trees, whose call sites are read from the site's own grammar.  Here
every site's check is compared with the reference search on a table built
from that site's own simplified grammar, and the report and dump bytes with
digests frozen before the searches were shared.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from atomguard import parse_program
from atomguard.cli import _render_table, run
from atomguard.glr import ParseStats, build_parse_table, tree_sites
from atomguard.verifier import grammar_stage, search_stage, simplify_stage
from generators import random_program, two_receivers
from oracles import reference_parse, reference_sites, sited_key

MODULE_AB = 'class M contract { "a b"; "b a" } {\n  void a() { }\n  void b() { }\n}\n'

# multi-site units written to cover the ways site grammars can share a shape
PROGRAMS = {
    # three sites with the same calls at the same places, through a branch,
    # a loop and a helper: one table and one search per word for all three
    "same-shape": MODULE_AB + (
        "class C {\n"
        "  thread void run() {\n"
        "    x = new M();\n"
        "    y = new M();\n"
        "    z = new M();\n"
        "    x.a();\n"
        "    y.a();\n"
        "    z.a();\n"
        "    if (cond) {\n"
        "      x.b();\n"
        "      y.b();\n"
        "      z.b();\n"
        "    } else {\n"
        "      helper();\n"
        "    }\n"
        "    while (cond) {\n"
        "      x.a();\n"
        "      y.a();\n"
        "      z.a();\n"
        "    }\n"
        "    x.b();\n"
        "    y.b();\n"
        "    z.b();\n"
        "  }\n"
        "  void helper() {\n"
        "    x.b();\n"
        "    y.b();\n"
        "    z.b();\n"
        "  }\n"
        "}\n"
    ),
    # in `run`, x and y share a shape, z differs, and w has x's shape again
    # after z: runs [x, y], [z], [w]
    "mixed-shapes": MODULE_AB + (
        "class C {\n"
        "  thread void run() {\n"
        "    x = new M();\n"
        "    y = new M();\n"
        "    z = new M();\n"
        "    w = new M();\n"
        "    x.a();\n"
        "    y.a();\n"
        "    w.a();\n"
        "    z.b();\n"
        "    if (cond) {\n"
        "      x.b();\n"
        "      y.b();\n"
        "      w.b();\n"
        "    }\n"
        "    z.a();\n"
        "  }\n"
        "  thread void other() {\n"
        "    x.a();\n"
        "    z.a();\n"
        "    y.a();\n"
        "    x.b();\n"
        "    y.b();\n"
        "    z.b();\n"
        "  }\n"
        "}\n"
    ),
    # p may point to x or y, so those two sites get grammars of their own;
    # z and the helper's receiver are each one site
    "shared-receiver": MODULE_AB + (
        "class C {\n"
        "  thread void run() {\n"
        "    x = new M();\n"
        "    y = new M();\n"
        "    z = new M();\n"
        "    p = cond ? x : y;\n"
        "    p.a();\n"
        "    x.b();\n"
        "    y.b();\n"
        "    z.a();\n"
        "    z.b();\n"
        "    use(x);\n"
        "    use(y);\n"
        "  }\n"
        "  void use(M q) {\n"
        "    q.a();\n"
        "    q.b();\n"
        "  }\n"
        "  thread void later() {\n"
        "    v = new M();\n"
        "    u = new M();\n"
        "    v.a();\n"
        "    u.a();\n"
        "    v.b();\n"
        "    u.b();\n"
        "  }\n"
        "}\n"
    ),
    # one shape for both sites, but the result of get feeds put at x only
    "parameterized": (
        'class V contract { "X=get put(X)" } {\n'
        "  int get() { return 1; }\n"
        "  void put(int v) { }\n"
        "}\n"
        "class C {\n"
        "  thread void run() {\n"
        "    x = new V();\n"
        "    y = new V();\n"
        "    var i = x.get();\n"
        "    var j = y.get();\n"
        "    x.put(i);\n"
        "    y.put(k);\n"
        "  }\n"
        "}\n"
    ),
    # two modules and two client classes, for --class-scope
    "two-classes": MODULE_AB + (
        'class N contract { "c d" } {\n'
        "  void c() { }\n"
        "  void d() { }\n"
        "}\n"
        "class P {\n"
        "  thread void t1() {\n"
        "    x = new M();\n"
        "    y = new M();\n"
        "    s = new N();\n"
        "    r = new N();\n"
        "    x.a();\n"
        "    s.c();\n"
        "    y.a();\n"
        "    r.c();\n"
        "    step();\n"
        "  }\n"
        "  void step() {\n"
        "    x.b();\n"
        "    y.b();\n"
        "    s.d();\n"
        "    r.d();\n"
        "  }\n"
        "}\n"
        "class Q {\n"
        "  thread void t2() {\n"
        "    y.a();\n"
        "    x.a();\n"
        "    y.b();\n"
        "    x.b();\n"
        "    r.c();\n"
        "  }\n"
        "  void t3() {\n"
        "    s.d();\n"
        "    x.b();\n"
        "  }\n"
        "}\n"
    ),
}
FLAG_SETS = {"default": [], "class-scope": ["--class-scope"], "no-points-to": ["--no-points-to"]}
SEEDS = range(60)


def seeded_programs():
    """Generator programs with one and with two module objects."""
    for seed in SEEDS:
        text, _ = random_program(random.Random(seed))
        yield f"seed{seed}", text
        yield f"receivers{seed}", two_receivers(text, random.Random(f"receivers{seed}"))


def assert_checks_match_own_searches(text: str, flags: list[str]) -> int:
    """Each check's table, trees and counts are those of a table built and
    searched by the reference search on the check's own simplified grammar,
    with the trees' call sites read from that grammar; returns how many
    checks shared another one's table."""
    prog = parse_program(text, "prog.mg")
    options = {"class_scope": "--class-scope" in flags, "points_to": "--no-points-to" not in flags}
    tasks = list(simplify_stage(grammar_stage(prog, **options)))
    shared = 0
    for task, check in zip(tasks, search_stage(tasks), strict=True):
        assert check.task is task
        table = build_parse_table(task.grammar)
        if check.table.grammar is not task.grammar:
            shared += 1
        assert _render_table(check.table) == _render_table(table)
        stats = ParseStats()
        words = [(clause, word) for clause, words in task.words for word in words]
        assert [(clause, word) for clause, word, _ in check.trees] == words
        for (_, word), (_, _, got) in zip(words, check.trees):
            want = reference_parse(table, word.methods, True, stats)
            assert [sited_key(tree, task.grammar) for tree in got] == [tree.key for tree in want]
            assert [tree_sites(tree, task.grammar) for tree in got] == [
                reference_sites(tree) for tree in want
            ]
        assert (check.stats.branches, check.stats.trees) == (stats.branches, stats.trees)
    return shared


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
@pytest.mark.parametrize("name", PROGRAMS)
def test_shared_searches_match_own_searches_on_written_units(name, flags):
    shared = assert_checks_match_own_searches(PROGRAMS[name], flags)
    if flags != ["--no-points-to"]:
        assert shared > 0, "every written program has a same-shape run"


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
def test_shared_searches_match_own_searches_on_generated_programs(flags):
    shared = sum(assert_checks_match_own_searches(text, flags) for _, text in seeded_programs())
    if flags != ["--no-points-to"]:
        assert shared > 0


def test_same_shape_sites_share_one_table_and_search():
    prog = parse_program(PROGRAMS["mixed-shapes"], "prog.mg")
    checks = list(search_stage(simplify_stage(grammar_stage(prog))))
    runs = [(c.task.unit, c.task.site.split(":")[-1]) for c in checks]
    built = [c.table.grammar is c.task.grammar for c in checks]
    # sites x, y, z and w are allocated on lines 7-10; `other` calls a then
    # b on each of x, z and y, and does not reach w; `run` gives x and y one
    # shape, z another, and w x's shape again, but after z
    assert list(zip(runs, built)) == [
        (("other", "7"), True), (("other", "8"), False), (("other", "9"), False),
        (("run", "7"), True), (("run", "8"), False), (("run", "9"), True), (("run", "10"), True),
    ]


def test_same_shape_sites_hold_the_first_sites_trees():
    prog = parse_program(PROGRAMS["same-shape"], "prog.mg")
    first, *further = search_stage(simplify_stage(grammar_stage(prog)))
    # sites x, y and z are allocated on lines 7-9; each site's grammar
    # reads the lines of the calls on its own variable
    lines = PROGRAMS["same-shape"].splitlines()
    for check, var in zip([first, *further], "xyz", strict=True):
        assert check.task.site.endswith(f":{7 + 'xyz'.index(var)}")
        own = {i for i, line in enumerate(lines, 1) if line.strip().startswith(f"{var}.")}
        found = set()
        for (_, _, trees), (_, _, first_trees) in zip(check.trees, first.trees, strict=True):
            assert len(trees) == len(first_trees) > 0
            assert all(tree is shared for tree, shared in zip(trees, first_trees))
            for tree in trees:
                found |= {site.line for site in tree_sites(tree, check.task.grammar)}
        assert found == own, var
    assert len(further) == 2 and all(c.table is first.table for c in further)


DUMPS = ["--dump-grammar", "--dump-table", "--dump-trees", "--format", "json"]


def report_bytes(text: str, flags: list[str], tmp_path, monkeypatch, capsys,
                 argv: list[str] = DUMPS, color: str = "0") -> bytes:
    """Exit code and stdout of `atomguard check` with `argv` (by default
    every dump plus the JSON report), run on the program saved as `prog.mg`
    in the working directory, with `ATOMGUARD_COLOR` set to `color`."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ATOMGUARD_COLOR", color)
    (tmp_path / "prog.mg").write_text(text)
    code = run(["check", *argv, *flags, "prog.mg"])
    return b"%d\n" % code + capsys.readouterr().out.encode()


# sha256 of `report_bytes`, frozen from the checker before searches were
# shared; the generated programs' outputs are hashed one after the other
FROZEN = {
    ("same-shape", "default"): "012726f980ac1d5b5804699819cc76c90653a20f60262cdd957ebd02d0dece89",
    ("same-shape", "class-scope"): "d266597dbf78a764317ab38d03407f15788018ba25babd29cfdf68979747eca5",
    ("same-shape", "no-points-to"): "f11acf80658a03238cecac15f602c128af6c6ec8a2a5a95f39f559be1791b97a",
    ("mixed-shapes", "default"): "f824a84660b52165b46de27355aa70c781e9ba9ecb8413c32f37b266d2f0a64b",
    ("mixed-shapes", "class-scope"): "5725216078399c68f6eb98f389b6e868307a8467fc825feb9da01749f0272662",
    ("mixed-shapes", "no-points-to"): "3e86612699b1717e9af63a586df1978bfedb0760df99453ca5a20743303eb553",
    ("shared-receiver", "default"): "3ef8189431f6cf66e19ce48484c59401fe064caab9897977039235d6012e1a08",
    ("shared-receiver", "class-scope"): "0a44b6270fd63bed08df75579ac22be8054bb557a38466ff645e6b5b7bc80b0c",
    ("shared-receiver", "no-points-to"): "32c6e5e0670551ddf13cae4219f816e192713051637c5b1352e97a59c84b9440",
    ("parameterized", "default"): "f37327fcf64f4a5c50e084f0115e0226f26c80f1d4bcb5890f48cd04151ca257",
    ("parameterized", "class-scope"): "83d60402424d20ca0012e55769afae395a42e487e225b20b38ff0112f076a866",
    ("parameterized", "no-points-to"): "5915db183508ad138ce2ba39a47bbab8450975c304aec21c431c83a50425538e",
    ("two-classes", "default"): "29b93527966055c5962b1793e1a8920ed6f08fda383033dafd4871a5342ae201",
    ("two-classes", "class-scope"): "3d696a30d9dbeba3f29e0485cefccee89afc55d465d171f76c246d1698e64f38",
    ("two-classes", "no-points-to"): "e483cac51e0c7c9e1a0f5a4931e1621717ab9ca243397198897d72b86119dbf9",
    ("generated", "default"): "f2af4e6c4d0b04b5824bf733fc0b011080c86daf66d4968f54d992d2056004b5",
    ("generated", "class-scope"): "d3c5189d894eab17f347af4a94e85aaa9c6054cffec19fdbe54da77a71222b0b",
    ("generated", "no-points-to"): "3dd9661bca168bed8eb9f6b0023235f44d8fcdf8da7fd33520757f55c0f3a2b0",
}


@pytest.mark.parametrize("flags", FLAG_SETS, ids=FLAG_SETS.keys())
@pytest.mark.parametrize("name", PROGRAMS)
def test_written_units_report_frozen_bytes(name, flags, tmp_path, monkeypatch, capsys):
    out = report_bytes(PROGRAMS[name], FLAG_SETS[flags], tmp_path, monkeypatch, capsys)
    assert hashlib.sha256(out).hexdigest() == FROZEN[name, flags]


@pytest.mark.parametrize("flags", FLAG_SETS, ids=FLAG_SETS.keys())
def test_generated_programs_report_frozen_bytes(flags, tmp_path, monkeypatch, capsys):
    digest = hashlib.sha256()
    for _, text in seeded_programs():
        digest.update(report_bytes(text, FLAG_SETS[flags], tmp_path, monkeypatch, capsys))
    assert digest.hexdigest() == FROZEN["generated", flags]


# sha256 of the generated programs' plain text reports (no dump), hashed one
# after the other, frozen before the text report was built one string per
# violation; keyed by flag set and `ATOMGUARD_COLOR`
FROZEN_TEXT = {
    ("default", "0"): "d53a17709934d4f8c325b542c91f771b847d278ea2601ecd37f4223e7f702667",
    ("class-scope", "0"): "e572253d5e6fc34f29dc61c6c72424ad51b459f446192022dd3b0759dd33f58e",
    ("no-points-to", "0"): "16624f66021f86e40e0d6e8c8598f05008c7f04bd3be5a1381763700ba927437",
    ("default", "1"): "c836b3ff9b0a800ad11a811da76260b263476c4ad75dc312223e1a42eca12035",
    ("class-scope", "1"): "13763b9ca20239b674c5ea5684347fef3c935228939b26f369192dd6048e0409",
    ("no-points-to", "1"): "b9e4e5a9e51793317de2f524ffc878814d95f31729b5b6654bbf136a27bfaff1",
}


@pytest.mark.parametrize(("flags", "color"), FROZEN_TEXT, ids="-color=".join)
def test_generated_programs_text_report_frozen_bytes(flags, color, tmp_path, monkeypatch, capsys):
    digest = hashlib.sha256()
    for _, text in seeded_programs():
        digest.update(report_bytes(text, FLAG_SETS[flags], tmp_path, monkeypatch, capsys, [], color))
    assert digest.hexdigest() == FROZEN_TEXT[flags, color]
