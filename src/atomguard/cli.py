"""Command-line driver.

    atomguard check prog.mg [...] [--class-scope] [--no-points-to]
                            [--format text|json] [--dump-grammar]
                            [--dump-trees] [--dump-table] [--max-clause-len N]
    atomguard corpus DIR [same flags]

Exit codes: 0 no violations, 1 violations found (or a corpus expectation
failed), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .errors import AtomguardError
from .frontend.parser import parse_program
from .glr import dump_tree
from .grammar import BehaviorGrammar, dump_grammar, site_restrictor
from .records import Record
from .verifier import (
    Check,
    RunStats,
    Violation,
    classify_stage,
    grammar_stage,
    render_report,
    search_stage,
    simplify_stage,
    verify_with_stats,
)

__all__ = ["Config", "run", "run_corpus", "main"]


class Config(Record):
    __slots__ = ("class_scope", "points_to", "fmt", "dumps", "max_clause_len", "color")

    def __init__(self, class_scope: bool = False, points_to: bool = True, fmt: str = "text",
                 dumps: Optional[set[str]] = None, max_clause_len: int = 16, color: bool = False):
        self.class_scope = class_scope
        self.points_to = points_to
        self.fmt = fmt
        self.dumps = set() if dumps is None else dumps  # {"grammar", "trees", "table"}
        self.max_clause_len = max_clause_len
        self.color = color


def _want_color() -> bool:
    env = os.environ.get("ATOMGUARD_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stdout.isatty()


def _read_source(path: Path) -> str:
    data = path.read_bytes()
    skip = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[skip:].decode("utf-8")
    except UnicodeDecodeError as e:
        raise AtomguardError(
            f"{path}: not UTF-8 text (byte {e.object[e.start]:#04x} at offset {skip + e.start})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines, as in text mode


def _analyze_file(path: Path, config: Config, out: list[str]) -> tuple[list[Violation], RunStats]:
    program = parse_program(_read_source(path), filename=str(path))
    options = dict(class_scope=config.class_scope, points_to=config.points_to,
                   max_clause_len=config.max_clause_len)
    if not config.dumps:
        return verify_with_stats(program, **options)
    # The same stages as `verify_with_stats`, keeping each unsimplified
    # grammar for `--dump-grammar` and every check for the other dumps.
    tasks = list(grammar_stage(program, **options))
    checks = list(search_stage(simplify_stage(tasks)))
    for task, check in zip(tasks, checks):
        raw = task.grammar
        if task.drop is not None:  # the site's own, built only to print it
            raw = site_restrictor(raw, task.drop.tracked)(task.drop.own)
        _print_check(raw, check, config.dumps, out)
    return classify_stage(program, checks)


def _print_check(raw: BehaviorGrammar, check: Check, dumps: set[str], out: list[str]) -> None:
    where = f"module {check.task.module}, {check.task.unit}"
    if check.task.site:
        where += f", site {check.task.site}"
    if "grammar" in dumps:
        out.append(f"# grammar: {where}")
        out.append(dump_grammar(raw).rstrip("\n"))
        out.append(f"# simplified: {where}")
        out.append(dump_grammar(check.task.grammar).rstrip("\n"))
        out.append("")
    if "table" in dumps:
        out.append(f"# parse table: {where}")
        out.append(_render_table(check.table))
    if "trees" in dumps:
        for _, word, trees in check.trees:
            out.append(f"# trees: {where}, word '{' '.join(word.methods)}' ({len(trees)} found)")
            for i, tree in enumerate(trees, 1):
                out.append(f"tree {i}:")
                out.append(dump_tree(tree, check.task.grammar).rstrip("\n"))
            out.append("")


def _render_table(table) -> str:
    lines = [f"{len(table.states)} states"]
    for i, state in enumerate(table.states):
        lines.append(f"state {i}:")
        for pi, dot in sorted(state):
            p = table.productions[pi]
            body = list(p.body)
            body.insert(dot, ".")
            lines.append(f"  {p.head} -> {' '.join(body)}")
        moves = sorted(
            (sym, t) for (s, sym), t in table.goto.items() if s == i
        )
        for sym, t in moves:
            lines.append(f"  [{sym} -> state {t}]")
    return "\n".join(lines) + "\n"


def _word_length(text: str) -> int:
    """A `--max-clause-len` bound: a whole number, at least 1."""
    try:
        bound = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bound < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {bound}")
    return bound


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="atomguard",
        description="Check atomic-execution contracts on module call sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--class-scope", action="store_true", help="one grammar per client class instead of per thread")
        p.add_argument("--no-points-to", action="store_true", help="treat every receiver as every module instance")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--dump-grammar", action="store_true")
        p.add_argument("--dump-trees", action="store_true")
        p.add_argument("--dump-table", action="store_true")
        p.add_argument("--max-clause-len", type=_word_length, default=16, metavar="N")

    p_check = sub.add_parser("check", help="analyze one or more programs")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    add_common(p_check)

    p_corpus = sub.add_parser("corpus", help="run bad/fixed program pairs")
    p_corpus.add_argument("dir", metavar="DIR")
    add_common(p_corpus)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    config = Config(
        class_scope=args.class_scope,
        points_to=not args.no_points_to,
        fmt=args.format,
        dumps={d for d in ("grammar", "trees", "table") if getattr(args, f"dump_{d}")},
        max_clause_len=args.max_clause_len,
        color=_want_color(),
    )

    if args.command == "corpus":
        code, text = run_corpus(args.dir, config)
        sys.stdout.write(text)
        return code

    out: list[str] = []
    all_violations: list[Violation] = []
    stats = RunStats()
    try:
        for name in args.files:
            path = Path(name)
            violations, file_stats = _analyze_file(path, config, out)
            all_violations.extend(violations)
            stats.grammars += file_stats.grammars
            stats.trees += file_stats.trees
            stats.branches += file_stats.branches
    except (AtomguardError, OSError) as e:
        sys.stderr.write(f"atomguard: {e}\n")
        return 2
    for section in out:
        sys.stdout.write(section + "\n")
    use_color = config.color and config.fmt == "text"
    sys.stdout.write(render_report(all_violations, config.fmt, stats, color=use_color))
    return 1 if all_violations else 0


def run_corpus(directory: str, config: Config | None = None) -> tuple[int, str]:
    """Check every NAME.bad.mg / NAME.fixed.mg pair under a directory.

    A pair passes when the bad program reports at least one violation and
    the fixed program reports none.
    """
    c = config or Config()  # pairs print no dumps
    quiet = Config(c.class_scope, c.points_to, c.fmt, set(), c.max_clause_len, c.color)
    root = Path(directory)
    if not root.is_dir():
        return 2, f"atomguard: not a directory: {directory}\n"
    bads = sorted(root.glob("*.bad.mg"))
    fixeds = {p.name.replace(".fixed.mg", ""): p for p in root.glob("*.fixed.mg")}
    if not bads:
        return 2, f"atomguard: no *.bad.mg programs under {directory}\n"
    lines: list[str] = []
    failed: list[str] = []
    for bad in bads:
        name = bad.name.replace(".bad.mg", "")
        fixed = fixeds.pop(name, None)
        if fixed is None:
            return 2, f"atomguard: {bad.name} has no {name}.fixed.mg counterpart\n"
        try:
            bad_count = len(_analyze_file(bad, quiet, [])[0])
            fixed_count = len(_analyze_file(fixed, quiet, [])[0])
        except (AtomguardError, OSError) as e:
            return 2, f"atomguard: {name}: {e}\n"
        ok = bad_count >= 1 and fixed_count == 0
        status = "ok" if ok else "FAIL"
        if not ok:
            failed.append(name)
        lines.append(f"{name:24} bad={bad_count:<3} fixed={fixed_count:<3} {status}")
    if fixeds:
        stray = ", ".join(sorted(p.name for p in fixeds.values()))
        return 2, f"atomguard: fixed programs without bad counterparts: {stray}\n"
    summary = f"{len(bads)} pairs, {len(failed)} failing"
    if failed:
        summary += f" ({', '.join(failed)})"
    lines.append(summary)
    return (1 if failed else 0), "\n".join(lines) + "\n"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
