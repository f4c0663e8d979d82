"""The report bytes of every bundled and generated program, frozen.

Each run is `atomguard check` on one program, named by its path relative to
its own directory and run from there, under one flag set and in one format:
the plain text report, `--dump-trees --format json`, and, for the bundled
programs only, `--dump-grammar --dump-table` and all three dumps in text.
`report_digests.json` holds the sha256 of each run's exit code, stdout and
stderr, with the search's `"branches"` count masked, so a refactor that
keeps every report keeps every digest and a failure names the runs whose
bytes moved.

A change that moves a report on purpose refreezes the file with

    PYTHONPATH=src python tests/test_report_bytes.py

and says why in `CHANGES.md`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

import pytest

from atomguard.cli import run
from generators import random_program, two_receivers

DATA = Path(__file__).resolve().parent.parent / "src" / "atomguard" / "data"
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
FLAG_SETS = {"default": [], "class-scope": ["--class-scope"], "no-points-to": ["--no-points-to"]}
FORMATS = {
    "text": [],
    "trees-json": ["--dump-trees", "--format", "json"],
    "grammar-table": ["--dump-grammar", "--dump-table"],
    "all-dumps": ["--dump-grammar", "--dump-table", "--dump-trees"],
}
BUNDLED_ONLY = {"grammar-table", "all-dumps"}
SEEDS = range(200)
BRANCHES = re.compile(r'"branches": \d+')


def bundled() -> list[tuple[str, Path]]:
    """(key, path) of each program shipped with the package."""
    return [(p.relative_to(DATA).as_posix(), p) for p in sorted(DATA.rglob("*.mg"))]


def generated(directory: Path) -> list[tuple[str, Path]]:
    """(key, path) of each generator program, written to `directory`: seeds
    0-199 with one module object and again with two."""
    found = []
    for seed in SEEDS:
        text, _ = random_program(random.Random(seed))
        for name, variant in (
            (f"seed{seed}.mg", text),
            (f"receivers{seed}.mg", two_receivers(text, random.Random(f"receivers{seed}"))),
        ):
            path = directory / name
            path.write_text(variant)
            found.append((f"generated/{name}", path))
    return found


def digest(path: Path, argv: list[str]) -> str:
    """sha256 of `atomguard check` on `path` with `argv`, run from the
    program's directory with color off."""
    out, err = io.StringIO(), io.StringIO()
    cwd, color = os.getcwd(), os.environ.get("ATOMGUARD_COLOR")
    os.chdir(path.parent)
    os.environ["ATOMGUARD_COLOR"] = "0"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["check", *argv, path.name])
    finally:
        os.chdir(cwd)
        if color is None:
            del os.environ["ATOMGUARD_COLOR"]
        else:
            os.environ["ATOMGUARD_COLOR"] = color
    text = f"exit {code}\n{out.getvalue()}\nstderr\n{err.getvalue()}"
    return hashlib.sha256(BRANCHES.sub('"branches": _', text).encode()).hexdigest()


def runs(directory: Path, flags: str, fmt: str) -> list[tuple[str, Path, list[str]]]:
    """(key, path, argv) of each run under one flag set and format."""
    programs = bundled() if fmt in BUNDLED_ONLY else bundled() + generated(directory)
    return [(f"{key} {flags} {fmt}", path, [*FLAG_SETS[flags], *FORMATS[fmt]])
            for key, path in programs]


def all_digests(directory: Path) -> dict[str, str]:
    return {key: digest(path, argv)
            for flags in FLAG_SETS for fmt in FORMATS
            for key, path, argv in runs(directory, flags, fmt)}


@pytest.fixture(scope="module")
def frozen() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", FLAG_SETS)
def test_reports_match_frozen_digests(flags, fmt, frozen, tmp_path):
    todo = runs(tmp_path, flags, fmt)
    assert len(todo) == (37 if fmt in BUNDLED_ONLY else 437)
    suffix = f" {flags} {fmt}"
    assert sorted(key for key, _, _ in todo) == sorted(k for k in frozen if k.endswith(suffix))
    moved = [key for key, path, argv in todo if digest(path, argv) != frozen[key]]
    assert moved == []


def test_every_frozen_run_is_run(frozen):
    assert len(frozen) == 3 * (2 * 437 + 2 * 37)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        DIGESTS.write_text(json.dumps(all_digests(Path(scratch)), indent=1, sort_keys=True) + "\n")
