"""Every name a package module imports is read in that module, every name
it exports is bound there and, but for the package's `__init__`, defined
there, every private top-level name is read somewhere in the package, no
record writes out the constructor `Record` derives, the command line starts
without the reflection modules, and the README's API snippets run."""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import subprocess
import sys

import pytest

from conftest import CORPUS, PACKAGE_DATA

PACKAGE = PACKAGE_DATA.parent
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads; a name listed in `__all__`
    counts as read, and `__future__` imports are directives."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import Optional, cast\n"
        "from .x import y as z\n"
        "__all__ = ['cast']\n"
        "def f(a: Optional[int]) -> None:\n"
        "    print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["sys (line 3)", "z (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(source: str) -> tuple[list[str], set[str], set[str]]:
    """The module's `__all__`, the names its top-level definitions and
    assignments bind, and the names its top-level imports bind."""
    defined: set[str] = set()
    imported: set[str] = set()
    exported: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return exported, defined, imported


def unbound_exports(source: str) -> list[str]:
    """Names in the module's `__all__` that no top-level statement binds."""
    exported, defined, imported = top_level_names(source)
    return [name for name in exported if name not in defined | imported]


def test_unbound_exports_are_found():
    source = (
        "from .x import y\n"
        "Z: int = 1\n"
        "def f(): pass\n"
        "class C: pass\n"
        "__all__ = ['y', 'Z', 'f', 'C', 'gone']\n"
    )
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def reexports(source: str) -> list[str]:
    """Names in the module's `__all__` that it does not define: it passes on
    what another module defines."""
    exported, defined, _ = top_level_names(source)
    return [name for name in exported if name not in defined]


def test_reexports_are_found():
    source = (
        "from .x import y, w\n"
        "import z\n"
        "w = 2\n"
        "Z: int = 1\n"
        "def f(): pass\n"
        "class C: pass\n"
        "__all__ = ['y', 'z', 'w', 'Z', 'f', 'C']\n"
    )
    assert reexports(source) == ["y", "z"]


# `atomguard/__init__.py`, the public API, re-exports by design and is not
# checked; `bench/test_bench.py` imports `statement_call` from the parser.
ALLOWED_REEXPORTS = {"frontend/parser.py": {"statement_call"}}


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p != PACKAGE / "__init__.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_every_export_is_defined_in_its_module(path):
    allowed = ALLOWED_REEXPORTS.get(path.relative_to(PACKAGE).as_posix(), set())
    assert [name for name in reexports(path.read_text(encoding="utf-8")) if name not in allowed] == []


def copy_only_inits(source: str) -> list[str]:
    """Record classes (those deriving from `Record` or `HashableRecord` by
    name) whose `__init__` only assigns each parameter to the same-named
    attribute: `Record` derives that constructor from `__slots__`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
            isinstance(b, ast.Name) and b.id in ("Record", "HashableRecord") for b in node.bases
        ):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name != "__init__":
                continue
            params = {a.arg for a in fn.args.args[1:] + fn.args.kwonlyargs}
            if all(
                isinstance(s, ast.Assign)
                and len(s.targets) == 1
                and isinstance(s.targets[0], ast.Attribute)
                and isinstance(s.targets[0].value, ast.Name)
                and s.targets[0].value.id == "self"
                and isinstance(s.value, ast.Name)
                and s.value.id == s.targets[0].attr
                and s.value.id in params
                for s in fn.body
            ):
                found.append(f"{node.name} (line {fn.lineno})")
    return found


def test_copy_only_inits_are_found():
    source = (
        "class Copied(HashableRecord):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b=None):\n"
        "        self.a = a\n"
        "        self.b = b\n"
        "class Fresh(Record):\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self, a, b=None):\n"
        "        self.a = a\n"
        "        self.b = [] if b is None else b\n"
        "class Renamed(Record):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self, x):\n"
        "        self.a = x\n"
        "class Plain:\n"
        "    def __init__(self, a):\n"
        "        self.a = a\n"
    )
    assert copy_only_inits(source) == ["Copied (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_record_writes_out_its_constructor(path):
    assert copy_only_inits(path.read_text(encoding="utf-8")) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level definitions (functions, classes and assigned names
    starting with one `_`) that no other top-level statement of any of the
    `sources`, keyed by module, reads, imports or names as an attribute; a
    comment does not count, nor does a function's call of itself."""
    defined: list[tuple[str, str, int, ast.stmt]] = []
    uses: list[tuple[ast.stmt, set[str]]] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names |= {alias.name for alias in node.names}
            uses.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                bound = []
            defined += [(module, name, stmt.lineno, stmt) for name in bound
                        if name.startswith("_") and not name.startswith("__")]
    return [f"{module}: {name} (line {line})" for module, name, line, stmt in defined
            if not any(name in names for other, names in uses if other is not stmt)]


def test_dead_private_names_are_found():
    sources = {
        "a": (
            "_used = 1\n"
            "_dead = 2  # only _dead's comment names it\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "def _helper():\n"
            "    return _used\n"
            "class _Shape: pass\n"
            "_Alias = dict\n"
            "_by_attribute = 3\n"
            "__all__ = ['f']\n"
            "def f(x: _Alias):\n"
            "    return _helper()\n"
        ),
        "b": "from .a import _Shape\nimport a\nprint(a._by_attribute)\n",
    }
    assert dead_private_names(sources) == ["a: _dead (line 2)", "a: _recursive (line 3)"]


def test_every_private_name_is_read():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_private_names(sources) == []


def test_readme_api_snippets_run():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1].split("\n## ", 1)[0]
    first, second = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {"text": (CORPUS / "local_counter.bad.mg").read_text()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(first, namespace)
    reported = namespace["violations"]
    assert reported and out.getvalue() == namespace["render_report"](reported)
    exec(second, namespace)
    assert namespace["violations"] == reported
    assert namespace["stats"].grammars == len(namespace["checks"]) == len(namespace["tasks"])


def test_the_command_line_imports_no_reflection_or_json_modules():
    """`dataclasses` alone would bring `inspect`, `ast` and `dis` with it,
    about half of a check's start-up, and `json` is only for `--format
    json`; a count, so it cannot flake."""
    code = (
        "import atomguard.cli, sys; "
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'json') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == []
