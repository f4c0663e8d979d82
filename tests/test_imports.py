"""Every name a package module imports is read in that module."""

from __future__ import annotations

import ast

import pytest

from conftest import PACKAGE_DATA

PACKAGE = PACKAGE_DATA.parent


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


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
