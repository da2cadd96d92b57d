"""Unused-import guard: every name a module of the package imports is used
in that module. `__init__.py` is skipped, since it imports to re-export."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import kisnap

MODULES = sorted(
    path
    for path in Path(kisnap.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_flags_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nsep\n") == [
        "json", "path",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
