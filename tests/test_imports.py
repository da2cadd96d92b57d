"""Dead-code guards: every name a module of the package imports is used in
that module (`__init__.py` is skipped, since it imports to re-export), and
every module-level definition is read somewhere in the package."""

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


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of every module-level function, class or constant in
    `sources` (module name -> source) that no other top-level statement of
    any module reads, by name or as an attribute. An import in `__init__`
    is a read; dunders are exempt."""
    defined = []  # (module, name, defining statement)
    reads = []  # (top-level statement, names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            if module == "__init__" and isinstance(stmt, ast.ImportFrom):
                names |= {a.name for a in stmt.names}
            reads.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name, stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defined.append((module, node.id, stmt))
    return [
        f"{module}.{name}"
        for module, name, own in defined
        if not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for stmt, names in reads if stmt is not own)
    ]


def test_guard_flags_an_unused_definition():
    sources = {
        "a": "def f(): return f()\n"
        "def g(): return h()\n"
        "def h(): pass\n"
        "class C: pass\n"
        "X, Y = 1, 2\n"
        "__version__ = '1'\n"
        "Z = X\n",
        "b": "import a\nprint(a.Z)\n",
        "__init__": "from .a import C, g\n",
    }
    assert unused_definitions(sources) == ["a.f", "a.Y"]


def test_every_definition_is_read():
    package = Path(kisnap.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unused_definitions(sources) == []
