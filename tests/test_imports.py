"""Dead-code guards: every name a module of the package imports is used in
that module (`__init__.py` is skipped, since it imports to re-export),
every module-level definition is read somewhere in the package, and every
function parameter is read by its function unless a calling convention
fixes it."""

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


def unread_parameters(source: str) -> list[str]:
    """`qualified.name(parameter)` of every parameter of a function in
    `source`, methods and nested functions included, that the function's
    body never reads. A closure's read counts for the function that binds
    the name; `x += ...` reads x; `self` and `cls` are exempt."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
                read = {"self", "cls"}
                for stmt in child.body:
                    for n in ast.walk(stmt):
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                            read.add(n.id)
                        elif isinstance(n, ast.AugAssign):
                            read.add(ast.unparse(n.target))
                found.extend(
                    f"{prefix}{child.name}({p.arg})"
                    for p in params
                    if p is not None and p.arg not in read
                )
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_guard_flags_an_unread_parameter():
    source = (
        "def f(a, b, *c, d, **e):\n    return a + d\n"
        "def g(x, y, u):\n    def h(z):\n        return y\n    x += 1\n    u = 0\n"
        "class C:\n    def m(self, w):\n        pass\n"
        "    @classmethod\n    def k(cls, v):\n        return v\n"
    )
    assert unread_parameters(source) == [
        "f(b)", "f(c)", "f(e)", "g(u)", "g.h(z)", "C.m(w)",
    ]


# Parameters that a calling convention fixes, though these functions need
# none of them.
UNREAD_BY_PROTOCOL = {
    # A program is a generator function of (ctx, value); these four need
    # neither the pid nor n, t or k. A simulator is told the inner n, t
    # and k, and it reads no register, so neither needs its own pid.
    "objects.cons_once(ctx)",
    "objects.kis_once(ctx)",
    "reductions.alg1_variant_xsa(ctx)",
    "simulation.q_simulator(ctx)",
    # `AlgoSpec.check_range` is called with (n, t, k); these ranges read
    # fewer of them.
    "reductions.no_range(k)",
    "reductions.no_range(n)",
    "reductions.no_range(t)",
    "reductions.strawman_range(t)",
}


def test_every_parameter_is_read():
    found = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in unread_parameters(path.read_text())
    }
    assert found == UNREAD_BY_PROTOCOL
