"""Every module under src/cvqec/, tests/ and bench/ reads each name it imports.

Every top-level definition in src/cvqec/ is read somewhere in those folders.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted(path for folder in ("src/cvqec", "tests", "bench") for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports, at any depth, that no expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nfrom __future__ import annotations\nd(os)\n"
    assert unused_imports(source) == ["b", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> set[str]:
    """The names a module's top-level functions, classes and assignments bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def reads(source: str) -> set[str]:
    """The names `source` loads, and the attribute names it reads."""
    tree = ast.parse(source)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_unread_definitions_are_found():
    source = "import m\nA = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\ndef f(): return A\nclass K: pass\n"
    source += "m.E\nf()\n"
    assert sorted(definitions(source) - reads(source)) == ["B", "C", "D", "K"]


def test_every_src_definition_is_read():
    read = set().union(*(reads(path.read_text(encoding="utf-8")) for path in MODULES))
    unread = {
        f"{path.name}: {name}"
        for path in MODULES
        if path.parent.name == "cvqec"
        for name in definitions(path.read_text(encoding="utf-8")) - read
    }
    assert sorted(unread) == []
