"""Every module under src/cvqec/, tests/ and bench/ reads each name it imports.

Every top-level definition and class member in src/cvqec/ is read by src/ or bench/, so the
package holds what its commands and the benchmark reach; the few that only an acceptance
criterion reads are listed with its number.  More strictly, each is reached from what runs
when cvqec.cli runs, following reads through reached definitions; the few that only the benchmark
reads are listed with the file that reads each.
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


def definitions(source: str) -> dict[str, list[ast.AST]]:
    """The names a module's top-level functions, classes and assignments bind, and its classes' members.

    A member is a method or property, or an annotated field of a dataclass, named Class.member;
    dunder methods, which Python calls itself, are left out.  Each name maps to the nodes whose
    reads it makes once reached: a function's or an assignment's whole statement; a class's
    decorators, bases and the statements of its body that are not members; a member's statement.
    """
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id: [node] for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.ClassDef):
            fields = any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)
            names[node.name] = [*node.decorator_list, *node.bases]
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("__"):
                    names[f"{node.name}.{member.name}"] = [member]
                elif fields and isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    names[f"{node.name}.{member.target.id}"] = [member]
                else:
                    names[node.name].append(member)
    return names


def reads(source: str | ast.AST) -> set[str]:
    """The names `source` loads, and the attribute names it reads, each as ".name"."""
    tree = ast.parse(source) if isinstance(source, str) else source
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(f".{node.attr}")
    return out


def is_read(name: str, read: set[str]) -> bool:
    """A member Class.m is read as an attribute .m; a top-level name as itself or a module's attribute."""
    owner, _, member = name.rpartition(".")
    return f".{member}" in read or (not owner and member in read)


def unread(source: str, read: set[str]) -> set[str]:
    """The definitions of `source` that `read` does not read."""
    return {name for name in definitions(source) if not is_read(name, read)}


def test_unread_definitions_are_found():
    source = "import m\nA = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\ndef f(): return A\nclass K: pass\n"
    source += "class J:\n    def __init__(self): pass\n    def g(self): pass\n    def h(self): pass\n"
    # a dataclass's annotated fields are members, read as attributes only; a plain class's are not
    source += "@dataclass(frozen=True)\nclass R:\n    x: int\n    y: int\n    z = 0\nclass Q:\n    w: int\n"
    source += "m.E\nf()\nJ().h\nR(1, 2).x\nf(y, Q)\n"
    assert sorted(unread(source, reads(source))) == ["B", "C", "D", "J.g", "K", "R.y"]


# definitions that only an acceptance criterion reads, with the criterion's number; each stays
# in src/ so that the criterion tests the package, until a command reaches it
CRITERION_ONLY = {
    "crot": 3,
    "Alg1Result.upsilon_matrix": 5,
    "canonical_partial_isometry": 6,
    "PartialIsometryRep.pairs": 6,
    "cyclic_structure": 8,
}


def test_every_src_definition_is_read():
    """Each definition in src/cvqec/ is read by src/ or bench/, or is one that a criterion needs."""
    readers = [path for path in MODULES if path.parent.name != "tests"]
    read = set().union(*(reads(path.read_text(encoding="utf-8")) for path in readers))
    src = [path.read_text(encoding="utf-8") for path in readers if path.parent.name == "cvqec"]
    found = set().union(*(unread(source, read) for source in src))
    assert sorted(found - CRITERION_ONLY.keys()) == []
    assert sorted(CRITERION_ONLY.keys() - found) == []  # a name src/ or bench/ reads leaves the list


# definitions that only the benchmark reads, with the file under bench/ that reads each; a name
# leaves the list once cli or a criterion reaches it
BENCH_ONLY = {
    "FockOperator.entries": "bench/spans.py",
    "Alg1Result.grid_values": "bench/run.py",
    "BlockOperator.diagonal_values": "bench/run.py",
}


def reach(defs: dict[str, list[ast.AST]], read: set[str]) -> set[str]:
    """The names of `defs` that `read` reaches, adding the reads of each reached name's nodes."""
    found = set()
    while new := {name for name in defs.keys() - found if is_read(name, read)}:
        found |= new
        read = read | set().union(*(reads(node) for name in new for node in defs[name]))
    return found


def test_reach_follows_reads_from_the_roots():
    source = "A = 1\nB = A\ndef f(): return g(B)\ndef g(x): return x\ndef u(): return f\n"
    # a reached class reads its decorators, bases and non-member statements; a member reads its
    # own statement once it is read as an attribute
    source += "@deco\nclass K(Base):\n    x = C\n    def __init__(self): D\n    def m(self): E\n    def n(self): F\n"
    source += "def deco(c): return c\nclass Base: pass\nC = D = E = F = 0\n"
    source += "@dataclass\nclass R:\n    a: int = G\n    b: int = H\nG = H = 0\n"
    found = reach(definitions(source), {"f", "K", ".m", ".a"})
    assert sorted(found) == ["A", "B", "Base", "C", "D", "E", "G", "K", "K.m", "R.a", "deco", "f", "g"]


def test_every_src_definition_is_reached_from_cli():
    """Each definition in src/cvqec/ is reached from cli, a criterion's name or a BENCH_ONLY name.

    A BENCH_ONLY name is read by its file and is not reached from cli or the criteria.
    """
    defs = {}
    for path in MODULES:
        if path.parent.name == "cvqec":
            for name, nodes in definitions(path.read_text(encoding="utf-8")).items():
                defs.setdefault(name, []).extend(nodes)
    # what runs when cli runs as a program: its statements that define no name
    cli = ast.parse((ROOT / "src/cvqec/cli.py").read_text(encoding="utf-8")).body
    defining = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)
    read = set().union(*(reads(node) for node in cli if not isinstance(node, defining)))
    # names as is_read reads them: .name for a member, and a module's attribute for a top-level name
    as_read = lambda names: {f".{name.rpartition('.')[2]}" for name in names}
    from_cli = reach(defs, read | as_read(CRITERION_ONLY))
    found = reach(defs, read | as_read(CRITERION_ONLY) | as_read(BENCH_ONLY))
    assert sorted(defs.keys() - found) == []
    assert sorted(BENCH_ONLY.keys() & from_cli) == []
    for name, path in BENCH_ONLY.items():
        assert is_read(name, reads((ROOT / path).read_text(encoding="utf-8"))), name


def functions(path: str) -> dict[str, ast.FunctionDef]:
    """The top-level functions of a module under the repo root, by name."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("name, criterion", CRITERION_ONLY.items())
def test_criterion_reads_its_definition(name, criterion):
    """The criterion's test reads the name, itself or in a tests/_helpers.py function it calls."""
    tests = functions("tests/test_acceptance.py")
    [test] = [node for fn, node in tests.items() if fn.startswith(f"test_criterion_{criterion}_")]
    helpers = functions("tests/_helpers.py")
    read = reads(test)
    read |= set().union(*(reads(helpers[fn]) for fn in read & helpers.keys()))
    assert is_read(name, read)
