"""Every top-level function and class in `src/bezoutiant` has a reader in `src/`.

A name's reader is a place in `src/`, outside the name's own definition,
that names it: as a Name, an attribute or an import.  Code that only tests
read belongs in `tests/` (as `conftest.py`'s oracles do).  Exempt are the
console script `cli.main`, the attributes that the benchmark's tracer
wraps (`perfbench/spans.py`), and `WAITING`: names that a ROADMAP item
will give a reader.  The test fails when a waiting name gains one, so the
list only shrinks.
"""

import ast
import importlib.util
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "bezoutiant"

#: (module, name) -> the ROADMAP item that gives it a reader.
WAITING = {
    ("kernel", "check_adjoint_identity"): "item 21",
    ("kernel", "check_diagonal_continuity"): "item 21",
}


def _named(node) -> set:
    """Every name that a syntax tree reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def unread(modules: dict) -> set:
    """(module, name) for each top-level function or class of the parsed
    modules {name: ast.Module} that no other statement of them names."""
    stmts = [(name, stmt) for name, tree in modules.items() for stmt in tree.body]
    reads = [(stmt, _named(stmt)) for _, stmt in stmts]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {(module, stmt.name) for module, stmt in stmts if isinstance(stmt, defs)
            and not any(stmt.name in names for other, names in reads if other is not stmt)}


def _tracer_pinned() -> set:
    """(module, attribute) for each module attribute the tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(owner.__name__.rpartition(".")[2], attr)
            for owner, attr, _, _ in spans._targets() if isinstance(owner, ModuleType)}


def test_every_package_name_has_a_reader():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    got = unread(modules) - {("cli", "main")} - _tracer_pinned()
    assert got == set(WAITING), (
        f"no reader in src/: {sorted(got - set(WAITING))}; "
        f"waiting names that gained one: {sorted(set(WAITING) - got)}")


def test_scan_finds_an_unread_function():
    # a name read only by its own definition has no reader; an import or an
    # attribute in another module is one
    tree = ast.parse("""
def unused():
    return Kept()

def recursive(n):
    return recursive(n - 1) if n else 0

class Kept:
    pass

class Alone:
    def method(self):
        return Alone
""")
    assert unread({"m": tree}) == {("m", "unused"), ("m", "recursive"), ("m", "Alone")}
    other = ast.parse("from .m import unused\nfrom . import m\nm.recursive(3)\n")
    assert unread({"m": tree, "n": other}) == {("m", "Alone")}
