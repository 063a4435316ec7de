"""No module of the package imports a sibling inside a function, except
the package's lazy load of the command line.

A relative import inside a function hides a dependency from the module's
header, and usually stands for an import cycle.  The modules load in one
order (rewards, syntax, monads, operational, strategies, selection,
equations, testgen, properties, cli), so each can import what it needs at
load.
``__init__.__getattr__`` keeps click out of ``import selcalc``
(``tests/test_cli.py::test_package_run_suite_loads_no_cli``)."""

import ast
from pathlib import Path

import pytest

import selcalc

MODULES = sorted(Path(selcalc.__file__).parent.glob("*.py"))

# (module, function) -> why the import waits for the call
ALLOWED = {
    ("__init__.py", "__getattr__"): "the command line loads on first use",
}


def local_relative_imports(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.append(f"{fn.name} (line {node.lineno})")
    return found


def _name(found: str) -> str:
    return found.split(" ")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unlisted_relative_import_inside_a_function(path):
    found = local_relative_imports(ast.parse(path.read_text()))
    assert [f for f in found if (path.name, _name(f)) not in ALLOWED] == []


def test_every_allowed_import_is_still_local():
    found = {(p.name, _name(f)) for p in MODULES
             for f in local_relative_imports(ast.parse(p.read_text()))}
    assert set(ALLOWED) <= found


def test_the_lint_sees_only_relative_imports_in_functions():
    src = """
from .a import x

def f():
    from .b import y
    import json
    from os import path
    return y

class C:
    def m(self):
        from ..c import z
"""
    assert local_relative_imports(ast.parse(src)) == ["f (line 5)",
                                                      "m (line 12)"]
