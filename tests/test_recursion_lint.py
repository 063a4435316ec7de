"""No function of the package calls itself, except a few whose depth is
bounded by something other than the input's nesting.

Terms and types are walked, compared, hashed, printed, parsed and denoted
on explicit stacks (``syntax.fold_term``), so their depth is bounded by
memory rather than by Python's recursion limit.  This test reads every
module of ``selcalc`` with ``ast`` and fails on any function or method
whose body calls it directly, by its name or as ``self.<name>``, unless
``ALLOWED`` names it with the bound that keeps it shallow.  It does not
catch mutual recursion (f calls g calls f), nor a call through another
alias; ``denote``'s computations still nest at run time, once per
stacked effect (README, "Known limits")."""

import ast
from pathlib import Path

import pytest

import selcalc

MODULES = sorted(Path(selcalc.__file__).parent.glob("*.py"))

# (module, function) -> what bounds its depth
ALLOWED = {
    ("equations.py", "_match"):
        "the pattern's depth: an axiom's left-hand side is a few levels deep",
    ("monads.py", "atom_key"):
        "the tuple nesting of a distribution atom: (reward, value) pairs",
    ("selection.py", "chain"):
        "the arity of a built-in function symbol, at most two",
    ("testgen.py", "leaf"): "the target type's depth",
    ("testgen.py", "go"): "gen_effect_value's max_ops, the generation size",
    # the distinguishing context is quadratic in pair depth anyway
    # (README, "Known limits")
    ("equations.py", "_ground_type"): "the pair depth of a ground value",
    ("equations.py", "_equals"): "the pair depth of a ground value",
}


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if ((isinstance(f, ast.Name) and f.id == fn.name)
                    or (isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self")):
                found.append(f"{fn.name} (line {call.lineno})")
    return found


def _name(found: str) -> str:
    return found.split(" ")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unlisted_directly_recursive_function(path):
    found = self_calls(ast.parse(path.read_text()))
    assert [f for f in found if (path.name, _name(f)) not in ALLOWED] == []


def test_every_allowed_function_still_recurses():
    found = {(p.name, _name(f)) for p in MODULES
             for f in self_calls(ast.parse(p.read_text()))}
    assert set(ALLOWED) <= found


def test_the_lint_sees_both_forms_of_self_call():
    src = """
def depth(t):
    return 1 + depth(t.kid)

class P:
    def item(self):
        return self.item()

    def other(self):
        return depth(self)
"""
    assert self_calls(ast.parse(src)) == ["depth (line 3)", "item (line 7)"]
