"""No function of the syntax layer calls itself.

Terms and types are walked, compared, hashed, printed and parsed on
explicit stacks, so their depth is bounded by memory rather than by
Python's recursion limit.  This test reads ``syntax.py`` with ``ast`` and
fails on any function or method whose body calls it directly, by its name
or as ``self.<name>``.  It does not catch mutual recursion (f calls g
calls f), nor a call through another alias."""

import ast
from pathlib import Path

import selcalc.syntax

SOURCE = Path(selcalc.syntax.__file__)


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


def test_syntax_has_no_directly_recursive_function():
    assert self_calls(ast.parse(SOURCE.read_text())) == []


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
