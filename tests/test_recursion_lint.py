"""No function of the package calls itself, directly or through other
functions of its module, except a few whose depth is bounded by something
other than the input's nesting.

Terms and types are walked, compared, hashed, printed, parsed and denoted
on explicit stacks (``syntax.fold_term``), so their depth is bounded by
memory rather than by Python's recursion limit.  This test reads every
module of ``selcalc`` with ``ast`` and builds each module's call graph
from calls by plain name and as ``self.<name>``.  It fails on any
function or method whose body calls it directly, and on any cycle of two
or more functions that call each other, unless ``ALLOWED`` names it with
the bound that keeps it shallow.  It does not see a call through another
alias, or through a function picked from a collection: testgen's
``gen``/``node``/``mk_*`` recursion goes through a maker that
``rng.choices`` picks, so this lint cannot see it, and ``gen --type``
with a 1500-deep product type still exits 4 (ROADMAP item 3).
``denote``'s computations still nest at run time, once per stacked
effect (README, "Known limits")."""

import ast
from pathlib import Path

import pytest

import selcalc

MODULES = sorted(Path(selcalc.__file__).parent.glob("*.py"))

# (module, a function or the sorted names of a cycle) -> what bounds its depth
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


def cycles(tree: ast.AST) -> list[str]:
    """Each set of two or more functions of the module that call each
    other, by plain name or as ``self.<name>``, as their sorted names
    joined by spaces.  A function's calls include those of the functions
    nested in it."""
    graph = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = graph.setdefault(fn.name, set())
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if isinstance(f, ast.Name):
                    calls.add(f.id)
                elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.value.id == "self"):
                    calls.add(f.attr)
    reach = {}
    for name in graph:
        seen, stack = set(), [name]
        while stack:
            for callee in graph.get(stack.pop(), ()):
                if callee in graph and callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        reach[name] = seen
    groups = {" ".join(sorted(g for g in reach[f] if f in reach[g]))
              for f in graph if f in reach[f]}
    return sorted(g for g in groups if " " in g)


def _name(found: str) -> str:
    return found.split(" ")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unlisted_directly_recursive_function(path):
    found = self_calls(ast.parse(path.read_text()))
    assert [f for f in found if (path.name, _name(f)) not in ALLOWED] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unlisted_mutual_recursion(path):
    found = cycles(ast.parse(path.read_text()))
    assert [c for c in found if (path.name, c) not in ALLOWED] == []


def test_every_allowed_function_still_recurses():
    found = set()
    for p in MODULES:
        tree = ast.parse(p.read_text())
        found |= {(p.name, _name(f)) for f in self_calls(tree)}
        found |= {(p.name, c) for c in cycles(tree)}
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


def test_the_lint_sees_mutual_recursion():
    src = """
def even(n):
    return n == 0 or odd(n - 1)

def odd(n):
    return n != 0 and even(n - 1)

def leaf(n):
    return even(n)

class P:
    def term(self):
        return self.atom()

    def atom(self):
        return self.term() if self.more() else leaf(0)

    def more(self):
        return False
"""
    assert cycles(ast.parse(src)) == ["atom term", "even odd"]
