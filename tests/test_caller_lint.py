"""Every definition has a caller: each top-level function, class and
module-level name of the package, and each method, is named somewhere in
``src/`` or ``bench/``, unless the package exports it, a click decorator
registers it, or ``ALLOWED`` names it with its reason.

"Named" means an ``ast`` ``Name`` or ``Attribute`` read anywhere in those
files, the defining module included, so a method counts as called when
any object's attribute of that name is read.  Special methods
(``__init__`` and the like) are called by Python and are left out."""

import ast
from pathlib import Path

import selcalc

PACKAGE = Path(selcalc.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted((PACKAGE.parents[1] / "bench").glob("*.py"))

# (module, name) -> why only tests call it
ALLOWED = {
    ("syntax.py", "pretty_program"):
        "prints a program with its header, for tests that feed generated "
        "programs back through the parser and the command line",
    ("syntax.py", "parse"):
        "the term parser without a program header; the repr golden test "
        "and the fuzz tests read it",
    ("testgen.py", "constructor_coverage"):
        "the generator's coverage count, read by test_constructor_coverage",
    ("rewards.py", "RewardStructure.big_convex"):
        "a finite convex combination, which the monad and reward tests "
        "compute expectations with",
}


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each top-level function, class, method
    and module-level name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{m.name}", m) for m in node.body
                      if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [(t.id, node) for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name)]
    return found


def names_read(paths) -> set[str]:
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return read


def exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def registered(node: ast.AST) -> bool:
    """Whether a click decorator (``@group.command(...)``,
    ``@click.group()``) registers the function."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group") for d in node.decorator_list)


def uncalled(modules, read, exports) -> list[tuple[str, str]]:
    out = []
    for path in modules:
        for qual, node in definitions(ast.parse(path.read_text())):
            name = qual.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in read or name in exports or registered(node):
                continue
            out.append((path.name, qual))
    return out


def test_every_definition_has_a_caller():
    found = uncalled(MODULES, names_read(MODULES + BENCH), exported())
    assert [d for d in found if d not in ALLOWED] == []


def test_every_allowed_definition_still_lacks_a_caller():
    found = uncalled(MODULES, names_read(MODULES + BENCH), exported())
    assert set(ALLOWED) <= set(found)


def test_the_lint_sees_each_kind_of_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("""
import click

LIMIT = 3
USED = 4


def helper():
    return USED


class Box:
    def __init__(self):
        self.size = LIMIT

    def open(self):
        return helper()

    def shut(self):
        pass


@cli.command("run")
def run_cmd():
    return Box().open()
""")
    found = uncalled([module], names_read([module]), set())
    assert found == [("m.py", "Box.shut")]
    assert uncalled([module], names_read([module]), {"shut"}) == []
