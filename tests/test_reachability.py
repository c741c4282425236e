"""Every top-level definition of the package must serve a pipeline or an
acceptance criterion.

Walks the AST from the command line (`cli.py`) and the acceptance suite
(`tests/test_acceptance.py`, with the helpers it imports from `conftest.py`):
a top-level `def` or `class` of `src/nctorus` is reached when a reached body
names it, as a bare name or as an attribute.  Matching is by name alone, so
a name reaches every definition that carries it; the walk can only
over-approximate.  Imports are not uses: `__init__.py` re-exports names
without calling them.  A definition that only unit tests reach checks
nothing that a run or a criterion relies on; give it a caller there or
delete it.
"""

import ast
from pathlib import Path

import nctorus

PACKAGE = Path(nctorus.__file__).parent
TESTS = Path(__file__).resolve().parent
ROOTS = (PACKAGE / "cli.py", TESTS / "test_acceptance.py", TESTS / "conftest.py")


def _names(node):
    """Every bare name and attribute name under a node, imports excepted."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _definitions():
    """{name: [(file, node)]} over the package's top-level defs and classes."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node))
    return defs


def test_every_definition_is_reached():
    defs = _definitions()
    todo = set()
    for path in ROOTS:
        todo |= _names(ast.parse(path.read_text(encoding="utf8")))
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs.get(name, []):
            todo |= _names(node)
    unreached = sorted(
        f"{path}:{node.lineno} {name}"
        for name, found in defs.items() if name not in reached
        for path, node in found
    )
    assert not unreached, f"definitions no pipeline or criterion reaches: {unreached}"
