"""No function of the package is memoized for the life of the process.

Walks the AST of every module under `src/nctorus`, as
`test_reachability.py` does, and refuses a `functools.lru_cache` or
`functools.cache` decorator, bare, called (`lru_cache(maxsize=8)`) or
through the module.  Such a cache keeps its results (d x d tables, say)
alive after every caller is done with them.  `functools.cached_property`,
whose value lives and dies with its instance, stays allowed.
"""

import ast
from pathlib import Path

import nctorus

PACKAGE = Path(nctorus.__file__).parent
PROCESS_CACHES = {"lru_cache", "cache"}


def _decorator_name(node):
    """The name a decorator expression ends in: f, m.f, f(...) or m.f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_no_process_lifetime_caches():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [
                    f"{path.name}:{node.lineno} {node.name}"
                    for d in node.decorator_list if _decorator_name(d) in PROCESS_CACHES
                ]
    assert not found, f"functions cached for the life of the process: {found}"
