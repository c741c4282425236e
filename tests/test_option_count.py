"""Count of the package's options: the defaulted parameters of its functions.

Each defaulted parameter is a setting that callers may or may not pass, so
every one multiplies the cases that tests must cover.  The bound is the
count the package has reached; a change that adds an option raises it in
the same diff and says why.
"""

import ast
from pathlib import Path

import nctorus

MAX_DEFAULTED_PARAMETERS = 21


def _defaulted_parameters():
    """(file, function, parameter) of every defaulted positional or
    keyword-only parameter of a def in the package."""
    found = []
    for path in sorted(Path(nctorus.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(path.name, node.name, a.arg) for a in defaulted]
    return found


def test_option_count_within_bound():
    found = _defaulted_parameters()
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, found
