"""Count of the package's lines of code.

A line of code is a line of `src/nctorus/*.py` that holds a token other
than a comment, a line break or indentation, and that lies outside every
docstring (the string statement that opens a module, class or function
body).  A token that spans lines, such as a multi-line string, holds each
of its lines.  The bound is the count the package has reached; a change
that adds lines raises it in the same diff and says why.
"""

import ast
import io
import tokenize
from pathlib import Path

import nctorus

MAX_CODE_LINES = 2485

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """The line numbers of every docstring of a module's tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of code in a module's source."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def test_code_size_within_bound():
    counts = {
        path.name: code_lines(path.read_text(encoding="utf8"))
        for path in sorted(Path(nctorus.__file__).parent.glob("*.py"))
    }
    assert sum(counts.values()) <= MAX_CODE_LINES, counts
