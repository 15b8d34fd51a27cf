"""Count the code lines of Python modules: non-blank lines that are neither
comments nor docstrings.

A line counts when it is not blank, a token other than a comment covers it,
and it is not part of a module's, class's or function's docstring. So a
non-blank line inside a multi-line string that is not a docstring counts,
since it is part of a statement.

Run it from the repository's root as

    python3 tools/code_lines.py [PATH ...]

where each PATH is a module or a directory searched for `*.py` (by default
`src/stagelet`). It prints each module's count and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """The line numbers that docstrings take up in module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in Python source text `source`."""
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    lines -= _docstring_lines(ast.parse(source))
    return sum(1 for i in lines if text[i - 1].strip())


def modules(paths):
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv):
    total = 0
    for path in modules(argv or ["src/stagelet"]):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
