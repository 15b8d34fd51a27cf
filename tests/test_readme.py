"""README's opening example runs, and each result comment in it matches what
its line gives: the text of a string, the `repr` of anything else, with `...`
standing for any run of characters."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_python_block():
    return re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)


def _comments(source):
    """The text of each comment in `source`, by line number."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def _matches(pattern, text):
    parts = map(re.escape, pattern.split("..."))
    return re.fullmatch(".*".join(parts), text, re.S) is not None


def test_wildcards():
    assert _matches("(let v... = 1 in v...)", "(let v1_1 = 1 in v1_1)")
    assert not _matches("VInt(9)", "VInt(value=9)")


def test_first_python_block_gives_what_its_comments_say():
    source = _first_python_block()
    comments = _comments(source)
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        want = comments.get(stmt.end_lineno)
        if want is None:
            exec(code, namespace)
            continue
        # a result comment belongs to an expression
        assert isinstance(stmt, ast.Expr), code
        got = eval(code, namespace)
        got = got if isinstance(got, str) else repr(got)
        assert _matches(want, got), (code, want, got)
        checked += 1
    assert checked
