"""The code-line counter (`tools/code_lines.py`) that size changes quote."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

Q = '"""'

# each line's last field says whether it counts
SNIPPET = [
    (f"{Q}A module docstring,", False),
    (f"over two lines.{Q}", False),
    ("", False),
    ("# a comment", False),
    ("import os  # code with a comment", True),
    ("", False),
    ("", False),
    ("def f(x):", True),
    (f"    {Q}A function docstring.{Q}", False),
    (f"    s = {Q}a string", True),
    ("", False),
    ("    that is not a docstring", True),
    (f"    {Q}", True),
    ("    # an indented comment", False),
    ("    return (s,", True),
    ("            x)", True),
    ("", False),
    ("", False),
    ("class C:", True),
    ('    "a one-line class docstring"', False),
    ("    y = 'not a docstring'", True),
]


def test_counts_non_blank_lines_that_are_neither_comments_nor_docstrings():
    source = "\n".join(line for line, _ in SNIPPET) + "\n"
    assert code_lines.code_lines(source) == sum(counts for _, counts in SNIPPET)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n# note\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text(f"{Q}doc{Q}\nz = 3\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"     2  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'sub' / 'b.py'}",
        "     3  total",
    ]
