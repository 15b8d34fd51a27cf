"""Checks on the source itself: one implementation per idea.

Each check parses the package (and, for `Fresh` calls, the tests; for the
generator families, the tests and tools too) and names the lines that
state an idea a second time, so a second form cannot come back unnoticed.
"""

import ast
from pathlib import Path

import pytest

from stagelet import examples

ROOT = Path(__file__).resolve().parent.parent


def _hits(root, *tests):
    """`path:line` of every node under the `*.py` files of `root` that one
    of `tests` accepts."""
    return sorted(
        {
            f"{p.relative_to(ROOT).as_posix()}:{n.lineno}"
            for p in sorted((ROOT / root).rglob("*.py"))
            for n in ast.walk(ast.parse(p.read_text(), str(p)))
            if any(test(n) for test in tests)
        }
    )


def _called(n):
    """The name a call or decorator expression names, or None."""
    n = n.func if isinstance(n, ast.Call) else n
    return n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None)


# ---------------------------------------------------------------------------
# One record idea: every record is a frozen slotted dataclass made by one
# metaclass, `base._Record`; its one dataclass call is the only use of
# `dataclass` under src/stagelet, as a decorator or a call


def uses_dataclass(n):
    return (
        isinstance(n, ast.Call)
        and _called(n) == "dataclass"
        or isinstance(n, ast.ClassDef)
        and any(_called(d) == "dataclass" for d in n.decorator_list)
    )


# ---------------------------------------------------------------------------
# One location idea: a tree location is a string (`base.ROOT`). No code
# under src/stagelet may add a tuple display to anything, the way a child
# location was once made (`loc + (i,)`), or define the old converters
# between index tuples and strings (`location`, `location_steps`); no call
# under src/ or tests/ may give `Fresh` a tuple or list display


def adds_a_tuple(n):
    if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add):
        operands = n.left, n.right
    elif isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add):
        operands = (n.value,)
    else:
        return False
    return any(isinstance(e, ast.Tuple) for e in operands)


def defines_a_converter(n):
    return isinstance(n, ast.FunctionDef) and n.name in ("location", "location_steps")


def fresh_of_a_display(n):
    return (
        isinstance(n, ast.Call)
        and bool(n.args)
        and _called(n) == "Fresh"
        and isinstance(n.args[0], (ast.Tuple, ast.List))
    )


# ---------------------------------------------------------------------------
# One generator corpus: each generator family and host reference is defined
# by one `def`, in `stagelet.examples`, under src/, tests/ and tools/; the
# tests and tools import it from there

FAMILIES = (
    "clgib", "cack", "cpoly", "cdfa", "cwide",
    "gib", "ackermann", "wide", "dfa", "random_dfa",
)


def defines_a_family(n):
    return isinstance(n, ast.FunctionDef) and n.name in FAMILIES


class TestOneIdea:
    def test_one_record_idea(self):
        hits = _hits("src/stagelet", uses_dataclass)
        assert len(hits) == 1 and hits[0].startswith("src/stagelet/base.py:"), hits

    def test_one_location_idea(self):
        found = (
            _hits("src/stagelet", adds_a_tuple, defines_a_converter)
            + _hits("src", fresh_of_a_display)
            + _hits("tests", fresh_of_a_display)
        )
        assert not found, found

    def test_one_generator_corpus(self):
        hits = [h for root in ("src", "tests", "tools") for h in _hits(root, defines_a_family)]
        # one def per family, each in examples.py, that binds its name there
        assert len(hits) == len(FAMILIES), hits
        assert all(h.startswith("src/stagelet/examples.py:") for h in hits), hits
        assert all(callable(getattr(examples, name, None)) for name in FAMILIES)


def _accepts(test, source):
    return any(test(n) for n in ast.walk(ast.parse(source)))


class TestChecksRefuse:
    """What each check refuses, and what it lets pass."""

    @pytest.mark.parametrize(
        "source",
        [
            "@dataclass\nclass C: pass",
            "@dataclasses.dataclass(frozen=True)\nclass C: pass",
            "C = dataclasses.dataclass(C)",
            "dataclass(frozen=True)(C)",
        ],
    )
    def test_a_dataclass_use(self, source):
        assert _accepts(uses_dataclass, source)

    @pytest.mark.parametrize(
        "source", ["dataclasses.fields(C)", "@record\nclass C: pass", "x = dataclass"]
    )
    def test_not_a_dataclass_use(self, source):
        assert not _accepts(uses_dataclass, source)

    @pytest.mark.parametrize(
        "source",
        [
            "loc + (1,)",
            "(1,) + loc",
            "loc += (i,)",
            "f(loc + (a, b))",
        ],
    )
    def test_a_tuple_addition(self, source):
        assert _accepts(adds_a_tuple, source)

    @pytest.mark.parametrize("source", ['loc + "_1"', "loc += [1]", "t * (1,)", "t - (1,)"])
    def test_not_a_tuple_addition(self, source):
        assert not _accepts(adds_a_tuple, source)

    @pytest.mark.parametrize(
        "source", ["def location(p): pass", "def location_steps(s): pass"]
    )
    def test_a_converter(self, source):
        assert _accepts(defines_a_converter, source)

    @pytest.mark.parametrize(
        "source", ["def render_location(s): pass", "location = 1", "Locus.location"]
    )
    def test_not_a_converter(self, source):
        assert not _accepts(defines_a_converter, source)

    @pytest.mark.parametrize(
        "source", ["Fresh((1, 2))", "Fresh([1])", "base.Fresh(())", "Fresh((1,), 'h')"]
    )
    def test_a_fresh_of_a_display(self, source):
        assert _accepts(fresh_of_a_display, source)

    @pytest.mark.parametrize(
        "source", ['Fresh("_1_2")', "Fresh(path)", "Fresh()", "Fresh(tuple(p))"]
    )
    def test_not_a_fresh_of_a_display(self, source):
        assert not _accepts(fresh_of_a_display, source)

    @pytest.mark.parametrize("source", ["def cack(depth): pass", "def f():\n def gib(): pass"])
    def test_a_def_of_a_family(self, source):
        assert _accepts(defines_a_family, source)

    @pytest.mark.parametrize(
        "source", ["cack = lambda d: d", "cack(2)", "def cack2(): pass", "class cack: pass"]
    )
    def test_not_a_def_of_a_family(self, source):
        assert not _accepts(defines_a_family, source)
