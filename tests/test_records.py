"""Every record against a real frozen dataclass of the same fields.

For each record class of the library, and for the decorated user
subclasses of `test_base`, a twin is made with
`dataclasses.make_dataclass(..., frozen=True)`. The twin's fields are the
record's annotations, collected as dataclasses collects them, with the
defaults stated in `DEFAULTS`; it takes from the record's class body only
the comparison, hash and repr methods that body writes itself, and the
properties they read. A record and its twin, holding the same field
values, must agree on every `Field`, `__match_args__`, `repr`, `==`, `!=`,
`hash`, `replace` (and `copy.replace` where there is one), `asdict`,
`astuple` and `is_dataclass`.
"""

import copy
import dataclasses
import sys

import pytest

from stagelet import (
    Add,
    App,
    BaseAst,
    BinOp,
    BoolLit,
    Div,
    Eq,
    ExampleEntry,
    If,
    IntLit,
    Lam,
    Let,
    LetRec,
    Locus,
    Mul,
    Name,
    Source,
    Sub,
    Succ,
    TypeMismatch,
    Var,
    VBool,
    VInt,
    base,
    codec,
    examples,
    insertion,
    lookup,
)
from stagelet.codec import BuildContext
from stagelet.insertion import DEFAULT_CANON_LIMIT, BindingClass

from helpers import check_record, records_of
from test_base import DecoratedMul, Neg, Scaled, Scaled3

x, y = Source("x"), Source("y")

# each record class: a sample, and a second sample that differs from it in
# some field (`BaseAst` has none)
PAIRS = {
    Source: (x, y),
    VInt: (VInt(-3), VInt(4)),
    VBool: (VBool(True), VBool(False)),
    BaseAst: (BaseAst(), BaseAst()),
    IntLit: (IntLit(4), IntLit(5)),
    BoolLit: (BoolLit(False), BoolLit(True)),
    Var: (Var(x), Var(y)),
    Succ: (Succ(Var(x)), Succ(IntLit(1))),
    **{
        op: (op(Var(x), IntLit(2)), op(Var(x), IntLit(3)))
        for op in (BinOp, Add, Sub, Mul, Div, Eq, DecoratedMul)
    },
    If: (If(BoolLit(False), IntLit(1), Var(x)), If(BoolLit(False), IntLit(1), Var(y))),
    Lam: (Lam(y, Var(y)), Lam(x, Var(y))),
    App: (App(Lam(y, Var(y)), Var(x)), App(Var(x), Var(x))),
    Let: (Let(y, Var(x), Var(y)), Let(y, IntLit(1), Var(y))),
    LetRec: (LetRec(((y, Lam(x, Var(x))),), Var(y)), LetRec(((y, IntLit(1)),), Var(y))),
    Locus: (Locus("_1_2"), Locus("")),
    BindingClass: (BindingClass(x, IntLit(1), frozenset({y})), BindingClass(x, IntLit(1))),
    # a semantics compares by identity, so a stand-in that copies to an equal
    BuildContext: (BuildContext(None, 7), BuildContext(None)),
    ExampleEntry: (lookup("t1"), lookup("sq")),
    Neg: (Neg(IntLit(1)), Neg(IntLit(2))),
    Scaled: (Scaled(IntLit(1)), Scaled(IntLit(1), 3)),
    Scaled3: (Scaled3(IntLit(1), 4), Scaled3(IntLit(1))),
}

DEFAULTS = {
    BindingClass: {"log": frozenset()},
    BuildContext: {"canon_limit": DEFAULT_CANON_LIMIT},
    Scaled: {"factor": 2},
    Scaled3: {"factor": 2},
}

FIELD_ATTRS = (
    "name", "type", "default", "default_factory", "init", "repr", "hash",
    "compare", "kw_only", "metadata",
)


def written(cls):
    """The names of the comparison, hash and repr methods that the class
    body of `cls` writes itself: those whose code is in the class's own
    module, not generated ones, or their wrappers."""
    home = sys.modules[cls.__module__].__file__
    return {
        k
        for k in ("__eq__", "__hash__", "__repr__")
        if k in vars(cls) and vars(cls)[k].__code__.co_filename == home
    }


def annotated(cls):
    """Each field's name and annotation, collected as dataclasses collects
    them: down the MRO from its top, a redefined field keeping its first
    place."""
    found = {}
    for b in reversed(cls.__mro__):
        found.update(vars(b).get("__annotations__", {}))
    return found


def twin_of(cls):
    defaults = DEFAULTS.get(cls, {})
    spec = [
        (n, t, dataclasses.field(default=defaults.get(n, dataclasses.MISSING)))
        for n, t in annotated(cls).items()
    ]
    methods = {
        k: v for k, v in vars(cls).items() if k in written(cls) or isinstance(v, property)
    }
    namespace = {"__qualname__": cls.__qualname__, **methods}
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True)


def twin_value(twin, obj):
    return twin(*(getattr(obj, f.name) for f in dataclasses.fields(twin)))


def outcome(thunk):
    """What `thunk()` returns, or the type and message of what it raises."""
    try:
        return "returned", thunk()
    except Exception as e:
        return "raised", type(e), str(e)


def test_every_record_class_has_a_pair():
    found = set().union(*map(records_of, (base, insertion, codec, examples)))
    assert found | {DecoratedMul, Neg, Scaled, Scaled3} == set(PAIRS)


def test_a_twin_takes_only_the_methods_a_class_body_writes():
    assert {c: written(c) for c in PAIRS if written(c)} == {
        Source: {"__repr__"},
        BindingClass: {"__eq__", "__hash__", "__repr__"},
    }


@pytest.mark.parametrize("cls", PAIRS, ids=lambda c: c.__name__)
class TestAgainstATwin:
    def test_fields(self, cls):
        ours, theirs = dataclasses.fields(cls), dataclasses.fields(twin_of(cls))
        assert len(ours) == len(theirs)
        for f, g in zip(ours, theirs):
            assert isinstance(f, dataclasses.Field)
            for attr in FIELD_ATTRS:
                assert getattr(f, attr) == getattr(g, attr), (f.name, attr)
        assert cls.__match_args__ == twin_of(cls).__match_args__

    def test_repr_eq_and_hash(self, cls):
        twin = twin_of(cls)
        a, b = PAIRS[cls]
        same = cls(*(getattr(a, f.name) for f in dataclasses.fields(a)))
        ta, tb, tsame = (twin_value(twin, o) for o in (a, b, same))
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
        assert (a == same, a != same) == (ta == tsame, ta != tsame) == (True, False)
        assert (a == b, a != b) == (ta == tb, ta != tb)
        assert (a == ta, a != ta) == (False, True)
        for mine, its in ((a, ta), (b, tb), (same, tsame)):
            assert outcome(lambda: hash(mine)) == outcome(lambda: hash(its))

    def test_replace_asdict_and_astuple(self, cls):
        twin = twin_of(cls)
        a, b = PAIRS[cls]
        ta = twin_value(twin, a)
        for f in dataclasses.fields(cls):
            change = {f.name: getattr(b, f.name)}
            got = dataclasses.replace(a, **change)
            assert type(got) is cls
            assert repr(got) == repr(dataclasses.replace(ta, **change))
            if hasattr(copy, "replace"):  # Python 3.13 on
                assert outcome(lambda: copy.replace(a, **change)) == outcome(lambda: got)
        for walk in (dataclasses.asdict, dataclasses.astuple):
            assert outcome(lambda: walk(a)) == outcome(lambda: walk(ta))
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(a)


class TestWrittenByTheMetaclass:
    """The contract is written by `base._Record` itself, with rules of its
    own where dataclasses differ between Python versions."""

    def test_a_new_record_needs_no_dataclass_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dataclasses.dataclass ran")

        monkeypatch.setattr(dataclasses, "dataclass", refuse)

        class Tagged(BaseAst):
            name: Name
            tag: int = 7

        # pickle finds a class by its module and qualified name
        Tagged.__qualname__ = "Tagged"
        monkeypatch.setitem(globals(), "Tagged", Tagged)
        check_record(Tagged(x), ["name", "tag"])
        check_record(Tagged(y, 3), ["name", "tag"])
        assert Tagged(x).tag == dataclasses.fields(Tagged)[1].default == 7
        with pytest.raises(TypeMismatch, match="^not a name: 5$"):
            Tagged(5)

    def test_a_field_equal_to_itself_only_by_identity(self):
        # fields compare as one tuple, as on Python 3.10 to 3.12, and that
        # tuple is what `hash` hashes; 3.13's dataclasses compare field by
        # field, which would make this record unequal to its own copy
        nan = float("nan")
        a, b = IntLit(nan), IntLit(nan)
        assert a == b and not a != b and hash(a) == hash(b)
        assert Add(a, a) == Add(b, b)
        assert IntLit(nan) != IntLit(float("nan"))

    def test_a_record_met_inside_itself_shows_as_dots(self):
        held = []
        r = IntLit(held)
        held.append(r)
        assert repr(r) == "IntLit(value=[...])"
        assert repr(Succ(r)) == "Succ(arg=IntLit(value=[...]))"

    def test_an_undocumented_record_documents_its_fields(self):
        assert Let.__doc__ == "Let(name, rhs, body)"
        assert IntLit.__doc__ == "IntLit(value)"
        assert Add.__doc__ == "Add(left, right)"
        assert BinOp.__doc__.startswith("A binary operator on two integers.")

    @pytest.mark.parametrize("hook", ["__setattr__", "__delattr__"])
    def test_a_class_body_may_not_write_a_frozen_hook(self, hook):
        # as `@dataclass(frozen=True)` refuses them, with its message
        with pytest.raises(TypeError, match=f"^Cannot overwrite attribute {hook} in class R$"):
            type(BaseAst)("R", (BaseAst,), {hook: lambda *args: None})
