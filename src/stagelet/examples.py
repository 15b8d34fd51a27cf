"""Named example programs and generators, addressable by string name.

Each entry builds its program (a plain syntax tree) or generator (a CodeValue)
on demand; `arity` says how many integer arguments the evaluated result takes.
"""

from __future__ import annotations

import enum

from .base import (
    Add,
    App,
    Eq,
    If,
    IntLit,
    Lam,
    LetRec,
    Mul,
    Source,
    Sub,
    TypeMismatch,
    Value,
    VFun,
    VInt,
    Var,
    _HostStack,
    _Record,
    _expect_int,
)
from .codec import (
    cadd,
    capp,
    cdiv,
    ceq,
    cif,
    cint,
    clam,
    clet,
    cmul,
    csub,
    genlet,
    genletrec,
    with_locus,
    with_locus_rec,
)


class ExampleKind(enum.Enum):
    BASE_PROGRAM = "base-program"
    GENERATOR = "generator"
    GENERATOR_EXPECT_EXTRUSION = "generator-expect-extrusion"


class ExampleEntry(metaclass=_Record):
    name: str
    kind: ExampleKind
    arity: int
    builder: object  # () -> BaseAst | CodeValue


def _t1():
    return Add(IntLit(1), IntLit(2))


def _sq():
    x = Source("x")
    return Lam(x, Mul(Var(x), Var(x)))


def _gib5():
    x, y, loop, n = Source("x"), Source("y"), Source("loop"), Source("n")
    body = If(
        Eq(Var(n), IntLit(0)),
        Var(x),
        If(
            Eq(Var(n), IntLit(1)),
            Var(y),
            Add(
                App(Var(loop), Sub(Var(n), IntLit(1))),
                App(Var(loop), Sub(Var(n), IntLit(2))),
            ),
        ),
    )
    return Lam(
        x, Lam(y, LetRec(((loop, Lam(n, body)),), App(Var(loop), IntLit(5))))
    )


def _ack2():
    ack, m, n = Source("ack"), Source("m"), Source("n")
    body = If(
        Eq(Var(m), IntLit(0)),
        Add(Var(n), IntLit(1)),
        If(
            Eq(Var(n), IntLit(0)),
            App(App(Var(ack), Sub(Var(m), IntLit(1))), IntLit(1)),
            App(
                App(Var(ack), Sub(Var(m), IntLit(1))),
                App(App(Var(ack), Var(m)), Sub(Var(n), IntLit(1))),
            ),
        ),
    )
    return LetRec(((ack, Lam(m, Lam(n, body))),), App(Var(ack), IntLit(2)))


def _ct1():
    return cadd(cint(1), cint(2))


def _csq():
    return clam(lambda x: cmul(x, x))


def _cgib5():
    def unrolled(x, y, n):
        if n == 0:
            return x
        if n == 1:
            return y
        return cadd(unrolled(x, y, n - 1), unrolled(x, y, n - 2))

    return clam(lambda x: clam(lambda y: unrolled(x, y, 5)))


def _clet_intro():
    return clam(
        lambda x: clet(cadd(cint(1), cint(2)), lambda y: cadd(x, y), hint="y"),
        hint="x",
    )


def _shared_gib(l, x, y, n):
    if n == 0:
        return x
    if n == 1:
        return y
    return cadd(
        genlet(l, n - 1, _shared_gib(l, x, y, n - 1)),
        genlet(l, n - 2, _shared_gib(l, x, y, n - 2)),
    )


def _clgib5():
    return clam(
        lambda x: clam(lambda y: with_locus(lambda l: _shared_gib(l, x, y, 5)))
    )


def _clgib5_extruded():
    # locus hoisted above the inner lambda: the requested bindings mention a
    # variable bound below them, so the output has a free name
    return clam(
        lambda x: with_locus(lambda l: clam(lambda y: _shared_gib(l, x, y, 5)))
    )


def _shared_sums_plain():
    def body(l):
        x = cadd(cint(6), cint(7))
        return cdiv(cmul(cadd(x, cint(20)), cadd(x, cint(30))), cint(100))

    return with_locus(body)


def _shared_sums():
    def body(l):
        x = genlet(l, 1, cadd(cint(6), cint(7)))
        return cdiv(
            cmul(
                genlet(l, 2, cadd(x, cint(20))),
                genlet(l, 3, cadd(x, cint(30))),
            ),
            cint(100),
        )

    return with_locus(body)


def _cack2():
    def gen(l):
        def ack(m):
            if m == 0:
                return clam(lambda n: cadd(n, cint(1)))
            return clam(
                lambda n: cif(
                    ceq(n, cint(0)),
                    capp(genletrec(l, m - 1, ack(m - 1)), cint(1)),
                    capp(
                        genletrec(l, m - 1, ack(m - 1)),
                        capp(genletrec(l, m, ack(m)), csub(n, cint(1))),
                    ),
                )
            )

        return genletrec(l, 2, ack(2))

    return with_locus_rec(gen)


_ENTRIES = (
    ExampleEntry("t1", ExampleKind.BASE_PROGRAM, 0, _t1),
    ExampleEntry("sq", ExampleKind.BASE_PROGRAM, 1, _sq),
    ExampleEntry("gib5", ExampleKind.BASE_PROGRAM, 2, _gib5),
    ExampleEntry("ack2", ExampleKind.BASE_PROGRAM, 1, _ack2),
    ExampleEntry("ct1", ExampleKind.GENERATOR, 0, _ct1),
    ExampleEntry("csq", ExampleKind.GENERATOR, 1, _csq),
    ExampleEntry("cgib5", ExampleKind.GENERATOR, 2, _cgib5),
    ExampleEntry("clet-intro", ExampleKind.GENERATOR, 1, _clet_intro),
    ExampleEntry("clgib5", ExampleKind.GENERATOR, 2, _clgib5),
    ExampleEntry("shared-sums-plain", ExampleKind.GENERATOR, 0, _shared_sums_plain),
    ExampleEntry("shared-sums", ExampleKind.GENERATOR, 0, _shared_sums),
    ExampleEntry("cack2", ExampleKind.GENERATOR, 1, _cack2),
    ExampleEntry(
        "clgib5-extruded", ExampleKind.GENERATOR_EXPECT_EXTRUSION, 2, _clgib5_extruded
    ),
)

_BY_NAME = {e.name: e for e in _ENTRIES}
assert len(_BY_NAME) == len(_ENTRIES)


def registry():
    """All known examples, in registration order."""
    return list(_ENTRIES)


def lookup(name: str):
    """The entry for `name`, or None."""
    return _BY_NAME.get(name)


def apply_ints(value: Value, args) -> Value:
    """Fold integer arguments into a (curried) function value; an argument
    is an `int` that is not a `bool`, as `cint` takes, and is applied as
    the exact `int` it stands for. `args` is any iterable of them; anything
    else raises TypeMismatch."""
    try:
        args = iter(args)
    except TypeError:
        raise TypeMismatch(f"not an iterable of arguments: {args!r}") from None
    result = value
    with _HostStack("evaluation"):
        for a in args:
            if not isinstance(result, VFun):
                raise TypeMismatch(f"cannot apply an argument to {result!r}")
            result = result.fn(VInt(a if type(a) is int else _expect_int(a)))
    return result
