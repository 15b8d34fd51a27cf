"""Named example programs and generators, addressable by string name, and
the parameterised generator families behind some of them.

Each entry builds its program (a plain syntax tree) or generator (a CodeValue)
on demand; `arity` says how many integer arguments the evaluated result takes.
Each family (`clgib`, `cack`, `cpoly`, `cdfa`, `cwide`) comes with a host
reference that computes what its code does in plain Python.
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
    Var,
    _HostStack,
    _Record,
    _expect_int,
    _vint,
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


# ---------------------------------------------------------------------------
# Generator families, each with its host reference. The registry's `clgib5`
# and `cack2` are members; tests and tools draw other sizes. They are not
# in `stagelet.__all__`: users need only the registry.


def _shared_gib(l, x, y, n):
    if n == 0:
        return x
    if n == 1:
        return y
    return cadd(
        genlet(l, n - 1, _shared_gib(l, x, y, n - 1)),
        genlet(l, n - 2, _shared_gib(l, x, y, n - 2)),
    )


def clgib(n):
    """Shared Fibonacci of depth n under one let locus: every request site
    builds its own subtree, and the memo key folds equal ones into aliases;
    `gib` is its host reference."""
    return clam(lambda x: clam(lambda y: with_locus(lambda l: _shared_gib(l, x, y, n))))


def gib(n, x, y):
    """The Fibonacci-style recurrence seeded with x, y, as a host loop."""
    for _ in range(n):
        x, y = y, x + y
    return x


def _ack_requests(l, depth):
    """The request at letrec locus `l` for Ackermann's clause `depth`, whose
    body requests the clauses below it."""

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

    return genletrec(l, depth, ack(depth))


def cack(depth):
    """Ackermann specialised to its first argument: one mutually recursive
    clause per level under one letrec locus; `ackermann` is its host
    reference."""
    return with_locus_rec(lambda l: _ack_requests(l, depth))


def ackermann(m, n):
    """Ackermann's function, on an explicit stack of pending first
    arguments, so a deep call does not recurse on the host stack."""
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 0:
            n += 1
        elif n == 0:
            stack.append(m - 1)
            n = 1
        else:
            stack.append(m - 1)
            stack.append(m)
            n -= 1
    return n


def cpoly(coeffs):
    """Horner's rule unrolled over `coeffs` (lowest degree first, at least
    one), one genlet per step under a locus just inside the function of x:
    its names are the longest a genlet chain makes."""

    def steps(l, x):
        acc = cint(coeffs[-1])
        for i in range(len(coeffs) - 2, -1, -1):
            acc = genlet(l, i, cadd(cmul(acc, x), cint(coeffs[i])))
        return acc

    return clam(lambda x: with_locus(lambda l: steps(l, x)))


def cdfa(delta, accept):
    """A staged automaton over decimal digits: one mutually recursive clause
    per state under one letrec locus, keyed by the state, so its call graph
    has the automaton's cycles. The clause of state s, on n, returns 1 if n
    is 0 and s is in `accept`, 0 if n is 0 otherwise, and else reads n's
    lowest digit d as `n - n / 10 * 10` and calls the clause of state
    `delta[s][d]` on `n / 10`. The code is the clause of state 0; `dfa` is
    its host reference."""

    def gen(l):
        def state(s):
            def step(q, d, i):
                call = capp(genletrec(l, delta[s][i], state(delta[s][i])), q)
                if i == len(delta[s]) - 1:
                    return call
                return cif(ceq(d, cint(i)), call, step(q, d, i + 1))

            return clam(
                lambda n: cif(
                    ceq(n, cint(0)),
                    cint(int(s in accept)),
                    clet(
                        cdiv(n, cint(10)),
                        lambda q: clet(csub(n, cmul(q, cint(10))), lambda d: step(q, d, 0)),
                    ),
                )
            )

        return genletrec(l, 0, state(0))

    return with_locus_rec(gen)


def dfa(delta, accept, n):
    """What `cdfa(delta, accept)` computes on n, as a host loop."""
    s = 0
    while n:
        n, d = divmod(n, 10)
        s = delta[s][d]
    return int(s in accept)


def random_dfa(rng, states):
    """A random 10-symbol transition table over `states` states, drawn from
    `random.Random` `rng`, and a random set of accepting states."""
    delta = [[rng.randrange(states) for _ in range(10)] for _ in range(states)]
    return delta, {s for s in range(states) if rng.random() < 0.5}


def _balanced_sum(terms):
    """The sum of code values `terms` as a balanced tree of `cadd`s, so its
    depth is logarithmic in their number."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return cadd(_balanced_sum(terms[:mid]), _balanced_sum(terms[mid:]))


def cwide(n):
    """n clauses under one letrec locus inside a function of x: clause i is
    `fun y -> y + i`, and an odd clause also adds its call of clause i - 1
    on y. The body is the balanced sum of every clause applied to x, keyed
    by its index; `wide` is its host reference."""

    def gen(l, x):
        def clause(i):
            if i % 2 == 0:
                return clam(lambda y: cadd(y, cint(i)))
            return clam(
                lambda y: cadd(cadd(y, cint(i)), capp(genletrec(l, i - 1, clause(i - 1)), y))
            )

        return _balanced_sum([capp(genletrec(l, i, clause(i)), x) for i in range(n)])

    return clam(lambda x: with_locus_rec(lambda l: gen(l, x)))


def wide(n, x):
    """What `cwide(n)` computes on x: each clause is x + i, and an odd one
    adds x + i - 1."""
    return sum(x + i if i % 2 == 0 else 2 * x + 2 * i - 1 for i in range(n))


# ---------------------------------------------------------------------------
# The registry


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


_ENTRIES = (
    ExampleEntry("t1", ExampleKind.BASE_PROGRAM, 0, _t1),
    ExampleEntry("sq", ExampleKind.BASE_PROGRAM, 1, _sq),
    ExampleEntry("gib5", ExampleKind.BASE_PROGRAM, 2, _gib5),
    ExampleEntry("ack2", ExampleKind.BASE_PROGRAM, 1, _ack2),
    ExampleEntry("ct1", ExampleKind.GENERATOR, 0, _ct1),
    ExampleEntry("csq", ExampleKind.GENERATOR, 1, _csq),
    ExampleEntry("cgib5", ExampleKind.GENERATOR, 2, _cgib5),
    ExampleEntry("clet-intro", ExampleKind.GENERATOR, 1, _clet_intro),
    ExampleEntry("clgib5", ExampleKind.GENERATOR, 2, lambda: clgib(5)),
    ExampleEntry("shared-sums-plain", ExampleKind.GENERATOR, 0, _shared_sums_plain),
    ExampleEntry("shared-sums", ExampleKind.GENERATOR, 0, _shared_sums),
    ExampleEntry("cack2", ExampleKind.GENERATOR, 1, lambda: cack(2)),
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
    """The entry for `name`, or None; a `name` that is not a `str` raises
    TypeMismatch."""
    if not isinstance(name, str):
        raise TypeMismatch(f"not an example name: {name!r}")
    return _BY_NAME.get(name)


def apply_ints(value: Value, args) -> Value:
    """Fold integer arguments into a (curried) function value; an argument
    is an `int` that is not a `bool`, as `cint` takes, and is applied as
    the exact `int` it stands for, the shared record in `VInt`'s range.
    `args` is any iterable of them; anything else raises TypeMismatch."""
    try:
        args = iter(args)
    except TypeError:
        raise TypeMismatch(f"not an iterable of arguments: {args!r}") from None
    result = value
    with _HostStack("evaluation"):
        for a in args:
            if not isinstance(result, VFun):
                raise TypeMismatch(f"cannot apply an argument to {result!r}")
            result = result.fn(_vint(a if type(a) is int else _expect_int(a)))
    return result
