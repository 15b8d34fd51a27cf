"""Code combinators threading tree locations as the fresh-name supply.

A CodeValue maps a location to a (denotation, virtual bindings) pair. The
location is the path of child indices from the root, spelled as `base`
states it: a string, `ROOT` for the root and `loc + "_1"` for child 1 of
`loc`. So every combinator occurrence owns a distinct name; binders are
higher-order (host functions receive the bound variable as an opaque
CodeValue). A bound variable knows its binder's body location, so whether
it is built inside that body is one string test (`_Var`); a function
applied where it is written, `capp(clam(f), a)`, builds as one redex node
(`_App`). `run` evaluates a complete generator, `show` renders the code it
builds.
"""

from __future__ import annotations

from functools import partial

from .base import (
    Add,
    BaseAst,
    DEFAULT_STEP_LIMIT,
    Div,
    Eq,
    Fresh,
    Mul,
    ROOT,
    Sub,
    TypeMismatch,
    Value,
    _HostStack,
    _Record,
    _expect_int,
    _expect_limit,
)
from .insertion import (
    DEFAULT_CANON_LIMIT,
    EMPTY_BINDINGS,
    EMPTY_PER_LOCUS,
    BindingClass,
    Locus,
    Pending,
    ResidualBindings,
    addb,
    bind_letrec,
    bind_lets,
    canon,
    merge,
    ordered,
    without,
)
from .semantics import EMPTY_ENV, RunSemantics, ShowSemantics


class BuildContext(metaclass=_Record):
    """Everything a build needs besides the location: which semantics to
    build denotations in, and the canonicalization budget."""

    sem: object
    canon_limit: int = DEFAULT_CANON_LIMIT


class CodeValue:
    """Deterministic map from a location to (denotation, virtual bindings).

    Combinators, `show` and `run` call a child's `_build` directly, so a
    build spends one host frame per level; calling the value is the public
    entry point. `CodeValue(build)` wraps a build function, and refuses
    anything not callable; its `_build` slot checks what the function
    returns (`_checked_build`), wherever the value is built. Each library
    combinator instead returns a `_Node`, a record of its arguments, whose
    `_build` method shadows the slot, so only a user's build pays for the
    check.
    """

    __slots__ = ("_build",)

    def __init__(self, build):
        if not callable(build):
            raise TypeMismatch(f"not a build function: {build!r}")
        self._build = partial(_checked_build, build)

    def __call__(self, ctx: BuildContext, loc):
        return self._build(ctx, loc)

    def _operand(self, ctx, loc):
        """What a binary operator passes to `mk_binop` for this operand, and
        its bindings: the built pair, except that a literal passes its `int`
        and a variable in its binder's body its `Name`, unbuilt (`_Int`,
        `_Var`)."""
        return self._build(ctx, loc)

    def __add__(self, other):
        return cadd(self, _lift(other))

    def __radd__(self, other):
        return cadd(_lift(other), self)

    def __sub__(self, other):
        return csub(self, _lift(other))

    def __rsub__(self, other):
        return csub(_lift(other), self)

    def __mul__(self, other):
        return cmul(self, _lift(other))

    def __rmul__(self, other):
        return cmul(_lift(other), self)

    def __truediv__(self, other):
        return cdiv(self, _lift(other))

    def __rtruediv__(self, other):
        return cdiv(_lift(other), self)

    def __matmul__(self, other):
        return capp(self, _lift(other))

    def __repr__(self):
        return "CodeValue(...)"


def _checked_build(build, ctx, loc):
    """What user build function `build` returns at `loc`, a TypeMismatch
    unless it is a (denotation, bindings) pair: every combinator unpacks its
    child's result as one."""
    built = build(ctx, loc)
    if not (isinstance(built, tuple) and len(built) == 2):
        raise TypeMismatch(f"not a build result: {built!r}")
    return built


class _Node(CodeValue):
    """The code value a library combinator returns: one slotted object
    holding the combinator's arguments, whose `_build` method shadows the
    base class's slot. It keeps identity `==` and `hash`, so comparing or
    hashing one never walks the generator tree. A subclass names its
    arguments in `__slots__`; its `__init__`, generated from them unless it
    defines its own, stores its positional arguments in that order. A
    subclass that does not define `_operand` builds as an operand as it
    builds anywhere, with no frame between."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_operand" not in vars(cls):
            cls._operand = cls._build
        if "__init__" in vars(cls):
            return
        ns = {}
        exec(
            f"def __init__(self, {', '.join(cls.__slots__)}):"
            + "".join(f"\n    self.{n} = {n}" for n in cls.__slots__),
            ns,
        )
        cls.__init__ = ns["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"


def _expect(x, kind=CodeValue, what="code value"):
    """`x` if it is a `kind`, else a TypeMismatch raised where the generator
    was written; hot combinators test inline and call this only to raise."""
    if not isinstance(x, kind):
        raise TypeMismatch(f"not a {what}: {x!r}")
    return x


def _expect_function(f):
    """`f` if it is a callable that is not a code value, else a TypeMismatch
    raised where the binder that takes it was written: a code value is
    callable, but never a binder body."""
    if not callable(f) or isinstance(f, CodeValue):
        raise TypeMismatch(f"not a function: {f!r}")
    return f


def _lift(x):
    if isinstance(x, bool):
        return cbool(x)
    if isinstance(x, int):
        return cint(x)
    return _expect(x)


class _Int(_Node):
    __slots__ = ("i",)

    def _build(self, ctx, loc):
        return ctx.sem.mk_int(self.i), EMPTY_BINDINGS

    def _operand(self, ctx, loc):
        return self.i, EMPTY_BINDINGS


def cint(i: int) -> CodeValue:
    return _Int(i if type(i) is int else _expect_int(i))


class _Bool(_Node):
    __slots__ = ("b",)

    def _build(self, ctx, loc):
        return ctx.sem.mk_bool(self.b), EMPTY_BINDINGS


def cbool(b: bool) -> CodeValue:
    _expect(b, bool, "boolean")
    return _Bool(b)


class _Succ(_Node):
    __slots__ = ("a",)

    def _build(self, ctx, loc):
        d, v = self.a._build(ctx, loc + "_1")
        return ctx.sem.mk_succ(d), v


def csucc(a: CodeValue) -> CodeValue:
    return _Succ(_expect(a))


class _BinOp(_Node):
    __slots__ = ("cls", "a", "b")

    def _build(self, ctx, loc):
        d1, v1 = self.a._operand(ctx, loc + "_1")
        d2, v2 = self.b._operand(ctx, loc + "_2")
        return ctx.sem.mk_binop(self.cls, d1, d2), merge(v1, v2)


def _binop(cls, a, b):
    """Code of binary operator `cls` applied to `a` and `b`."""
    if not (isinstance(a, CodeValue) and isinstance(b, CodeValue)):
        _expect(a), _expect(b)
    return _BinOp(cls, a, b)


def cadd(a, b) -> CodeValue:
    return _binop(Add, a, b)


def csub(a, b) -> CodeValue:
    return _binop(Sub, a, b)


def cmul(a, b) -> CodeValue:
    return _binop(Mul, a, b)


def cdiv(a, b) -> CodeValue:
    return _binop(Div, a, b)


def ceq(a, b) -> CodeValue:
    return _binop(Eq, a, b)


class _App(_Node):
    __slots__ = ("f", "a")

    def _build(self, ctx, loc):
        f = self.f
        if type(f) is _Lam:
            # a redex: the lambda's name, body and then the argument, at the
            # locations and in the order a plain build of `f` would use
            at = loc + "_1"
            name, body = Fresh(at, f.hint), at + "_1"
            d1, v1 = _expect(f.f(_Var(name, body)))._build(ctx, body)
            d2, v2 = self.a._build(ctx, loc + "_2")
            return ctx.sem.mk_redex(name, d1, d2), merge(v1, v2)
        d1, v1 = f._build(ctx, loc + "_1")
        d2, v2 = self.a._build(ctx, loc + "_2")
        return ctx.sem.mk_app(d1, d2), merge(v1, v2)


def capp(f: CodeValue, a: CodeValue) -> CodeValue:
    if not (isinstance(f, CodeValue) and isinstance(a, CodeValue)):
        _expect(f), _expect(a)
    return _App(f, a)


class _If(_Node):
    __slots__ = ("c", "t", "e")

    def _build(self, ctx, loc):
        dc, vc = self.c._build(ctx, loc + "_1")
        dt, vt = self.t._build(ctx, loc + "_2")
        de, ve = self.e._build(ctx, loc + "_3")
        return ctx.sem.mk_if(dc, dt, de), merge(merge(vc, vt), ve)


def cif(c: CodeValue, t: CodeValue, e: CodeValue) -> CodeValue:
    if not (isinstance(c, CodeValue) and isinstance(t, CodeValue)
            and isinstance(e, CodeValue)):
        _expect(c), _expect(t), _expect(e)
    return _If(c, t, e)


# the words `pretty` prints
_WORDS = frozenset("fun let rec in and if then else true false succ".split())


def _expect_hint(hint):
    """A TypeMismatch raised where the binder was written unless `hint` is
    None or an identifier that is no word `pretty` prints and does not end
    in a digit. `Fresh.render` spells a name `v` and its path's digits, the
    bare hint at the root, or the hint, `_` and the path's digits; under this
    rule no two paths render alike, so printed code never captures a name."""
    if hint is not None and not (
        isinstance(hint, str)
        and hint.isidentifier()
        and not hint[-1].isdigit()
        and hint not in _WORDS
    ):
        raise TypeMismatch(f"not a name hint: {hint!r}")


class _Var(_Node):
    """The bound variable: names its binder, whose body is built at location
    `body`; `below` is `body + "_"`, the prefix of every location under the
    body. Built at `body` or below it, it is the binder's variable
    (`mk_var`); built anywhere else, it was carried out of that body through
    host state, and is unbound from the build on (`mk_unbound`). One prefix
    test and one comparison decide, with no copy of the location, and
    `_1_12` is not read as inside `_1_1`."""

    __slots__ = ("name", "body", "below")

    def __init__(self, name, body):
        self.name, self.body, self.below = name, body, body + "_"

    def _build(self, ctx, loc):
        if loc.startswith(self.below) or loc == self.body:
            return ctx.sem.mk_var(self.name), EMPTY_BINDINGS
        return ctx.sem.mk_unbound(self.name), EMPTY_BINDINGS

    # the one place a variable is passed unbuilt, so it makes the same scope
    # test: an unbound variable is passed as the denotation `mk_unbound`
    # makes, which an operator treats as any other denotation
    def _operand(self, ctx, loc):
        if loc.startswith(self.below) or loc == self.body:
            return self.name, EMPTY_BINDINGS
        return ctx.sem.mk_unbound(self.name), EMPTY_BINDINGS


class _Lam(_Node):
    __slots__ = ("f", "hint")

    def _build(self, ctx, loc):
        name, body = Fresh(loc, self.hint), loc + "_1"
        d, v = _expect(self.f(_Var(name, body)))._build(ctx, body)
        return ctx.sem.mk_lam(name, d), v


def clam(f, hint=None) -> CodeValue:
    """Code of a function; `f` receives the bound variable as a CodeValue and
    must treat it as opaque."""
    _expect_function(f)
    _expect_hint(hint)
    return _Lam(f, hint)


class _Let(_Node):
    __slots__ = ("rhs", "body", "hint")

    def _build(self, ctx, loc):
        name, body = Fresh(loc, self.hint), loc + "_2"
        d1, v1 = self.rhs._build(ctx, loc + "_1")
        d2, v2 = _expect(self.body(_Var(name, body)))._build(ctx, body)
        return ctx.sem.mk_let(name, d1, d2), merge(v1, v2)


def clet(rhs: CodeValue, body, hint=None) -> CodeValue:
    """Code of a let whose location is fixed right here."""
    _expect(rhs)
    _expect_function(body)
    _expect_hint(hint)
    return _Let(rhs, body, hint)


def _expect_request(locus, key, code, hint):
    """Check a genlet or genletrec request where it is written; memo key
    `key` must be able to key a store."""
    if not (isinstance(locus, Locus) and isinstance(code, CodeValue)):
        _expect(locus, Locus, "locus"), _expect(code)
    try:
        hash(key)
    except TypeError:
        raise TypeMismatch(f"memo key is not hashable: {key!r}") from None
    _expect_hint(hint)


class _GenLet(_Node):
    __slots__ = ("locus", "key", "code", "hint")

    def _build(self, ctx, loc):
        name = Fresh(loc, self.hint)
        d, v = self.code._build(ctx, loc + "_2")
        at = self.locus.location
        if not v:
            # nothing to fold into: the one-class store, with no `addb`
            # call and no copy
            return ctx.sem.mk_request(name), {at: {self.key: BindingClass(name, d)}}
        bindings = v.copy()
        bindings[at] = addb(self.key, name, d, v.get(at, EMPTY_PER_LOCUS))
        return ctx.sem.mk_request(name), bindings


def genlet(locus: Locus, key: int, code: CodeValue, hint=None) -> CodeValue:
    """Request a let-binding of `code` at `locus`, shared by memo key; the
    result is the code of the bound variable."""
    _expect_request(locus, key, code, hint)
    return _GenLet(locus, key, code, hint)


class _WithLocus(_Node):
    __slots__ = ("f",)

    def _build(self, ctx, loc):
        d, v = _expect(self.f(Locus(loc)))._build(ctx, loc + "_1")
        den = bind_lets(ordered(v.get(loc, EMPTY_PER_LOCUS)), d, ctx.sem)
        return den, without(v, loc)


def with_locus(f) -> CodeValue:
    """Open a let locus: bindings requested for it by genlet inside `f`
    become nested let-expressions here; others keep floating."""
    return _WithLocus(_expect_function(f))


class _GenLetRec(_Node):
    __slots__ = ("locus", "key", "code", "hint")

    def _build(self, ctx, loc):
        name = Fresh(loc, self.hint)
        # a partial holds the bound build and its two arguments: three
        # tracked objects where a lambda's closure takes five
        anchored = Pending(partial(self.code._build, ctx, loc + "_2"))
        # the one-class store, with no `addb` call, as a binding-free
        # genlet makes it
        store = {self.key: BindingClass(name, anchored)}
        return ctx.sem.mk_request(name), {self.locus.location: store}


def genletrec(locus: Locus, key: int, code: CodeValue, hint=None) -> CodeValue:
    """Request a letrec clause at `locus`. `code` is not evaluated here: the
    binding stores it anchored to this site, to be forced during
    canonicalization (so recursive generators terminate)."""
    _expect_request(locus, key, code, hint)
    return _GenLetRec(locus, key, code, hint)


class _WithLocusRec(_Node):
    __slots__ = ("f",)

    def _build(self, ctx, loc):
        d, v = _expect(self.f(Locus(loc)))._build(ctx, loc + "_1")
        v = canon(v, loc, ctx.canon_limit)
        classes = ordered(v.get(loc, EMPTY_PER_LOCUS))
        return bind_letrec(classes, d, ctx.sem), without(v, loc)


def with_locus_rec(f) -> CodeValue:
    """Open a letrec locus: canonicalize the bindings requested for it, then
    bind them all in a single letrec."""
    return _WithLocusRec(_expect_function(f))


def _denote(code, sem, canon_limit, what, env):
    """Build complete generator `code` at the root in `sem` and apply its
    denotation to `env`; host-stack overflow is reported as `what`'s."""
    with _HostStack(what):
        d, v = code._build(BuildContext(sem, canon_limit), ROOT)
        if v:
            raise ResidualBindings(v)
        return d(env)


def show(code: CodeValue, canon_limit=DEFAULT_CANON_LIMIT) -> BaseAst:
    """Build the syntax tree a complete generator produces; a limit of None
    is no limit."""
    _expect(code)
    _expect_limit(canon_limit)
    return _denote(code, ShowSemantics(), canon_limit, "show", EMPTY_ENV)


def run(
    code: CodeValue,
    step_limit=DEFAULT_STEP_LIMIT,
    canon_limit=DEFAULT_CANON_LIMIT,
) -> Value:
    """Evaluate a complete generator to the value its code means; a limit
    of None is no limit."""
    _expect(code)
    _expect_limit(step_limit)
    _expect_limit(canon_limit)
    return _denote(code, RunSemantics(step_limit), canon_limit, "run", {})
