"""Code combinators threading tree locations as the fresh-name supply.

A CodeValue maps a location to a (denotation, virtual bindings) pair. The
location is the path of child indices from the root, so every combinator
occurrence owns a distinct name; binders are higher-order (host functions
receive the bound variable as an opaque CodeValue). `run` evaluates a complete
generator, `show` renders the code it builds.
"""

from __future__ import annotations

from .base import (
    Add,
    BaseAst,
    DEFAULT_STEP_LIMIT,
    Div,
    Eq,
    Fresh,
    Mul,
    Sub,
    TypeMismatch,
    Value,
    _HostStack,
    _Record,
    _expect_limit,
)
from .insertion import (
    DEFAULT_CANON_LIMIT,
    EMPTY_BINDINGS,
    EMPTY_PER_LOCUS,
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

ROOT = ()


class BuildContext(metaclass=_Record):
    """Everything a build needs besides the location: which semantics to
    build denotations in, and the canonicalization budget."""

    sem: object
    canon_limit: int = DEFAULT_CANON_LIMIT


class CodeValue:
    """Deterministic map from a location to (denotation, virtual bindings).

    Combinators, `show` and `run` call a child's `_build` directly, so a
    build spends one host frame per level; calling the value is the public
    entry point.
    """

    __slots__ = ("_build",)

    def __init__(self, build):
        self._build = build

    def __call__(self, ctx: BuildContext, loc):
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

    def __matmul__(self, other):
        return capp(self, _lift(other))

    def __repr__(self):
        return "CodeValue(...)"


def _expect(x, kind=CodeValue, what="code value"):
    """`x` if it is a `kind`, else a TypeMismatch raised where the generator
    was written; hot combinators test inline and call this only to raise."""
    if not isinstance(x, kind):
        raise TypeMismatch(f"not a {what}: {x!r}")
    return x


def _lift(x):
    if isinstance(x, bool):
        return cbool(x)
    if isinstance(x, int):
        return cint(x)
    return _expect(x)


def cint(i: int) -> CodeValue:
    if isinstance(i, bool) or not isinstance(i, int):
        raise TypeMismatch(f"not an integer: {i!r}")
    return CodeValue(lambda ctx, loc: (ctx.sem.mk_int(i), EMPTY_BINDINGS))


def cbool(b: bool) -> CodeValue:
    _expect(b, bool, "boolean")
    return CodeValue(lambda ctx, loc: (ctx.sem.mk_bool(b), EMPTY_BINDINGS))


def csucc(a: CodeValue) -> CodeValue:
    _expect(a)

    def build(ctx, loc):
        d, v = a._build(ctx, loc + (1,))
        return ctx.sem.mk_succ(d), v

    return CodeValue(build)


def _binop(cls, a, b):
    """Code of binary operator `cls` applied to `a` and `b`."""
    if not (isinstance(a, CodeValue) and isinstance(b, CodeValue)):
        _expect(a), _expect(b)

    def build(ctx, loc):
        d1, v1 = a._build(ctx, loc + (1,))
        d2, v2 = b._build(ctx, loc + (2,))
        return ctx.sem.mk_binop(cls, d1, d2), merge(v1, v2)

    return CodeValue(build)


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


def capp(f: CodeValue, a: CodeValue) -> CodeValue:
    if not (isinstance(f, CodeValue) and isinstance(a, CodeValue)):
        _expect(f), _expect(a)

    def build(ctx, loc):
        d1, v1 = f._build(ctx, loc + (1,))
        d2, v2 = a._build(ctx, loc + (2,))
        return ctx.sem.mk_app(d1, d2), merge(v1, v2)

    return CodeValue(build)


def cif(c: CodeValue, t: CodeValue, e: CodeValue) -> CodeValue:
    if not (isinstance(c, CodeValue) and isinstance(t, CodeValue)
            and isinstance(e, CodeValue)):
        _expect(c), _expect(t), _expect(e)

    def build(ctx, loc):
        dc, vc = c._build(ctx, loc + (1,))
        dt, vt = t._build(ctx, loc + (2,))
        de, ve = e._build(ctx, loc + (3,))
        return ctx.sem.mk_if(dc, dt, de), merge(merge(vc, vt), ve)

    return CodeValue(build)


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


def _var_code(name) -> CodeValue:
    # the bound variable: ignores where it is used, always names its binder
    return CodeValue(lambda ctx, loc: (ctx.sem.mk_var(name), EMPTY_BINDINGS))


def clam(f, hint=None) -> CodeValue:
    """Code of a function; `f` receives the bound variable as a CodeValue and
    must treat it as opaque."""
    _expect_hint(hint)

    def build(ctx, loc):
        name = Fresh(loc, hint)
        d, v = _expect(f(_var_code(name)))._build(ctx, loc + (1,))
        return ctx.sem.mk_lam(name, d), v

    return CodeValue(build)


def clet(rhs: CodeValue, body, hint=None) -> CodeValue:
    """Code of a let whose location is fixed right here."""
    _expect(rhs)
    _expect_hint(hint)

    def build(ctx, loc):
        name = Fresh(loc, hint)
        d1, v1 = rhs._build(ctx, loc + (1,))
        d2, v2 = _expect(body(_var_code(name)))._build(ctx, loc + (2,))
        return ctx.sem.mk_let(name, d1, d2), merge(v1, v2)

    return CodeValue(build)


def _expect_hashable(key):
    """A TypeMismatch raised where the request was written if memo key `key`
    cannot key a store."""
    try:
        hash(key)
    except TypeError:
        raise TypeMismatch(f"memo key is not hashable: {key!r}") from None


def genlet(locus: Locus, key: int, code: CodeValue, hint=None) -> CodeValue:
    """Request a let-binding of `code` at `locus`, shared by memo key; the
    result is the code of the bound variable."""
    if not (isinstance(locus, Locus) and isinstance(code, CodeValue)):
        _expect(locus, Locus, "locus"), _expect(code)
    _expect_hashable(key)
    _expect_hint(hint)

    def build(ctx, loc):
        name = Fresh(loc, hint)
        d, v = code._build(ctx, loc + (2,))
        at = locus.location
        # a dict also when `v` is the read-only EMPTY_BINDINGS, and cheaper
        # than spreading that mapping into a dict display
        bindings = v.copy()
        bindings[at] = addb(key, name, d, v.get(at, EMPTY_PER_LOCUS))
        return ctx.sem.mk_request(name), bindings

    return CodeValue(build)


def with_locus(f) -> CodeValue:
    """Open a let locus: bindings requested for it by genlet inside `f`
    become nested let-expressions here; others keep floating."""

    def build(ctx, loc):
        d, v = _expect(f(Locus(loc)))._build(ctx, loc + (1,))
        den = bind_lets(ordered(v.get(loc, EMPTY_PER_LOCUS)), d, ctx.sem)
        return den, without(v, loc)

    return CodeValue(build)


def genletrec(locus: Locus, key: int, code: CodeValue, hint=None) -> CodeValue:
    """Request a letrec clause at `locus`. `code` is not evaluated here: the
    binding stores it anchored to this site, to be forced during
    canonicalization (so recursive generators terminate)."""
    if not (isinstance(locus, Locus) and isinstance(code, CodeValue)):
        _expect(locus, Locus, "locus"), _expect(code)
    _expect_hashable(key)
    _expect_hint(hint)

    def build(ctx, loc):
        name = Fresh(loc, hint)
        anchored = Pending(lambda: code._build(ctx, loc + (2,)))
        store = addb(key, name, anchored, EMPTY_PER_LOCUS)
        return ctx.sem.mk_request(name), {locus.location: store}

    return CodeValue(build)


def with_locus_rec(f) -> CodeValue:
    """Open a letrec locus: canonicalize the bindings requested for it, then
    bind them all in a single letrec."""

    def build(ctx, loc):
        d, v = _expect(f(Locus(loc)))._build(ctx, loc + (1,))
        v = canon(v, loc, ctx.canon_limit)
        classes = ordered(v.get(loc, EMPTY_PER_LOCUS))
        return bind_letrec(classes, d, ctx.sem), without(v, loc)

    return CodeValue(build)


def _complete(bindings):
    if bindings:
        raise ResidualBindings(tuple(bindings))


def show(code: CodeValue, canon_limit=DEFAULT_CANON_LIMIT) -> BaseAst:
    """Build the syntax tree a complete generator produces; a limit of None
    is no limit."""
    _expect(code)
    _expect_limit(canon_limit)
    ctx = BuildContext(ShowSemantics(), canon_limit)
    with _HostStack("show"):
        d, v = code._build(ctx, ROOT)
        _complete(v)
        return d(EMPTY_ENV)


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
    ctx = BuildContext(RunSemantics(step_limit), canon_limit)
    with _HostStack("run"):
        d, v = code._build(ctx, ROOT)
        _complete(v)
        return d({})
