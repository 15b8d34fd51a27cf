"""First-order syntax trees for generated code, plus a reference interpreter.

Trees are immutable; the interpreter here is deliberately independent of the
denotation builders in `semantics` so the two can cross-check each other.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import re

DEFAULT_STEP_LIMIT = 1_000_000


class StagingError(Exception):
    """Root of all errors raised by this library."""


class UnboundVariable(StagingError):
    pass


class TypeMismatch(StagingError):
    pass


class StepLimitExceeded(StagingError):
    pass


class _HostStack:
    """Context manager: host-stack overflow inside the block becomes
    StepLimitExceeded, so deep trees fail as staging errors. Every other
    error passes through as it is: a malformed name is refused where its
    node is made (`_slot_init`), so no walk meets one."""

    __slots__ = ("what",)

    def __init__(self, what):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, RecursionError):
            raise StepLimitExceeded(f"{self.what} recursed past the host stack") from None
        return False


class _Budget:
    """Mutable step countdown. A limit of None counts down from `math.inf`,
    which a tick leaves as it is, so no tick tests for "no limit"."""

    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = math.inf if limit is None else limit

    def tick(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise StepLimitExceeded("step limit exceeded")


def _expect_int(x, what="an integer"):
    """`x` as an exact `int`; TypeMismatch("not {what}: …") unless it is an
    `int` that is not a `bool`. An `int` subclass (an `IntEnum` member, say)
    becomes the `int` it stands for, so no later step prints or computes
    with the subclass. The one statement of the rule: a caller on a hot
    path tests `type(x) is int` inline and calls this for anything else."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeMismatch(f"not {what}: {x!r}")
    return int.__index__(x)


def _expect_limit(limit):
    """Raise TypeMismatch unless `limit` is an int or None (no limit)."""
    if limit is not None:
        _expect_int(limit, "a limit")


def _expect_name(x):
    """Raise TypeMismatch unless `x` is a `Name`: the one statement of the
    rule. `LetRec` and `eval_ast`'s environment call it; the `__init__` of
    a node with a `Name` field (`_slot_init`) tests inline and calls this
    only to raise."""
    if not isinstance(x, Name):
        raise TypeMismatch(f"not a name: {x!r}")


# ---------------------------------------------------------------------------
# Records


class _Record(type):
    """Metaclass of the library's records: syntax nodes, values, names written
    in source, and the insertion and build records.

    A record is a frozen dataclass of its annotated fields (`fields`,
    `__match_args__`, field-wise `==`, `hash` and `repr`) whose fields live
    in `__slots__`. Its `__init__` stores each argument through its slot's
    descriptor, where a frozen dataclass's calls `object.__setattr__` per
    field. A subclass of a record is a record, and may be decorated with
    `@dataclass(frozen=True)` as a subclass of a frozen dataclass may; its
    field defaults hold for it and for its subclasses. A default is a plain
    value: a field written as `dataclasses.field(...)` is refused.

    Slots can only be declared when a class is created. A class decorator
    gets a class that exists already and must build a second one; the first
    stays listed among its base's `__subclasses__()` until the garbage
    collector frees it, if ever.
    """

    def __new__(mcls, name, bases, ns):
        fields = ns.get("__annotations__", {})
        # a slot and a class attribute cannot share a name, so the defaults
        # are held back from the class body; `__setattr__` gives them to the
        # fields
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        for f, default in defaults.items():
            if isinstance(default, dataclasses.Field):
                raise TypeError(f"record field {name}.{f} may give only a plain default")
        ns = {
            "__reduce__": _rebuild,
            **ns,
            "__slots__": tuple(fields),
            "__record_defaults__": defaults,
        }
        cls = super().__new__(mcls, name, bases, ns)
        # no dataclass `__init__`: `_slot_init` below makes the one kept
        dataclasses.dataclass(frozen=True, init=False)(cls)
        # `@dataclass(frozen=True)` refuses a class whose own body holds
        # `__setattr__` or `__delattr__`, so a record below the top of its
        # hierarchy keeps none and inherits the top one's, which refuses
        # every field of every subclass
        if any(isinstance(b, _Record) for b in bases):
            del cls.__setattr__, cls.__delattr__
        else:
            cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
        cls.__init__ = _slot_init(cls)
        return cls

    def __setattr__(cls, name, value):
        # each dataclass call on a record, the one in `__new__` or a
        # `@dataclass` decorator's, reads a field's default from the class
        # and finds the slot there; give the fields the held-back defaults
        if name == "__dataclass_fields__":
            for f, default in cls.__dict__["__record_defaults__"].items():
                value[f].default = default
        super().__setattr__(name, value)


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _rebuild(self):
    # copy and pickle rebuild a record through `__init__`: the frozen
    # `__setattr__` refuses their field-by-field restore of slots
    return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _slot_init(cls):
    """The `__init__` of record class `cls`: each argument, or its default,
    set through its slot's descriptor, then `__post_init__` if any. A field
    annotated `Name` (`Var.name`, `Lam.param`, `Let.name`) is tested inline
    first, so a node is well named from the moment it is made, at no cost
    of a frame; anything but a `Name` raises `_expect_name`'s error."""
    ns, params, body = {"Name": Name, "_expect_name": _expect_name}, [], []
    for f in dataclasses.fields(cls):
        n = f.name
        ns[f"set_{n}"] = getattr(cls, n).__set__
        if f.default is not dataclasses.MISSING:
            ns[f"default_{n}"] = f.default
            params.append(f"{n}=default_{n}")
        elif params and "=" in params[-1]:
            # the check a dataclass `__init__` would have made
            raise TypeError(f"non-default argument {n!r} follows default argument")
        else:
            params.append(n)
        if f.type in ("Name", Name):
            body.append(f"    if not isinstance({n}, Name): _expect_name({n})")
        body.append(f"    set_{n}(self, {n})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass"), ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _slot_new(cls):
    """`object.__new__` and the slot setter of each field of record class
    `cls`, in field order, with which a caller makes a `cls` as `_slot_init`
    would, without its Python frame. It makes no test, so a caller sets a
    `Name` field only to a `Name`; a record with a `__post_init__` is
    refused."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__")
    return object.__new__, *(getattr(cls, f.name).__set__ for f in dataclasses.fields(cls))


# ---------------------------------------------------------------------------
# Names


class Name:
    """A variable name: written in source (Source) or generated (Fresh)."""

    __slots__ = ()

    @property
    def path(self):
        """The name's key in an evaluator's environment (`eval_ast`'s and
        run's): the name itself.

        `Fresh` overrides it with its location string. A str caches its
        hash in the object, so a dict probe on a `Fresh` name's key makes
        no Python-level `__hash__` call, and `Fresh.__hash__` returns that
        same cached hash. Keys are exact: two `Fresh` names are equal
        exactly when their location strings are, and a `Source` never
        equals a str; a user's name class keeps that as long as its names
        never equal a str. `free_vars` and `alpha_eq` key by it too; Show's
        `Env` and insertion key by names."""
        return self

    def render(self) -> str:
        raise NotImplementedError


class Source(Name, metaclass=_Record):
    text: str

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise TypeMismatch(f"not a name text: {self.text!r}")

    def render(self) -> str:
        return self.text

    def __repr__(self):
        return f"Source({self.text!r})"


# A tree location is a string: the root is "", and child i of location
# `loc` is `loc + "_" + str(i)`, so making a child is one copy in C however
# deep `loc` is, and a name's text is its location with a prefix.
ROOT = ""
_LOCATION = re.compile(r"(?:_[0-9]+)*")


def _expect_location(loc):
    """Raise TypeMismatch unless `loc` is a location string: "" or a run of
    `_<n>` segments. A full check costs a regular-expression match, so only
    what is made once per locus (`insertion.Locus`) makes it; `Fresh`, made
    once per binder and request, tests only that its path is a `str`."""
    if type(loc) is not str or _LOCATION.fullmatch(loc) is None:
        raise TypeMismatch(f"not a location: {loc!r}")


def render_location(loc) -> str:
    """Location `loc` as its child indices in brackets: `[1,2]` for
    `"_1_2"`, `[]` for the root."""
    return "[" + loc[1:].replace("_", ",") + "]"


class Fresh(Name):
    """Generator-created name, identified by its tree location.

    `path` is the location string (`Fresh("_1_2")`); anything else is
    refused. The optional hint changes only how the name renders; equality
    and hashing are on the location alone, so a hinted and an unhinted
    reference to the same binding site stay interchangeable. A name holds
    these two slots and nothing else: its hash is its path's, which the str
    computes once and keeps. The `path` slot overrides `Name.path`, so an
    evaluator's environment keys the name by its location string.
    """

    __slots__ = ("path", "hint")

    def __init__(self, path, hint=None):
        if type(path) is not str:
            raise TypeMismatch(f"not a location: {path!r}")
        self.path = path
        self.hint = hint

    def __eq__(self, other):
        return isinstance(other, Fresh) and self.path == other.path

    def __hash__(self):
        return hash(self.path)

    def render(self) -> str:
        # `v` and the location's digits, the bare hint at the root, or the
        # hint, `_` and the digits
        if self.hint is None:
            return "v" + self.path[1:]
        if not isinstance(self.hint, str):
            raise TypeMismatch(f"not a name hint: {self.hint!r}")
        return self.hint + self.path

    def __repr__(self):
        return f"Fresh({self.path!r})"


# ---------------------------------------------------------------------------
# Run-time values


class Value:
    __slots__ = ()


class VInt(Value, metaclass=_Record):
    """An integer value. Every exact `int` in [-1024, 1024) has one shared
    record (`_SMALL`), which run and `eval_ast` return for such a result
    in place of a fresh one; any other value, a float, a `bool` or an
    `int` subclass among them, gets a fresh record. That is exact: a value
    is never updated, and a record is compared, hashed, printed, copied and
    pickled by its value, never by identity."""

    value: int


class VBool(Value, metaclass=_Record):
    value: bool


# The shared values (see `VInt`), made once, here: `_SMALL[i]` is `VInt(i)`
# for every `i` in [_SMALL_LO, _SMALL_HI), the negative ones at the end, so
# a negative `i` indexes them from there. Run's and `eval_ast`'s booleans
# are `TRUE` and `FALSE`.
_SMALL_LO, _SMALL_HI = -1024, 1024
_SMALL = tuple(map(VInt, (*range(_SMALL_HI), *range(_SMALL_LO, 0))))
TRUE, FALSE = VBool(True), VBool(False)


def _vint(i):
    """`VInt(i)`, shared when `i` is exactly an `int` in range. Each hot
    path of run and `eval_ast` writes this test out, sparing the call."""
    if type(i) is int and _SMALL_LO <= i < _SMALL_HI:
        return _SMALL[i]
    return VInt(i)


class VFun(Value):
    """A function value; `fn` maps Value to Value and must be pure."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __repr__(self):
        return "<fun>"


def render_value(v: Value) -> str:
    match v:
        case VInt(i):
            return str(i)
        case VBool(b):
            return "true" if b else "false"
        case VFun():
            return "<fun>"
    raise TypeMismatch(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Syntax


class BaseAst(metaclass=_Record):
    """Root of the syntax nodes; every node class is a record."""


class IntLit(BaseAst):
    value: int


class BoolLit(BaseAst):
    value: bool


class Var(BaseAst):
    name: Name


class Succ(BaseAst):
    arg: BaseAst


class BinOp(BaseAst):
    """A binary operator on two integers. Each subclass names its infix
    `symbol`, its s-expression `tag`, the integer function `op` it computes
    and the value class `box` of its result; every meaning reads them."""

    left: BaseAst
    right: BaseAst


class Add(BinOp):
    symbol, tag, op, box = "+", "add", operator.add, VInt


class Sub(BinOp):
    symbol, tag, op, box = "-", "sub", operator.sub, VInt


class Mul(BinOp):
    symbol, tag, op, box = "*", "mul", operator.mul, VInt


class Div(BinOp):
    """Integer division, truncating toward zero."""

    symbol, tag, box = "/", "div", VInt

    @staticmethod
    def op(a, b):
        if b == 0:
            raise TypeMismatch("division by zero")
        q = a // b
        if q < 0 and q * b != a:
            q += 1
        return q


class Eq(BinOp):
    symbol, tag, op, box = "=", "eq", operator.eq, VBool


class If(BaseAst):
    cond: BaseAst
    then: BaseAst
    orelse: BaseAst


class Lam(BaseAst):
    param: Name
    body: BaseAst


class App(BaseAst):
    fun: BaseAst
    arg: BaseAst


class Let(BaseAst):
    name: Name
    rhs: BaseAst
    body: BaseAst


class LetRec(BaseAst):
    clauses: tuple  # ((Name, BaseAst), ...), nonempty, names distinct
    body: BaseAst

    def __post_init__(self):
        # `clauses` itself goes through `_clause` too, so a non-iterable
        # one is refused like a non-iterable clause
        object.__setattr__(self, "clauses", tuple(map(_clause, _clause(self.clauses))))
        if not self.clauses:
            raise ValueError("letrec needs at least one clause")
        for c in self.clauses:
            if len(c) != 2:
                raise TypeMismatch(f"not a letrec clause: {c!r}")
        names = [n for n, _ in self.clauses]
        for n in names:
            _expect_name(n)
        if len(set(names)) != len(names):
            raise ValueError("letrec clause names must be distinct")


def _clause(c):
    """Letrec clause `c` as a tuple, or a TypeMismatch if it is not
    iterable."""
    try:
        return tuple(c)
    except TypeError:
        raise TypeMismatch(f"not a letrec clause: {c!r}") from None


# ---------------------------------------------------------------------------
# Dispatch


class _Walk(dict):
    """One tree walk's handlers, keyed by node class, so picking a case is
    one dict probe on `type(ast)`. A handler reaches a child through the
    table itself (`_P[type(c)](c)`), which keeps one host frame per tree
    level.

    A node subclass gets the handler of its nearest registered base, looked
    up through the MRO once and then cached; any other class gets
    `_not_a_tree`.
    """

    __slots__ = ()

    def __missing__(self, cls):
        for base in cls.__mro__[1:]:
            if base in self:
                handler = self[cls] = self[base]
                return handler
        return _not_a_tree


def _not_a_tree(ast, *_):
    raise TypeMismatch(f"not a syntax tree: {ast!r}")


_BINOPS = (Add, Sub, Mul, Div, Eq)

# ---------------------------------------------------------------------------
# Rendering


def pretty(ast: BaseAst) -> str:
    """Deterministic fully-parenthesized rendering."""
    with _HostStack("pretty"):
        return _P[type(ast)](ast)


def _pretty_binop(t):
    a, b = t.left, t.right
    return f"({_P[type(a)](a)} {t.symbol} {_P[type(b)](b)})"


def _pretty_if(t):
    c, a, b = t.cond, t.then, t.orelse
    return f"(if {_P[type(c)](c)} then {_P[type(a)](a)} else {_P[type(b)](b)})"


def _pretty_app(t):
    # a redex's lambda is rendered here, as its own handler would, so a
    # chain of redexes takes one host frame per level
    f, a = t.fun, t.arg
    if type(f) is Lam:
        b = f.body
        return f"((fun {f.param.render()} -> {_P[type(b)](b)}) {_P[type(a)](a)})"
    return f"({_P[type(f)](f)} {_P[type(a)](a)})"


def _pretty_let(t):
    r, b = t.rhs, t.body
    return f"(let {t.name.render()} = {_P[type(r)](r)} in {_P[type(b)](b)})"


def _pretty_letrec(t):
    decls = " and ".join(f"{n.render()} = {_P[type(r)](r)}" for n, r in t.clauses)
    b = t.body
    return f"(let rec {decls} in {_P[type(b)](b)})"


_P = _Walk(
    {
        IntLit: lambda t: str(t.value),
        BoolLit: lambda t: "true" if t.value else "false",
        Var: lambda t: t.name.render(),
        Succ: lambda t: f"(succ {_P[type(t.arg)](t.arg)})",
        **dict.fromkeys(_BINOPS, _pretty_binop),
        If: _pretty_if,
        Lam: lambda t: f"(fun {t.param.render()} -> {_P[type(t.body)](t.body)})",
        App: _pretty_app,
        Let: _pretty_let,
        LetRec: _pretty_letrec,
    }
)


def to_sexp(ast: BaseAst) -> str:
    """Canonical machine-readable prefix form; single-space separated."""
    with _HostStack("to_sexp"):
        return _S[type(ast)](ast)


def _sexp_binop(t):
    a, b = t.left, t.right
    return f"({t.tag} {_S[type(a)](a)} {_S[type(b)](b)})"


def _sexp_if(t):
    c, a, b = t.cond, t.then, t.orelse
    return f"(if {_S[type(c)](c)} {_S[type(a)](a)} {_S[type(b)](b)})"


def _sexp_app(t):
    # a redex's lambda in this frame, as in `_pretty_app`
    f, a = t.fun, t.arg
    if type(f) is Lam:
        b = f.body
        return f"(app (lam {f.param.render()} {_S[type(b)](b)}) {_S[type(a)](a)})"
    return f"(app {_S[type(f)](f)} {_S[type(a)](a)})"


def _sexp_let(t):
    r, b = t.rhs, t.body
    return f"(let {t.name.render()} {_S[type(r)](r)} {_S[type(b)](b)})"


def _sexp_letrec(t):
    decls = " ".join(f"({n.render()} {_S[type(r)](r)})" for n, r in t.clauses)
    b = t.body
    return f"(letrec ({decls}) {_S[type(b)](b)})"


_S = _Walk(
    {
        IntLit: lambda t: f"(int {t.value})",
        BoolLit: lambda t: f"(bool {'true' if t.value else 'false'})",
        Var: lambda t: f"(var {t.name.render()})",
        Succ: lambda t: f"(succ {_S[type(t.arg)](t.arg)})",
        **dict.fromkeys(_BINOPS, _sexp_binop),
        If: _sexp_if,
        Lam: lambda t: f"(lam {t.param.render()} {_S[type(t.body)](t.body)})",
        App: _sexp_app,
        Let: _sexp_let,
        LetRec: _sexp_letrec,
    }
)


# ---------------------------------------------------------------------------
# Analysis


def free_vars(ast: BaseAst) -> set:
    """Names with a free occurrence; binders scope lexically.

    One walk fills one result set. It counts the binders in scope by key
    (`name.path`, as `eval_ast` does): a binder adds one on entry and puts
    the count back on exit, and a variable is free when its key counts
    zero. So a closed tree of `Fresh` names makes no Python-level
    `__hash__` call. Every name field holds a `Name`: its node refused
    anything else when it was made. A redex `App(Lam, arg)` is walked in
    one frame, as `eval_ast` runs it. Children are visited left to right,
    a letrec's body before its clauses, and of two equal free names (a
    hinted and an unhinted `Fresh`, say) the set keeps the one met first.
    """
    free = set()
    with _HostStack("free_vars"):
        _F[type(ast)](ast, {}, free)
    return free


def _fv_var(t, bound, free):
    if not bound.get(t.name.path):
        free.add(t.name)


def _fv_binop(t, bound, free):
    a, b = t.left, t.right
    _F[type(a)](a, bound, free)
    _F[type(b)](b, bound, free)


def _fv_if(t, bound, free):
    c, a, b = t.cond, t.then, t.orelse
    _F[type(c)](c, bound, free)
    _F[type(a)](a, bound, free)
    _F[type(b)](b, bound, free)


def _fv_lam(t, bound, free):
    n, b = t.param.path, t.body
    k = bound.get(n, 0)
    bound[n] = k + 1
    _F[type(b)](b, bound, free)
    bound[n] = k


def _fv_app(t, bound, free):
    f, a = t.fun, t.arg
    if type(f) is Lam:
        n, b = f.param.path, f.body
        k = bound.get(n, 0)
        bound[n] = k + 1
        _F[type(b)](b, bound, free)
        bound[n] = k
    else:
        _F[type(f)](f, bound, free)
    _F[type(a)](a, bound, free)


def _fv_let(t, bound, free):
    n, r, b = t.name.path, t.rhs, t.body
    _F[type(r)](r, bound, free)
    k = bound.get(n, 0)
    bound[n] = k + 1
    _F[type(b)](b, bound, free)
    bound[n] = k


def _fv_letrec(t, bound, free):
    # clause names are distinct `Name`s (`LetRec` checks both when made)
    keys = [n.path for n, _ in t.clauses]
    for n in keys:
        bound[n] = bound.get(n, 0) + 1
    b = t.body
    _F[type(b)](b, bound, free)
    for _, r in t.clauses:
        _F[type(r)](r, bound, free)
    for n in keys:
        bound[n] -= 1


_F = _Walk(
    {
        IntLit: lambda t, bound, free: None,
        BoolLit: lambda t, bound, free: None,
        Var: _fv_var,
        Succ: lambda t, bound, free: _F[type(t.arg)](t.arg, bound, free),
        **dict.fromkeys(_BINOPS, _fv_binop),
        If: _fv_if,
        Lam: _fv_lam,
        App: _fv_app,
        Let: _fv_let,
        LetRec: _fv_letrec,
    }
)


def alpha_eq(a: BaseAst, b: BaseAst) -> bool:
    """Equality up to consistent renaming of bound names. Names are
    compared by key (`name.path`), which every name field has: its node
    refused anything but a `Name` when it was made.

    The two renaming maps, `ab` from a's keys to b's and `ba` back, are
    bound in place, as `eval_ast` binds its environment: a binder writes
    its pair into both, compares what it scopes, and on leaving puts back
    the entries it shadowed (`_unbind`). So a chain of binders copies
    nothing, where a copy of both maps per binder made it quadratic in its
    depth. An exception leaves the maps as they are, since nothing reads
    them after one."""
    with _HostStack("alpha_eq"):
        return _alpha(a, b, {}, {})


def _bind(ab, ba, pairs):
    """Bind each key pair (n, m) of `pairs`, n to m in `ab` and m to n in
    `ba`; the entries they shadow, for `_unbind`."""
    saved = [(n, ab.get(n, _UNBOUND), m, ba.get(m, _UNBOUND)) for n, m in pairs]
    for n, m in pairs:
        ab[n] = m
        ba[m] = n
    return saved


def _unbind(ab, ba, saved):
    """Put back what `_bind` shadowed, deleting a key it found unbound."""
    for n, old_m, m, old_n in reversed(saved):
        if old_m is _UNBOUND:
            del ab[n]
        else:
            ab[n] = old_m
        if old_n is _UNBOUND:
            del ba[m]
        else:
            ba[m] = old_n


def _alpha(a, b, ab, ba):
    match a, b:
        case (IntLit(x), IntLit(y)) | (BoolLit(x), BoolLit(y)):
            return x == y
        case (Var(n), Var(m)):
            n, m = n.path, m.path
            if n in ab or m in ba:
                return ab.get(n) == m and ba.get(m) == n
            return n == m
        case (Succ(x), Succ(y)):
            return _alpha(x, y, ab, ba)
        case (BinOp(x1, x2), BinOp(y1, y2)) | (App(x1, x2), App(y1, y2)) if (
            type(a) is type(b) and _P[type(a)] is not _not_a_tree
        ):
            return _alpha(x1, y1, ab, ba) and _alpha(x2, y2, ab, ba)
        case (If(c1, t1, e1), If(c2, t2, e2)):
            return (
                _alpha(c1, c2, ab, ba)
                and _alpha(t1, t2, ab, ba)
                and _alpha(e1, e2, ab, ba)
            )
        # a binder binds, compares and unbinds in its own frame, so a
        # chain of binders takes one host frame per level
        case (Lam(n, x), Lam(m, y)):
            saved = _bind(ab, ba, ((n.path, m.path),))
            same = _alpha(x, y, ab, ba)
            _unbind(ab, ba, saved)
            return same
        case (Let(n, r1, b1), Let(m, r2, b2)):
            pair = n.path, m.path
            if not _alpha(r1, r2, ab, ba):
                return False
            saved = _bind(ab, ba, (pair,))
            same = _alpha(b1, b2, ab, ba)
            _unbind(ab, ba, saved)
            return same
        case (LetRec(c1, b1), LetRec(c2, b2)):
            if len(c1) != len(c2):
                return False
            pairs = [(n.path, m.path) for (n, _), (m, _) in zip(c1, c2)]
            saved = _bind(ab, ba, pairs)
            same = all(
                _alpha(r1, r2, ab, ba) for (_, r1), (_, r2) in zip(c1, c2)
            ) and _alpha(b1, b2, ab, ba)
            _unbind(ab, ba, saved)
            return same
    # different kinds, or a side the walks reject (a bare `BinOp` too)
    for t in (a, b):
        if _P[type(t)] is _not_a_tree:
            _not_a_tree(t)
    return False


# ---------------------------------------------------------------------------
# Reference interpreter


class _RecCell:
    """Delayed letrec binding, shared by `eval_ast` and the run semantics.

    `force` computes the clause's value `rhs(env)` once; each evaluator
    decides what `env` holds. Forcing while busy means sure divergence.
    """

    __slots__ = ("name", "rhs", "env", "budget", "busy", "done", "value")

    def __init__(self, name, rhs, env, budget):
        self.name = name
        self.rhs = rhs
        self.env = env
        self.budget = budget
        self.busy = False
        self.done = False
        self.value = None

    def force(self):
        if self.done:
            return self.value
        if self.busy:
            raise StepLimitExceeded(
                f"recursive binding {self.name.render()} demands its own value"
            )
        self.budget.tick()
        self.busy = True
        try:
            self.value = self.rhs(self.env)
        finally:
            self.busy = False
        self.done = True
        return self.value


def eval_ast(ast: BaseAst, env=None, step_limit=DEFAULT_STEP_LIMIT) -> Value:
    """Call-by-value evaluation; aborts after step_limit beta/clause steps.

    `env` maps Name to Value, as a mapping or pairs, and None is no
    environment; anything else, a key that is not a Name, or a value that
    is not a Value, raises TypeMismatch.
    Free names not in `env` raise UnboundVariable. Inside, the environment
    is keyed by each name's `path`, so a variable read or a binding makes
    no Python-level `__hash__` call; `env` is converted once, here.

    Binding is shallow, with restore on exit (Baker, "Shallow Binding in
    Lisp 1.5", 1978): one dict serves a whole function activation. A `Let`,
    and a redex `App(Lam, arg)`, which runs as a let, writes its name into
    that dict, evaluates its body there, and on leaving, by a return or an
    exception, puts back the entry it shadowed or deletes the key. That is
    exact, the same values, errors and ticks as a fresh dict per binder,
    because a binder's entry is never read after it leaves: every binder
    restores on exit, a lambda snapshots the dict when it is made, and
    letrec cells read a dict no body binds into. So a let chain copies
    nothing, where a copy per let made it quadratic in its depth.
    """
    _expect_limit(step_limit)
    budget = _Budget(step_limit)
    keyed = {}
    if env is not None:
        try:
            env = dict(env)
        except (TypeError, ValueError):
            raise TypeMismatch(f"not an environment: {env!r}") from None
        for name, value in env.items():
            _expect_name(name)
            if not isinstance(value, Value):
                raise TypeMismatch(f"not a value: {value!r}")
            keyed[name.path] = value
    with _HostStack("evaluation"):
        return _E[type(ast)](ast, keyed, budget)


# what a let or a redex finds under a key that is unbound; it deletes the key
# on exit
_UNBOUND = object()


def _as_int(v):
    if not isinstance(v, VInt):
        raise TypeMismatch(f"expected an integer, got {v!r}")
    return v.value


def _eval_var(t, env, budget):
    try:
        v = env[t.name.path]
    except KeyError:
        raise UnboundVariable(f"unbound variable {t.name.render()}") from None
    return v.force() if isinstance(v, _RecCell) else v


def _eval_int(t, env, budget):
    i = t.value
    if type(i) is int and _SMALL_LO <= i < _SMALL_HI:
        return _SMALL[i]
    return VInt(i)


def _eval_succ(t, env, budget):
    a = t.arg
    i = _as_int(_E[type(a)](a, env, budget)) + 1
    if type(i) is int and _SMALL_LO <= i < _SMALL_HI:
        return _SMALL[i]
    return VInt(i)


def _eval_bool(t, env, budget):
    b = t.value
    if b is True:
        return TRUE
    return FALSE if b is False else VBool(b)


def _binary(op, box):
    """The handler of an operator on two integers; `op` is fixed here, so a
    subclass of the node class evaluates like the class itself.

    An operand that is exactly an `IntLit`, or exactly a `Var` bound to
    exactly a `VInt`, is read in place, without a handler call: most
    operands are one of these, and the call costs more than the
    arithmetic. Any other operand (another node, an unbound name, a letrec
    cell, a non-integer, a subclass of `Var` or `IntLit`) goes through the
    table, so `_eval_var` and `_as_int` stay the only source of their errors
    and of a cell's tick. The left operand is checked before the right one
    is read. The two reads are written out, not shared through a helper:
    its call measured 4–8% of `eval_ast`'s time on operator code. A result
    that is exactly an `int` in range, or exactly `True` or `False`, is
    its shared value (see `VInt`); any other is made without the Python
    frame of its record's `__init__` (`_slot_new`)."""
    new, set_value = _slot_new(box)

    def handler(t, env, budget):
        a = t.left
        if type(a) is IntLit:
            x = a.value
        elif type(a) is Var and type(v := env.get(a.name.path)) is VInt:
            x = v.value
        else:
            v = _E[type(a)](a, env, budget)
            if not isinstance(v, VInt):
                _as_int(v)  # raises; inline checks spare an integer the call
            x = v.value
        b = t.right
        if type(b) is IntLit:
            y = b.value
        elif type(b) is Var and type(v := env.get(b.name.path)) is VInt:
            y = v.value
        else:
            v = _E[type(b)](b, env, budget)
            if not isinstance(v, VInt):
                _as_int(v)
            y = v.value
        r = op(x, y)
        if box is VInt:
            if type(r) is int and _SMALL_LO <= r < _SMALL_HI:
                return _SMALL[r]
        elif box is VBool and (r is True or r is False):
            return TRUE if r else FALSE
        v = new(box)
        set_value(v, r)
        return v

    return handler


def _eval_if(t, env, budget):
    c = t.cond
    cond = _E[type(c)](c, env, budget)
    if not isinstance(cond, VBool):
        raise TypeMismatch(f"if condition must be a boolean, got {cond!r}")
    b = t.then if cond.value else t.orelse
    return _E[type(b)](b, env, budget)


def _eval_lam(t, env, budget):
    """A closure over a snapshot of `env` taken now, since the lets and
    redexes around the lambda go on rebinding `env` in place after it is
    made. A call copies the snapshot once more and binds its parameter in
    the copy: a letrec's functions share one dict (`_eval_letrec`), so no
    call may write into the dict it closes over."""
    return _closure(t, dict(env), budget)


def _closure(t, env, budget):
    """The function value of `Lam` `t` over `env`, a dict nothing writes."""
    n, b = t.param.path, t.body

    def call(arg):
        budget.tick()
        return _E[type(b)](b, {**env, n: arg}, budget)

    return VFun(call)


def _eval_app(t, env, budget):
    f, a = t.fun, t.arg
    if type(f) is Lam:
        # a redex runs as a let: its parameter's key, the argument, the
        # call's tick, then the body in `env` itself, with no function
        # value, no copy and no frame for a call
        n, b = f.param.path, f.body
        v = _E[type(a)](a, env, budget)
        budget.tick()
        shadowed = env.get(n, _UNBOUND)
        env[n] = v
        try:
            return _E[type(b)](b, env, budget)
        finally:
            if shadowed is _UNBOUND:
                del env[n]
            else:
                env[n] = shadowed
    fv = _E[type(f)](f, env, budget)
    av = _E[type(a)](a, env, budget)
    if not isinstance(fv, VFun):
        raise TypeMismatch(f"cannot apply non-function {fv!r}")
    return fv.fn(av)


def _eval_let(t, env, budget):
    # the redex case of `_eval_app` binds the same way, written out rather
    # than shared: a helper would cost a host frame per level
    n, r, b = t.name.path, t.rhs, t.body
    v = _E[type(r)](r, env, budget)
    shadowed = env.get(n, _UNBOUND)
    env[n] = v
    try:
        return _E[type(b)](b, env, budget)
    finally:
        if shadowed is _UNBOUND:
            del env[n]
        else:
            env[n] = shadowed


def _eval_letrec(t, env, budget):
    """The clause cells go into `env2`, a copy of `env` that nothing writes
    after: a `Lam` clause closes over `env2` as it is, any other clause is
    forced in a copy of it, and the body runs in a copy. So no cell sees a
    let of the body or of another clause."""
    env2 = dict(env)
    for n, r in t.clauses:
        if type(r) is Lam:
            rhs = lambda e, r=r: _closure(r, e, budget)
        else:
            rhs = lambda e, r=r: _E[type(r)](r, dict(e), budget)
        env2[n.path] = _RecCell(n, rhs, env2, budget)
    b = t.body
    return _E[type(b)](b, dict(env2), budget)


_E = _Walk(
    {
        IntLit: _eval_int,
        BoolLit: _eval_bool,
        Var: _eval_var,
        Succ: _eval_succ,
        **{cls: _binary(cls.op, cls.box) for cls in _BINOPS},
        If: _eval_if,
        Lam: _eval_lam,
        App: _eval_app,
        Let: _eval_let,
        LetRec: _eval_letrec,
    }
)
