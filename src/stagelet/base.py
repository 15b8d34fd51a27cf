"""First-order syntax trees for generated code, plus a reference interpreter.

Trees are immutable; the interpreter here is deliberately independent of the
denotation builders in `semantics` so the two can cross-check each other.
"""

from __future__ import annotations

import dataclasses
import operator

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
    StepLimitExceeded, so deep trees fail as staging errors."""

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
    """Mutable step countdown; None means unlimited."""

    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = limit

    def tick(self):
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise StepLimitExceeded("step limit exceeded")


def _expect_limit(limit):
    """Raise TypeMismatch unless `limit` is an int or None (no limit)."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
        raise TypeMismatch(f"not a limit: {limit!r}")


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
    field defaults hold for it and for its subclasses. A field written as
    `dataclasses.field(...)` may give a default or a default factory and
    nothing else: its other options would be dropped, so they are refused.

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
            if isinstance(default, dataclasses.Field) and not _plain_field(default):
                raise TypeError(
                    f"record field {name}.{f} may give only a default or a "
                    "default_factory"
                )
        ns = {
            "__reduce__": _rebuild,
            **ns,
            "__slots__": tuple(fields),
            "__record_defaults__": defaults,
        }
        cls = super().__new__(mcls, name, bases, ns)
        dataclasses.dataclass(frozen=True)(cls)
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
                if isinstance(default, dataclasses.Field):
                    value[f].default = default.default
                    value[f].default_factory = default.default_factory
                else:
                    value[f].default = default
        super().__setattr__(name, value)


def _plain_field(f):
    """Whether `dataclasses.field` was given nothing but a default."""
    options = (f.init, f.repr, f.hash, f.compare, f.metadata, f.kw_only)
    return options == (True, True, None, True, {}, dataclasses.MISSING)


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
    set through its slot's descriptor, then `__post_init__` if any."""
    ns = {"MISSING": dataclasses.MISSING}
    params, body = [], []
    for f in dataclasses.fields(cls):
        n = f.name
        ns[f"set_{n}"] = getattr(cls, n).__set__
        if f.default is not dataclasses.MISSING:
            ns[f"default_{n}"] = f.default
            params.append(f"{n}=default_{n}")
        elif f.default_factory is not dataclasses.MISSING:
            ns[f"factory_{n}"] = f.default_factory
            params.append(f"{n}=MISSING")
            body.append(f"    if {n} is MISSING: {n} = factory_{n}()")
        else:
            params.append(n)
        body.append(f"    set_{n}(self, {n})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass"), ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _slot_new(cls):
    """`object.__new__` and the slot setter of record class `cls`, with which
    a caller makes `cls(v)` as `_slot_init` would, without its Python frame;
    a record with more than one field or a `__post_init__` is refused."""
    fields = dataclasses.fields(cls)
    if len(fields) != 1 or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} is not a one-field record without __post_init__")
    return object.__new__, getattr(cls, fields[0].name).__set__


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
        no Python-level `__hash__` call. Keys are exact: two `Fresh` names
        are equal exactly when their location strings are, and a `Source`
        never equals a str; a user's name class keeps that as long as its
        names never equal a str. Show's `Env`, `free_vars`, `alpha_eq` and
        insertion key by names."""
        return self

    def render(self) -> str:
        raise NotImplementedError


class Source(Name, metaclass=_Record):
    text: str

    def render(self) -> str:
        return self.text

    def __repr__(self):
        return f"Source({self.text!r})"


# A tree location is a string: the root is "", and child i of location
# `loc` is `loc + "_" + str(i)`, so making a child is one copy in C however
# deep `loc` is, and a name's text is its location with a prefix.
ROOT = ""


def location(steps) -> str:
    """The location reached from the root through child indices `steps`."""
    return "".join(f"_{i}" for i in steps)


def location_steps(loc) -> tuple:
    """The child indices, from the root, of location `loc`."""
    return tuple(int(i) for i in loc.split("_")[1:])


class Fresh(Name):
    """Generator-created name, identified by its tree location.

    `path` is the location string; `Fresh` also takes the child indices
    (`Fresh((1, 2))` is `Fresh("_1_2")`). The optional hint changes only how
    the name renders; equality and hashing are on the location alone, so a
    hinted and an unhinted reference to the same binding site stay
    interchangeable. The `path` slot overrides `Name.path`, so an
    evaluator's environment keys the name by its location string.
    """

    __slots__ = ("path", "hint", "_hash")

    def __init__(self, path, hint=None):
        self.path = path if type(path) is str else location(path)
        self.hint = hint
        self._hash = None

    def __eq__(self, other):
        return isinstance(other, Fresh) and self.path == other.path

    def __hash__(self):
        # cached in a slot: a name meets a dict at every store, alias table
        # and environment, and the slot read is cheaper than calling `hash`
        # on the path each time
        if self._hash is None:
            self._hash = hash(self.path)
        return self._hash

    def render(self) -> str:
        # `v` and the location's digits, the bare hint at the root, or the
        # hint, `_` and the digits
        if self.hint is None:
            return "v" + self.path[1:]
        return self.hint + self.path

    def __repr__(self):
        return f"Fresh({list(location_steps(self.path))})"


# ---------------------------------------------------------------------------
# Run-time values


class Value:
    __slots__ = ()


class VInt(Value, metaclass=_Record):
    value: int


class VBool(Value, metaclass=_Record):
    value: bool


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
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if not self.clauses:
            raise ValueError("letrec needs at least one clause")
        names = [n for n, _ in self.clauses]
        if len(set(names)) != len(names):
            raise ValueError("letrec clause names must be distinct")


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
    f, a = t.fun, t.arg
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
    f, a = t.fun, t.arg
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
    """Names with a free occurrence; binders scope lexically."""
    with _HostStack("free_vars"):
        return _F[type(ast)](ast)


def _fv_if(t):
    c, a, b = t.cond, t.then, t.orelse
    return _F[type(c)](c) | _F[type(a)](a) | _F[type(b)](b)


def _fv_let(t):
    r, b = t.rhs, t.body
    return _F[type(r)](r) | (_F[type(b)](b) - {t.name})


def _fv_letrec(t):
    bound = {n for n, _ in t.clauses}
    b = t.body
    acc = _F[type(b)](b)
    for _, rhs in t.clauses:
        acc |= _F[type(rhs)](rhs)
    return acc - bound


_F = _Walk(
    {
        IntLit: lambda t: set(),
        BoolLit: lambda t: set(),
        Var: lambda t: {t.name},
        Succ: lambda t: _F[type(t.arg)](t.arg),
        **dict.fromkeys(
            _BINOPS, lambda t: _F[type(t.left)](t.left) | _F[type(t.right)](t.right)
        ),
        If: _fv_if,
        Lam: lambda t: _F[type(t.body)](t.body) - {t.param},
        App: lambda t: _F[type(t.fun)](t.fun) | _F[type(t.arg)](t.arg),
        Let: _fv_let,
        LetRec: _fv_letrec,
    }
)


def alpha_eq(a: BaseAst, b: BaseAst) -> bool:
    """Equality up to consistent renaming of bound names."""
    with _HostStack("alpha_eq"):
        return _alpha(a, b, {}, {})


def _alpha(a, b, ab, ba):
    match a, b:
        case (IntLit(x), IntLit(y)) | (BoolLit(x), BoolLit(y)):
            return x == y
        case (Var(n), Var(m)):
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
        case (Lam(n, x), Lam(m, y)):
            return _alpha(x, y, {**ab, n: m}, {**ba, m: n})
        case (Let(n, r1, b1), Let(m, r2, b2)):
            return _alpha(r1, r2, ab, ba) and _alpha(
                b1, b2, {**ab, n: m}, {**ba, m: n}
            )
        case (LetRec(c1, b1), LetRec(c2, b2)):
            if len(c1) != len(c2):
                return False
            ab2, ba2 = dict(ab), dict(ba)
            for (n, _), (m, _) in zip(c1, c2):
                ab2[n] = m
                ba2[m] = n
            return all(
                _alpha(r1, r2, ab2, ba2) for (_, r1), (_, r2) in zip(c1, c2)
            ) and _alpha(b1, b2, ab2, ba2)
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

    `env` maps Name to Value; a key that is not a Name raises TypeMismatch.
    Free names not in `env` raise UnboundVariable. Inside, the environment
    is keyed by each name's `path`, so a variable read or a binding makes
    no Python-level `__hash__` call; `env` is converted once, here.
    """
    _expect_limit(step_limit)
    budget = _Budget(step_limit)
    keyed = {}
    if env:
        for name, value in dict(env).items():
            if not isinstance(name, Name):
                raise TypeMismatch(f"not a name: {name!r}")
            keyed[name.path] = value
    with _HostStack("evaluation"):
        return _E[type(ast)](ast, keyed, budget)


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


def _eval_succ(t, env, budget):
    a = t.arg
    return VInt(_as_int(_E[type(a)](a, env, budget)) + 1)


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
    its call measured 4–8% of `eval_ast`'s time on operator code. The
    result is made without the Python frame of its record's `__init__`
    (`_slot_new`)."""
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
        r = new(box)
        set_value(r, op(x, y))
        return r

    return handler


def _eval_if(t, env, budget):
    c = t.cond
    cond = _E[type(c)](c, env, budget)
    if not isinstance(cond, VBool):
        raise TypeMismatch(f"if condition must be a boolean, got {cond!r}")
    b = t.then if cond.value else t.orelse
    return _E[type(b)](b, env, budget)


def _eval_lam(t, env, budget):
    n, b = t.param.path, t.body

    def call(arg):
        budget.tick()
        return _E[type(b)](b, {**env, n: arg}, budget)

    return VFun(call)


def _eval_app(t, env, budget):
    f, a = t.fun, t.arg
    fv = _E[type(f)](f, env, budget)
    av = _E[type(a)](a, env, budget)
    if not isinstance(fv, VFun):
        raise TypeMismatch(f"cannot apply non-function {fv!r}")
    return fv.fn(av)


def _eval_let(t, env, budget):
    r, b = t.rhs, t.body
    return _E[type(b)](b, {**env, t.name.path: _E[type(r)](r, env, budget)}, budget)


def _eval_letrec(t, env, budget):
    env2 = dict(env)
    for n, rhs in t.clauses:
        env2[n.path] = _RecCell(n, lambda e, r=rhs: _E[type(r)](r, e, budget), env2, budget)
    b = t.body
    return _E[type(b)](b, env2, budget)


_E = _Walk(
    {
        IntLit: lambda t, env, budget: VInt(t.value),
        BoolLit: lambda t, env, budget: VBool(t.value),
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
