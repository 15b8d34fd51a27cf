"""First-order syntax trees for generated code, plus a reference interpreter.

Trees are immutable; the interpreter here is deliberately independent of the
denotation builders in `semantics` so the two can cross-check each other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# Names


class Name:
    """A variable name: written in source (Source) or generated (Fresh)."""

    __slots__ = ()

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Source(Name):
    text: str

    def render(self) -> str:
        return self.text

    def __repr__(self):
        return f"Source({self.text!r})"


class Fresh(Name):
    """Generator-created name, identified by its tree location.

    The optional hint changes only how the name renders; equality and hashing
    are on the location alone, so a hinted and an unhinted reference to the
    same binding site stay interchangeable.
    """

    __slots__ = ("path", "hint", "_hash")

    def __init__(self, path, hint=None):
        self.path = tuple(path)
        self.hint = hint
        self._hash = None

    def __eq__(self, other):
        return isinstance(other, Fresh) and self.path == other.path

    def __hash__(self):
        # a path can run to hundreds of elements: hash it once, on first use
        if self._hash is None:
            self._hash = hash(("fresh", self.path))
        return self._hash

    def render(self) -> str:
        joined = "_".join(str(i) for i in self.path)
        if self.hint is None:
            return "v" + joined
        return self.hint if not joined else f"{self.hint}_{joined}"

    def __repr__(self):
        return f"Fresh({list(self.path)})"


# ---------------------------------------------------------------------------
# Syntax


class BaseAst:
    __slots__ = ()


@dataclass(frozen=True)
class IntLit(BaseAst):
    value: int


@dataclass(frozen=True)
class BoolLit(BaseAst):
    value: bool


@dataclass(frozen=True)
class Var(BaseAst):
    name: Name


@dataclass(frozen=True)
class Succ(BaseAst):
    arg: BaseAst


@dataclass(frozen=True)
class BinOp(BaseAst):
    """A binary operator; each subclass names its infix `symbol` and its
    s-expression `tag`."""

    left: BaseAst
    right: BaseAst


@dataclass(frozen=True)
class Add(BinOp):
    symbol, tag = "+", "add"


@dataclass(frozen=True)
class Sub(BinOp):
    symbol, tag = "-", "sub"


@dataclass(frozen=True)
class Mul(BinOp):
    symbol, tag = "*", "mul"


@dataclass(frozen=True)
class Div(BinOp):
    """Integer division, truncating toward zero."""

    symbol, tag = "/", "div"


@dataclass(frozen=True)
class Eq(BinOp):
    symbol, tag = "=", "eq"


@dataclass(frozen=True)
class If(BaseAst):
    cond: BaseAst
    then: BaseAst
    orelse: BaseAst


@dataclass(frozen=True)
class Lam(BaseAst):
    param: Name
    body: BaseAst


@dataclass(frozen=True)
class App(BaseAst):
    fun: BaseAst
    arg: BaseAst


@dataclass(frozen=True)
class Let(BaseAst):
    name: Name
    rhs: BaseAst
    body: BaseAst


@dataclass(frozen=True)
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
# Run-time values


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class VInt(Value):
    value: int


@dataclass(frozen=True)
class VBool(Value):
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
# Rendering


def pretty(ast: BaseAst) -> str:
    """Deterministic fully-parenthesized rendering."""
    with _HostStack("pretty"):
        return _pretty(ast)


def _pretty(ast):
    match ast:
        case IntLit(i):
            return str(i)
        case BoolLit(b):
            return "true" if b else "false"
        case Var(n):
            return n.render()
        case Succ(a):
            return f"(succ {_pretty(a)})"
        case BinOp(a, b):
            return f"({_pretty(a)} {ast.symbol} {_pretty(b)})"
        case If(c, t, e):
            return f"(if {_pretty(c)} then {_pretty(t)} else {_pretty(e)})"
        case Lam(n, b):
            return f"(fun {n.render()} -> {_pretty(b)})"
        case App(f, a):
            return f"({_pretty(f)} {_pretty(a)})"
        case Let(n, r, b):
            return f"(let {n.render()} = {_pretty(r)} in {_pretty(b)})"
        case LetRec(clauses, b):
            decls = " and ".join(f"{n.render()} = {_pretty(r)}" for n, r in clauses)
            return f"(let rec {decls} in {_pretty(b)})"
    raise TypeMismatch(f"not a syntax tree: {ast!r}")


def to_sexp(ast: BaseAst) -> str:
    """Canonical machine-readable prefix form; single-space separated."""
    with _HostStack("to_sexp"):
        return _to_sexp(ast)


def _to_sexp(ast):
    match ast:
        case IntLit(i):
            return f"(int {i})"
        case BoolLit(b):
            return f"(bool {'true' if b else 'false'})"
        case Var(n):
            return f"(var {n.render()})"
        case Succ(a):
            return f"(succ {_to_sexp(a)})"
        case BinOp(a, b):
            return f"({ast.tag} {_to_sexp(a)} {_to_sexp(b)})"
        case If(c, t, e):
            return f"(if {_to_sexp(c)} {_to_sexp(t)} {_to_sexp(e)})"
        case Lam(n, b):
            return f"(lam {n.render()} {_to_sexp(b)})"
        case App(f, a):
            return f"(app {_to_sexp(f)} {_to_sexp(a)})"
        case Let(n, r, b):
            return f"(let {n.render()} {_to_sexp(r)} {_to_sexp(b)})"
        case LetRec(clauses, b):
            decls = " ".join(f"({n.render()} {_to_sexp(r)})" for n, r in clauses)
            return f"(letrec ({decls}) {_to_sexp(b)})"
    raise TypeMismatch(f"not a syntax tree: {ast!r}")


# ---------------------------------------------------------------------------
# Analysis


def free_vars(ast: BaseAst) -> set:
    """Names with a free occurrence; binders scope lexically."""
    with _HostStack("free_vars"):
        return _free_vars(ast)


def _free_vars(ast):
    match ast:
        case IntLit() | BoolLit():
            return set()
        case Var(n):
            return {n}
        case Succ(a):
            return _free_vars(a)
        case BinOp(a, b) | App(a, b):
            return _free_vars(a) | _free_vars(b)
        case If(c, t, e):
            return _free_vars(c) | _free_vars(t) | _free_vars(e)
        case Lam(n, b):
            return _free_vars(b) - {n}
        case Let(n, r, b):
            return _free_vars(r) | (_free_vars(b) - {n})
        case LetRec(clauses, b):
            bound = {n for n, _ in clauses}
            acc = _free_vars(b)
            for _, rhs in clauses:
                acc |= _free_vars(rhs)
            return acc - bound
    raise TypeMismatch(f"not a syntax tree: {ast!r}")


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
        case (BinOp(x1, x2), BinOp(y1, y2)) | (App(x1, x2), App(y1, y2)):
            return (
                type(a) is type(b)
                and _alpha(x1, y1, ab, ba)
                and _alpha(x2, y2, ab, ba)
            )
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
    return False


# ---------------------------------------------------------------------------
# Reference interpreter


class _RecCell:
    """Delayed letrec binding, shared by `eval_ast` and the run semantics.

    `rhs` maps the letrec environment (set in `env` once every clause has
    its cell) to the clause's value. Forcing while busy means sure
    divergence.
    """

    __slots__ = ("name", "rhs", "env", "budget", "busy", "done", "value")

    def __init__(self, name, rhs, budget):
        self.name = name
        self.rhs = rhs
        self.env = None
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

    `env` maps Name to Value. Free names not in `env` raise UnboundVariable.
    """
    budget = _Budget(step_limit)
    with _HostStack("evaluation"):
        return _eval(ast, dict(env) if env else {}, budget)


def _as_int(v):
    if not isinstance(v, VInt):
        raise TypeMismatch(f"expected an integer, got {v!r}")
    return v.value


def _trunc_div(a, b):
    if b == 0:
        raise TypeMismatch("division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: _trunc_div}


def _eval(ast, env, budget):
    match ast:
        case IntLit(i):
            return VInt(i)
        case BoolLit(b):
            return VBool(b)
        case Var(n):
            if n not in env:
                raise UnboundVariable(f"unbound variable {n.render()}")
            v = env[n]
            return v.force() if isinstance(v, _RecCell) else v
        case Succ(a):
            return VInt(_as_int(_eval(a, env, budget)) + 1)
        case Eq(a, b):
            return VBool(_as_int(_eval(a, env, budget)) == _as_int(_eval(b, env, budget)))
        case BinOp(a, b):
            op = _ARITH[type(ast)]
            return VInt(op(_as_int(_eval(a, env, budget)), _as_int(_eval(b, env, budget))))
        case If(c, t, e):
            cond = _eval(c, env, budget)
            if not isinstance(cond, VBool):
                raise TypeMismatch(f"if condition must be a boolean, got {cond!r}")
            return _eval(t if cond.value else e, env, budget)
        case Lam(n, b):

            def call(arg, _env=env, _n=n, _b=b):
                budget.tick()
                return _eval(_b, {**_env, _n: arg}, budget)

            return VFun(call)
        case App(f, a):
            fv = _eval(f, env, budget)
            av = _eval(a, env, budget)
            if not isinstance(fv, VFun):
                raise TypeMismatch(f"cannot apply non-function {fv!r}")
            return fv.fn(av)
        case Let(n, r, b):
            return _eval(b, {**env, n: _eval(r, env, budget)}, budget)
        case LetRec(clauses, b):
            env2 = dict(env)
            cells = []
            for n, rhs in clauses:
                cell = _RecCell(n, lambda e, r=rhs: _eval(r, e, budget), budget)
                env2[n] = cell
                cells.append(cell)
            for cell in cells:
                cell.env = env2
            return _eval(b, env2, budget)
    raise TypeMismatch(f"not a syntax tree: {ast!r}")
