"""Shared test utilities: oracles, random program builders, tree walkers."""

import copy
import dataclasses
import pickle
import random
from types import SimpleNamespace

import pytest

from stagelet import (
    Add,
    App,
    BinOp,
    BoolLit,
    Div,
    Eq,
    Fresh,
    If,
    IntLit,
    Lam,
    Let,
    LetRec,
    Mul,
    Source,
    Sub,
    Succ,
    TypeMismatch,
    UnboundVariable,
    Var,
    VBool,
    VFun,
    VInt,
    cadd,
    capp,
    ceq,
    cif,
    cint,
    clam,
    clet,
    cmul,
    csub,
    csucc,
    genlet,
    genletrec,
    with_locus,
    with_locus_rec,
)
from stagelet import codec, insertion
from stagelet.base import (
    DEFAULT_STEP_LIMIT,
    _as_int,
    _Budget,
    _expect_limit,
    _HostStack,
    _P,
    _RecCell,
    _Record,
    _Walk,
    _not_a_tree,
)
from stagelet.codec import CodeValue
from stagelet.examples import (  # noqa: F401  (re-exported for the tests)
    ackermann,
    cack,
    cdfa,
    clgib,
    cpoly,
    cwide,
    dfa,
    gib,
    random_dfa,
    wide,
)
from stagelet.insertion import (
    DEFAULT_CANON_LIMIT,
    EMPTY_PER_LOCUS,
    BindingClass,
    CanonLimitExceeded,
    Pending,
    merge,
)


# ---------------------------------------------------------------------------
# Records


def records_of(module):
    """The record classes `module` defines."""
    return {
        c
        for c in vars(module).values()
        if isinstance(c, _Record) and c.__module__ == module.__name__
    }


def check_record(obj, fields):
    """The frozen slotted dataclass contract on record `obj`, whose fields
    are named `fields` in order."""
    cls = type(obj)
    assert not hasattr(obj, "__dict__")
    assert cls.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(obj)] == fields
    assert list(cls.__dataclass_fields__) == fields
    assert cls.__match_args__ == tuple(fields)
    values = [getattr(obj, f) for f in fields]
    for f, v in zip(fields, values):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f, v)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f)
        assert getattr(obj, f) is v
    twin = cls(*values)
    assert twin == obj and not twin != obj
    try:
        hash(obj)
    except TypeError:  # a field holds a dict
        pass
    else:
        assert hash(twin) == hash(obj)
    for same in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(same) is cls and same == obj


# ---------------------------------------------------------------------------
# Locations, spelled here apart from the library


def location_of(steps):
    """The location string reached from the root through child indices
    `steps`: `"_1_2"` for `(1, 2)`, `""` for `()`."""
    return "".join(f"_{i}" for i in steps)


def bracketed(steps):
    """Child indices `steps` as messages render a location: `[1,2]`."""
    return "[" + ",".join(map(str, steps)) + "]"


# ---------------------------------------------------------------------------
# Scaling generators: the families and their host references are
# `stagelet.examples`'s, imported above


def poly_coeffs(n):
    """The n coefficients `cpoly` is pinned with (the golden digests):
    digits of alternating sign, lowest degree first."""
    return [(-1) ** i * (i % 10) for i in range(n)]


def clet_sum_chain(n):
    """let x_n = n in x_n + (let x_(n-1) = n - 1 in ... + 0), n lets deep,
    each in the right operand of the sum before it; its value is
    n (n + 1) / 2."""
    if n == 0:
        return cint(0)
    return clet(cint(n), lambda v: cadd(v, clet_sum_chain(n - 1)))


def clet_chain(depth):
    """let v = 1 in let v2 = v + 1 in ..., `depth` lets each nested in the
    body of the one before, whose value is depth."""

    def step(i, prev):
        if i == depth:
            return prev
        return clet(cadd(prev, cint(1)), lambda v: step(i + 1, v))

    return clet(cint(1), lambda v: step(1, v))


# ---------------------------------------------------------------------------
# Tree walkers


def subtrees(tree):
    yield tree
    match tree:
        case Succ(a):
            yield from subtrees(a)
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Eq(a, b) | App(a, b):
            yield from subtrees(a)
            yield from subtrees(b)
        case If(c, t, e):
            yield from subtrees(c)
            yield from subtrees(t)
            yield from subtrees(e)
        case Lam(_, b):
            yield from subtrees(b)
        case Let(_, r, b):
            yield from subtrees(r)
            yield from subtrees(b)
        case LetRec(clauses, b):
            for _, r in clauses:
                yield from subtrees(r)
            yield from subtrees(b)


def binders(tree):
    """All names bound anywhere in the tree, as a list (repeats included)."""
    found = []
    for t in subtrees(tree):
        match t:
            case Lam(n, _):
                found.append(n)
            case Let(n, _, _):
                found.append(n)
            case LetRec(clauses, _):
                found.extend(n for n, _ in clauses)
    return found


def count_lets(tree):
    return sum(isinstance(t, Let) for t in subtrees(tree))


def scan_occurrences(tree, bound=()):
    """Every Var occurrence paired with the binders on its path to the root."""
    match tree:
        case Var(n):
            return [(n, bound)]
        case IntLit() | BoolLit():
            return []
        case Succ(a):
            return scan_occurrences(a, bound)
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Div(a, b) | Eq(a, b) | App(a, b):
            return scan_occurrences(a, bound) + scan_occurrences(b, bound)
        case If(c, t, e):
            return (
                scan_occurrences(c, bound)
                + scan_occurrences(t, bound)
                + scan_occurrences(e, bound)
            )
        case Lam(n, b):
            return scan_occurrences(b, bound + (n,))
        case Let(n, r, b):
            return scan_occurrences(r, bound) + scan_occurrences(b, bound + (n,))
        case LetRec(clauses, b):
            inner = bound + tuple(n for n, _ in clauses)
            occ = []
            for _, r in clauses:
                occ += scan_occurrences(r, inner)
            return occ + scan_occurrences(b, inner)
    raise AssertionError(tree)


def bruteforce_free(tree):
    return {n for n, bound in scan_occurrences(tree) if n not in bound}


# ---------------------------------------------------------------------------
# Copying models of the check walks: `eval_ast` with a fresh environment dict
# at every let and call, `free_vars` as a union of one set per node, and
# `alpha_eq` with renaming maps copied at every binder, as each was before it
# bound in place or filled one set. The walks in `base` must agree with them
# exactly.


def model_eval_ast(ast, env=None, step_limit=DEFAULT_STEP_LIMIT):
    """`eval_ast` with copying environments: a let evaluates its body in
    `{**env, name: value}`, a lambda closes over the dict it was made in,
    and a call evaluates the body in that dict plus its parameter."""
    _expect_limit(step_limit)
    budget = _Budget(step_limit)
    keyed = {name.path: value for name, value in dict(env or {}).items()}
    with _HostStack("evaluation"):
        return _ME[type(ast)](ast, keyed, budget)


def _model_var(t, env, budget):
    try:
        v = env[t.name.path]
    except KeyError:
        raise UnboundVariable(f"unbound variable {t.name.render()}") from None
    return v.force() if isinstance(v, _RecCell) else v


def _model_binary(op, box):
    def handler(t, env, budget):
        x = _as_int(_ME[type(t.left)](t.left, env, budget))
        return box(op(x, _as_int(_ME[type(t.right)](t.right, env, budget))))

    return handler


def _model_if(t, env, budget):
    cond = _ME[type(t.cond)](t.cond, env, budget)
    if not isinstance(cond, VBool):
        raise TypeMismatch(f"if condition must be a boolean, got {cond!r}")
    b = t.then if cond.value else t.orelse
    return _ME[type(b)](b, env, budget)


def _model_lam(t, env, budget):
    n, b = t.param.path, t.body

    def call(arg):
        budget.tick()
        return _ME[type(b)](b, {**env, n: arg}, budget)

    return VFun(call)


def _model_app(t, env, budget):
    fv = _ME[type(t.fun)](t.fun, env, budget)
    av = _ME[type(t.arg)](t.arg, env, budget)
    if not isinstance(fv, VFun):
        raise TypeMismatch(f"cannot apply non-function {fv!r}")
    return fv.fn(av)


def _model_let(t, env, budget):
    r, b = t.rhs, t.body
    return _ME[type(b)](b, {**env, t.name.path: _ME[type(r)](r, env, budget)}, budget)


def _model_letrec(t, env, budget):
    env2 = dict(env)
    for n, rhs in t.clauses:
        env2[n.path] = _RecCell(n, lambda e, r=rhs: _ME[type(r)](r, e, budget), env2, budget)
    return _ME[type(t.body)](t.body, env2, budget)


_ME = _Walk(
    {
        IntLit: lambda t, env, budget: VInt(t.value),
        BoolLit: lambda t, env, budget: VBool(t.value),
        Var: _model_var,
        Succ: lambda t, env, budget: VInt(_as_int(_ME[type(t.arg)](t.arg, env, budget)) + 1),
        **{cls: _model_binary(cls.op, cls.box) for cls in (Add, Sub, Mul, Div, Eq)},
        If: _model_if,
        Lam: _model_lam,
        App: _model_app,
        Let: _model_let,
        LetRec: _model_letrec,
    }
)


def model_free_vars(ast):
    """`free_vars` as a union of the children's sets at every node."""
    with _HostStack("free_vars"):
        return _MF[type(ast)](ast)


def _model_fv_letrec(t):
    acc = _MF[type(t.body)](t.body)
    for _, rhs in t.clauses:
        acc |= _MF[type(rhs)](rhs)
    return acc - {n for n, _ in t.clauses}


_MF = _Walk(
    {
        IntLit: lambda t: set(),
        BoolLit: lambda t: set(),
        Var: lambda t: {t.name},
        Succ: lambda t: _MF[type(t.arg)](t.arg),
        **dict.fromkeys(
            (Add, Sub, Mul, Div, Eq),
            lambda t: _MF[type(t.left)](t.left) | _MF[type(t.right)](t.right),
        ),
        If: lambda t: (
            _MF[type(t.cond)](t.cond) | _MF[type(t.then)](t.then) | _MF[type(t.orelse)](t.orelse)
        ),
        Lam: lambda t: _MF[type(t.body)](t.body) - {t.param},
        App: lambda t: _MF[type(t.fun)](t.fun) | _MF[type(t.arg)](t.arg),
        Let: lambda t: _MF[type(t.rhs)](t.rhs) | (_MF[type(t.body)](t.body) - {t.name}),
        LetRec: _model_fv_letrec,
    }
)


def model_alpha_eq(a, b):
    """`alpha_eq` with copied renaming maps: a binder compares what it
    scopes under `{**ab, n: m}` and `{**ba, m: n}`."""
    with _HostStack("alpha_eq"):
        return _model_alpha(a, b, {}, {})


def _model_alpha(a, b, ab, ba):
    match a, b:
        case (IntLit(x), IntLit(y)) | (BoolLit(x), BoolLit(y)):
            return x == y
        case (Var(n), Var(m)):
            n, m = n.path, m.path
            if n in ab or m in ba:
                return ab.get(n) == m and ba.get(m) == n
            return n == m
        case (Succ(x), Succ(y)):
            return _model_alpha(x, y, ab, ba)
        case (BinOp(x1, x2), BinOp(y1, y2)) | (App(x1, x2), App(y1, y2)) if (
            type(a) is type(b) and _P[type(a)] is not _not_a_tree
        ):
            return _model_alpha(x1, y1, ab, ba) and _model_alpha(x2, y2, ab, ba)
        case (If(c1, t1, e1), If(c2, t2, e2)):
            return (
                _model_alpha(c1, c2, ab, ba)
                and _model_alpha(t1, t2, ab, ba)
                and _model_alpha(e1, e2, ab, ba)
            )
        case (Lam(n, x), Lam(m, y)):
            n, m = n.path, m.path
            return _model_alpha(x, y, {**ab, n: m}, {**ba, m: n})
        case (Let(n, r1, b1), Let(m, r2, b2)):
            n, m = n.path, m.path
            return _model_alpha(r1, r2, ab, ba) and _model_alpha(
                b1, b2, {**ab, n: m}, {**ba, m: n}
            )
        case (LetRec(c1, b1), LetRec(c2, b2)):
            if len(c1) != len(c2):
                return False
            ab2, ba2 = dict(ab), dict(ba)
            for (n, _), (m, _) in zip(c1, c2):
                ab2[n.path] = m.path
                ba2[m.path] = n.path
            return all(
                _model_alpha(r1, r2, ab2, ba2) for (_, r1), (_, r2) in zip(c1, c2)
            ) and _model_alpha(b1, b2, ab2, ba2)
    for t in (a, b):
        if _P[type(t)] is _not_a_tree:
            _not_a_tree(t)
    return False


# ---------------------------------------------------------------------------
# The rescanning `canon`, as it was before it walked one cursor: each round
# scans the whole store for its earliest pending key and copies the store and
# the map of loci. `insertion.canon` must agree with it exactly. It calls
# `merge` through the module, as the library does, so a patch of
# `insertion.merge` counts its calls too.


def model_canon(bindings, loc, round_limit=DEFAULT_CANON_LIMIT):
    current = bindings
    rounds = 0
    while True:
        store = current.get(loc, EMPTY_PER_LOCUS)
        pending_keys = [k for k, cls in store.items() if isinstance(cls.rhs, Pending)]
        if not pending_keys:
            return current
        if round_limit is not None and rounds >= round_limit:
            raise CanonLimitExceeded(loc, pending_keys)
        key = pending_keys[0]
        cls = store[key]
        den, produced = cls.rhs.force()
        classes = dict(store)
        classes[key] = BindingClass(cls.name, den, cls.log)
        current = insertion.merge({**current, loc: classes}, produced)
        rounds += 1


# ---------------------------------------------------------------------------
# Random object-language terms (possibly open, possibly ill-typed)


def random_term(rng, depth, scope=(), counter=None, pool=None):
    """A random term whose variables name binders in `scope` or around
    them. Every binder gets a name of its own, unless `pool` is given: then
    binders draw their names from `pool`, so an inner one may shadow an
    outer one, a variable may name any name of `pool`, bound or free, and
    three more cases make a redex `App(Lam, arg)`, a division and an
    equality test."""
    counter = counter if counter is not None else [0]
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        names = scope if pool is None else scope + tuple(pool)
        if names and roll < 0.5:
            return Var(rng.choice(names))
        if roll < 0.75:
            return IntLit(rng.randrange(10))
        return BoolLit(rng.random() < 0.5)

    def sub(extra=()):
        return random_term(rng, depth - 1, scope + extra, counter, pool)

    def fresh_name():
        if pool is not None:
            return rng.choice(pool)
        counter[0] += 1
        return Source(f"n{counter[0]}")

    match rng.randrange(8 if pool is None else 11):
        case 0:
            return Add(sub(), sub())
        case 1:
            return Mul(sub(), sub())
        case 2:
            return Succ(sub())
        case 3:
            return If(sub(), sub(), sub())
        case 4:
            n = fresh_name()
            return Lam(n, sub((n,)))
        case 5:
            return App(sub(), sub())
        case 6:
            n = fresh_name()
            return Let(n, sub(), sub((n,)))
        case 7:
            # clause names are distinct
            names = dict.fromkeys(fresh_name() for _ in range(rng.randrange(1, 3)))
            bound = tuple(names)
            clauses = tuple((n, sub(bound)) for n in names)
            return LetRec(clauses, sub(bound))
        case 8:
            n = fresh_name()
            return App(Lam(n, sub((n,))), sub())
        case 9:
            return Div(sub(), sub())
        case 10:
            return Eq(sub(), sub())


def rename_bound(term, counter=None):
    """A copy with every bound name replaced by a globally fresh one."""
    counter = counter if counter is not None else [0]

    def fresh():
        counter[0] += 1
        return Source(f"r{counter[0]}")

    def go(t, ren):
        match t:
            case Var(n):
                return Var(ren.get(n, n))
            case IntLit() | BoolLit():
                return t
            case Succ(a):
                return Succ(go(a, ren))
            case Add(a, b):
                return Add(go(a, ren), go(b, ren))
            case Sub(a, b):
                return Sub(go(a, ren), go(b, ren))
            case Mul(a, b):
                return Mul(go(a, ren), go(b, ren))
            case Div(a, b):
                return Div(go(a, ren), go(b, ren))
            case Eq(a, b):
                return Eq(go(a, ren), go(b, ren))
            case App(a, b):
                return App(go(a, ren), go(b, ren))
            case If(c, th, e):
                return If(go(c, ren), go(th, ren), go(e, ren))
            case Lam(n, b):
                n2 = fresh()
                return Lam(n2, go(b, {**ren, n: n2}))
            case Let(n, r, b):
                n2 = fresh()
                return Let(n2, go(r, ren), go(b, {**ren, n: n2}))
            case LetRec(clauses, b):
                ren2 = dict(ren)
                pairs = []
                for n, _ in clauses:
                    n2 = fresh()
                    ren2[n] = n2
                    pairs.append(n2)
                return LetRec(
                    tuple(
                        (n2, go(r, ren2)) for n2, (_, r) in zip(pairs, clauses)
                    ),
                    go(b, ren2),
                )
        raise AssertionError(t)

    return go(term, {})


# ---------------------------------------------------------------------------
# Random integer-typed generator plans, realized against pluggable builders.
# All randomness happens at plan time so two realizations of one plan build
# the same structure even when binder callbacks fire in different orders.


def random_plan(rng, depth, nvars=0, in_locus=False, allow_locus=False):
    if depth <= 0:
        if nvars and rng.random() < 0.5:
            return ("var", rng.randrange(nvars))
        return ("int", rng.randrange(10))
    kinds = ["int", "var", "add", "sub", "mul", "succ", "eqif", "app", "let"]
    if in_locus:
        kinds += ["genlet", "genlet"]
    if allow_locus:
        kinds.append("locus")
    kind = rng.choice(kinds)
    if kind == "var" and not nvars:
        kind = "int"
    d = depth - 1

    def sub(extra=0, inside=in_locus):
        return random_plan(rng, d, nvars + extra, inside, allow_locus)

    match kind:
        case "int":
            return ("int", rng.randrange(10))
        case "var":
            return ("var", rng.randrange(nvars))
        case "add" | "sub" | "mul":
            return (kind, sub(), sub())
        case "succ":
            return ("succ", sub())
        case "eqif":
            return ("eqif", sub(), sub(), sub(), sub())
        case "app":
            return ("app", sub(extra=1), sub())
        case "let":
            return ("let", sub(), sub(extra=1))
        case "genlet":
            return ("genlet", rng.randrange(4), sub())
        case "locus":
            return ("locus", random_plan(rng, d, nvars, True, allow_locus))


def c09_plans():
    """The 100 plans of acceptance criterion 9 (order independence): every
    other one opens a locus, the rest insert nothing."""
    rng = random.Random(909)
    plans = []
    for i in range(100):
        depth = rng.randrange(2, 6)
        if i % 2 == 0:
            plans.append(
                ("locus", random_plan(rng, depth, in_locus=True, allow_locus=True))
            )
        else:
            plans.append(random_plan(rng, depth))
    return plans


def c10_plans():
    """The 100 plans of acceptance criterion 10 (run/show coherence)."""
    rng = random.Random(1010)
    return [random_plan(rng, rng.randrange(1, 6)) for _ in range(100)]


def build_code(plan, b, env=(), loci=(), rec=None, held=None):
    """Realize a plan as a CodeValue using builder namespace `b`.

    Besides `random_plan`'s forms: `("genlet", key, rhs, up)` requests at the
    locus `up` loci out from the innermost; `("lam", body)` and
    `("lam", body, hint)` are a function; `("rec", defs, body)` opens a letrec
    locus whose clause `j` is the one-parameter function of body plan
    `defs[j]`; `("ref", j)` requests clause `j` there and `("call", j, arg)`
    applies it. `loci` are the enclosing loci, innermost last, and `rec` is
    the innermost letrec locus with its clause plans.

    Host state: `("keep", slot, p)` puts the innermost bound variable into
    the dict `held` under `slot` when it is reached, then realizes `p`;
    `("kept", slot)` is the variable `held[slot]` holds when it is built,
    wherever that is (`_Held`)."""
    if held is None:
        held = {}

    def sub(p, env=env):
        return build_code(p, b, env, loci, rec, held)

    match plan:
        case ("int", k):
            return cint(k)
        case ("var", i):
            return env[i]
        case ("add", p, q):
            return b.add(sub(p), sub(q))
        case ("sub", p, q):
            return b.sub(sub(p), sub(q))
        case ("mul", p, q):
            return b.mul(sub(p), sub(q))
        case ("succ", p):
            return csucc(sub(p))
        case ("eqif", p, q, t, e):
            return b.if_(b.eq(sub(p), sub(q)), sub(t), sub(e))
        case ("lam", body, *hint):
            return clam(lambda v: sub(body, env + (v,)), *hint)
        case ("app", body, arg):
            return b.app(clam(lambda v: sub(body, env + (v,))), sub(arg))
        case ("let", rhs, body):
            return b.let_(sub(rhs), lambda v: sub(body, env + (v,)))
        case ("genlet", key, rhs, *up):
            return genlet(loci[-1 - sum(up)], key, sub(rhs))
        case ("locus", body):
            return with_locus(lambda l: build_code(body, b, env, loci + (l,), rec, held))
        case ("rec", defs, body):
            return with_locus_rec(
                lambda l: build_code(body, b, env, loci + (l,), (l, defs), held)
            )
        case ("ref", j):
            l, defs = rec
            return genletrec(l, j, clam(lambda n: sub(defs[j], (n,))))
        case ("call", j, arg):
            return b.app(sub(("ref", j)), sub(arg))
        case ("keep", slot, p):
            held[slot] = env[-1]
            return sub(p)
        case ("kept", slot):
            return _Held(held, slot)
    raise AssertionError(plan)


class _Held(CodeValue):
    """The variable host slot `slot` of `held` holds, looked up when this is
    built, as an operand too: a variable carried through host state."""

    __slots__ = ("held", "slot")

    def __init__(self, held, slot):
        self.held, self.slot = held, slot

    def _build(self, ctx, loc):
        return self.held[self.slot]._build(ctx, loc)

    def _operand(self, ctx, loc):
        return self.held[self.slot]._operand(ctx, loc)


def build_den(plan, sem, env=()):
    """Realize a genlet-free plan directly with the mk builders of `sem`."""

    def rec(p, env=env):
        return build_den(p, sem, env)

    match plan:
        case ("int", k):
            return sem.mk_int(k)
        case ("var", i):
            return sem.mk_var(env[i])
        case ("add", p, q):
            return sem.mk_binop(Add, rec(p), rec(q))
        case ("sub", p, q):
            return sem.mk_binop(Sub, rec(p), rec(q))
        case ("mul", p, q):
            return sem.mk_binop(Mul, rec(p), rec(q))
        case ("succ", p):
            return sem.mk_succ(rec(p))
        case ("eqif", p, q, t, e):
            return sem.mk_if(sem.mk_binop(Eq, rec(p), rec(q)), rec(t), rec(e))
        case ("app", body, arg):
            n = Source(f"p{len(env)}")
            return sem.mk_app(
                sem.mk_lam(n, build_den(body, sem, env + (n,))), rec(arg)
            )
        case ("let", rhs, body):
            n = Source(f"p{len(env)}")
            return sem.mk_let(n, rec(rhs), build_den(body, sem, env + (n,)))
    raise AssertionError(plan)


# ---------------------------------------------------------------------------
# Builder namespaces: the shipped combinators, and mirrored ones that build
# the same nodes but evaluate children right before left.


def _mirror_binary(make):
    def op(a, b):
        def build(ctx, loc):
            d2, v2 = b(ctx, loc + "_2")
            d1, v1 = a(ctx, loc + "_1")
            return make(ctx.sem, d1, d2), merge(v1, v2)

        return CodeValue(build)

    return op


def _mirror_if(c, t, e):
    def build(ctx, loc):
        de, ve = e(ctx, loc + "_3")
        dt, vt = t(ctx, loc + "_2")
        dc, vc = c(ctx, loc + "_1")
        return ctx.sem.mk_if(dc, dt, de), merge(merge(vc, vt), ve)

    return CodeValue(build)


def _mirror_clet(rhs, body, hint=None):
    def build(ctx, loc):
        # the library's variable, so that it makes the library's scope test
        name = Fresh(loc, hint)
        d2, v2 = body(codec._Var(name, loc + "_2"))(ctx, loc + "_2")
        d1, v1 = rhs(ctx, loc + "_1")
        return ctx.sem.mk_let(name, d1, d2), merge(v1, v2)

    return CodeValue(build)


LEFT_FIRST = SimpleNamespace(
    add=cadd, sub=csub, mul=cmul, eq=ceq, if_=cif, app=capp, let_=clet
)

RIGHT_FIRST = SimpleNamespace(
    add=_mirror_binary(lambda s, d1, d2: s.mk_binop(Add, d1, d2)),
    sub=_mirror_binary(lambda s, d1, d2: s.mk_binop(Sub, d1, d2)),
    mul=_mirror_binary(lambda s, d1, d2: s.mk_binop(Mul, d1, d2)),
    eq=_mirror_binary(lambda s, d1, d2: s.mk_binop(Eq, d1, d2)),
    app=_mirror_binary(lambda s, d1, d2: s.mk_app(d1, d2)),
    if_=_mirror_if,
    let_=_mirror_clet,
)


# ---------------------------------------------------------------------------
# Minimal s-expression reader for CLI round-trip checks


def parse_sexp(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while tokens[pos] != ")":
                items.append(parse())
            pos += 1
            return items
        return tok

    result = parse()
    assert pos == len(tokens)
    return result


def serialize_sexp(node):
    if isinstance(node, list):
        return "(" + " ".join(serialize_sexp(x) for x in node) + ")"
    return node


_SEXP_BINOPS = {cls.tag: cls for cls in (Add, Sub, Mul, Div, Eq)}


def read_tree(node):
    """The tree an s-expression (as `parse_sexp` returns it) writes, every
    name read back as the `Source` of its text."""
    match node:
        case ["int", n]:
            return IntLit(int(n))
        case ["bool", b]:
            return BoolLit(b == "true")
        case ["var", n]:
            return Var(Source(n))
        case ["succ", a]:
            return Succ(read_tree(a))
        case [tag, a, b] if tag in _SEXP_BINOPS:
            return _SEXP_BINOPS[tag](read_tree(a), read_tree(b))
        case ["if", c, t, e]:
            return If(read_tree(c), read_tree(t), read_tree(e))
        case ["lam", n, b]:
            return Lam(Source(n), read_tree(b))
        case ["app", f, a]:
            return App(read_tree(f), read_tree(a))
        case ["let", n, r, b]:
            return Let(Source(n), read_tree(r), read_tree(b))
        case ["letrec", clauses, b]:
            return LetRec(
                tuple((Source(n), read_tree(r)) for n, r in clauses), read_tree(b)
            )
    raise AssertionError(node)
