"""A show-only model of stagelet's generation, to cross-check `show`.

The model reads a generator plan (the tuples `helpers.build_code` realizes)
straight into the syntax tree `show` should build. It shares nothing with the
library's denotations, environments or binding stores: it uses only the
syntax nodes and `Fresh` names of `stagelet.base`. Each combinator occupies
the location its `codec` namesake does, so the names come out the same. A
location here is a tuple of child indices, spelled as the library's location
string only where a name is made (`_fresh`).

The bindings of a subtree are explicit: a dict from locus location to store,
a store a dict from memo key to a class `(name, rhs, aliases)` in first
request order. A letrec request's right-hand side is a thunk until its locus
forces it. A locus binds its classes by rewriting, in the tree, every alias
to its class's name.
"""

from stagelet.base import (
    Add,
    App,
    Eq,
    Fresh,
    If,
    IntLit,
    Lam,
    Let,
    LetRec,
    Mul,
    Sub,
    Succ,
    Var,
)

_ARITH = {"add": Add, "sub": Sub, "mul": Mul}


def model_show(plan):
    """The tree `show(build_code(plan, ...))` builds."""
    tree, floating = _build(plan, (), (), (), None, {})
    assert not floating, f"unplaced bindings for loci {list(floating)}"
    return tree


def _build(plan, loc, env, loci, rec, held):
    """`(tree, bindings)` of `plan` at location `loc`. `env` holds the names
    of the enclosing binders, `loci` the enclosing locus locations, innermost
    last, `rec` the innermost letrec locus with its clause plans, and `held`
    the names host slots keep, filled in left-first build order."""

    def at(suffix, p, env=env, loci=loci, rec=rec):
        return _build(p, loc + suffix, env, loci, rec, held)

    match plan:
        case ("int", k):
            return IntLit(k), {}
        case ("var", i):
            return Var(env[i]), {}
        case ("add" | "sub" | "mul", p, q):
            (a, va), (b, vb) = at((1,), p), at((2,), q)
            return _ARITH[plan[0]](a, b), _merge(va, vb)
        case ("succ", p):
            a, va = at((1,), p)
            return Succ(a), va
        case ("eqif", p, q, t, e):
            # the condition is a `ceq` at (1,), below the `cif` at loc
            (a, va), (b, vb) = at((1, 1), p), at((1, 2), q)
            (t, vt), (e, ve) = at((2,), t), at((3,), e)
            return If(Eq(a, b), t, e), _merge(_merge(_merge(va, vb), vt), ve)
        case ("lam", body, *hint):
            name = _fresh(loc, *hint)
            b, vb = at((1,), body, env=env + (name,))
            return Lam(name, b), vb
        case ("app", body, arg):
            # `capp` at loc of a `clam` at (1,)
            name = _fresh(loc + (1,))
            b, vb = at((1, 1), body, env=env + (name,))
            a, va = at((2,), arg)
            return App(Lam(name, b), a), _merge(vb, va)
        case ("let", rhs, body):
            name = _fresh(loc)
            r, vr = at((1,), rhs)
            b, vb = at((2,), body, env=env + (name,))
            return Let(name, r, b), _merge(vr, vb)
        case ("genlet", key, rhs, *up):
            name = _fresh(loc)
            r, vr = at((2,), rhs)
            target = loci[-1 - sum(up)]
            out = dict(vr)
            out[target] = _request(vr.get(target, {}), key, name, r)
            return Var(name), out
        case ("locus", body):
            b, vb = at((1,), body, loci=loci + (loc,))
            return _bind_lets(vb.get(loc, {}), b), _without(vb, loc)
        case ("rec", defs, body):
            b, vb = at((1,), body, loci=loci + (loc,), rec=(loc, defs))
            vb = _canon(vb, loc)
            return _bind_letrec(vb.get(loc, {}), b), _without(vb, loc)
        case ("ref", j):
            # `genletrec` at loc of clause j, a `clam` built at (2,) on demand
            at_rec, defs = rec
            name, param = _fresh(loc), _fresh(loc + (2,))

            def force():
                b, vb = at((2, 1), defs[j], env=(param,))
                return Lam(param, b), vb

            return Var(name), {at_rec: {j: (name, force, frozenset())}}
        case ("call", j, arg):
            (f, vf), (a, va) = at((1,), ("ref", j)), at((2,), arg)
            return App(f, a), _merge(vf, va)
        case ("keep", slot, p):
            held[slot] = env[-1]
            return at((), p)
        case ("kept", slot):
            # its binder's name wherever it is built: a variable built
            # outside its binder's body shows as a free name
            return Var(held[slot]), {}
    raise AssertionError(f"not a plan: {plan!r}")


def _fresh(loc, *hint):
    """The name made at location `loc`, a tuple of child indices here,
    spelled as the location string the library uses (`"_1_2"` for
    `(1, 2)`)."""
    return Fresh("".join(f"_{i}" for i in loc), *hint)


def _fold(old, name, rhs, aliases):
    """Class `old` absorbing a class of the same key: its name stays, the
    incoming names become aliases, and an incoming forced right-hand side
    replaces a thunk."""
    rep, kept, known = old
    if callable(kept) and not callable(rhs):
        kept = rhs
    return rep, kept, (known | aliases | {name}) - {rep}


def _request(store, key, name, rhs):
    out = dict(store)
    old = out.get(key)
    out[key] = (name, rhs, frozenset()) if old is None else _fold(old, name, rhs, frozenset())
    return out


def _merge(v1, v2):
    out = {at: dict(store) for at, store in v1.items()}
    for at, store in v2.items():
        classes = out.setdefault(at, {})
        for key, cls in store.items():
            classes[key] = _fold(classes[key], *cls) if key in classes else cls
    return out


def _without(bindings, at):
    return {l: store for l, store in bindings.items() if l != at}


def _canon(bindings, at):
    """Force the earliest thunk at `at` until none is left."""
    while True:
        store = bindings.get(at, {})
        pending = [key for key, (_, rhs, _) in store.items() if callable(rhs)]
        if not pending:
            return bindings
        name, force, aliases = store[pending[0]]
        rhs, produced = force()
        forced = {**store, pending[0]: (name, rhs, aliases)}
        bindings = _merge({**bindings, at: forced}, produced)


def _bind_lets(store, body):
    """Nested lets, first class outermost. A class's aliases are rewritten
    in every class after it and in the body, not in its own right-hand side
    or before it."""
    renaming, lets = {}, []
    for name, rhs, aliases in store.values():
        assert not callable(rhs), "a letrec request reached a let locus"
        lets.append((name, _rename(rhs, renaming)))
        renaming.update(dict.fromkeys(aliases, name))
    tree = _rename(body, renaming)
    for name, rhs in reversed(lets):
        tree = Let(name, rhs, tree)
    return tree


def _bind_letrec(store, body):
    """One letrec; every alias is rewritten in every clause and the body."""
    if not store:
        return body
    renaming = {a: name for name, _, aliases in store.values() for a in aliases}
    clauses = tuple((name, _rename(rhs, renaming)) for name, rhs, _ in store.values())
    return LetRec(clauses, _rename(body, renaming))


def _rename(tree, renaming):
    """`tree` with every variable named in `renaming` renamed. Generated
    names are unique per location, so no binder can capture a new name."""
    if not renaming:
        return tree
    match tree:
        case Var(n):
            return Var(renaming.get(n, n))
        case Succ(a):
            return Succ(_rename(a, renaming))
        case Add(a, b) | Sub(a, b) | Mul(a, b) | Eq(a, b) | App(a, b):
            return type(tree)(_rename(a, renaming), _rename(b, renaming))
        case If(c, t, e):
            return If(*(_rename(x, renaming) for x in (c, t, e)))
        case Lam(n, b):
            return Lam(n, _rename(b, renaming))
        case Let(n, r, b):
            return Let(n, _rename(r, renaming), _rename(b, renaming))
        case LetRec(clauses, b):
            return LetRec(
                tuple((n, _rename(r, renaming)) for n, r in clauses),
                _rename(b, renaming),
            )
    return tree  # a literal
