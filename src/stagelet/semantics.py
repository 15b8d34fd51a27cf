"""Environment-passing denotation builders for the object language.

A denotation is a pure function from an environment to a semantic value. Two
builder families share one shape: RunSemantics produces denotations that
evaluate to run-time values, ShowSemantics produces denotations that build
syntax trees. Each keeps its own environment. Run's is a plain dict from
name to value (or the `_RecCell` of a letrec clause), immutable by
convention: a binder copies it once and binds its name, and the aliases of
its binding class to the same value, in that copy. Show's is an `Env` that
holds only alias redirects. Binary operators evaluate the left operand first;
final results must not depend on that order.
"""

from __future__ import annotations

from .base import (
    LetRec,
    Lam,
    Let,
    Succ,
    If,
    App,
    IntLit,
    BoolLit,
    Var,
    VBool,
    VFun,
    VInt,
    TypeMismatch,
    UnboundVariable,
    _BINOPS,
    _Budget,
    _RecCell,
    _Walk,
    _as_int,
    _not_a_tree,
)

MISSING = object()


class _Redirect:
    """Alias entry: lookups of the alias resolve to the target name."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def __repr__(self):
        return f"_Redirect({self.target!r})"


class Env:
    """Immutable finite map from names to semantic values; Show uses it as
    its alias map, Run not at all.

    Extension and redirection return new maps; the original is unchanged.
    `extend` copies the map once. `redirect` copies nothing: it returns a
    lazy node holding one entry over its parent, and the first operation
    that reads the node flattens its whole run of lazy ancestors into one
    dict, cached on the node. So n redirects followed by a read cost one
    copy, and lookups stay one dict probe per hop.
    """

    __slots__ = ("_entries", "_parent", "_key", "_value")

    def __init__(self):
        self._entries = {}
        self._parent = self._key = self._value = None

    @classmethod
    def _of(cls, entries):
        """An env over `entries`, which the caller hands over uncopied."""
        env = object.__new__(cls)
        env._entries = entries
        env._parent = env._key = env._value = None
        return env

    def _flat(self):
        """This env's entries as one dict, flattened and cached on first use."""
        entries = self._entries
        if entries is not None:
            return entries
        run = []
        node = self
        while node._entries is None:
            run.append(node)
            node = node._parent
        entries = dict(node._entries)
        for lazy in reversed(run):
            entries[lazy._key] = lazy._value
        self._entries = entries
        self._parent = self._key = self._value = None
        return entries

    def extend(self, name, value) -> "Env":
        new = dict(self._flat())
        new[name] = value
        return Env._of(new)

    def redirect(self, alias, representative) -> "Env":
        env = object.__new__(Env)
        env._entries = None
        env._parent = self
        env._key = alias
        env._value = _Redirect(representative)
        return env

    def lookup(self, name):
        """Resolve a name through redirects; returns (final name, value).

        The value is MISSING when the (resolved) name is unbound.
        """
        entries = self._entries
        if entries is None:
            entries = self._flat()
        while True:
            v = entries.get(name, MISSING)
            if isinstance(v, _Redirect):
                name = v.target
                continue
            return name, v

    def __repr__(self):
        return f"Env({self._flat()!r})"


EMPTY_ENV = Env()


def _run_binop(op, box):
    """The run maker of one operator. `op` and `box` are fixed here, so a
    build reads no class attribute; the left operand is checked before the
    right one is evaluated."""

    def make(d1, d2):
        def den(env):
            x = d1(env)
            if not isinstance(x, VInt):
                _as_int(x)  # raises; inline checks spare an integer the call
            y = d2(env)
            if not isinstance(y, VInt):
                _as_int(y)
            return box(op(x.value, y.value))

        return den

    return make


class _RunMakers(_Walk):
    """The run maker of each operator class. A subclass gets its nearest
    registered base's maker, as in every `base` walk; anything else raises
    TypeMismatch."""

    __slots__ = ()

    def __missing__(self, cls):
        make = super().__missing__(cls) if isinstance(cls, type) else _not_a_tree
        if make is _not_a_tree:
            raise TypeMismatch(f"not a binary operator: {cls!r}")
        return make


_RUN_BINOPS = _RunMakers({cls: _run_binop(cls.op, cls.box) for cls in _BINOPS})


class RunSemantics:
    """Denotation builders that evaluate: the environment is a dict from
    names to Values and letrec cells, which a binder copies and never
    writes into once made."""

    def __init__(self, step_limit=None):
        self._budget = _Budget(step_limit)

    def mk_var(self, name):
        def den(env):
            v = env.get(name)
            if v is None:
                raise UnboundVariable(f"unbound variable {name.render()}")
            if type(v) is _RecCell:
                return v.force()
            return v

        return den

    def mk_int(self, i):
        v = VInt(i)
        return lambda env: v

    def mk_bool(self, b):
        v = VBool(b)
        return lambda env: v

    def mk_succ(self, d):
        return lambda env: VInt(_as_int(d(env)) + 1)

    def mk_binop(self, cls, d1, d2):
        return _RUN_BINOPS[cls](d1, d2)

    def mk_if(self, dc, dt, de):
        def den(env):
            c = dc(env)
            if not isinstance(c, VBool):
                raise TypeMismatch(f"if condition must be a boolean, got {c!r}")
            return dt(env) if c.value else de(env)

        return den

    def mk_lam(self, name, body):
        budget = self._budget

        def den(env):
            def call(arg):
                budget.tick()
                inner = env.copy()
                inner[name] = arg
                return body(inner)

            return VFun(call)

        return den

    def mk_app(self, d1, d2):
        def den(env):
            f = d1(env)
            a = d2(env)
            if not isinstance(f, VFun):
                raise TypeMismatch(f"cannot apply non-function {f!r}")
            return f.fn(a)

        return den

    def mk_let(self, name, d1, d2, aliases=()):
        """`let name = d1 in d2`; each alias names the same value, bound in
        the same copy of the environment."""
        names = (name, *aliases)

        def den(env):
            v = d1(env)
            inner = env.copy()
            for n in names:
                inner[n] = v
            return d2(inner)

        return den

    def mk_letrec(self, clauses, body, pairs=()):
        """One letrec over `clauses`, (name, rhs) each; every (alias,
        representative) pair names the representative's cell."""
        budget = self._budget
        clauses = tuple(clauses)
        pairs = tuple(pairs)

        def den(env):
            env2 = env.copy()
            for n, rhs in clauses:
                cell = env2[n] = _RecCell(n, rhs, budget)
                cell.env = env2
            for alias, rep in pairs:
                env2[alias] = env2[rep]
            return body(env2)

        return den


class ShowSemantics:
    """Denotation builders that build trees: Env maps each alias to the
    name of its class, and holds nothing else.

    Show renames; it evaluates nothing. A build gives each location one name
    object, a tree never binds a name twice, and every combinator's use site
    passes its binder's own name object. So a binder needs no entry: a
    lookup that misses renders the name it was given, which is the binder's
    own. Unbound names come out the same way, which is what makes scope
    extrusion visible in the output.
    """

    def mk_var(self, name):
        def den(env):
            resolved, v = env.lookup(name)
            return v if v is not MISSING else Var(resolved)

        return den

    def mk_int(self, i):
        node = IntLit(i)
        return lambda env: node

    def mk_bool(self, b):
        node = BoolLit(b)
        return lambda env: node

    def mk_succ(self, d):
        return lambda env: Succ(d(env))

    def mk_binop(self, cls, d1, d2):
        return lambda env: cls(d1(env), d2(env))

    def mk_if(self, dc, dt, de):
        return lambda env: If(dc(env), dt(env), de(env))

    def mk_lam(self, name, body):
        return lambda env: Lam(name, body(env))

    def mk_app(self, d1, d2):
        return lambda env: App(d1(env), d2(env))

    def mk_let(self, name, d1, d2, aliases=()):
        """`let name = d1 in d2`; d2 is built with each alias redirected to
        `name`, one redirect per alias."""
        aliases = tuple(aliases)

        def den(env):
            rhs = d1(env)
            for alias in aliases:
                env = env.redirect(alias, name)
            return Let(name, rhs, d2(env))

        return den

    def mk_letrec(self, clauses, body, pairs=()):
        """One letrec over `clauses`; each clause and the body is built
        under every (alias, representative) redirect, made afresh for each."""
        clauses = tuple(clauses)
        pairs = tuple(pairs)

        def redirected(env):
            for alias, rep in pairs:
                env = env.redirect(alias, rep)
            return env

        return lambda env: LetRec(
            tuple((n, rhs(redirected(env))) for n, rhs in clauses),
            body(redirected(env)),
        )
