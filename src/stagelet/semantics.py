"""Environment-passing denotation builders for the object language.

A denotation is a pure function from an environment to a semantic value. Two
builder families share one shape: RunSemantics produces denotations that
evaluate to run-time values, ShowSemantics produces denotations that build
syntax trees. Each keeps its own environment. Run's is a plain dict from
a name's key (`Name.path`: a `Fresh` name's location string, any other
name itself) to value (or the `_RecCell` of a letrec clause). A let or
letrec binds into the dict it is given; a closure keeps a copy of the dict
it is made in, and a call binds its parameter into a copy of that. The
aliases of a binding class go into a table per `RunSemantics`, keyed by
names and filled while the code is built, and the variable a request
returns (`mk_request`) resolves its name through that table once. Show's
is an `Env` that holds only alias redirects, keyed by names (ROADMAP item
2 removes it), and only a request's variable reads it. Binary operators
evaluate the left operand first; final results must not depend on that
order.
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
    _Record,
    _Walk,
    _slot_new,
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
    right one is evaluated. The result is made without the Python frame of
    its record's `__init__` (`_slot_new`)."""
    new, set_value = _slot_new(box)

    def make(d1, d2):
        def den(env):
            x = d1(env)
            if not isinstance(x, VInt):
                _as_int(x)  # raises; inline checks spare an integer the call
            y = d2(env)
            if not isinstance(y, VInt):
                _as_int(y)
            v = new(box)
            set_value(v, op(x.value, y.value))
            return v

        return den

    return make


_RUN_BINOPS = _Walk({cls: _run_binop(cls.op, cls.box) for cls in _BINOPS})


def _not_an_operator(cls):
    """Raise where the code is built: `cls` is not an operator class.

    Both `mk_binop`s test inline and call this only to raise. A key is an
    operator class when it is a record class (every node class is one, so it
    is hashable and has an MRO) that `_RUN_BINOPS` finds: one probe for a
    registered operator, and for a user's subclass of one the walk's MRO
    lookup, once. Anything else, a class or not, lands here."""
    raise TypeMismatch(f"not a binary operator: {cls!r}")


def _clause(letrec):
    """The value of a letrec clause, from the `(env, size, rhs)` its cell
    holds: `rhs` evaluated in a copy of `env` cut back to its first `size`
    entries, the environment the letrec bound the clause in."""
    env, size, rhs = letrec
    env = env.copy()
    while len(env) > size:  # bound after the letrec, in the same activation
        env.popitem()
    return rhs(env)


def _run_request(reps):
    """The request maker of one RunSemantics, whose alias table is `reps`.
    Every request closure shares the table's cell and owns only its name's.

    A request reads its own name first: a representative is bound under it.
    On a miss it looks the name up in the table once and, if that finds a
    bound representative, keeps the representative in place of the name. A
    denotation sits at one place in one tree, so every environment it is
    applied to binds at least the names in scope there; the others were
    bound earlier in the same activation, out of its scope, and are never
    read (see `RunSemantics`). So a representative found bound once is found
    bound every time; a request that is unbound raises before it keeps
    anything, naming itself."""

    def make(name):
        def den(env):
            nonlocal name
            v = env.get(name.path)
            if v is None:
                rep = reps.get(name)
                if rep is None or (v := env.get(rep.path)) is None:
                    raise UnboundVariable(f"unbound variable {name.render()}")
                name = rep
            if type(v) is _RecCell:
                return v.force()
            return v

        return den

    return make


class RunSemantics:
    """Denotation builders that evaluate: the environment is a dict from
    each name's key, `name.path`, to Values and letrec cells. A `Fresh`
    name's key is its location string, whose hash CPython keeps in the
    string, so a read or a binding makes no Python-level `__hash__` call;
    a binder captures its key when it is built, and a variable reads its
    name's `path` slot when it runs. Keys are as exact as names (see
    `Name.path`). A let or letrec binds its names into
    the dict it is given, so the binders under one function activation
    share one dict; a closure copies the dict it is made in, and a call
    binds its parameter into a copy of that.

    That is exact. A build binds each name once, and each binder under one
    activation runs at most once in it, so no write replaces a binding and
    a dict only grows. Code in scope never reads a later entry. Extruded
    code, which names a variable outside its binder, is hoisted above that
    binder by insertion, so it either runs before the binder in the
    activation or is deferred in a closure or a letrec cell. A deferred
    evaluation sees the dict as it was deferred: a closure copies it when
    made, and a clause is evaluated in a copy cut back to the entries its
    letrec had bound, which are a prefix of the dict. So run raises
    UnboundVariable where `eval_ast` does. A variable carried
    out of its binder's builder through host state is outside the
    argument: run may read the value it was last bound to in the same
    activation.

    A binder binds only its own names. Each alias a let or letrec is handed
    goes into this instance's alias table, mapped to its representative, as
    the code is built. An instance serves one build, as in `run`, which
    builds everything before it evaluates anything, so the table is
    complete by then. The table is keyed by names, so filling it hashes
    each alias once at build time; a request's variable resolves through
    it on its first miss and then reads its representative's key. That is
    exact: a build gives each location one name, each
    request name folds into exactly one class at one locus, and the binder
    that binds a representative is the one that bound its aliases, so an
    alias is in scope exactly where its representative is."""

    def __init__(self, step_limit=None):
        self._budget = _Budget(step_limit)
        self._reps = {}
        self.mk_request = _run_request(self._reps)

    def mk_var(self, name):
        def den(env):
            v = env.get(name.path)
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
        make = _RUN_BINOPS[cls] if type(cls) is _Record else _not_a_tree
        if make is _not_a_tree:
            _not_an_operator(cls)
        return make(d1, d2)

    def mk_if(self, dc, dt, de):
        def den(env):
            c = dc(env)
            if not isinstance(c, VBool):
                raise TypeMismatch(f"if condition must be a boolean, got {c!r}")
            return dt(env) if c.value else de(env)

        return den

    def mk_lam(self, name, body):
        budget = self._budget
        key = name.path

        def den(env):
            env = env.copy()  # its activation may bind more before a call

            def call(arg):
                budget.tick()
                inner = env.copy()
                inner[key] = arg
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
        """`let name = d1 in d2`, binding `name` alone, into the environment
        it is given; each alias is mapped to `name` in the alias table, so
        a request for it reads `name`'s value."""
        if aliases:
            # a dict's or set's keys keep their hashes: no Python-level __hash__
            self._reps.update(dict.fromkeys(aliases, name))
        key = name.path

        def den(env):
            env[key] = d1(env)
            return d2(env)

        return den

    def mk_letrec(self, clauses, body, pairs=()):
        """One letrec over `clauses`, (name, rhs) each, binding one cell per
        clause into the environment it is given; every (alias,
        representative) pair goes into the alias table, so a request for the
        alias reads the representative's cell. A cell's environment is the
        triple of the environment, its size once every cell is bound, and
        the clause's rhs, which `_clause` evaluates."""
        budget = self._budget
        clauses = tuple(clauses)
        self._reps.update(pairs)

        def den(env):
            size = len(env) + len(clauses)
            for n, rhs in clauses:
                env[n.path] = _RecCell(n, _clause, (env, size, rhs), budget)
            return body(env)

        return den


class ShowSemantics:
    """Denotation builders that build trees: Env maps each alias to the
    name of its class, and holds nothing else.

    Only a request's variable (`mk_request`) reads the Env: it renders the
    representative its name redirects to, or its own name if none does. Show
    makes one redirect per alias, and per alias and clause in a letrec, not
    one per class, because the benchmark pins those redirect counts
    (ROADMAP item 1 re-pins them).

    Show renames; it evaluates nothing. A build gives each location one name
    object, a tree never binds a name twice, and every combinator's use site
    passes its binder's own name object, which is never an alias. So a
    binder needs no entry and a binder's variable (`mk_var`) renders its
    name as it is. Unbound names come out the same way, which is what makes
    scope extrusion visible in the output.
    """

    def mk_var(self, name):
        return lambda env: Var(name)

    def mk_request(self, name):
        return lambda env: Var(env.lookup(name)[0])

    def mk_int(self, i):
        node = IntLit(i)
        return lambda env: node

    def mk_bool(self, b):
        node = BoolLit(b)
        return lambda env: node

    def mk_succ(self, d):
        return lambda env: Succ(d(env))

    def mk_binop(self, cls, d1, d2):
        if type(cls) is not _Record or _RUN_BINOPS[cls] is _not_a_tree:
            _not_an_operator(cls)
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
