"""Environment-passing denotation builders for the object language.

A denotation is a pure function from an environment to a semantic value. Two
builder families share one shape: RunSemantics produces denotations that
evaluate to run-time values, ShowSemantics produces denotations that build
syntax trees. Each keeps its own environment. Run's is a plain dict from
a name's key (`Name.path`: a `Fresh` name's location string, any other
name itself) to value (or the `_RecCell` of a letrec clause). A let or
letrec binds into the dict it is given, and so does a redex `(fun x -> b)
a`, which the code builder hands over as one node (`mk_redex`) and run
evaluates as `let x = a in b`; a closure keeps a copy of the dict it is
made in, and a call binds its parameter into a copy of that. A variable
that the code builder finds built outside its binder's body is unbound
from the build on (`mk_unbound`): run raises when it reaches it, and show
prints its name as `mk_var` does. A let locus hands its whole block of
lets to one maker, `mk_lets`, as a letrec locus hands its clauses to
`mk_letrec`, and each family makes one denotation of it. The
aliases of a binding class go into a table per `RunSemantics`, keyed by
names and filled while the code is built, and the variable a request
returns (`mk_request`) resolves its name through that table once. Show's
is an `Env` that holds only alias redirects, keyed by names, each entry the
target name itself (ROADMAP item 2 removes it), and only a request's
variable reads it. Binary operators evaluate the left operand first; final
results must not depend on that order.

Run's values are shared where that is exact (see `base.VInt`). Its booleans
are the two values `TRUE` and `FALSE`, which `base` makes and this module
re-exports: a comparison and a boolean literal evaluate to one of them, and
an `if` tests its condition by identity before it falls back to any other
`VBool`. An integer operator's or a `succ`'s result that is exactly an `int`
in [-1024, 1024) is that int's record in `base`'s table, made once at
import, not a fresh one. A function whose body is an `if` evaluates that
`if` in its own call, one host frame fewer per application (see
`RunSemantics`).

A denotation holds its parts by value, as parameter defaults (`def den(env,
d1=d1, d2=d2)`), not in closure cells: a flat closure (Cardelli 1984; Shao
and Appel 1994). A closure costs a tuple plus a cell per captured part, each
one tracked by the cyclic collector; defaults cost one tuple. That is exact
because nothing rebinds a part once its denotation is made, and a
denotation is only ever called as `d(env)`. Run's function values hold
their environment copy and parts the same way, and are only ever called
on one argument. Run's request variable is no function: it is a slotted
object (`_Request`) that rewrites its key once, and holds no cell either.

An operand of `mk_binop` is a denotation, an exact `int` literal (`cint`
stores one) or a bound `Name`: the code builder passes a literal or a
variable operand unbuilt. Show turns it into the `IntLit` or `Var` node its
`mk_int` or `mk_var` would make; run reads it in place (see `_run_binop`),
and so it reads its own request variable, as an operand and in function
position (`mk_app`).
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
    Name,
    Var,
    VBool,
    VFun,
    VInt,
    TRUE,
    FALSE,
    TypeMismatch,
    UnboundVariable,
    _BINOPS,
    _SMALL,
    _SMALL_HI,
    _SMALL_LO,
    _Budget,
    _RecCell,
    _Record,
    _Walk,
    _slot_new,
    _as_int,
    _not_a_tree,
)

MISSING = object()


class Env:
    """Immutable finite map from names to semantic values; Show uses it as
    its alias map, Run not at all.

    A redirect's entry is its target name itself, and `extend` boxes its
    value in a one-element tuple. A target is always a `Name`, never a
    tuple, so `lookup` tells the two apart by type.

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
        env = Env()
        env._entries = {**self._flat(), name: (value,)}
        return env

    def redirect(self, alias, representative) -> "Env":
        env = object.__new__(Env)
        env._entries = None
        env._parent = self
        env._key = alias
        env._value = representative
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
            if v is MISSING:
                return name, v
            if type(v) is tuple:
                return name, v[0]
            name = v

    def __repr__(self):
        return f"Env({self._flat()!r})"


EMPTY_ENV = Env()


def _branch(c, dt, de):
    """The branch of an `if` whose condition `c` is neither `TRUE` nor
    `FALSE`: any other `VBool` (a host `VFun` may return one) picks by its
    value, and anything else raises."""
    if not isinstance(c, VBool):
        raise TypeMismatch(f"if condition must be a boolean, got {c!r}")
    return dt if c.value else de


def _run_binop(op, box):
    """The run maker of one operator. `op` and `box` are fixed here, so a
    build reads no class attribute; the left operand is checked before the
    right one is read. A result that is not a shared value is made without
    the Python frame of its record's `__init__` (`_slot_new`).

    An operand that is a literal, a name or a request (a leaf) is read in
    place, with no call: a literal as it is, a name or a request by one
    probe of its key, used when it holds exactly a `VInt`. A literal is an
    exact `int`, which is what tells it apart from the other two when the
    denotation runs. Any other value of a key, or a request's miss, goes
    through `_var_int`. Each shape (two denotations, a denotation and a
    leaf, a leaf and a denotation, two leaves) has its own function, which
    holds its two operands, `op`, `box` and the two slot functions as
    parameter defaults, as every denotation does (see the module
    docstring), so a leaf costs the build no more than a denotation.

    A comparison (`box` is `VBool`) makes no value: it returns `TRUE` or
    `FALSE`, which `mk_if` tests by identity. Nor does an integer result
    that is exactly an `int` in the shared table's range: it is the
    table's record (see `base.VInt`)."""
    new, set_value = _slot_new(box)

    def make(d1, d2):
        if callable(d1) and type(d1) is not _Request:
            if callable(d2) and type(d2) is not _Request:

                def den(env, d1=d1, d2=d2, op=op, box=box, new=new, set_value=set_value):
                    x = d1(env)
                    if not isinstance(x, VInt):
                        _as_int(x)  # raises; inline checks spare an integer the call
                    y = d2(env)
                    if not isinstance(y, VInt):
                        _as_int(y)
                    r = op(x.value, y.value)
                    if box is VBool:
                        return TRUE if r else FALSE
                    if type(r) is int and _SMALL_LO <= r < _SMALL_HI:
                        return _SMALL[r]
                    v = new(box)
                    set_value(v, r)
                    return v

                return den

            def den(env, d1=d1, d2=d2, op=op, box=box, new=new, set_value=set_value):
                x = d1(env)
                if not isinstance(x, VInt):
                    _as_int(x)
                if type(d2) is int:
                    y = d2
                elif type(v := env.get(d2.path)) is VInt:
                    y = v.value
                else:
                    y = _var_int(d2, env)
                r = op(x.value, y)
                if box is VBool:
                    return TRUE if r else FALSE
                if type(r) is int and _SMALL_LO <= r < _SMALL_HI:
                    return _SMALL[r]
                v = new(box)
                set_value(v, r)
                return v

            return den
        if callable(d2) and type(d2) is not _Request:

            def den(env, d1=d1, d2=d2, op=op, box=box, new=new, set_value=set_value):
                if type(d1) is int:
                    x = d1
                elif type(v := env.get(d1.path)) is VInt:
                    x = v.value
                else:
                    x = _var_int(d1, env)
                y = d2(env)
                if not isinstance(y, VInt):
                    _as_int(y)
                r = op(x, y.value)
                if box is VBool:
                    return TRUE if r else FALSE
                if type(r) is int and _SMALL_LO <= r < _SMALL_HI:
                    return _SMALL[r]
                v = new(box)
                set_value(v, r)
                return v

            return den

        def den(env, d1=d1, d2=d2, op=op, box=box, new=new, set_value=set_value):
            if type(d1) is int:
                x = d1
            elif type(v := env.get(d1.path)) is VInt:
                x = v.value
            else:
                x = _var_int(d1, env)
            if type(d2) is int:
                y = d2
            elif type(v := env.get(d2.path)) is VInt:
                y = v.value
            else:
                y = _var_int(d2, env)
            r = op(x, y)
            if box is VBool:
                return TRUE if r else FALSE
            if type(r) is int and _SMALL_LO <= r < _SMALL_HI:
                return _SMALL[r]
            v = new(box)
            set_value(v, r)
            return v

        return den

    return make


def _var_int(leaf, env):
    """The integer a name or request operand reads when its key's value in
    `env` is not exactly a `VInt`: a request reads itself (`read`, called as
    a method), a name its `mk_var` denotation; either raises when unbound
    and forces a letrec cell, and `_as_int` raises for anything but an
    integer."""
    v = leaf.read(env) if type(leaf) is _Request else _run_var(leaf)(env)
    return v.value if isinstance(v, VInt) else _as_int(v)


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


def _run_lam_if(budget, key, dc, dt, de):
    """Run's denotation of a function whose body is `if dc then dt else de`:
    its call ticks and binds its parameter as `mk_lam`'s does, then
    evaluates the `if` itself, as `mk_if`'s denotation would. It holds the
    condition and branches, not the `if`'s denotation, which the build can
    then drop. The tick and the binding are written out in both, not
    shared: a shared step would cost the frame this saves."""

    def den(env, budget=budget, key=key, dc=dc, dt=dt, de=de):
        # its activation may bind more before a call, so the call copies it
        def call(arg, env=env.copy(), budget=budget, key=key, dc=dc, dt=dt, de=de):
            n = budget.remaining
            if n > 0:
                budget.remaining = n - 1
            else:
                budget.tick()  # raises
            inner = env.copy()
            inner[key] = arg
            c = dc(inner)
            if c is TRUE:
                return dt(inner)
            if c is FALSE:
                return de(inner)
            return _branch(c, dt, de)(inner)

        return VFun(call)

    return den


class _Request:
    """Run's denotation of a request's variable: a leaf, as a literal or a
    name operand is, that `_run_binop` and `mk_app` read in place (see
    `RunSemantics`); called, it reads itself (`read`). It holds its name's
    key (`path`), its name and its semantics' alias table (`reps`), in
    slots: no closure, no cell and no `__dict__`. `RunSemantics.mk_request`
    makes it without the Python frame of an `__init__`, as `insertion`
    makes a folded class: a build makes one per request.

    A request reads its own key first: a representative is bound under it.
    On a miss it looks its name up in the table once and, if that finds a
    bound representative, keeps the representative's key in place of its
    own. A denotation sits at one place in one tree, so every environment
    it is applied to binds at least the names in scope there; the others
    were bound earlier in the same activation, out of its scope, and are
    never read (see `RunSemantics`). So a representative found bound once
    is found bound every time; a request that is unbound raises before it
    keeps anything, naming itself."""

    __slots__ = ("path", "name", "reps")

    def read(self, env):
        v = env.get(self.path)
        if v is None:
            rep = self.reps.get(self.name)
            if rep is None or (v := env.get(rep.path)) is None:
                raise UnboundVariable(f"unbound variable {self.name.render()}")
            self.path = rep.path
        if type(v) is _RecCell:
            return v.value if v.done else v.force()
        return v

    __call__ = read


_new = object.__new__


def _run_var(name):
    """Run's denotation of variable `name` (`RunSemantics.mk_var`)."""

    def den(env, name=name):
        v = env.get(name.path)
        if v is None:
            raise UnboundVariable(f"unbound variable {name.render()}")
        if type(v) is _RecCell:
            return v.value if v.done else v.force()
        return v

    return den


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
    a dict only grows. Code in scope never reads a later entry. Code that
    names a variable outside its binder's body got there in one of two
    ways, which the code builder tells apart by the location where the
    variable is built. A variable built outside the body was carried out of
    its binder's builder through host state: it is `mk_unbound`'s
    denotation, which raises. Insertion moves code only to an ancestor of
    where it was built, and every ancestor of a location outside the body
    is outside it too, so the name is free wherever it lands, and
    `eval_ast` raises exactly where this does. Code built inside the body
    and hoisted above the binder by insertion either runs before the binder
    in the activation or is deferred in a closure or a letrec cell. A
    deferred evaluation sees the dict as it was deferred: a closure copies
    it when made, and a clause is evaluated in a copy cut back to the
    entries its letrec had bound, which are a prefix of the dict. So run
    raises UnboundVariable where `eval_ast` does, for every binder.

    A redex, `capp(clam(f), a)`, is one node (`mk_redex`): it evaluates the
    argument, counts the step the call would, binds the parameter into the
    dict it is given and evaluates the body there, as `let x = a in b` (the
    let rule of A-normal form: Flanagan, Sabry, Duba and Felleisen, PLDI
    1993). Its parameter is one more binder under the activation, so the
    argument above covers it. Making the function value has no observable
    effect, so values, messages and ticks are those of
    `mk_app(mk_lam(...), a)`; the redex makes no function value, no
    closure copy and no call copy, and spends one host frame fewer.

    A binder binds only its own names. Each alias a locus's block of lets
    (`mk_lets`) or its letrec is handed goes into this instance's alias
    table, mapped to its representative, as the code is built. The block
    is one denotation that binds its lets in turn, outermost first, so it
    spends one host frame where nested lets spent one each. An instance
    serves one build, as in `run`, which builds everything before it
    evaluates anything, so the table is complete by then. The table is
    keyed by names, so filling it hashes each alias once at build time; a
    request's variable resolves through it on its first miss and then
    reads its representative's key (see `_Request`). That is exact: a
    build gives each location one name, each request name folds into
    exactly one class at one locus, and the binder that binds a
    representative is the one that bound its aliases, so an alias is in
    scope exactly where its representative is.

    Run does in place what costs a call per read elsewhere: a binary
    operator reads a literal, a variable or a request operand itself
    (`_run_binop`), an application reads a request in function position
    itself (`mk_app`), a call counts its step inline and calls
    `_Budget.tick` only to raise, and a variable or request reads a forced
    letrec cell's value, calling `force` only for a cell not yet forced. A
    comparison returns `TRUE` or `FALSE` and makes no value, and an `if`
    tests its condition against the two by identity; only another `VBool`
    (a host `VFun` may return one) or a non-boolean reaches `_branch`,
    which picks by value or raises.

    A function whose body is an `if` runs in one frame: `mk_if` keeps the
    `if` it built last, with its condition and branches, in one slot, and
    when `mk_lam`'s body is that very denotation, the function's call
    (`_run_lam_if`) ticks, binds its parameter and evaluates the `if`
    itself instead of calling the body. The code builder builds a
    function's body just before the function, so the slot holds the body
    whenever the body is an `if`; the identity test keeps any other body
    on the plain path. The fused call evaluates what the body would, in the
    same order, so ticks, values and errors are unchanged; it saves one
    call and one host frame per application, so recursion also goes deeper
    before the host stack runs out. That depth is why it is kept: the
    deepest `n` on which `run(cack(2))` computes `A(2, n)` at the default
    limit is 164 with it and 122 without (`tools/depth.py`). Without it,
    `stagelet run cack2 150` exits 4, and the benchmark's ack-letrec
    `fail_ratio` goes from 0 to 0.0028, since its `cack(2)` on 150 probe
    fails."""

    def __init__(self, step_limit=None):
        self._budget = _Budget(step_limit)
        self._reps = {}
        # the `if` built last, with its condition and branches: mk_lam's one
        # slot for the branch it may evaluate in its call
        self._last_if = None, None, None, None

    mk_var = staticmethod(_run_var)

    def mk_request(self, name):
        d = _new(_Request)
        d.path = name.path
        d.name = name
        d.reps = self._reps
        return d

    def mk_int(self, i):
        return lambda env, v=VInt(i): v

    def mk_bool(self, b):
        return lambda env, v=TRUE if b else FALSE: v

    def mk_succ(self, d):
        def den(env, d=d):
            i = _as_int(d(env)) + 1
            if type(i) is int and _SMALL_LO <= i < _SMALL_HI:
                return _SMALL[i]
            return VInt(i)

        return den

    def mk_binop(self, cls, d1, d2):
        make = _RUN_BINOPS[cls] if type(cls) is _Record else _not_a_tree
        if make is _not_a_tree:
            _not_an_operator(cls)
        return make(d1, d2)

    def mk_if(self, dc, dt, de):
        def den(env, dc=dc, dt=dt, de=de):
            c = dc(env)
            if c is TRUE:
                return dt(env)
            if c is FALSE:
                return de(env)
            return _branch(c, dt, de)(env)

        self._last_if = den, dc, dt, de
        return den

    def mk_lam(self, name, body):
        """A function of `name`; when `body` is the `if` this instance built
        last, the function is `_run_lam_if`'s (see `RunSemantics`)."""
        budget = self._budget
        key = name.path
        last, dc, dt, de = self._last_if
        if last is body:
            return _run_lam_if(budget, key, dc, dt, de)

        def den(env, budget=budget, key=key, body=body):
            # its activation may bind more before a call, so the call copies it
            def call(arg, env=env.copy(), budget=budget, key=key, body=body):
                n = budget.remaining
                if n > 0:
                    budget.remaining = n - 1
                else:
                    budget.tick()  # raises
                inner = env.copy()
                inner[key] = arg
                return body(inner)

            return VFun(call)

        return den

    def mk_app(self, d1, d2):
        """`d1 d2`, the function read first; a request in function position
        is read in place, as `_run_binop` reads one: its key's value, and a
        forced letrec cell's value, with no call."""
        if type(d1) is _Request:

            def den(env, d1=d1, d2=d2):
                f = env.get(d1.path)
                if f is None:
                    f = d1.read(env)
                elif type(f) is _RecCell:
                    f = f.value if f.done else f.force()
                a = d2(env)
                if not isinstance(f, VFun):
                    raise TypeMismatch(f"cannot apply non-function {f!r}")
                return f.fn(a)

            return den

        def den(env, d1=d1, d2=d2):
            f = d1(env)
            a = d2(env)
            if not isinstance(f, VFun):
                raise TypeMismatch(f"cannot apply non-function {f!r}")
            return f.fn(a)

        return den

    def mk_redex(self, name, body, arg):
        """`(fun name -> body) arg` as `let name = arg in body`: the argument,
        then the step the call would count, then the body, with `name`
        bound into the environment it is given (see `RunSemantics`)."""

        def den(env, budget=self._budget, key=name.path, body=body, arg=arg):
            a = arg(env)
            n = budget.remaining
            if n > 0:
                budget.remaining = n - 1
            else:
                budget.tick()  # raises
            env[key] = a
            return body(env)

        return den

    def mk_unbound(self, name):
        """Variable `name` built outside its binder's body: unbound wherever
        it lands, so evaluating it raises."""

        def den(env, name=name):
            raise UnboundVariable(f"unbound variable {name.render()}")

        return den

    def mk_let(self, name, d1, d2):
        """`let name = d1 in d2`, binding `name` into the environment it is
        given."""

        def den(env, key=name.path, d1=d1, d2=d2):
            env[key] = d1(env)
            return d2(env)

        return den

    def mk_lets(self, bindings, body):
        """The lets of one locus around `body` as one denotation:
        `bindings` holds a `(name, rhs, aliases)` triple per let, outermost
        first. It binds each name in turn into the environment it is given,
        its rhs evaluated there, then evaluates `body` there, so values,
        order and errors are those of nested `mk_let`s. Each alias is mapped
        to its name in the alias table, so a request for it reads that
        name's value."""
        pairs = []
        for name, d, aliases in bindings:
            if aliases:
                # a dict's or set's keys keep their hashes: no Python-level __hash__
                self._reps.update(dict.fromkeys(aliases, name))
            pairs.append((name.path, d))

        def den(env, pairs=tuple(pairs), body=body):
            for key, d in pairs:
                env[key] = d(env)
            return body(env)

        return den

    def mk_letrec(self, clauses, body, pairs=()):
        """One letrec over `clauses`, (name, rhs) each, binding one cell per
        clause into the environment it is given; every (alias,
        representative) pair goes into the alias table, so a request for the
        alias reads the representative's cell. A cell's environment is the
        triple of the environment, its size once every cell is bound, and
        the clause's rhs, which `_clause` evaluates."""
        self._reps.update(pairs)

        def den(env, clauses=tuple(clauses), body=body, budget=self._budget):
            size = len(env) + len(clauses)
            for n, rhs in clauses:
                env[n.path] = _RecCell(n, _clause, (env, size, rhs), budget)
            return body(env)

        return den


def _show_leaf(o):
    """The node of a literal or a name operand, as `mk_int` or `mk_var`
    would make it."""
    return Var(o) if isinstance(o, Name) else IntLit(o)


def _redirected(env, pairs):
    """`env` with every (alias, representative) pair of a letrec redirected,
    one redirect each."""
    for alias, rep in pairs:
        env = env.redirect(alias, rep)
    return env


class ShowSemantics:
    """Denotation builders that build trees: Env maps each alias to the
    name of its class, and holds nothing else.

    Only a request's variable (`mk_request`) reads the Env: it renders the
    representative its name redirects to, or its own name if none does. Show
    makes one redirect per alias, and per alias and clause in a letrec, not
    one per class, because the benchmark pins those redirect counts
    (ROADMAP item 1 re-pins them). A locus's block of lets (`mk_lets`) is
    one denotation that redirects as it goes, so it keeps only the current
    Env, never one per let.

    Show renames; it evaluates nothing. A build gives each location one name
    object, a tree never binds a name twice, and every combinator's use site
    passes its binder's own name object, which is never an alias. So a
    binder needs no entry and a binder's variable (`mk_var`) renders its
    name as it is. Unbound names come out the same way (`mk_unbound` is
    `mk_var`), which is what makes scope extrusion visible in the output. A
    redex (`mk_redex`) is the `App` of a `Lam`, its body built first, as
    `mk_app(mk_lam(...), arg)` builds it.
    """

    def mk_var(self, name):
        return lambda env, name=name: Var(name)

    def mk_request(self, name):
        return lambda env, name=name: Var(env.lookup(name)[0])

    def mk_int(self, i):
        return lambda env, node=IntLit(i): node

    def mk_bool(self, b):
        return lambda env, node=BoolLit(b): node

    def mk_succ(self, d):
        return lambda env, d=d: Succ(d(env))

    def mk_binop(self, cls, d1, d2):
        """The node of `cls` over two operands; a literal or a name operand is
        its `IntLit` or `Var` node, made here, once."""
        if type(cls) is not _Record or _RUN_BINOPS[cls] is _not_a_tree:
            _not_an_operator(cls)
        if callable(d1):
            if callable(d2):
                return lambda env, cls=cls, d1=d1, d2=d2: cls(d1(env), d2(env))
            return lambda env, cls=cls, d1=d1, n2=_show_leaf(d2): cls(d1(env), n2)
        n1 = _show_leaf(d1)
        if callable(d2):
            return lambda env, cls=cls, n1=n1, d2=d2: cls(n1, d2(env))
        return lambda env, node=cls(n1, _show_leaf(d2)): node

    def mk_if(self, dc, dt, de):
        return lambda env, dc=dc, dt=dt, de=de: If(dc(env), dt(env), de(env))

    def mk_lam(self, name, body):
        return lambda env, name=name, body=body: Lam(name, body(env))

    def mk_app(self, d1, d2):
        return lambda env, d1=d1, d2=d2: App(d1(env), d2(env))

    def mk_redex(self, name, body, arg):
        return lambda env, name=name, body=body, arg=arg: App(
            Lam(name, body(env)), arg(env)
        )

    mk_unbound = mk_var

    def mk_let(self, name, d1, d2):
        return lambda env, name=name, d1=d1, d2=d2: Let(name, d1(env), d2(env))

    def mk_lets(self, bindings, body):
        """The lets of one locus around `body` as one denotation:
        `bindings` holds a `(name, rhs, aliases)` triple per let, outermost
        first. Each rhs is built under the Env that the lets before it
        redirect, one redirect per alias, and the body under all of them;
        the `Let` nodes are then nested from the inside out. Only the
        current Env stays referenced, so the map a request flattens is
        garbage once the next redirect is flattened. Each alias set is kept
        as a tuple, the smallest container for it."""
        bindings = tuple([(name, d, tuple(aliases)) for name, d, aliases in bindings])

        def den(env, bindings=bindings, body=body):
            rhss = []
            for name, d, aliases in bindings:
                rhss.append(d(env))
                for alias in aliases:
                    env = env.redirect(alias, name)
            tree = body(env)
            for (name, _, _), rhs in zip(reversed(bindings), reversed(rhss)):
                tree = Let(name, rhs, tree)
            return tree

        return den

    def mk_letrec(self, clauses, body, pairs=()):
        """One letrec over `clauses`; each clause and the body is built
        under every (alias, representative) redirect, made afresh for each."""
        def den(env, clauses=tuple(clauses), body=body, pairs=tuple(pairs)):
            return LetRec(
                tuple((n, rhs(_redirected(env, pairs))) for n, rhs in clauses),
                body(_redirected(env, pairs)),
            )

        return den
