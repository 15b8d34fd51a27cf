import copy
import dataclasses
import enum
import pickle
import random
import re

import pytest

from stagelet import (
    Add,
    App,
    BinOp,
    BoolLit,
    Div,
    Eq,
    Fresh,
    IntLit,
    Lam,
    Let,
    LetRec,
    Mul,
    Name,
    Source,
    StagingError,
    StepLimitExceeded,
    Sub,
    Succ,
    TypeMismatch,
    UnboundVariable,
    VBool,
    VFun,
    VInt,
    Var,
    apply_ints,
    cadd,
    capp,
    cbool,
    cdiv,
    ceq,
    cif,
    cint,
    clam,
    clet,
    cmul,
    csub,
    csucc,
    eval_ast,
    free_vars,
    genlet,
    genletrec,
    lookup,
    pretty,
    run,
    show,
    to_sexp,
    with_locus,
    with_locus_rec,
)
from stagelet import base, codec, semantics
from stagelet.codec import ROOT, BuildContext
from stagelet.semantics import EMPTY_ENV, MISSING, RunSemantics, ShowSemantics

from helpers import (
    ackermann,
    build_den,
    cack,
    clet_sum_chain,
    clgib,
    count_lets,
    cpoly,
    gib,
    poly_coeffs,
    random_plan,
)

R = RunSemantics
S = ShowSemantics

x, y, f, n = Source("x"), Source("y"), Source("f"), Source("n")


class MyAdd(Add):
    """A user's subclass of an operator, outside the registered five."""


class TestEnv:
    def test_extension_is_persistent(self):
        e1 = EMPTY_ENV.extend(x, VInt(1))
        e2 = e1.extend(x, VInt(2))
        assert e1.lookup(x) == (x, VInt(1))
        assert e2.lookup(x) == (x, VInt(2))
        assert EMPTY_ENV.lookup(x) == (x, MISSING)

    def test_redirect_resolves_to_target(self):
        e = EMPTY_ENV.extend(x, VInt(9)).redirect(y, x)
        assert e.lookup(y) == (x, VInt(9))

    @pytest.mark.parametrize("value", [y, (y,), None], ids=["name", "tuple", "none"])
    def test_an_extended_value_is_never_followed(self, value):
        # a value that is a name or a tuple reads back as itself, never as a
        # redirect to follow or a box to open, and None is not MISSING
        def reads(env, name):
            got_name, got = env.lookup(name)
            assert got_name == x and got is value

        e = EMPTY_ENV.extend(x, value)
        reads(e, x)
        reads(e.redirect(f, x).redirect(n, f), n)
        reads(EMPTY_ENV.redirect(x, y).extend(x, value), x)
        reads(EMPTY_ENV.extend(y, VInt(1)).redirect(x, y).extend(x, value), x)

    def test_equal_envs(self):
        # built along different paths, two envs read alike on every name
        e1 = EMPTY_ENV.extend(x, VInt(1)).extend(y, VInt(2))
        e2 = EMPTY_ENV.extend(y, VInt(0)).extend(x, VInt(1)).extend(y, VInt(2))
        for name in (x, y, f):
            assert e1.lookup(name) == e2.lookup(name)


def _model_lookup(model, name):
    """Env.lookup on a plain dict whose redirects are ("to", target) pairs."""
    while True:
        v = model.get(name)
        if isinstance(v, tuple):
            name = v[1]
            continue
        return name, v


class TestEnvModel:
    """Env against an eager dict model. Names are Source("n0").."n19"; an
    alias only ever redirects to a lower-numbered name, so chains end."""

    NAMES = [Source(f"n{i}") for i in range(20)]

    def agrees(self, env, model):
        for name in self.NAMES:
            want_name, want = _model_lookup(model, name)
            got_name, got = env.lookup(name)
            assert got_name == want_name
            assert got == (want if want is not None else MISSING)

    def test_random_operations(self):
        rng = random.Random(2718)
        pool = [(EMPTY_ENV, {})]
        for step in range(3000):
            env, model = rng.choice(pool[-30:] if rng.random() < 0.8 else pool)
            op = rng.random()
            if op < 0.35:
                i = rng.randrange(1, 20)
                alias, target = self.NAMES[i], self.NAMES[rng.randrange(i)]
                pool.append((env.redirect(alias, target), {**model, alias: ("to", target)}))
            elif op < 0.6:
                name, value = rng.choice(self.NAMES), VInt(step)
                pool.append((env.extend(name, value), {**model, name: value}))
            else:
                name = rng.choice(self.NAMES)
                want_name, want = _model_lookup(model, name)
                assert env.lookup(name) == (want_name, want if want is not None else MISSING)
        # every env still reads as its model, children checked before parents
        for env, model in reversed(pool):
            self.agrees(env, model)

    def test_long_redirect_run(self):
        rep = Source("rep")
        env = EMPTY_ENV.extend(rep, VInt(1))
        middle = None
        for i in range(10_000):
            env = env.redirect(Source(f"a{i}"), rep)
            if i == 4_999:
                middle = env
        assert env.lookup(Source("a9999")) == (rep, VInt(1))
        assert env.lookup(Source("a0")) == (rep, VInt(1))
        assert middle.lookup(Source("a4999")) == (rep, VInt(1))
        assert middle.lookup(Source("a5000")) == (Source("a5000"), MISSING)

    def test_runs_branching_off_one_base(self):
        n0, n1, n2, n3 = self.NAMES[:4]
        base = EMPTY_ENV.extend(n0, VInt(0)).redirect(n1, n0)
        left = base.redirect(n2, n1).redirect(n3, n0)
        right = base.redirect(n2, n0).extend(n3, VInt(3))
        self.agrees(left, {n0: VInt(0), n1: ("to", n0), n2: ("to", n1), n3: ("to", n0)})
        self.agrees(right, {n0: VInt(0), n1: ("to", n0), n2: ("to", n0), n3: VInt(3)})
        self.agrees(base, {n0: VInt(0), n1: ("to", n0)})

    def test_extend_after_redirect(self):
        n0, n1 = self.NAMES[:2]
        env = EMPTY_ENV.extend(n0, VInt(0)).redirect(n1, n0).extend(n1, VInt(1))
        self.agrees(env, {n0: VInt(0), n1: VInt(1)})

    def test_parent_unchanged_after_children_materialize(self):
        n0, n1, n2 = self.NAMES[:3]
        parent = EMPTY_ENV.extend(n0, VInt(0)).redirect(n1, n0)
        children = [
            parent.redirect(n2, n1),
            parent.extend(n1, VInt(5)),
            parent.extend(n2, VInt(2)),
        ]
        for child in children:
            child.lookup(n2)
        self.agrees(parent, {n0: VInt(0), n1: ("to", n0)})
        self.agrees(children[0], {n0: VInt(0), n1: ("to", n0), n2: ("to", n1)})
        self.agrees(children[1], {n0: VInt(0), n1: VInt(5)})
        self.agrees(children[2], {n0: VInt(0), n1: ("to", n0), n2: VInt(2)})


class TestMkVar:
    def test_show_bound(self):
        env = EMPTY_ENV.extend(x, Var(x))
        assert S().mk_var(x)(env) == Var(x)

    def test_run_bound(self):
        assert R().mk_var(x)({x: VInt(7)}) == VInt(7)

    def test_show_unbound_stays_literal(self):
        from stagelet import Fresh

        name = Fresh("_2_1")
        assert S().mk_var(name)(EMPTY_ENV) == Var(name)

    def test_run_unbound_raises(self):
        with pytest.raises(UnboundVariable):
            R().mk_var(x)({})

    def test_show_resolves_only_requests(self):
        a, rep = Source("a"), Source("r")
        env = EMPTY_ENV.redirect(a, rep)
        assert S().mk_var(a)(env) == Var(a)
        assert S().mk_request(a)(env) == Var(rep)

    def test_show_looks_up_only_at_requests(self, monkeypatch):
        looked_up = []
        env_lookup = semantics.Env.lookup

        def spy(env, name):
            looked_up.append(name)
            return env_lookup(env, name)

        monkeypatch.setattr(semantics.Env, "lookup", spy)
        for name in ("cgib5", "clet-intro"):  # no genlet or genletrec
            show(lookup(name).builder())
            assert looked_up == [], name
        show(lookup("clgib5").builder())
        assert looked_up


NOT_OPERATORS = [BinOp, Lam, int, "add", [1]]


class TestMkConstants:
    def test_int(self):
        assert R().mk_int(3)({}) == VInt(3)
        assert S().mk_int(3)(EMPTY_ENV) == IntLit(3)
        assert pretty(S().mk_int(42)(EMPTY_ENV)) == "42"

    def test_bool(self):
        assert R().mk_bool(True)({}) == VBool(True)

    def test_add(self):
        r = R()
        assert r.mk_binop(Add, r.mk_int(1), r.mk_int(2))({}) == VInt(3)
        s = S()
        assert s.mk_binop(Add, s.mk_int(1), s.mk_int(2))(EMPTY_ENV) == Add(
            IntLit(1), IntLit(2)
        )

    def test_if_picks_branch(self):
        r = R()
        d = r.mk_if(r.mk_bool(False), r.mk_int(1), r.mk_int(2))
        assert d({}) == VInt(2)

    def test_type_errors_surface_at_application(self):
        r = R()
        d = r.mk_binop(Add, r.mk_bool(True), r.mk_int(1))
        with pytest.raises(TypeMismatch):
            d({})

    def test_subclass_of_an_operator_runs_as_its_base(self):
        gen = codec.capp(
            codec.clam(lambda v: codec._binop(MyAdd, v, codec.cint(2))), codec.cint(1)
        )
        tree = show(gen)
        assert isinstance(tree.fun.body, MyAdd)
        assert run(gen) == eval_ast(tree) == VInt(3)

    @pytest.mark.parametrize(
        "sem,cls",
        [pytest.param(R, k, id=repr(k)) for k in NOT_OPERATORS]
        + [pytest.param(S, k, id=f"show-{k!r}") for k in NOT_OPERATORS],
    )
    def test_anything_else_is_not_an_operator(self, sem, cls):
        s = sem()
        with pytest.raises(TypeMismatch, match="not a binary operator"):
            s.mk_binop(cls, s.mk_int(1), s.mk_int(2))


class TestMkLam:
    def test_run_identity(self):
        r = R()
        fn = r.mk_lam(x, r.mk_var(x))({})
        assert fn.fn(VInt(5)) == VInt(5)

    def test_show_tree(self):
        s = S()
        assert s.mk_lam(x, s.mk_var(x))(EMPTY_ENV) == Lam(x, Var(x))

    def test_squaring_application(self):
        r = R()
        d = r.mk_app(
            r.mk_lam(x, r.mk_binop(Mul, r.mk_var(x), r.mk_var(x))), r.mk_int(3)
        )
        assert d({}) == VInt(9)


class TestMkLet:
    def test_run(self):
        r = R()
        d = r.mk_let(x, r.mk_int(3), r.mk_binop(Add, r.mk_var(x), r.mk_var(x)))
        assert d({}) == VInt(6)

    def test_show(self):
        s = S()
        d = s.mk_let(x, s.mk_int(3), s.mk_binop(Add, s.mk_var(x), s.mk_var(x)))
        tree = d(EMPTY_ENV)
        assert tree == Let(x, IntLit(3), Add(Var(x), Var(x)))
        assert pretty(tree) == "(let x = 3 in (x + x))"


class TestMkLetrec:
    def test_run_gib_loop(self):
        r = R()
        loop = Source("loop")
        body = r.mk_if(
            r.mk_binop(Eq, r.mk_var(n), r.mk_int(0)),
            r.mk_var(x),
            r.mk_if(
                r.mk_binop(Eq, r.mk_var(n), r.mk_int(1)),
                r.mk_var(y),
                r.mk_binop(
                    Add,
                    r.mk_app(r.mk_var(loop), r.mk_binop(Sub, r.mk_var(n), r.mk_int(1))),
                    r.mk_app(r.mk_var(loop), r.mk_binop(Sub, r.mk_var(n), r.mk_int(2))),
                ),
            ),
        )
        d = r.mk_letrec(
            [(loop, r.mk_lam(n, body))], r.mk_app(r.mk_var(loop), r.mk_int(5))
        )
        env = {x: VInt(1), y: VInt(1)}
        assert d(env) == VInt(8)
        assert d(env) == VInt(gib(5, 1, 1))

    def test_show_single_clause(self):
        s = S()
        d = s.mk_letrec(
            [(f, s.mk_lam(n, s.mk_app(s.mk_var(f), s.mk_var(n))))], s.mk_var(f)
        )
        assert d(EMPTY_ENV) == LetRec(
            ((f, Lam(n, App(Var(f), Var(n)))),), Var(f)
        )

    def test_run_three_clause_ackermann_shape(self):
        # the specialized shape: a(u) = b(...), b(v) = c(...), c(w) = w + 1
        r = R()
        a, b, c, u, v, w = (Source(t) for t in "abcuvw")

        def clause(self_name, next_name, var):
            return r.mk_lam(
                var,
                r.mk_if(
                    r.mk_binop(Eq, r.mk_var(var), r.mk_int(0)),
                    r.mk_app(r.mk_var(next_name), r.mk_int(1)),
                    r.mk_app(
                        r.mk_var(next_name),
                        r.mk_app(
                            r.mk_var(self_name), r.mk_binop(Sub, r.mk_var(var), r.mk_int(1))
                        ),
                    ),
                ),
            )

        d = r.mk_letrec(
            [
                (a, clause(a, b, u)),
                (b, clause(b, c, v)),
                (c, r.mk_lam(w, r.mk_binop(Add, r.mk_var(w), r.mk_int(1)))),
            ],
            r.mk_var(a),
        )
        got = d({}).fn(VInt(4))
        assert got == VInt(11)
        assert got == VInt(ackermann(2, 4))

    def test_self_demanding_value_diverges(self):
        r = R()
        d = r.mk_letrec([(x, r.mk_var(x))], r.mk_var(x))
        with pytest.raises(StepLimitExceeded):
            d({})


class TestCoherence:
    def test_run_show_agree_on_random_builds(self):
        rng = random.Random(123)
        for _ in range(120):
            plan = random_plan(rng, rng.randrange(1, 5))
            tree = build_den(plan, S())(EMPTY_ENV)
            assert free_vars(tree) == set()
            got = eval_ast(tree, {})
            want = build_den(plan, R())({})
            assert got == want

    def test_show_builds_are_total(self):
        rng = random.Random(321)
        from stagelet import BaseAst

        for _ in range(100):
            plan = random_plan(rng, rng.randrange(1, 5))
            assert isinstance(build_den(plan, S())(EMPTY_ENV), BaseAst)


def _spy(denotation, log, tag):
    def den(env):
        log.append(tag)
        return denotation(env)

    return den


class TestPurity:
    def test_binary_applies_each_sub_once_left_first(self):
        r = R()
        log = []
        d = r.mk_binop(Add, _spy(r.mk_int(1), log, "L"), _spy(r.mk_int(2), log, "R"))
        d({})
        assert log == ["L", "R"]
        d({})
        assert log == ["L", "R", "L", "R"]

    def test_run_if_applies_exactly_one_branch(self):
        r = R()
        log = []
        d = r.mk_if(
            _spy(r.mk_bool(True), log, "c"),
            _spy(r.mk_int(1), log, "t"),
            _spy(r.mk_int(2), log, "e"),
        )
        d({})
        assert log == ["c", "t"]

    def test_run_lam_defers_body(self):
        r = R()
        log = []
        d = r.mk_lam(x, _spy(r.mk_var(x), log, "b"))
        fn = d({})
        assert log == []
        fn.fn(VInt(1))
        assert log == ["b"]

    def test_show_applies_each_sub_once(self):
        s = S()
        log = []
        d = s.mk_if(
            _spy(s.mk_bool(True), log, "c"),
            _spy(s.mk_int(1), log, "t"),
            _spy(s.mk_int(2), log, "e"),
        )
        d(EMPTY_ENV)
        assert log == ["c", "t", "e"]  # building the tree needs all children


class TestRunEnvironment:
    """Run's environment is a plain dict: running calls no Env method."""

    @pytest.fixture
    def no_env(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("run called an Env method")

        for method in ("extend", "redirect", "lookup"):
            monkeypatch.setattr(semantics.Env, method, refuse)

    def test_run_calls_no_env_method(self, no_env):
        assert apply_ints(run(clgib(10)), (2, 3)) == VInt(gib(10, 2, 3))
        assert isinstance(run(cack(8)), VFun)
        assert apply_ints(run(cack(2)), (3,)) == VInt(ackermann(2, 3))
        coeffs = [3, -1, 4, 1, -5, 9]
        for x in (-2, 0, 3):
            want = sum(c * x**i for i, c in enumerate(coeffs))
            assert apply_ints(run(cpoly(coeffs)), (x,)) == VInt(want)
        assert run(clet_sum_chain(300)) == VInt(300 * 301 // 2)

    def test_extruded_variable_stays_unbound(self, no_env):
        value = run(lookup("clgib5-extruded").builder())
        with pytest.raises(UnboundVariable, match="^unbound variable v1_1$"):
            apply_ints(value, (1, 2))


class _LetBodies(RunSemantics):
    """Run semantics that records every environment a let body is applied
    to, and its size then."""

    def __init__(self):
        super().__init__()
        self.envs = []
        self.sizes = []

    def mk_let(self, name, d1, d2, aliases=()):
        envs, sizes = self.envs, self.sizes

        def body(env):
            envs.append(env)
            sizes.append(len(env))
            return d2(env)

        return super().mk_let(name, d1, body, aliases)


class _CountingTable(dict):
    """An alias table that counts its lookups."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class _CountedRequests(RunSemantics):
    """Run semantics whose requests resolve through a `_CountingTable`."""

    def __init__(self):
        super().__init__()
        self._reps = _CountingTable()
        self.mk_request = semantics._run_request(self._reps)


def _extruded_alias():
    """An alias request in the right-hand side of a request to an outer
    locus: the outer let lands above the inner let of the alias's class, so
    the alias is used outside its representative's scope."""

    def inner(lo, li):
        rep = genlet(li, 1, cint(3), "rep")
        return cadd(rep, genlet(lo, 2, genlet(li, 1, cint(3), "alias"), "outer"))

    return with_locus(lambda lo: with_locus(lambda li: inner(lo, li)))


class TestRunAliasTable:
    """Run binds each class once, under its representative's name, and a
    request resolves through its semantics' alias table."""

    @pytest.mark.parametrize("n, aliases", [(11, 275), (14, 1204)])
    def test_environment_size_follows_binders_not_aliases(self, n, aliases):
        sem = _LetBodies()
        d, v = clgib(n)(BuildContext(sem), ROOT)
        assert not v
        assert apply_ints(d({}), (2, 3)) == VInt(gib(n, 2, 3))
        assert len(sem._reps) == aliases
        lets = count_lets(show(clgib(n)))
        assert lets == n
        # the lets plus the two parameters, however many aliases they carry
        assert max(sem.sizes) == lets + 2

    def test_each_request_resolves_once(self):
        sem = _CountedRequests()
        d, _ = clgib(8)(BuildContext(sem), ROOT)
        value = d({})
        assert sem._reps.gets == 0
        assert apply_ints(value, (2, 3)) == VInt(gib(8, 2, 3))
        # each alias request in the code resolves once, on its first
        # evaluation, and then reads its representative directly
        gets = sem._reps.gets
        assert 0 < gets <= len(sem._reps)
        assert apply_ints(value, (5, 1)) == VInt(gib(8, 5, 1))
        assert sem._reps.gets == gets

    def test_recursive_requests_resolve_once(self):
        sem = _CountedRequests()
        d, _ = cack(3)(BuildContext(sem), ROOT)
        value = d({})
        assert apply_ints(value, (3,)) == VInt(ackermann(3, 3))
        gets = sem._reps.gets
        assert 0 < gets <= len(sem._reps)
        for n in range(4):
            assert apply_ints(value, (n,)) == VInt(ackermann(3, n))
        assert sem._reps.gets == gets

    def test_c07_extrusion_names_the_free_variable(self):
        code = lookup("clgib5-extruded").builder()
        (free,) = free_vars(show(code))
        value = run(code)
        for _ in range(2):
            with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
                apply_ints(value, (1, 2))

    def test_extruded_alias_request_names_itself(self):
        code = _extruded_alias()
        (free,) = free_vars(show(code))
        assert free.render().startswith("alias_")
        for _ in range(2):
            with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
                run(code)

    def test_clgib_16_agrees_with_gib_and_show(self):
        code = clgib(16)
        value = run(code)
        shown = eval_ast(show(code))
        for args in ((2, 3), (0, 1), (-4, 7)):
            want = VInt(gib(16, *args))
            assert apply_ints(value, args) == want
            assert apply_ints(shown, args) == want

    def test_cack_3_applied_repeatedly_keeps_agreeing(self):
        code = cack(3)
        value, shown = run(code), eval_ast(show(code))
        for n in range(4):
            want = VInt(ackermann(3, n))
            for _ in range(3):
                assert apply_ints(value, (n,)) == want
            assert apply_ints(shown, (n,)) == want
        for n in (3, 0, 2, 1, 3):
            assert apply_ints(value, (n,)) == VInt(ackermann(3, n))

    def test_instances_share_no_table(self):
        m, k = Source("m"), Source("k")
        r1, r2 = R(), R()
        assert r1._reps is not r2._reps
        r1.mk_let(n, r1.mk_int(1), r1.mk_int(0), [m])
        r2.mk_letrec([(f, r2.mk_int(2))], r2.mk_int(0), [(k, f)])
        env = {n: VInt(1), f: VInt(2)}
        assert r1.mk_request(m)(env) == VInt(1)
        assert r2.mk_request(k)(env) == VInt(2)
        with pytest.raises(UnboundVariable, match="^unbound variable m$"):
            r2.mk_request(m)(env)
        with pytest.raises(UnboundVariable, match="^unbound variable k$"):
            r1.mk_request(k)(env)


def _agree_over(code, args):
    """Assert that `run` and `eval_ast` of `show` give the same value for
    each argument tuple in `args`, applied one after another."""
    value, shown = run(code), eval_ast(show(code))
    for a in args:
        assert apply_ints(value, a) == apply_ints(shown, a)


def _closure_before_a_let():
    # fun x -> let a = x + 1 in let f = fun y -> a + y in let z = x * 2 in
    # f z * f a
    return clam(
        lambda x: clet(
            cadd(x, cint(1)),
            lambda a: clet(
                clam(lambda y: cadd(a, y)),
                lambda f: clet(cmul(x, cint(2)), lambda z: cmul(capp(f, z), capp(f, a))),
            ),
        )
    )


def _recursion_between_a_let_and_its_use():
    # let rec s = fun n -> let a = n * n in if n = 0 then 0 else
    #   let r = s (n - 1) in let b = r + a in b
    def gen(l):
        def s():
            return clam(
                lambda n: clet(
                    cmul(n, n),
                    lambda a: cif(
                        ceq(n, cint(0)),
                        cint(0),
                        clet(
                            capp(genletrec(l, 0, s()), csub(n, cint(1))),
                            lambda r: clet(cadd(r, a), lambda b: b),
                        ),
                    ),
                )
            )

        return genletrec(l, 0, s())

    return with_locus_rec(gen)


def _extruded_closure():
    # let g = (fun x -> v) in let v = 1 in g 0: g's call must not see v
    return with_locus(
        lambda l: clet(cint(1), lambda v: capp(genlet(l, 1, clam(lambda x: v)), cint(0)))
    )


def _extruded_clause_closure():
    return with_locus_rec(
        lambda l: clet(
            cint(1), lambda v: capp(genletrec(l, 1, clam(lambda x: v)), cint(0))
        )
    )


def _extruded_clause_value():
    # let rec c = v + 1 in let v = 1 in c + v: c is forced after v is bound
    return with_locus_rec(
        lambda l: clet(cint(1), lambda v: cadd(genletrec(l, 1, cadd(v, cint(1))), v))
    )


def _extruded_across_clauses():
    # let rec c1 = (let v = 1 in c2) and c2 = (fun x -> v) in c1 0: c2 must
    # not see the v that c1's right-hand side binds
    return with_locus_rec(
        lambda l: capp(
            genletrec(
                l, 1, clet(cint(1), lambda v: genletrec(l, 2, clam(lambda x: v)))
            ),
            cint(0),
        )
    )


class TestRunBindsInPlace:
    """A let or letrec binds into the environment it is given; only a call
    copies, and a deferred evaluation sees its environment as it was
    deferred."""

    def test_closure_made_before_a_later_let(self):
        _agree_over(_closure_before_a_let(), [(k,) for k in range(-3, 4)])

    def test_recursion_between_a_let_and_its_use(self):
        code = _recursion_between_a_let_and_its_use()
        _agree_over(code, [(k,) for k in (0, 1, 5, 12, 3)])
        assert apply_ints(run(code), (12,)) == VInt(sum(k * k for k in range(13)))

    def test_clause_forced_after_a_let_of_the_letrec_body(self):
        # let rec c = fun y -> y * x in let a = x + 1 in c a + a
        code = clam(
            lambda x: with_locus_rec(
                lambda l: clet(
                    cadd(x, cint(1)),
                    lambda a: cadd(capp(genletrec(l, 0, clam(lambda y: cmul(y, x))), a), a),
                )
            )
        )
        _agree_over(code, [(k,) for k in (2, -1, 7)])
        assert apply_ints(run(code), (2,)) == VInt(9)

    def test_lets_of_one_activation_share_a_dict_and_each_call_copies(self):
        sem = _LetBodies()
        code = clet(
            cint(1), lambda a: clet(cadd(a, cint(1)), lambda b: _closure_before_a_let())
        )
        d, bindings = code(BuildContext(sem), ROOT)
        assert not bindings
        top = {}
        value = d(top)
        assert len(sem.envs) == 2 and all(e is top for e in sem.envs)
        calls = []
        for k in (1, 2, 2):
            del sem.envs[:]
            apply_ints(value, (k,))
            # the body's three lets, then f's two calls, which bind no let
            a, f, z = sem.envs
            assert a is f is z and a is not top
            assert all(a is not e for e in calls)
            calls.append(a)

    @pytest.mark.parametrize(
        "code",
        [
            _extruded_closure,
            _extruded_clause_closure,
            _extruded_clause_value,
            _extruded_across_clauses,
        ],
        ids=lambda f: f.__name__,
    )
    def test_extruded_deferred_code_stays_unbound(self, code):
        (free,) = free_vars(show(code()))
        with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
            eval_ast(show(code()))
        for _ in range(2):
            with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
                run(code())

    @staticmethod
    def _carried(code):
        """`code()` builds a variable outside its binder's body: run raises
        the message `eval_ast` raises, naming the one free name."""
        (free,) = free_vars(show(code()))
        with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
            eval_ast(show(code()))
        with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
            run(code())

    def test_variable_carried_out_through_host_state_stays_unbound(self):
        # (let v1 = 1 in v1) + (let v2 = 0 in v1): v1 is used after its
        # binder has run in the same activation
        def code():
            box = []
            return cadd(
                clet(cint(1), lambda v: (box.append(v), v)[1]),
                clet(cint(0), lambda _: box[0]),
            )

        self._carried(code)

    def test_redex_parameter_carried_out_through_host_state_stays_unbound(self):
        # ((fun p -> p) 5) + (let v2 = 0 in p): the redex binds p in the
        # activation, and p is used after it
        def code():
            box = []
            return cadd(
                capp(clam(lambda p: (box.append(p), p)[1]), cint(5)),
                clet(cint(0), lambda _: box[0]),
            )

        self._carried(code)

    def test_a_location_extending_the_body_index_is_outside_the_body(self):
        # ((fun p -> p) 5) + p, the second p built by a user's code value at
        # `_1_1_12`, child 12 of the function at `_1_1`: beside its body at
        # `_1_1_1`, not under it, though the string starts with the body's
        def code():
            box = []
            redex = capp(clam(lambda p: (box.append(p), p)[1]), cint(5))

            def build(ctx, loc):
                d1, _ = redex(ctx, loc + "_1")
                d2, _ = box[0](ctx, loc + "_1_1_12")
                return ctx.sem.mk_binop(Add, d1, d2), {}

            return codec.CodeValue(build)

        self._carried(code)

    def test_function_parameter_carried_out_through_host_state_stays_unbound(self):
        # let f = fun p -> p in f 5 + (let v = 0 in p)
        def code():
            box = []
            return clet(
                clam(lambda p: (box.append(p), p)[1]),
                lambda f: cadd(capp(f, cint(5)), clet(cint(0), lambda _: box[0])),
            )

        self._carried(code)


class TextName(Name):
    """A user's name class, equal and hashed by its text."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return isinstance(other, TextName) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def render(self):
        return self.text


def _run_den(t, r):
    """Tree `t` as the denotation of RunSemantics `r`'s builders."""
    match t:
        case IntLit(i):
            return r.mk_int(i)
        case Var(name):
            return r.mk_var(name)
        case Sub(a, b):
            return r.mk_binop(Sub, _run_den(a, r), _run_den(b, r))
        case Lam(param, body):
            return r.mk_lam(param, _run_den(body, r))
        case App(fun, arg):
            return r.mk_app(_run_den(fun, r), _run_den(arg, r))
        case Let(name, rhs, body):
            return r.mk_let(name, _run_den(rhs, r), _run_den(body, r))
        case LetRec(clauses, body):
            return r.mk_letrec([(c, _run_den(d, r)) for c, d in clauses], _run_den(body, r))
    raise AssertionError(t)


def _both(tree):
    """The values of `tree` under `eval_ast` and under run's builders."""
    return eval_ast(tree), _run_den(tree, R())({})


class TestEnvironmentKeys:
    """Both evaluators key a name by `name.path`: a `Fresh` name's location
    string, and any other name itself."""

    def test_a_fresh_key_is_its_location_and_any_other_key_the_name(self):
        assert Fresh("_1_2", hint="acc").path == "_1_2"
        for name in (Source("_1"), TextName("_1")):
            assert name.path is name and name.path != "_1"

    @pytest.mark.parametrize(
        "outer, inner",
        [
            (Source("_1"), Fresh("_1")),
            (Fresh("_1"), Source("_1")),
            (TextName("_1"), Fresh("_1", hint="v")),
            (Source("_1"), TextName("_1")),
        ],
    )
    def test_names_with_one_text_stay_two_variables(self, outer, inner):
        read = Sub(Var(outer), Var(inner))
        let = Let(outer, IntLit(1), Let(inner, IntLit(2), read))
        assert _both(let) == (VInt(-1), VInt(-1))
        lam = Let(outer, IntLit(1), App(Lam(inner, read), IntLit(5)))
        assert _both(lam) == (VInt(-4), VInt(-4))
        rec = LetRec(((outer, IntLit(3)), (inner, IntLit(1))), read)
        assert _both(rec) == (VInt(2), VInt(2))

    def test_a_hinted_and_an_unhinted_name_read_one_binding(self):
        acc, plain = Fresh("_1", hint="acc"), Fresh("_1")
        for binder, use in ((acc, plain), (plain, acc)):
            assert _both(Let(binder, IntLit(4), Var(use))) == (VInt(4), VInt(4))
            app = App(Lam(binder, Sub(Var(use), IntLit(1))), IntLit(4))
            assert _both(app) == (VInt(3), VInt(3))
            rec = LetRec(((binder, IntLit(4)),), Var(use))
            assert _both(rec) == (VInt(4), VInt(4))
        assert eval_ast(Var(plain), {acc: VInt(6)}) == VInt(6)
        r = R()
        alias = Fresh("_3", hint="alias")
        d = r.mk_let(acc, r.mk_int(7), r.mk_request(Fresh("_3")), [alias])
        assert d({}) == VInt(7)

    def test_a_user_name_is_its_own_key(self):
        a, b = TextName("k"), TextName("k")
        tree = Let(a, IntLit(8), Sub(Var(b), IntLit(1)))
        assert _both(tree) == (VInt(7), VInt(7))
        assert eval_ast(Var(b), {a: VInt(2)}) == VInt(2)
        r = R()
        d = r.mk_let(Fresh("_1"), r.mk_int(9), r.mk_request(TextName("m")), [TextName("m")])
        assert d({}) == VInt(9)

    @pytest.mark.parametrize(
        "name, text",
        [
            (Fresh("_2_1", hint="acc"), "acc_2_1"),
            (Fresh("_2_1"), "v2_1"),
            (Source("_2_1"), "_2_1"),
            (TextName("k"), "k"),
        ],
    )
    def test_unbound_messages_render_the_name(self, name, text):
        message = f"^unbound variable {text}$"
        bound = {Fresh("_2"): VInt(0)}
        with pytest.raises(UnboundVariable, match=message):
            eval_ast(Sub(Var(name), IntLit(0)), bound)
        with pytest.raises(UnboundVariable, match=message):
            eval_ast(Var(name), bound)
        r = R()
        for den in (r.mk_var(name), r.mk_request(name)):
            with pytest.raises(UnboundVariable, match=message):
                den({Fresh("_2").path: VInt(0)})


class TestEvaluationHashesNoName:
    """Evaluating generated code makes no `Fresh.__hash__` call: each
    evaluator's environment is keyed by location strings, whose hashes
    CPython keeps in the string."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        fresh_hash = Fresh.__hash__

        def counting(name):
            calls.append(name)
            return fresh_hash(name)

        monkeypatch.setattr(Fresh, "__hash__", counting)
        return calls

    def test_stage_once_run_many(self, hashes):
        n = 32
        coeffs = poly_coeffs(n)
        code = cpoly(coeffs)
        value, tree = run(code), show(code)
        assert hashes  # building does hash names
        hashes.clear()
        for x in (-2, 0, 3):
            want = VInt(sum(c * x**i for i, c in enumerate(coeffs)))
            assert apply_ints(value, (x,)) == want
            assert eval_ast(App(tree, IntLit(x))) == want
        assert hashes == []

    def test_a_request_resolves_its_alias_once(self, hashes):
        value = run(cack(2))
        hashes.clear()
        assert apply_ints(value, (3,)) == VInt(ackermann(2, 3))
        assert hashes  # each alias request's first miss reads the table
        hashes.clear()
        assert apply_ints(value, (3,)) == VInt(ackermann(2, 3))
        assert hashes == []


def _binop_den(cls, a, b):
    r = R()
    return r.mk_binop(cls, r.mk_int(a), r.mk_int(b))


def _succ_den(a):
    r = R()
    return r.mk_succ(r.mk_int(a))


class TestOperatorResults:
    """Run's integer operator and succ results are exact, frozen records. One
    that is an `int` in [-1024, 1024) is that int's shared record, the same
    object on every call; one at or past either bound is fresh on every
    call, an operator's made without its record's `__init__`. A
    comparison's result is one of run's two shared booleans."""

    @staticmethod
    def _true_record(v, want):
        assert type(v) is type(want)
        assert v == want and hash(v) == hash(want) and repr(v) == repr(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.value = 0
        for twin in (copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert type(twin) is type(want) and twin == want

    @pytest.mark.parametrize(
        "den, want",
        [
            (_binop_den(Add, 7, 3), VInt(10)),
            (_binop_den(Sub, 7, 3), VInt(4)),
            (_binop_den(Mul, 7, 3), VInt(21)),
            (_binop_den(Div, 7, -3), VInt(-2)),
            (_binop_den(Eq, 7, 7), VBool(True)),
            (_binop_den(Eq, 7, 3), VBool(False)),
            (_binop_den(MyAdd, 7, 3), VInt(10)),
            (_succ_den(9), VInt(10)),
        ],
        ids=["add", "sub", "mul", "div", "eq", "ne", "subclass", "succ"],
    )
    def test_result_is_a_true_record(self, den, want):
        v = den({})
        self._true_record(v, want)
        if type(want) is VBool:
            assert v is (semantics.TRUE if want.value else semantics.FALSE)
        else:
            assert v is base._SMALL[want.value]
        assert den({}) is v

    @pytest.mark.parametrize(
        "den, want, shared",
        [
            (_binop_den(Add, 1022, 1), VInt(1023), True),
            (_binop_den(Sub, -1023, 1), VInt(-1024), True),
            (_succ_den(-1025), VInt(-1024), True),
            (_binop_den(Add, 1023, 1), VInt(1024), False),
            (_binop_den(Sub, -1024, 1), VInt(-1025), False),
            (_binop_den(Mul, 32, 32), VInt(1024), False),
            (_binop_den(Div, 2050, -2), VInt(-1025), False),
            (_binop_den(MyAdd, 1000, 1000), VInt(2000), False),
            (_succ_den(1023), VInt(1024), False),
            (_succ_den(-1026), VInt(-1025), False),
        ],
        ids=[
            "add-top", "sub-bottom", "succ-bottom", "add-past-top", "sub-past-bottom",
            "mul-past-top", "div-past-bottom", "subclass-past-top", "succ-past-top",
            "succ-past-bottom",
        ],
    )
    def test_a_result_at_either_bound(self, den, want, shared):
        """1023 and -1024 are the table's last entries, 1024 and -1025 the
        first values past it."""
        v = den({})
        self._true_record(v, want)
        assert (den({}) is v) is shared
        if shared:
            assert v is base._SMALL[want.value]


# the table's last entries and the first values past it on either side
_EDGES = (-1025, -1024, 1023, 1024)


def _host_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_HOST_OPS = {
    cadd: (Add, lambda a, b: a + b),
    csub: (Sub, lambda a, b: a - b),
    cmul: (Mul, lambda a, b: a * b),
    cdiv: (Div, _host_div),
    ceq: (Eq, lambda a, b: a == b),
}


def _boxed(r):
    return VBool(r) if type(r) is bool else VInt(r)


def _shared_as_it_should_be(v):
    """`v` is the table's record exactly when its value is an exact `int`
    in range, and a boolean is one of the two shared ones."""
    if type(v) is VBool:
        assert v is (semantics.TRUE if v.value else semantics.FALSE)
    elif type(v.value) is int and -1024 <= v.value < 1024:
        assert v is base._SMALL[v.value]
    else:
        assert all(v is not w for w in base._SMALL)


class TestSharedInts:
    """`base._SMALL` holds `VInt(i)` for every exact `int` i in [-1024,
    1024); run and `eval_ast` return its record for such a result, and a
    fresh one for anything else, so values are those of host arithmetic at
    both bounds and a junk value is boxed as before."""

    def test_every_entry_is_its_int(self):
        assert len(base._SMALL) == 2048
        for i in range(-1024, 1024):
            v = base._SMALL[i]
            assert type(v) is VInt and v == VInt(i) and type(v.value) is int

    @pytest.mark.parametrize("comb", list(_HOST_OPS), ids=lambda c: c.__name__)
    def test_operators_agree_with_host_ints_at_the_bounds(self, comb):
        cls, host = _HOST_OPS[comb]
        lits = [*_EDGES, -1, 1]
        # a literal operand and a denotation operand of the same value
        forms = (cint, lambda i: capp(clam(lambda v: v), cint(i)))
        names = run(clam(lambda a: clam(lambda b: comb(a, b))))
        for a in _EDGES:
            for b in lits:
                want = _boxed(host(a, b))
                for fa in forms:
                    for fb in forms:
                        code = comb(fa(a), fb(b))
                        for v in (run(code), eval_ast(show(code))):
                            assert v == want and type(v.value) is type(want.value)
                            _shared_as_it_should_be(v)
                for v in (
                    apply_ints(names, (a, b)),
                    apply_ints(names, (b, a)),
                    eval_ast(cls(IntLit(a), IntLit(b))),
                    eval_ast(cls(IntLit(b), IntLit(a))),
                ):
                    _shared_as_it_should_be(v)
                assert apply_ints(names, (a, b)) == eval_ast(cls(IntLit(a), IntLit(b))) == want
                assert apply_ints(names, (b, a)) == _boxed(host(b, a))
                assert eval_ast(cls(IntLit(b), IntLit(a))) == _boxed(host(b, a))

    def test_succ_and_literals_agree_with_host_ints_at_the_bounds(self):
        for i in (e + d for e in _EDGES for d in (-1, 0)):
            code = csucc(cint(i))
            for v in (
                run(code),
                eval_ast(show(code)),
                apply_ints(run(clam(csucc)), (i,)),
            ):
                assert v == VInt(i + 1)
                _shared_as_it_should_be(v)
            for v in (eval_ast(IntLit(i)), apply_ints(run(clam(lambda v: v)), (i,))):
                assert v == VInt(i)
                _shared_as_it_should_be(v)

    @pytest.mark.parametrize(
        "host, want",
        [(VInt(2.5), VInt(3.5)), (VInt(True), VInt(2))],
        ids=["float", "bool"],
    )
    def test_a_junk_host_value_gives_todays_value(self, host, want):
        """A float result is fresh. `True + 1` is the exact `int` 2, so its
        result is the shared `VInt(2)`, equal to the fresh one made before."""
        g = VFun(lambda _: host)
        for code in (
            clam(lambda h: cadd(capp(h, cint(0)), cint(1))),
            clam(lambda h: cadd(cint(1), capp(h, cint(0)))),
        ):
            for f in (run(code), eval_ast(show(code))):
                v = f.fn(g)
                assert v == want and type(v.value) is type(want.value)
                _shared_as_it_should_be(v)

    @pytest.mark.parametrize(
        "tree, want",
        [
            (Succ(IntLit(1.5)), VInt(2.5)),
            (IntLit(True), VInt(True)),
            (BoolLit(5), VBool(5)),
        ],
        ids=["succ-float", "int-true", "bool-five"],
    )
    def test_eval_ast_boxes_a_junk_literal_afresh(self, tree, want):
        v = eval_ast(tree)
        assert type(v) is type(want) and type(v.value) is type(want.value)
        assert v.value == want.value
        assert v is not eval_ast(tree)
        assert all(v is not w for w in (*base._SMALL, semantics.TRUE, semantics.FALSE))


# Operands of a binary operator, by kind: the operand `mk_binop` takes in
# semantics `r` (a denotation, an int literal or a name) and the node the
# reference tree holds. The names are bound by
# `_operand_scope`: a to 5, b to true, c to a letrec cell holding 4; u is
# unbound.
a_, b_, c_, u_ = Source("a"), Source("b"), Source("c"), Source("u")
_OPERANDS = {
    "literal": (lambda r: 7, IntLit(7)),
    "denotation": (lambda r: r.mk_succ(r.mk_int(2)), Succ(IntLit(2))),
    "int name": (lambda r: a_, Var(a_)),
    "bool name": (lambda r: b_, Var(b_)),
    "cell name": (lambda r: c_, Var(c_)),
    "unbound name": (lambda r: u_, Var(u_)),
    "bool denotation": (lambda r: r.mk_bool(False), BoolLit(False)),
}


def _operand_scope(r, body):
    """letrec c = 4 in let a = 5 in let b = true in body, in run's builders
    when `r` is given, else as a tree."""
    if r is None:
        return LetRec(((c_, IntLit(4)),), Let(a_, IntLit(5), Let(b_, BoolLit(True), body)))
    return r.mk_letrec(
        [(c_, r.mk_int(4))],
        r.mk_let(a_, r.mk_int(5), r.mk_let(b_, r.mk_bool(True), body)),
    )


def _outcome(thunk):
    """The value `thunk` returns, or the class and message it raises."""
    try:
        return thunk()
    except StagingError as e:
        return type(e), str(e)


class _Color(enum.IntEnum):
    RED = 3


class _Spelled(int):
    """An `int` subclass that prints as its own text."""

    def __str__(self):
        return "three"


class TestBinopOperands:
    """`mk_binop` takes a literal or a name operand unbuilt: run reads it in
    place and show makes the node `mk_int` or `mk_var` would. Every pair of
    operand forms gives run's value, error class and message, and least
    step budget the reference's."""

    @pytest.mark.parametrize("cls", [Add, Sub, Div, Eq])
    @pytest.mark.parametrize("left", list(_OPERANDS))
    @pytest.mark.parametrize("right", list(_OPERANDS))
    def test_run_agrees_with_eval_ast(self, cls, left, right):
        (op1, node1), (op2, node2) = _OPERANDS[left], _OPERANDS[right]
        tree = _operand_scope(None, cls(node1, node2))
        for limit in (0, 1):
            r = R(limit)
            den = _operand_scope(r, r.mk_binop(cls, op1(r), op2(r)))
            want = _outcome(lambda: eval_ast(tree, step_limit=limit))
            assert _outcome(lambda: den({})) == want

    @pytest.mark.parametrize("left", list(_OPERANDS))
    @pytest.mark.parametrize("right", list(_OPERANDS))
    def test_show_makes_the_nodes_of_mk_int_and_mk_var(self, left, right):
        s = S()
        (show1, node1), (show2, node2) = _OPERANDS[left], _OPERANDS[right]
        d = s.mk_binop(Mul, show1(s), show2(s))
        for _ in range(2):
            assert d(EMPTY_ENV) == Mul(node1, node2)

    def test_a_cell_operand_is_forced_once_and_ticks_once(self):
        r = R(1)
        den = _operand_scope(r, r.mk_binop(Add, c_, c_))
        assert den({}) == VInt(8)
        with pytest.raises(StepLimitExceeded):
            _operand_scope(R(0), R(0).mk_binop(Add, 1, c_))({})

    def test_an_int_subclass_literal_reads_as_its_int(self):
        # Python 3.10's `str` of an `IntEnum` member is `_Color.RED`, and
        # `_Spelled` prints its own text on every version: a literal prints
        # and computes as the `int` it stands for, alone, as either operand,
        # beside a variable and bound by a let
        for three in (_Color.RED, _Spelled(3)):
            for code, text, sexp, value in [
                (cint(three), "3", "(int 3)", 3),
                (cadd(cint(three), cint(4)), "(3 + 4)", "(add (int 3) (int 4))", 7),
                (csub(cint(4), cint(three)), "(4 - 3)", "(sub (int 4) (int 3))", 1),
                (
                    clet(cint(three), lambda y: cmul(y, cadd(cint(three), y))),
                    "(let v = 3 in (v * (3 + v)))",
                    "(let v (int 3) (mul (var v) (add (int 3) (var v))))",
                    18,
                ),
            ]:
                tree = show(code)
                assert pretty(tree) == text and to_sexp(tree) == sexp
                for v in (run(code), eval_ast(tree)):
                    assert v == VInt(value) and type(v.value) is int
            for f in (run(clam(lambda x: x)), eval_ast(show(clam(lambda x: x)))):
                v = apply_ints(f, [three])
                assert v == VInt(3) and type(v.value) is int


def _hoisted(make):
    """`with_locus(let v = 1 in g 0)` where g = fun x -> make(v, x) is
    requested at the locus, so it is bound above v's let: v is unbound
    when g runs, and x is 0."""
    return with_locus(
        lambda l: clet(
            cint(1),
            lambda v: capp(genlet(l, 1, clam(lambda x: make(v, x))), cint(0)),
        )
    )


class TestOperandErrors:
    """The operand paths raise in `run` what `eval_ast(show(...))` raises,
    and only when the code runs."""

    def _both_raise(self, code, error, message):
        for thunk in (lambda: run(code), lambda: eval_ast(show(code))):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                thunk()

    def test_left_operand_is_checked_first(self):
        code = _hoisted(lambda v, x: cadd(cbool(True), v))
        self._both_raise(code, TypeMismatch, "expected an integer, got VBool(value=True)")

    @pytest.mark.parametrize(
        "make",
        [
            lambda v, x: cadd(v, cint(1)),
            lambda v, x: cadd(cint(1), v),
            lambda v, x: cmul(x, v),
            lambda v, x: csub(v, x),
            lambda v, x: ceq(v, v),
            lambda v, x: cadd(csucc(x), v),
        ],
        ids=["left-of-literal", "right-of-literal", "right-of-name", "left-of-name", "both", "right-of-denotation"],
    )
    def test_extruded_operand_names_itself(self, make):
        code = _hoisted(make)
        (free,) = free_vars(show(code))
        self._both_raise(code, UnboundVariable, f"unbound variable {free.render()}")

    @pytest.mark.parametrize(
        "make",
        [lambda b: cadd(b, cint(1)), lambda b: cadd(cint(1), b), lambda b: csub(b, b)],
        ids=["left", "right", "both"],
    )
    def test_bool_operand(self, make):
        code = clet(cbool(True), make)
        self._both_raise(code, TypeMismatch, "expected an integer, got VBool(value=True)")

    @pytest.mark.parametrize(
        "make", [lambda x: cdiv(x, cint(0)), lambda x: cdiv(cint(1), cint(0))], ids=["name", "literal"]
    )
    def test_division_by_zero_raises_only_when_applied(self, make):
        code = clam(make, hint="x")
        value, shown = run(code), eval_ast(show(code))
        for f in (value, shown):
            with pytest.raises(TypeMismatch, match="^division by zero$"):
                apply_ints(f, (5,))

    @pytest.mark.parametrize(
        "make, want",
        [
            (lambda x: csub(cint(10), x), lambda k: 10 - k),
            (lambda x: csub(x, cint(10)), lambda k: k - 10),
            (lambda x: cdiv(cint(-7), x), lambda k: int(-7 / k)),
            (lambda x: ceq(cint(2), x), lambda k: k == 2),
        ],
        ids=["literal-left", "literal-right", "div-literal-left", "eq-literal-left"],
    )
    def test_literal_on_either_side(self, make, want):
        code = clam(make)
        _agree_over(code, [(k,) for k in (-3, 2, 7)])
        for k in (-3, 2, 7):
            v = apply_ints(run(code), (k,))
            assert v.value == want(k)

    def test_no_constant_folding(self):
        assert pretty(show(cadd(cint(1), cint(2)))) == "(1 + 2)"
        assert run(cadd(cint(1), cint(2))) == VInt(3)


class TestBranchingBody:
    """Run's booleans are two shared values, and a function whose body is an
    `if` evaluates the `if` in its own call (`RunSemantics.mk_lam`); values
    and errors stay those of `eval_ast`."""

    def test_a_comparison_is_a_shared_boolean(self):
        assert run(ceq(cint(1), cint(1))) == VBool(True)
        assert run(ceq(cint(1), cint(1))) is semantics.TRUE
        assert run(ceq(cint(1), cint(2))) is semantics.FALSE
        assert run(cbool(True)) is semantics.TRUE
        assert run(cbool(False)) is semantics.FALSE

    def test_a_body_that_branches_on_a_non_boolean_raises_as_eval_ast(self):
        code = clam(lambda v: cif(v, cint(1), cint(2)))
        for f in (run(code), eval_ast(show(code))):
            with pytest.raises(
                TypeMismatch, match=r"^if condition must be a boolean, got VInt\(value=5\)$"
            ):
                apply_ints(f, (5,))

    @pytest.mark.parametrize("b, want", [(True, 1), (False, 2)], ids=["true", "false"])
    def test_a_fresh_boolean_from_a_host_function_picks_by_value(self, b, want):
        code = clam(lambda g: cif(capp(g, cint(0)), cint(1), cint(2)))
        host = VFun(lambda a: VBool(b))
        # a fresh value, so neither identity test takes it
        assert host.fn(None) is not (semantics.TRUE if b else semantics.FALSE)
        for f in (run(code), eval_ast(show(code))):
            assert f.fn(host) == VInt(want)

    @pytest.mark.parametrize(
        "code",
        [
            # the body is a let over an `if`, not the `if` built last
            clam(lambda v: clet(cif(ceq(v, cint(0)), cint(1), cint(2)), lambda w: cadd(w, v))),
            # a fused function inside a branch of a fused function
            clam(
                lambda a: cif(
                    ceq(a, cint(0)),
                    cint(7),
                    capp(clam(lambda b: cif(ceq(b, a), cint(8), cint(9))), cint(2)),
                )
            ),
            # only the inner function's body is an `if`
            clam(lambda a: capp(clam(lambda b: cif(ceq(a, b), a, b)), cint(3))),
        ],
        ids=["let-over-if", "nested", "inner-only"],
    )
    def test_fused_and_plain_functions_agree_with_eval_ast(self, code):
        _agree_over(code, [(k,) for k in (0, 2, 3)])

    @pytest.mark.parametrize("b, want", [(True, 1), (False, 2)], ids=["true", "false"])
    def test_a_fresh_boolean_from_user_code_picks_by_value(self, b, want):
        # a user code value whose run denotation makes a fresh `VBool`: the
        # condition of a plain `if` (`mk_if`) and of a fused function's body
        fresh = codec.CodeValue(lambda ctx, loc: (lambda env: VBool(b), {}))
        assert run(cif(fresh, cint(1), cint(2))) == VInt(want)
        assert apply_ints(run(clam(lambda v: cif(fresh, v, cint(2)))), (1,)) == VInt(want)

    def test_a_fused_call_counts_its_step(self):
        f = run(clam(lambda n: cif(ceq(n, cint(0)), cint(1), cint(2))), step_limit=0)
        with pytest.raises(StepLimitExceeded, match="^step limit exceeded$"):
            apply_ints(f, (5,))

    def test_an_extruded_variable_in_a_branch_stays_unbound(self):
        code = _hoisted(lambda v, x: cif(ceq(x, cint(0)), v, cint(1)))
        (free,) = free_vars(show(code))
        for thunk in (lambda: run(code), lambda: eval_ast(show(code))):
            with pytest.raises(UnboundVariable, match=f"^unbound variable {free.render()}$"):
                thunk()


def _denotations(sem):
    """(maker, label, denotation) for every maker of `sem`: each operand
    shape of `mk_binop`, for an arithmetic operator and a comparison, and
    both of run's function shapes (a plain body and an `if` body)."""
    x, y = Fresh("_1", "x"), Fresh("_2", "y")
    one = sem.mk_int(1)
    yield "mk_var", "", sem.mk_var(x)
    yield "mk_request", "", sem.mk_request(x)
    yield "mk_int", "", one
    yield "mk_bool", "", sem.mk_bool(True)
    yield "mk_succ", "", sem.mk_succ(one)
    operands = {
        "den-den": (one, one),
        "den-int": (one, 2),
        "int-den": (2, one),
        "den-name": (one, x),
        "name-den": (x, one),
        "int-name": (2, x),
        "int-int": (1, 2),
        "name-name": (x, y),
    }
    for cls in (Add, Eq):
        for shape, (d1, d2) in operands.items():
            yield "mk_binop", f"{cls.__name__} {shape}", sem.mk_binop(cls, d1, d2)
    yield "mk_if", "", sem.mk_if(sem.mk_bool(True), one, one)
    yield "mk_lam", "plain body", sem.mk_lam(x, one)
    yield "mk_lam", "if body", sem.mk_lam(x, sem.mk_if(sem.mk_var(x), one, one))
    yield "mk_app", "", sem.mk_app(one, one)
    yield "mk_redex", "", sem.mk_redex(x, one, one)
    yield "mk_unbound", "", sem.mk_unbound(x)
    yield "mk_let", "", sem.mk_let(x, one, one, (y,))
    yield "mk_letrec", "", sem.mk_letrec(((x, one),), one, ((y, x),))


class TestFlatDenotations:
    """Every denotation holds its parts as parameter defaults, not in
    closure cells: one defaults tuple, where a closure costs a tuple and a
    cell per part, each tracked by the cyclic collector. Run's request is
    the one exception: it rewrites its name once, in its own cell, and
    shares the alias table's cell with every request of its semantics."""

    @pytest.mark.parametrize("sem_class", [RunSemantics, ShowSemantics])
    def test_every_maker_is_covered(self, sem_class):
        sem = sem_class()
        makers = {a for a in dir(sem) if a.startswith("mk_")}
        assert {maker for maker, _, _ in _denotations(sem)} == makers

    @pytest.mark.parametrize("sem_class", [RunSemantics, ShowSemantics])
    def test_no_denotation_closes_over_a_cell(self, sem_class):
        sem = sem_class()
        for maker, label, d in _denotations(sem):
            if sem_class is RunSemantics and maker == "mk_request":
                assert sorted(d.__code__.co_freevars) == ["name", "reps"]
                continue
            assert d.__closure__ is None, (maker, label)

    @pytest.mark.parametrize("body", ["plain", "if"])
    def test_a_function_value_holds_no_cell(self, body):
        sem = RunSemantics()
        x = Fresh("_1", "x")
        one = sem.mk_int(1)
        f = sem.mk_lam(x, sem.mk_if(sem.mk_bool(True), one, one) if body == "if" else one)({})
        assert f.fn.__closure__ is None
        assert f.fn(VInt(0)) == VInt(1)
