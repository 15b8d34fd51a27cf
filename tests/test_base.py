import dataclasses
import itertools
import math
import random
import re
import types

import pytest

import stagelet
from stagelet import (
    Add,
    App,
    BaseAst,
    BinOp,
    BoolLit,
    CanonLimitExceeded,
    Div,
    Eq,
    Fresh,
    If,
    IntLit,
    Lam,
    Let,
    LetRec,
    Mul,
    Name,
    ResidualBindings,
    Source,
    StagingError,
    StepLimitExceeded,
    Sub,
    Succ,
    TypeMismatch,
    UnboundVariable,
    VBool,
    Value,
    VFun,
    VInt,
    Var,
    alpha_eq,
    apply_ints,
    cadd,
    capp,
    ceq,
    cif,
    cint,
    clam,
    eval_ast,
    free_vars,
    lookup,
    pretty,
    run,
    show,
    to_sexp,
)
from stagelet.base import _Budget, _slot_new, render_location
from stagelet.insertion import BindingClass

from helpers import (
    bracketed,
    bruteforce_free,
    cack,
    check_record,
    gib,
    location_of,
    model_alpha_eq,
    model_eval_ast,
    model_free_vars,
    random_term,
    records_of,
    rename_bound,
    subtrees,
)

x, y, z = Source("x"), Source("y"), Source("z")


def index_tuples(seed, count=300):
    """Random child-index tuples of length 0 to 5 over indices that render
    alike when run together without separators (1 and 11, 0 and 10)."""
    rng = random.Random(seed)
    alphabet = [0, 1, 2, 3, 9, 10, 11, 12, 100, 101]
    return [
        tuple(rng.choice(alphabet) for _ in range(rng.randrange(6)))
        for _ in range(count)
    ]


def index_paths(seed, count=150):
    """Random child-index paths of depth 0 to 50, then every third one
    again, so that some paths repeat."""
    rng = random.Random(seed)
    alphabet = [0, 1, 2, 10, 11, 12, 101]
    paths = [
        tuple(rng.choice(alphabet) for _ in range(rng.randrange(51)))
        for _ in range(count)
    ]
    return paths + paths[::3]


class TestNames:
    def test_source_and_fresh_never_equal(self):
        assert Source("v1") != Fresh("_1")
        assert Fresh("_1") != Source("v1")

    def test_fresh_equality_is_location_equality(self):
        assert Fresh("_1_2") == Fresh("_1_2")
        assert Fresh("_1_2") != Fresh("_2_1")
        assert hash(Fresh("_1_2")) == hash(Fresh("_1_2"))

    def test_hint_does_not_affect_equality(self):
        name = Fresh("_1_2", hint="acc")
        assert name == Fresh("_1_2")
        assert hash(name) == hash(name) == hash(Fresh("_1_2"))

    def test_a_fresh_name_is_its_path_and_hint_and_hashes_as_its_path(self):
        assert Fresh.__slots__ == ("path", "hint")
        for path in ("", "_1", "_4_0_17"):
            hinted, plain = Fresh(path, hint="acc"), Fresh(path)
            assert hash(plain) == hash(path)
            assert hinted == plain and hash(hinted) == hash(plain)

    def test_rendering(self):
        assert Fresh("_1_2").render() == "v1_2"
        assert Fresh("").render() == "v"
        assert Fresh("_3", hint="acc").render() == "acc_3"
        assert Fresh("", hint="acc").render() == "acc"
        assert Source("loop").render() == "loop"

    @pytest.mark.parametrize("text", [5, None, b"x"], ids=["int", "none", "bytes"])
    def test_a_source_takes_only_a_string(self, text):
        with pytest.raises(TypeMismatch, match=f"^not a name text: {re.escape(repr(text))}$"):
            Source(text)

    @pytest.mark.parametrize("hint", [5, ("a",)], ids=["int", "tuple"])
    def test_a_hint_that_is_not_a_string_fails_to_render(self, hint):
        # a `Fresh` is made once per binder and request, unchecked; its hint
        # is tested where it is read
        name = Fresh("_1", hint)
        for thunk in (name.render, lambda: pretty(Var(name))):
            with pytest.raises(TypeMismatch, match=f"^not a name hint: {re.escape(repr(hint))}$"):
                thunk()

    def test_rendering_twice_gives_equal_text(self):
        name = Fresh("_4_0_17", hint="acc")
        assert name.render() == name.render() == "acc_4_0_17"

    def test_rendered_hint_stays_on_its_own_object(self):
        hinted, plain = Fresh("_1_2", hint="acc"), Fresh("_1_2")
        assert (hinted.render(), plain.render()) == ("acc_1_2", "v1_2")
        assert hinted == plain and hash(hinted) == hash(plain)
        keys = {hinted: 1, plain: 2}
        assert keys == {hinted: 2}
        assert (hinted.render(), plain.render()) == ("acc_1_2", "v1_2")

    def test_names_are_equal_exactly_when_their_indices_are(self):
        tuples = index_tuples(1)
        names = [Fresh(location_of(t)) for t in tuples]
        assert len(set(tuples)) < len(tuples)  # some draws repeat
        for a, na in zip(tuples, names):
            for b, nb in zip(tuples, names):
                assert (na == nb) is (a == b)
                if a == b:
                    assert hash(na) == hash(nb)

    def test_indices_list_and_location_string_make_one_name(self):
        # two location strings built apart from one index list: equal, not
        # the same object
        for t in index_tuples(2):
            loc = location_of(t)
            name, again = Fresh(loc), Fresh("".join("_" + str(i) for i in list(t)))
            assert name == again == Fresh(loc)
            assert hash(name) == hash(again) == hash(Fresh(loc))
            assert render_location(name.path) == bracketed(t)
            assert repr(name) == f"Fresh({loc!r})"

    def test_rendering_joins_the_indices(self):
        for t in index_tuples(3):
            joined = "_".join(map(str, t))
            assert Fresh(location_of(t)).render() == "v" + joined
            want = "acc" if not t else f"acc_{joined}"
            assert Fresh(location_of(t), hint="acc").render() == want

    def test_sexp_first_then_pretty_reads_as_pretty_alone(self):
        tree = show(cack(3))
        to_sexp(tree)
        assert pretty(tree) == pretty(show(cack(3)))


class TestLocations:
    def test_messages_and_names_agree_with_the_indices(self):
        paths = index_paths(4)
        assert len(set(paths)) < len(paths)  # some paths repeat
        names = [Fresh(location_of(t)) for t in paths]
        for t, name in zip(paths, names):
            loc = location_of(t)
            assert render_location(loc) == bracketed(t)
            e = CanonLimitExceeded(loc, [3])
            assert e.locus == loc
            assert str(e) == (
                f"canonicalization at locus {bracketed(t)} did not settle; "
                "keys still pending: [3]"
            )
            joined = "_".join(map(str, t))
            assert name.render() == "v" + joined
            assert Fresh(loc, hint="acc").render() == (f"acc_{joined}" if t else "acc")
            for u, other in zip(paths, names):
                assert (name == other) is (t == u)
                if t == u:
                    assert hash(name) == hash(other)
        for a, b in zip(paths, paths[1:]):
            e = ResidualBindings([location_of(a), location_of(b)])
            assert e.loci == (location_of(a), location_of(b))
            assert str(e) == f"unplaced bindings for loci: {bracketed(a)}, {bracketed(b)}"

    @pytest.mark.parametrize(
        "path", [5, (1,), None, [1, 2], b"_1"], ids=["int", "tuple", "none", "list", "bytes"]
    )
    def test_a_path_that_is_not_a_location_string_is_refused(self, path):
        with pytest.raises(TypeMismatch, match=f"^not a location: {re.escape(repr(path))}$"):
            Fresh(path)


class TestPretty:
    def test_operators(self):
        assert pretty(Add(IntLit(1), IntLit(2))) == "(1 + 2)"
        assert pretty(Sub(IntLit(1), IntLit(2))) == "(1 - 2)"
        assert pretty(Mul(Var(x), Var(x))) == "(x * x)"
        assert pretty(Div(IntLit(7), IntLit(2))) == "(7 / 2)"
        assert pretty(Eq(Var(x), IntLit(0))) == "(x = 0)"
        assert pretty(Succ(IntLit(1))) == "(succ 1)"

    def test_variables_and_literals(self):
        assert pretty(Var(x)) == "x"
        assert pretty(Var(Fresh("_1_2"))) == "v1_2"
        assert pretty(IntLit(42)) == "42"
        assert pretty(BoolLit(True)) == "true"
        assert pretty(BoolLit(False)) == "false"

    def test_binders(self):
        assert pretty(Lam(x, Var(x))) == "(fun x -> x)"
        assert pretty(Let(x, IntLit(3), Add(Var(x), Var(x)))) == "(let x = 3 in (x + x))"
        assert (
            pretty(LetRec(((x, Var(y)), (y, Var(x))), Var(x)))
            == "(let rec x = y and y = x in x)"
        )
        assert pretty(If(BoolLit(True), IntLit(1), IntLit(2))) == "(if true then 1 else 2)"
        assert pretty(App(Var(x), Var(y))) == "(x y)"

    def test_deterministic(self):
        tree = lookup("gib5").builder()
        assert pretty(tree) == pretty(tree)
        assert to_sexp(tree) == to_sexp(tree)


class TestToSexp:
    def test_examples(self):
        assert to_sexp(Add(IntLit(1), IntLit(2))) == "(add (int 1) (int 2))"
        assert to_sexp(Lam(x, Var(x))) == "(lam x (var x))"
        assert (
            to_sexp(If(BoolLit(True), IntLit(1), IntLit(2)))
            == "(if (bool true) (int 1) (int 2))"
        )
        assert (
            to_sexp(LetRec(((x, IntLit(1)), (y, IntLit(2))), Var(x)))
            == "(letrec ((x (int 1)) (y (int 2))) (var x))"
        )
        assert to_sexp(Div(Var(x), IntLit(2))) == "(div (var x) (int 2))"
        assert to_sexp(Let(x, IntLit(1), Var(x))) == "(let x (int 1) (var x))"

    def test_injective_on_random_trees(self):
        rng = random.Random(2024)
        seen = {}
        for _ in range(300):
            t = random_term(rng, 4)
            s = to_sexp(t)
            if s in seen:
                assert seen[s] == t
            seen[s] = t


class TestFreeVars:
    def test_basic(self):
        assert free_vars(Lam(x, Var(x))) == set()
        assert free_vars(Add(Var(y), IntLit(1))) == {y}
        assert free_vars(Let(x, Var(x), Var(x))) == {x}  # rhs sees the outer x
        assert free_vars(LetRec(((x, Var(y)), (y, Var(x))), Var(x))) == set()

    def test_lam_rule_random(self):
        rng = random.Random(7)
        for _ in range(100):
            body = random_term(rng, 3, scope=(x, y))
            assert free_vars(Lam(x, body)) == free_vars(body) - {x}

    def test_matches_bruteforce_scan(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_term(rng, 4, scope=(x, y, z))
            assert free_vars(t) == bruteforce_free(t)


class TestAlphaEq:
    def test_basic(self):
        assert alpha_eq(Lam(x, Var(x)), Lam(y, Var(y)))
        assert not alpha_eq(Lam(x, Lam(y, Var(x))), Lam(x, Lam(y, Var(y))))
        assert not alpha_eq(Var(x), Var(y))  # free names must match exactly
        assert alpha_eq(Lam(Fresh("_1"), Var(Fresh("_1"))), Lam(x, Var(x)))

    def test_letrec_positional(self):
        a = LetRec(((x, Var(y)), (y, Var(x))), Var(x))
        b = LetRec(((z, Var(Source("w"))), (Source("w"), Var(z))), Var(z))
        assert alpha_eq(a, b)
        flipped = LetRec(((y, Var(x)), (x, Var(y))), Var(y))
        assert alpha_eq(a, flipped)  # same shape under the positional pairing
        assert not alpha_eq(a, LetRec(((x, Var(y)),), Var(x)))

    def test_equivalence_relation_on_corpus(self):
        rng = random.Random(40)
        corpus = []
        for _ in range(40):
            t = random_term(rng, 3)
            corpus += [t, rename_bound(t), rename_bound(t)]
        assert len(corpus) >= 100
        for t in corpus:
            assert alpha_eq(t, t)
        for i in range(0, len(corpus), 3):
            t, r1, r2 = corpus[i], corpus[i + 1], corpus[i + 2]
            assert alpha_eq(t, r1) and alpha_eq(r1, t)
            assert alpha_eq(r1, r2)  # transitivity through t
        # and plain unrelated pairs keep symmetry
        for i in range(0, len(corpus) - 3, 3):
            a, b = corpus[i], corpus[i + 3]
            assert alpha_eq(a, b) == alpha_eq(b, a)

    def test_alpha_equal_closed_terms_evaluate_alike(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            t = random_term(rng, 3)
            if free_vars(t):
                continue
            r = rename_bound(t)
            try:
                va = eval_ast(t, {}, step_limit=10_000)
            except (TypeMismatch, StepLimitExceeded, UnboundVariable):
                continue
            if isinstance(va, VFun):
                continue
            vb = eval_ast(r, {}, step_limit=10_000)
            assert va == vb
            checked += 1
        assert checked >= 20


class TestEval:
    def test_literals_and_arith(self):
        assert eval_ast(Add(IntLit(1), IntLit(2)), {}) == VInt(3)
        assert eval_ast(If(BoolLit(True), IntLit(1), IntLit(2)), {}) == VInt(1)
        assert eval_ast(Div(IntLit(7), IntLit(2)), {}) == VInt(3)
        assert eval_ast(Div(IntLit(-7), IntLit(2)), {}) == VInt(-3)  # truncates
        assert eval_ast(Eq(IntLit(2), IntLit(2)), {}) == VBool(True)

    def test_env_lookup(self):
        assert eval_ast(Var(x), {x: VInt(7)}) == VInt(7)
        inner = eval_ast(Let(x, IntLit(1), Let(x, IntLit(2), Var(x))), {})
        assert inner == VInt(2)  # innermost binding wins

    def test_env_keys_are_source_and_fresh_names(self):
        acc = Fresh("_1", hint="acc")
        tree = Sub(Var(x), Var(Fresh("_1")))
        assert eval_ast(tree, {x: VInt(7), acc: VInt(2)}) == VInt(5)
        assert eval_ast(tree, [(acc, VInt(2)), (x, VInt(7))]) == VInt(5)

    @pytest.mark.parametrize("key", ["x", "_1", "v1", 1, ("_1",)])
    def test_an_env_key_that_is_not_a_name_is_refused(self, key):
        # a str key would otherwise be taken for a `Fresh` name's location
        for tree in (IntLit(0), Var(Fresh("_1"))):
            with pytest.raises(TypeMismatch, match=rf"^not a name: {re.escape(repr(key))}$"):
                eval_ast(tree, {key: VInt(1)})

    @pytest.mark.parametrize("env", [[1], 5, [(x, VInt(1), 2)]], ids=["list", "int", "triple"])
    def test_an_env_that_is_not_a_mapping_is_refused(self, env):
        with pytest.raises(TypeMismatch, match=f"^not an environment: {re.escape(repr(env))}$"):
            eval_ast(Var(x), env)

    @pytest.mark.parametrize("env", [0, False, 0.0], ids=["zero", "false", "float"])
    def test_a_falsy_env_that_is_not_a_mapping_is_refused(self, env):
        # only None means no environment; a falsy value is checked as any
        # other
        with pytest.raises(TypeMismatch, match=f"^not an environment: {re.escape(repr(env))}$"):
            eval_ast(IntLit(1), env)

    @pytest.mark.parametrize("env", [None, {}, [], ()], ids=["none", "dict", "list", "tuple"])
    def test_no_environment_and_the_empty_ones(self, env):
        assert eval_ast(IntLit(1), env) == VInt(1)
        with pytest.raises(UnboundVariable):
            eval_ast(Var(x), env)

    def test_gib5_against_direct_recursion(self):
        tree = lookup("gib5").builder()
        for xv in range(4):
            for yv in range(4):
                f = eval_ast(tree, {})
                got = f.fn(VInt(xv)).fn(VInt(yv))
                assert got == VInt(gib(5, xv, yv))
        f = eval_ast(tree, {})
        assert f.fn(VInt(1)).fn(VInt(1)) == VInt(8)

    def test_mutual_letrec(self):
        even, odd, n = Source("even"), Source("odd"), Source("n")
        ev = Lam(
            n,
            If(Eq(Var(n), IntLit(0)), BoolLit(True), App(Var(odd), Sub(Var(n), IntLit(1)))),
        )
        od = Lam(
            n,
            If(Eq(Var(n), IntLit(0)), BoolLit(False), App(Var(even), Sub(Var(n), IntLit(1)))),
        )
        tree = LetRec(((even, ev), (odd, od)), App(Var(even), IntLit(9)))
        assert eval_ast(tree, {}) == VBool(False)

    def test_errors(self):
        with pytest.raises(UnboundVariable):
            eval_ast(Var(x), {})
        with pytest.raises(TypeMismatch):
            eval_ast(App(IntLit(1), IntLit(2)), {})
        with pytest.raises(TypeMismatch):
            eval_ast(Add(BoolLit(True), IntLit(1)), {})
        with pytest.raises(TypeMismatch):
            eval_ast(Div(IntLit(1), IntLit(0)), {})

    def test_divergence_is_reported(self):
        # a non-function recursive binding that demands its own value
        with pytest.raises(StepLimitExceeded):
            eval_ast(LetRec(((x, Var(x)),), Var(x)), {})
        # unbounded recursion through applications hits the step budget
        f, n = Source("f"), Source("n")
        spin = LetRec(
            ((f, Lam(n, App(Var(f), Var(n)))),), App(Var(f), IntLit(0))
        )
        with pytest.raises(StepLimitExceeded):
            eval_ast(spin, {}, step_limit=100)
        with pytest.raises(StepLimitExceeded):
            eval_ast(spin, {})  # default budget, stopped via the host stack

    def test_letrec_constructor_invariants(self):
        with pytest.raises(ValueError):
            LetRec((), Var(x))
        with pytest.raises(ValueError):
            LetRec(((x, IntLit(1)), (x, IntLit(2))), Var(x))

    def test_render_value(self):
        from stagelet import render_value

        assert render_value(VInt(-3)) == "-3"
        assert render_value(VBool(True)) == "true"
        assert render_value(VBool(False)) == "false"
        assert render_value(eval_ast(Lam(x, Var(x)), {})) == "<fun>"


# names for terms with shadowing: two `Source`s, and two equal `Fresh` names
# that render differently next to a third, so a walk that keeps the wrong
# one of two equal names shows it in the rendered result
SHADOWING_POOL = (
    Source("a"), Source("b"), Fresh("_1", hint="h"), Fresh("_1"), Fresh("_2"),
)


def outcome(thunk, applications=2):
    """What `thunk()` gives: a value; a StagingError's class and message; or,
    for a function, the outcomes of applying it to 0 and to true, so a
    closure is still exercised after its evaluation has returned."""
    try:
        v = thunk()
    except StagingError as e:
        return type(e), str(e)
    if isinstance(v, VFun):
        if not applications:
            return "<fun>"
        return tuple(
            outcome(lambda a=a: v.fn(a), applications - 1) for a in (VInt(0), VBool(True))
        )
    return v


class TestCheckWalksMatchTheirModels:
    """`eval_ast` binds in place and `free_vars` fills one set; the copying
    models in `helpers` are what they must equal: values, error classes and
    messages, and the least step budget, which agrees when the outcomes
    agree under every budget up to it."""

    BUDGETS = (*range(30), 60)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_eval_ast_on_terms_with_shadowing(self, seed):
        rng = random.Random(seed)
        kinds = set()
        for i in range(150):
            t = random_term(rng, 5, pool=SHADOWING_POOL)
            env = {SHADOWING_POOL[0]: VInt(3)} if i % 2 else {}
            for budget in self.BUDGETS:
                got = outcome(lambda: eval_ast(t, env, step_limit=budget))
                assert got == outcome(lambda: model_eval_ast(t, env, step_limit=budget)), (
                    t, budget,
                )
                if not isinstance(got, tuple):
                    kinds.add(type(got))
                elif isinstance(got[0], type):
                    kinds.add(got[0])
                else:
                    kinds.add(VFun)
        # the terms reach values, functions and every error class
        assert kinds == {VInt, VBool, VFun, UnboundVariable, TypeMismatch, StepLimitExceeded}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_alpha_eq_on_terms_with_shadowing(self, seed):
        # a pair drawn from one seed over two orderings of the pool has one
        # shape, its names swapped by a bijection: alpha-equal when only
        # bound names differ
        rng = random.Random(seed)
        swapped = SHADOWING_POOL[::-1]
        answers, letrecs, previous = [], 0, IntLit(0)
        for _ in range(300):
            draw = rng.random()
            t = random_term(random.Random(draw), 5, pool=SHADOWING_POOL)
            u = random_term(random.Random(draw), 5, pool=swapped)
            letrecs += any(isinstance(s, LetRec) for s in subtrees(t))
            for a, b in ((t, u), (u, t), (t, rename_bound(t)), (t, t), (t, previous)):
                got = outcome(lambda: alpha_eq(a, b))
                assert got == outcome(lambda: model_alpha_eq(a, b)), (a, b)
                answers.append(got)
            previous = t
        assert answers.count(True) > 600 and answers.count(False) > 300
        assert letrecs > 50

    def test_alpha_eq_restores_the_maps_it_binds_into(self):
        # a binder's pair must be gone once it is left: here the outer x
        # pairs with y, the inner z with x, and the last Var(x) is back
        # under the outer pairing
        a = Lam(x, Add(Let(z, IntLit(1), Var(z)), Var(x)))
        b = Lam(y, Add(Let(x, IntLit(1), Var(x)), Var(y)))
        assert alpha_eq(a, b) and model_alpha_eq(a, b)
        c = Lam(y, Add(Let(x, IntLit(1), Var(x)), Var(x)))
        assert not alpha_eq(a, c) and not model_alpha_eq(a, c)
        rec = LetRec(((x, Var(z)), (z, Var(x))), Var(x))
        d = Lam(z, Add(rec, Var(z)))
        e = Lam(x, Add(LetRec(((z, Var(x)), (x, Var(z))), Var(z)), Var(x)))
        assert alpha_eq(d, e) and model_alpha_eq(d, e)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_free_vars_on_terms_with_shadowing(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            t = random_term(rng, 5, pool=SHADOWING_POOL)
            got, want = free_vars(t), model_free_vars(t)
            assert got == want == bruteforce_free(t)
            # of two equal names, the same object is kept
            assert sorted(n.render() for n in got) == sorted(n.render() for n in want)

    def test_a_closure_keeps_the_binding_it_was_made_under(self):
        # let y = 5 in let f = fun _ -> y in let y = 1 in f 0
        f = Source("f")
        tree = Let(
            y, IntLit(5), Let(f, Lam(z, Var(y)), Let(y, IntLit(1), App(Var(f), IntLit(0))))
        )
        assert eval_ast(tree) == model_eval_ast(tree) == VInt(5)

    @pytest.mark.parametrize(
        "tree, name",
        [
            # letrec f = fun _ -> y in let y = 1 in f 0
            (
                LetRec(
                    ((Source("f"), Lam(z, Var(y))),),
                    Let(y, IntLit(1), App(Var(Source("f")), IntLit(0))),
                ),
                "y",
            ),
            # letrec a = let y = 1 in f 0 and f = fun _ -> y in a
            (
                LetRec(
                    (
                        (Source("a"), Let(y, IntLit(1), App(Var(Source("f")), IntLit(0)))),
                        (Source("f"), Lam(z, Var(y))),
                    ),
                    Var(Source("a")),
                ),
                "y",
            ),
            # letrec f = fun y -> g 0 and g = fun _ -> y in f 1: both
            # functions close over one dict, so a call binds its parameter
            # in a copy
            (
                LetRec(
                    (
                        (Source("f"), Lam(y, App(Var(Source("g")), IntLit(0)))),
                        (Source("g"), Lam(z, Var(y))),
                    ),
                    App(Var(Source("f")), IntLit(1)),
                ),
                "y",
            ),
            # (let x = 1 in x) + x
            (Add(Let(x, IntLit(1), Var(x)), Var(x)), "x"),
        ],
        ids=["letrec-body-let", "letrec-clause-let", "letrec-parameter", "let-body"],
    )
    def test_a_name_is_unbound_outside_its_binder(self, tree, name):
        for evaluate in (eval_ast, model_eval_ast):
            with pytest.raises(UnboundVariable, match=f"^unbound variable {name}$"):
                evaluate(tree)

    def test_a_host_function_that_catches_an_error_sees_the_outer_binding(self):
        caught = []

        def host(fail):
            def then_read(read):
                try:
                    fail.fn(VInt(0))
                except StagingError as e:
                    caught.append(str(e))
                return read.fn(VInt(0))

            return VFun(then_read)

        h = Source("h")
        # let x = 5 in h (fun _ -> let x = 1 in x / 0) (fun _ -> x) + x
        tree = Let(
            x,
            IntLit(5),
            Add(
                App(
                    App(Var(h), Lam(z, Let(x, IntLit(1), Div(Var(x), IntLit(0))))),
                    Lam(z, Var(x)),
                ),
                Var(x),
            ),
        )
        for evaluate in (eval_ast, model_eval_ast):
            assert evaluate(tree, {h: VFun(host)}) == VInt(10)
        assert caught == ["division by zero"] * 2


class MyVar(Var):
    """A user's subclass of `Var`: evaluated through the walk table."""


class MyIntLit(IntLit):
    """A user's subclass of `IntLit`: evaluated through the walk table."""


class MyVInt(VInt):
    """A subclass of `VInt`, bound to a variable: still an integer."""


OPERATORS = [Add, Sub, Mul, Div, Eq]
q, c, u1, u2 = Source("q"), Source("c"), Source("u1"), Source("u2")


def with_operand(op, side, operand):
    """`op` applied to `operand` and `IntLit(3)`, the operand on `side`."""
    return op(operand, IntLit(3)) if side == "left" else op(IntLit(3), operand)


def seven_and_three(op, side):
    """The value of `with_operand(op, side, operand)` for an operand worth 7."""
    return op.box(op.op(7, 3) if side == "left" else op.op(3, 7))


class TestOperands:
    """Each way an operator reads an operand, on either side: an integer
    literal or a variable bound to an integer is read in place, anything
    else through the walk table, with the same value and the same error."""

    CASES = {
        "int": (IntLit(7), {}),
        "var": (Var(q), {q: VInt(7)}),
        "var-bound-to-subclass": (Var(q), {q: MyVInt(7)}),
        "var-subclass": (MyVar(q), {q: VInt(7)}),
        "int-subclass": (MyIntLit(7), {}),
        "nested": (Add(IntLit(3), Var(q)), {q: VInt(4)}),
    }

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("op", OPERATORS, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("case", CASES)
    def test_value(self, case, op, side):
        operand, env = self.CASES[case]
        assert eval_ast(with_operand(op, side, operand), env) == seven_and_three(op, side)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("op", OPERATORS, ids=lambda k: k.__name__)
    def test_letrec_cell(self, op, side):
        tree = LetRec(((c, IntLit(7)),), with_operand(op, side, Var(c)))
        assert eval_with_least_budget(tree, 1) == seven_and_three(op, side)  # one force

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("op", OPERATORS, ids=lambda k: k.__name__)
    def test_var_bound_to_a_boolean(self, op, side):
        message = "expected an integer, got VBool(value=True)"
        with pytest.raises(TypeMismatch, match=f"^{re.escape(message)}$"):
            eval_ast(with_operand(op, side, Var(q)), {q: VBool(True)})

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("op", OPERATORS, ids=lambda k: k.__name__)
    def test_unbound_var(self, op, side):
        with pytest.raises(UnboundVariable, match="^unbound variable q$"):
            eval_ast(with_operand(op, side, Var(q)), {})

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("op", OPERATORS, ids=lambda k: k.__name__)
    def test_cell_demanding_its_own_value(self, op, side):
        tree = LetRec(((x, with_operand(op, side, Var(x))),), Var(x))
        message = "recursive binding x demands its own value"
        with pytest.raises(StepLimitExceeded, match=f"^{re.escape(message)}$"):
            eval_ast(tree, {})

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda k: k.__name__)
    def test_left_operand_is_checked_before_the_right_one_is_read(self, op):
        with pytest.raises(TypeMismatch):
            eval_ast(op(BoolLit(True), Var(u2)), {})
        with pytest.raises(TypeMismatch):
            eval_ast(op(Var(q), Var(u2)), {q: VBool(False)})
        with pytest.raises(UnboundVariable, match="^unbound variable u1$"):
            eval_ast(op(Var(u1), Var(u2)), {})


TWO_OPERAND_KINDS = [*OPERATORS, App]


class TestBinaryKinds:
    """The six two-operand node kinds share one shape and must stay apart."""

    @pytest.mark.parametrize(
        "k1,k2", itertools.permutations(TWO_OPERAND_KINDS, 2), ids=lambda k: k.__name__
    )
    def test_distinct_kinds_are_told_apart(self, k1, k2):
        a, b = k1(IntLit(7), IntLit(2)), k2(IntLit(7), IntLit(2))
        assert not alpha_eq(a, b)
        assert not alpha_eq(Lam(x, k1(Var(x), Var(x))), Lam(y, k2(Var(y), Var(y))))
        assert pretty(a) != pretty(b)
        assert to_sexp(a) != to_sexp(b)

    @pytest.mark.parametrize("kind", TWO_OPERAND_KINDS, ids=lambda k: k.__name__)
    def test_same_kind_is_alpha_equal_up_to_renaming(self, kind):
        assert alpha_eq(Lam(x, kind(Var(x), Var(x))), Lam(y, kind(Var(y), Var(y))))
        assert not alpha_eq(kind(Var(x), Var(x)), kind(Var(y), Var(y)))

    @pytest.mark.parametrize(
        "kind,left,right,want",
        [
            (Add, 7, 2, VInt(9)),
            (Sub, 7, 2, VInt(5)),
            (Mul, 7, -2, VInt(-14)),
            (Div, -7, 2, VInt(-3)),
            (Eq, 7, 2, VBool(False)),
            (Eq, 7, 7, VBool(True)),
        ],
        ids=["add", "sub", "mul", "div", "eq-false", "eq-true"],
    )
    def test_arithmetic_kinds_evaluate(self, kind, left, right, want):
        assert eval_ast(kind(IntLit(left), IntLit(right)), {}) == want


class TestHostStack:
    @pytest.mark.parametrize(
        "fn",
        [pretty, to_sexp, free_vars, lambda t: alpha_eq(t, t)],
        ids=["pretty", "to_sexp", "free_vars", "alpha_eq"],
    )
    def test_deep_tree_is_a_staging_error(self, fn):
        tree = IntLit(0)
        for i in range(2000):
            tree = Add(tree, IntLit(i))
        with pytest.raises(StepLimitExceeded, match="recursed past the host stack"):
            fn(tree)

    # Under pytest every walk handles chains of about 950; a walk that spends
    # two host frames per tree level stops near 500. Every walk but
    # `alpha_eq` takes a redex `App(Lam, arg)`, two tree levels, in one frame.
    WALKS = {
        "pretty": pretty,
        "to_sexp": to_sexp,
        "free_vars": free_vars,
        "alpha_eq": lambda t: alpha_eq(t, t),
        "eval_ast": lambda t: eval_ast(t, {}),
    }

    @pytest.mark.parametrize(
        "chain, walk",
        [
            (c, w)
            for c in ("add", "let")
            for w in ("pretty", "to_sexp", "free_vars", "alpha_eq", "eval_ast")
        ]
        + [("redex", w) for w in ("pretty", "to_sexp", "free_vars", "eval_ast")],
        ids=lambda p: p,
    )
    def test_depth_floor(self, chain, walk):
        self.WALKS[walk]({"add": add_chain, "let": let_chain, "redex": redex_chain}[chain](900))

    @pytest.mark.parametrize("render", [pretty, to_sexp], ids=lambda f: f.__name__)
    def test_a_redex_chain_renders_one_frame_per_level(self, render):
        # 700 redexes are 1400 tree levels, past the default limit at two
        # frames per level; the text is the one the plain handlers give
        text = render(redex_chain(700))
        assert text.count("fun v" if render is pretty else "(lam v") == 700
        assert render(redex_chain(3)) == {
            pretty: "((fun v0 -> ((fun v1 -> ((fun v2 -> v2) (v1 + 2))) (v0 + 2))) 0)",
            to_sexp: (
                "(app (lam v0 (app (lam v1 (app (lam v2 (var v2)) (add (var v1) (int 2))))"
                " (add (var v0) (int 2)))) (int 0))"
            ),
        }[render]

    def test_depth_floor_values(self):
        assert eval_ast(add_chain(900), {}) == VInt(sum(range(900)))
        assert eval_ast(let_chain(900), {}) == VInt(2 * 899)
        assert eval_ast(redex_chain(900), {}) == VInt(2 * 899)

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda: pretty(Var("x")), "x"),
            (lambda: to_sexp(Var("x")), "x"),
            (lambda: eval_ast(Var("x")), "x"),
            (lambda: eval_ast(Lam("x", IntLit(1))), "x"),
            (lambda: eval_ast(Let(1, IntLit(1), IntLit(2))), 1),
            (lambda: pretty(Lam(y, Let(IntLit(0), IntLit(1), Var(y)))), IntLit(0)),
            (lambda: to_sexp(LetRec((("f", IntLit(1)),), IntLit(2))), "f"),
            (lambda: eval_ast(LetRec(((2, IntLit(1)),), IntLit(2))), 2),
            # the binder's key is read before its right-hand side runs
            (lambda: eval_ast(Let(1, Div(IntLit(1), IntLit(0)), IntLit(2))), 1),
            (lambda: eval_ast(App(Lam("x", IntLit(1)), Div(IntLit(1), IntLit(0)))), "x"),
            (lambda: free_vars(Var("x")), "x"),
            (lambda: free_vars(Lam("x", IntLit(1))), "x"),
            (lambda: alpha_eq(Var("x"), Var("x")), "x"),
        ],
        ids=[
            "pretty-var", "to_sexp-var", "eval_ast-var", "eval_ast-lam", "eval_ast-let",
            "pretty-let", "to_sexp-letrec", "eval_ast-letrec", "eval_ast-let-first",
            "eval_ast-redex-first", "free_vars-var", "free_vars-lam", "alpha_eq-var",
        ],
    )
    def test_a_name_that_is_not_a_name_is_a_type_mismatch(self, call, bad):
        with pytest.raises(TypeMismatch, match=f"^not a name: {re.escape(repr(bad))}$"):
            call()

    def test_other_attribute_errors_pass_through(self):
        class Broken(Name):
            def render(self):
                return self.missing

        with pytest.raises(AttributeError, match="missing"):
            pretty(Var(Broken()))
        # a generator's own error, raised while show builds, is not a walk's
        with pytest.raises(AttributeError, match="render"):
            show(clam(lambda v: ("s".render(), v)[1]))


def add_chain(n):
    """((0 + 1) + 2) ... + (n - 1), n - 1 levels deep."""
    tree = IntLit(0)
    for i in range(1, n):
        tree = Add(tree, IntLit(i))
    return tree


def let_chain(n, step=lambda prev: Add(prev, IntLit(2))):
    """let v0 = 0 in let v1 = step(v0) in ... in v(n-1), n levels deep."""
    names = [Source(f"v{i}") for i in range(n)]
    tree = Var(names[-1])
    for i in reversed(range(1, n)):
        tree = Let(names[i], step(Var(names[i - 1])), tree)
    return Let(names[0], IntLit(0), tree)


def redex_chain(n, step=lambda prev: Add(prev, IntLit(2))):
    """`let_chain(n, step)` with each let written as a redex: `(fun v0 ->
    (fun v1 -> ... v(n-1)) (step(v0))) 0`."""
    names = [Source(f"v{i}") for i in range(n)]
    tree = Var(names[-1])
    for i in reversed(range(1, n)):
        tree = App(Lam(names[i], tree), step(Var(names[i - 1])))
    return App(Lam(names[0], tree), IntLit(0))


def concrete_node_classes():
    """Every BaseAst subclass defined by the library that has no subclass of
    its own there; `BinOp` is abstract by this test."""
    found, todo = set(), [BaseAst]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("stagelet") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return {
        c for c in found if not any(s in found for s in c.__subclasses__())
    }


SAMPLES = {
    IntLit: IntLit(4),
    BoolLit: BoolLit(False),
    Var: Var(x),
    Succ: Succ(Var(x)),
    Add: Add(Var(x), IntLit(2)),
    Sub: Sub(Var(x), IntLit(2)),
    Mul: Mul(Var(x), IntLit(2)),
    Div: Div(Var(x), IntLit(2)),
    Eq: Eq(Var(x), IntLit(2)),
    If: If(BoolLit(False), IntLit(1), Var(x)),
    Lam: Lam(y, Add(Var(x), Var(y))),
    App: App(Lam(y, Var(y)), Var(x)),
    Let: Let(y, Var(x), Mul(Var(y), Var(y))),
    LetRec: LetRec(((y, Lam(z, Var(x))),), App(Var(y), IntLit(0))),
}

WALKS = {
    "pretty": pretty,
    "to_sexp": to_sexp,
    "free_vars": free_vars,
    "eval_ast": lambda t: eval_ast(t, {x: VInt(5)}),
    "alpha_eq": lambda t: alpha_eq(t, t),
}


class MyAdd(Add):
    """A user's subclass: every walk treats it as its base class."""


@dataclasses.dataclass(frozen=True)
class DecoratedMul(Mul):
    """A user's subclass decorated as a frozen dataclass's subclass may be."""


@dataclasses.dataclass(frozen=True)
class Neg(BaseAst):
    """A user's new node kind, decorated the same way; no walk knows it."""

    arg: BaseAst


@dataclasses.dataclass(frozen=True)
class Scaled(BaseAst):
    """A decorated new kind whose field has a default."""

    arg: BaseAst
    factor: int = 2


class Scaled3(Scaled):
    """Its subclass, made by the metaclass alone."""


class TestDispatch:
    def test_samples_cover_every_concrete_node(self):
        assert concrete_node_classes() == set(SAMPLES)

    @pytest.mark.parametrize("walk", WALKS, ids=str)
    @pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
    def test_every_walk_handles_every_node(self, walk, cls):
        WALKS[walk](SAMPLES[cls])
        WALKS[walk](Let(z, SAMPLES[cls], IntLit(0)))  # and as a child

    @pytest.mark.parametrize("walk", WALKS, ids=str)
    @pytest.mark.parametrize(
        "junk",
        [42, None, VInt(1), BinOp(IntLit(1), IntLit(2)), "x"],
        ids=["int", "None", "VInt", "BinOp", "str"],
    )
    def test_non_node_is_a_type_mismatch(self, walk, junk):
        message = f"not a syntax tree: {junk!r}"
        with pytest.raises(TypeMismatch, match=f"^{re.escape(message)}$"):
            WALKS[walk](junk)
        with pytest.raises(TypeMismatch, match=f"^{re.escape(message)}$"):
            WALKS[walk](Succ(junk))

    @pytest.mark.parametrize("walk", WALKS, ids=str)
    def test_subclass_of_add_acts_as_add(self, walk):
        fn = WALKS[walk]
        assert fn(MyAdd(Var(x), IntLit(2))) == fn(Add(Var(x), IntLit(2)))
        inside = Let(y, MyAdd(Var(x), IntLit(1)), MyAdd(Var(y), Var(y)))
        assert fn(inside) == fn(Let(y, Add(Var(x), IntLit(1)), Add(Var(y), Var(y))))


BASE_RECORDS = {
    **SAMPLES,
    BaseAst: BaseAst(),
    BinOp: BinOp(IntLit(1), IntLit(2)),
    Source: x,
    VInt: VInt(-3),
    VBool: VBool(True),
}


class TestRecords:
    """Syntax nodes, values and source names are frozen slotted dataclasses."""

    def test_every_record_has_a_sample(self):
        assert records_of(stagelet.base) == set(BASE_RECORDS)

    @pytest.mark.parametrize("cls", BASE_RECORDS, ids=lambda c: c.__name__)
    def test_contract(self, cls):
        fields = {
            IntLit: ["value"], BoolLit: ["value"], VInt: ["value"], VBool: ["value"],
            Var: ["name"], Succ: ["arg"], Source: ["text"], BaseAst: [],
            If: ["cond", "then", "orelse"], Lam: ["param", "body"],
            App: ["fun", "arg"], Let: ["name", "rhs", "body"],
            LetRec: ["clauses", "body"],
        }.get(cls, ["left", "right"])
        check_record(BASE_RECORDS[cls], fields)

    def test_repr(self):
        assert repr(Add(IntLit(1), IntLit(2))) == "Add(left=IntLit(value=1), right=IntLit(value=2))"
        assert repr(Lam(x, Var(x))) == "Lam(param=Source('x'), body=Var(name=Source('x')))"
        assert repr(LetRec(((x, BoolLit(True)),), Var(x))) == (
            "LetRec(clauses=((Source('x'), BoolLit(value=True)),), body=Var(name=Source('x')))"
        )
        assert repr(VInt(-3)) == "VInt(value=-3)"

    def test_kinds_and_fields_decide_equality(self):
        a, b = IntLit(1), IntLit(2)
        assert Add(a, b) == Add(IntLit(1), IntLit(2))
        assert hash(Add(a, b)) == hash(Add(IntLit(1), IntLit(2)))
        assert Add(a, b) != Sub(a, b)
        assert Add(a, b) != Add(b, a)
        assert IntLit(1) != VInt(1)
        assert MyAdd(a, b) != Add(a, b)

    def test_match_binds_fields(self):
        match Let(x, IntLit(1), Add(Var(x), IntLit(2))):
            case Let(n, IntLit(v), BinOp(Var(m), right=IntLit(w))):
                assert (n, v, m, w) == (x, 1, x, 2)
            case _:
                pytest.fail("no match")

    def test_letrec_normalises_and_checks_its_clauses(self):
        t = LetRec([[x, IntLit(1)], [y, IntLit(2)]], Var(x))
        assert t.clauses == ((x, IntLit(1)), (y, IntLit(2)))
        assert type(t.clauses[0]) is tuple
        with pytest.raises(ValueError, match="at least one clause"):
            LetRec([], Var(x))
        with pytest.raises(ValueError, match="distinct"):
            LetRec([(x, IntLit(1)), (x, IntLit(2))], Var(x))

    @pytest.mark.parametrize(
        "clause",
        [(x,), (x, IntLit(1), IntLit(2)), ()],
        ids=["one item", "three items", "empty"],
    )
    def test_letrec_refuses_a_clause_that_is_not_a_pair(self, clause):
        with pytest.raises(TypeMismatch, match=f"^not a letrec clause: {re.escape(repr(clause))}$"):
            LetRec((clause,), IntLit(1))

    @pytest.mark.parametrize(
        "clauses, refused",
        [(5, 5), ((5,), 5), ([(x, IntLit(1)), None], None)],
        ids=["int clauses", "int clause", "None clause"],
    )
    def test_letrec_refuses_what_is_not_iterable(self, clauses, refused):
        with pytest.raises(TypeMismatch, match=f"^not a letrec clause: {re.escape(repr(refused))}$"):
            LetRec(clauses, IntLit(1))

    @pytest.mark.parametrize("bad", [["f"], "f", 2], ids=["list", "str", "int"])
    def test_letrec_refuses_a_clause_name_that_is_not_a_name(self, bad):
        with pytest.raises(TypeMismatch, match=f"^not a name: {re.escape(repr(bad))}$"):
            LetRec(((bad, IntLit(1)),), IntLit(2))

    def test_a_subclass_of_a_record_is_a_record(self):
        check_record(MyAdd(Var(x), IntLit(2)), ["left", "right"])

    def test_a_decorated_subclass_builds_and_walks(self):
        check_record(DecoratedMul(Var(x), IntLit(2)), ["left", "right"])
        assert Mul.__subclasses__().count(DecoratedMul) == 1
        tree = Let(y, DecoratedMul(Var(x), IntLit(3)), DecoratedMul(Var(y), Var(y)))
        plain = Let(y, Mul(Var(x), IntLit(3)), Mul(Var(y), Var(y)))
        for walk in WALKS.values():
            assert walk(tree) == walk(plain)
        assert eval_ast(tree, {x: VInt(2)}) == VInt(36)

    def test_a_decorated_new_kind_is_a_record_no_walk_knows(self):
        check_record(Neg(IntLit(1)), ["arg"])
        assert BaseAst.__subclasses__().count(Neg) == 1
        with pytest.raises(TypeMismatch, match="not a syntax tree"):
            pretty(Neg(IntLit(1)))

    def test_a_decorated_kind_keeps_its_defaults_for_its_subclasses(self):
        assert Scaled(IntLit(1)).factor == Scaled3(IntLit(1)).factor == 2
        for cls in (Scaled, Scaled3):
            assert [f.default for f in dataclasses.fields(cls)][1] == 2
        check_record(Scaled3(IntLit(1), 4), ["arg", "factor"])

    @pytest.mark.parametrize(
        "field",
        [
            lambda: dataclasses.field(default=1, compare=False, repr=False),
            lambda: dataclasses.field(default=1, kw_only=True),
            lambda: dataclasses.field(default=1),
            lambda: dataclasses.field(default_factory=list),
        ],
        ids=["compare-repr", "kw_only", "default", "default_factory"],
    )
    def test_other_field_options_are_refused_by_name(self, field):
        # any `field(...)` default is refused: a record's default is a plain
        # value. A frozen dataclass would honour the options (R(1) == R(2)
        # and repr "R()", or a keyword-only `a` after a positional `b`) and
        # call a factory per instance
        with pytest.raises(TypeError, match=r"^record field R\.a may give only a plain default$"):

            class R(BaseAst):
                a: int = field()
                b: int = 0

    def test_a_field_without_a_default_after_one_with_is_refused(self):
        with pytest.raises(TypeError, match="^non-default argument 'b' follows default argument$"):

            class R(BaseAst):
                a: int = 0
                b: int

    def test_the_one_init_is_the_slot_init(self):
        # dataclass makes no `__init__` for a record; for a decorated
        # subclass it makes one but keeps the record's
        decorated = {DecoratedMul, Neg, Scaled}
        for cls in (IntLit, Lam, LetRec, VInt, Source, Scaled3, *decorated):
            params = cls.__dataclass_params__
            assert params.frozen and params.init is (cls in decorated)
            first = dataclasses.fields(cls)[0].name
            assert f"set_{first}" in cls.__init__.__code__.co_names

    def test_slot_new_makes_a_record_and_refuses_a_post_init(self):
        new, set_value = _slot_new(VInt)
        v = new(VInt)
        set_value(v, 3)
        assert type(v) is VInt and v == VInt(3) and hash(v) == hash(VInt(3))
        new, set_name, set_rhs, set_log = _slot_new(BindingClass)
        made = new(BindingClass)
        set_name(made, x)
        set_rhs(made, IntLit(1))
        set_log(made, frozenset({y}))
        built = BindingClass(x, IntLit(1), frozenset({y}))
        assert type(made) is BindingClass and made == built and hash(made) == hash(built)
        assert repr(made) == repr(built)

        class Checked(Value, metaclass=type(VInt)):
            value: int

            def __post_init__(self):
                pass

        for cls in (Checked, Source, LetRec):
            with pytest.raises(TypeError, match=f"^{cls.__name__} has a __post_init__$"):
                _slot_new(cls)

    @pytest.mark.parametrize(
        "make, bad",
        [
            (lambda: Var("x"), "x"),
            (lambda: Lam(1, IntLit(0)), 1),
            (lambda: Let(IntLit(0), IntLit(1), IntLit(2)), IntLit(0)),
        ],
        ids=["var", "lam", "let"],
    )
    def test_a_name_field_refuses_what_is_not_a_name_when_made(self, make, bad):
        with pytest.raises(TypeMismatch, match=f"^not a name: {re.escape(repr(bad))}$"):
            make()

    def test_a_user_name_is_a_name(self):
        class Tag(Name):
            def render(self):
                return "t"

        t = Tag()
        tree = Let(t, IntLit(1), Lam(t, Var(t)))
        assert (tree.name, tree.body.param, tree.body.body.name) == (t, t, t)
        assert pretty(tree) == "(let t = 1 in (fun t -> t))"

    def test_a_user_var_inherits_the_name_check(self):
        assert MyVar(x).name is x
        with pytest.raises(TypeMismatch, match="^not a name: 'x'$"):
            MyVar("x")

    @pytest.mark.parametrize("base", [BaseAst, BinOp, Value, Name], ids=lambda c: c.__name__)
    def test_each_class_is_listed_once_under_its_base(self, base):
        subs = [c for c in base.__subclasses__() if c.__module__ == "stagelet.base"]
        assert subs
        assert len({c.__qualname__ for c in subs}) == len(subs)


def eval_with_least_budget(tree, limit):
    """Assert that `limit` is the least step budget `eval_ast` finishes in."""
    with pytest.raises(StepLimitExceeded):
        eval_ast(tree, {}, step_limit=limit - 1)
    return eval_ast(tree, {}, step_limit=limit)


class TestStepBudget:
    """Pinned least budgets: a rewrite that drops or doubles a tick moves one."""

    def test_gib5_applied(self):
        tree = App(App(lookup("gib5").builder(), IntLit(2)), IntLit(3))
        assert eval_with_least_budget(tree, 18) == VInt(gib(5, 2, 3))

    def test_cack3_applied(self):
        tree = App(show(cack(3)), IntLit(3))
        assert eval_with_least_budget(tree, 2436) == VInt(61)

    def test_let_chain(self):
        a = Source("a")
        tree = let_chain(200, lambda prev: App(Lam(a, Add(Var(a), IntLit(1))), prev))
        assert eval_with_least_budget(tree, 199) == VInt(199)

    def test_no_limit_never_runs_out(self):
        budget = _Budget(None)
        for _ in range(10**6):
            budget.tick()
        assert budget.remaining == math.inf


def run_with_least_budget(code, args, limit):
    """Assert that `limit` is the least step budget in which `run` builds
    `code` and `apply_ints` applies the value to `args`; the budget is the
    one `run` was given, shared by both."""
    with pytest.raises(StepLimitExceeded):
        apply_ints(run(code, step_limit=limit - 1), args)
    return apply_ints(run(code, step_limit=limit), args)


class TestRunStepBudget:
    """Pinned least budgets of `run`: inlining its tick, its read of a
    forced letrec cell or a branching body into a function's call must
    neither drop nor double a step."""

    def test_cack3_on_3(self):
        assert run_with_least_budget(cack(3), (3,), 2436) == VInt(61)

    def test_cack2_on_3(self):
        assert run_with_least_budget(lookup("cack2").builder(), (3,), 47) == VInt(9)

    def test_cgib5_on_2_3(self):
        code = lookup("cgib5").builder()
        assert run_with_least_budget(code, (2, 3), 2) == VInt(gib(5, 2, 3))

    # a redex `capp(clam(...), arg)` binds in place, with no call, but
    # counts the step the call would: the same least budget as `eval_ast`
    def test_redex_chain(self):
        code = cint(0)
        for _ in range(100):
            code = capp(clam(lambda a: cadd(a, cint(1))), code)
        assert eval_with_least_budget(show(code), 100) == VInt(100)
        assert run_with_least_budget(code, (), 100) == VInt(100)

    def test_redex_whose_body_is_an_if(self):
        # (fun a -> if a = 0 then 1 else (fun b -> b + a) 2) 3
        code = capp(
            clam(
                lambda a: cif(
                    ceq(a, cint(0)), cint(1), capp(clam(lambda b: cadd(b, a)), cint(2))
                )
            ),
            cint(3),
        )
        assert eval_with_least_budget(show(code), 2) == VInt(5)
        assert run_with_least_budget(code, (), 2) == VInt(5)


class TestExports:
    def test_every_syntax_node_is_exported(self):
        nodes = {
            name
            for name, obj in vars(stagelet.base).items()
            if isinstance(obj, type) and issubclass(obj, stagelet.base.BaseAst)
        }
        assert "Sub" in nodes
        assert nodes <= set(stagelet.__all__)

    def test_every_export_resolves(self):
        namespace = {}
        exec("from stagelet import *", namespace)
        assert set(stagelet.__all__) <= set(namespace)

    def test_exports_are_the_user_api(self):
        syntax = {
            "BaseAst", "IntLit", "BoolLit", "Var", "Succ", "BinOp", "Add", "Sub",
            "Mul", "Div", "Eq", "If", "Lam", "App", "Let", "LetRec",
            "Name", "Source", "Fresh",
        }
        values = {"Value", "VInt", "VBool", "VFun"}
        errors = {
            "StagingError", "StepLimitExceeded", "TypeMismatch", "UnboundVariable",
            "ResidualBindings", "CanonLimitExceeded", "PendingBinding",
        }
        renderers = {"pretty", "to_sexp", "render_value", "free_vars", "alpha_eq", "eval_ast"}
        combinators = {
            "CodeValue", "cint", "cbool", "csucc", "cadd", "csub", "cmul", "cdiv",
            "ceq", "cif", "capp", "clam", "clet",
            "genlet", "with_locus", "genletrec", "with_locus_rec", "Locus",
            "run", "show",
        }
        examples = {"ExampleEntry", "ExampleKind", "apply_ints", "lookup", "registry"}
        api = syntax | values | errors | renderers | combinators | examples
        assert len(stagelet.__all__) == len(api)
        assert set(stagelet.__all__) == api
        # the top level binds nothing else, submodules aside
        public = {
            n
            for n, obj in vars(stagelet).items()
            if not n.startswith("_") and not isinstance(obj, types.ModuleType)
        }
        assert public == api
