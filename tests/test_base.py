import dataclasses
import itertools
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
    Source,
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
    eval_ast,
    free_vars,
    lookup,
    pretty,
    show,
    to_sexp,
)
from stagelet.base import _slot_new, location, location_steps

from helpers import (
    bruteforce_free,
    cack,
    check_record,
    gib,
    random_term,
    records_of,
    rename_bound,
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


def gib5_ast():
    loop, n = Source("loop"), Source("n")
    body = If(
        Eq(Var(n), IntLit(0)),
        Var(x),
        If(
            Eq(Var(n), IntLit(1)),
            Var(y),
            Add(
                App(Var(loop), Sub(Var(n), IntLit(1))),
                App(Var(loop), Sub(Var(n), IntLit(2))),
            ),
        ),
    )
    return Lam(x, Lam(y, LetRec(((loop, Lam(n, body)),), App(Var(loop), IntLit(5)))))


class TestNames:
    def test_source_and_fresh_never_equal(self):
        assert Source("v1") != Fresh((1,))
        assert Fresh((1,)) != Source("v1")

    def test_fresh_equality_is_location_equality(self):
        assert Fresh((1, 2)) == Fresh([1, 2])
        assert Fresh((1, 2)) != Fresh((2, 1))
        assert hash(Fresh((1, 2))) == hash(Fresh((1, 2)))

    def test_hint_does_not_affect_equality(self):
        name = Fresh((1, 2), hint="acc")
        assert name == Fresh((1, 2))
        assert hash(name) == hash(name) == hash(Fresh((1, 2)))

    def test_rendering(self):
        assert Fresh((1, 2)).render() == "v1_2"
        assert Fresh(()).render() == "v"
        assert Fresh((3,), hint="acc").render() == "acc_3"
        assert Fresh((), hint="acc").render() == "acc"
        assert Source("loop").render() == "loop"

    def test_rendering_twice_gives_equal_text(self):
        name = Fresh((4, 0, 17), hint="acc")
        assert name.render() == name.render() == "acc_4_0_17"

    def test_rendered_hint_stays_on_its_own_object(self):
        hinted, plain = Fresh((1, 2), hint="acc"), Fresh((1, 2))
        assert (hinted.render(), plain.render()) == ("acc_1_2", "v1_2")
        assert hinted == plain and hash(hinted) == hash(plain)
        keys = {hinted: 1, plain: 2}
        assert keys == {hinted: 2}
        assert (hinted.render(), plain.render()) == ("acc_1_2", "v1_2")

    def test_names_are_equal_exactly_when_their_indices_are(self):
        tuples = index_tuples(1)
        names = [Fresh(t) for t in tuples]
        assert len(set(tuples)) < len(tuples)  # some draws repeat
        for a, na in zip(tuples, names):
            for b, nb in zip(tuples, names):
                assert (na == nb) is (a == b)
                if a == b:
                    assert hash(na) == hash(nb)

    def test_indices_list_and_location_string_make_one_name(self):
        for t in index_tuples(2):
            name = Fresh(t)
            assert name == Fresh(list(t)) == Fresh(location(t))
            assert hash(name) == hash(Fresh(list(t))) == hash(Fresh(location(t)))
            assert location_steps(location(t)) == t
            assert repr(name) == f"Fresh({list(t)})"

    def test_rendering_joins_the_indices(self):
        for t in index_tuples(3):
            joined = "_".join(map(str, t))
            assert Fresh(t).render() == "v" + joined
            want = "acc" if not t else f"acc_{joined}"
            assert Fresh(t, hint="acc").render() == want

    def test_sexp_first_then_pretty_reads_as_pretty_alone(self):
        tree = show(cack(3))
        to_sexp(tree)
        assert pretty(tree) == pretty(show(cack(3)))


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
        assert pretty(Var(Fresh((1, 2)))) == "v1_2"
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
        tree = gib5_ast()
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
        assert alpha_eq(Lam(Fresh((1,)), Var(Fresh((1,)))), Lam(x, Var(x)))

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
        tree = Sub(Var(x), Var(Fresh((1,))))
        assert eval_ast(tree, {x: VInt(7), acc: VInt(2)}) == VInt(5)
        assert eval_ast(tree, [(acc, VInt(2)), (x, VInt(7))]) == VInt(5)

    @pytest.mark.parametrize("key", ["x", "_1", "v1", 1, ("_1",)])
    def test_an_env_key_that_is_not_a_name_is_refused(self, key):
        # a str key would otherwise be taken for a `Fresh` name's location
        for tree in (IntLit(0), Var(Fresh("_1"))):
            with pytest.raises(TypeMismatch, match=rf"^not a name: {re.escape(repr(key))}$"):
                eval_ast(tree, {key: VInt(1)})

    def test_gib5_against_direct_recursion(self):
        tree = gib5_ast()
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
    # two host frames per tree level stops near 500.
    @pytest.mark.parametrize(
        "fn",
        [pretty, to_sexp, free_vars, lambda t: alpha_eq(t, t), lambda t: eval_ast(t, {})],
        ids=["pretty", "to_sexp", "free_vars", "alpha_eq", "eval_ast"],
    )
    @pytest.mark.parametrize("chain", ["add", "let"])
    def test_depth_floor(self, fn, chain):
        fn(add_chain(900) if chain == "add" else let_chain(900))

    def test_depth_floor_values(self):
        assert eval_ast(add_chain(900), {}) == VInt(sum(range(900)))
        assert eval_ast(let_chain(900), {}) == VInt(2 * 899)


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
        [42, None, VInt(1), BinOp(IntLit(1), IntLit(2))],
        ids=["int", "None", "VInt", "BinOp"],
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

    def test_a_field_default_or_factory_is_kept(self):
        class Tagged(BaseAst):
            arg: object = dataclasses.field(default=1)
            tags: list = dataclasses.field(default_factory=list)

        assert Tagged() == Tagged(1, [])
        assert Tagged().tags is not Tagged().tags

    @pytest.mark.parametrize(
        "options",
        [{"compare": False, "repr": False}, {"kw_only": True}],
        ids=["compare-repr", "kw_only"],
    )
    def test_other_field_options_are_refused_by_name(self, options):
        # a frozen dataclass would honour them: R(1) == R(2) and repr "R()",
        # or a keyword-only `a` after a positional `b`
        with pytest.raises(TypeError, match=r"record field R\.a "):

            class R(BaseAst):
                a: int = dataclasses.field(default=1, **options)
                b: int = 0

    def test_slot_new_makes_a_one_field_record_and_refuses_others(self):
        new, set_value = _slot_new(VInt)
        v = new(VInt)
        set_value(v, 3)
        assert type(v) is VInt and v == VInt(3) and hash(v) == hash(VInt(3))

        class Checked(Value, metaclass=type(VInt)):
            value: int

            def __post_init__(self):
                pass

        for cls in (Checked, Lam, BaseAst):
            with pytest.raises(TypeError, match=f"^{cls.__name__} is not a one-field record"):
                _slot_new(cls)

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
