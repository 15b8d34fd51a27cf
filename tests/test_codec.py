import enum
import gc
import itertools
import operator
import random
import re

import pytest

import stagelet
from stagelet import (
    Add,
    App,
    BinOp,
    CodeValue,
    Div,
    Fresh,
    IntLit,
    Lam,
    Let,
    Locus,
    Mul,
    Source,
    StagingError,
    StepLimitExceeded,
    TypeMismatch,
    VBool,
    VInt,
    Var,
    alpha_eq,
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
    registry,
    run,
    show,
    to_sexp,
    with_locus,
    with_locus_rec,
)
from stagelet import codec
from stagelet.codec import ROOT, BuildContext
from stagelet.examples import ExampleKind
from stagelet.semantics import ShowSemantics

from helpers import (
    LEFT_FIRST,
    RIGHT_FIRST,
    binders,
    build_code,
    clet_sum_chain,
    gib,
    location_of,
    random_plan,
)

x, y = Source("x"), Source("y")


def bindings_at(code, loc):
    _, vb = code(BuildContext(ShowSemantics()), loc)
    return vb


class _Three(enum.IntEnum):
    THREE = 3


class TestLiterals:
    def test_cint(self):
        assert show(cint(3)) == IntLit(3)
        assert run(cint(3)) == VInt(3)

    def test_cbool(self):
        assert pretty(show(cbool(True))) == "true"

    def test_no_bindings_anywhere_without_genlet(self):
        c = cadd(cint(1), cmul(cint(2), cint(3)))
        for loc in ("", "_1", "_2_1", "_3_1_2"):
            assert not bindings_at(c, loc)

    def test_cint_stores_an_exact_int_itself(self):
        big = 10**30
        assert cint(big).i is big
        assert type(cint(_Three.THREE).i) is int and cint(_Three.THREE).i == 3

    @pytest.mark.parametrize("bad", ["x", None, True, 1.0], ids=repr)
    def test_cint_takes_only_an_int(self, bad):
        with pytest.raises(TypeMismatch, match=f"^not an integer: {re.escape(repr(bad))}$"):
            cint(bad)

    @pytest.mark.parametrize("bad", [2, 1, None, "true"], ids=repr)
    def test_cbool_takes_only_a_bool(self, bad):
        with pytest.raises(TypeMismatch, match=f"^not a boolean: {re.escape(repr(bad))}$"):
            cbool(bad)


class TestOperators:
    def test_cadd(self):
        tree = show(cadd(cint(1), cint(2)))
        assert tree == Add(IntLit(1), IntLit(2))
        assert pretty(tree) == "(1 + 2)"
        assert run(cadd(cint(1), cint(2))) == VInt(3)

    def test_cif_evaluates_one_branch(self):
        assert run(cif(cbool(False), cint(1), cint(2))) == VInt(2)

    def test_operator_sugar_builds_same_trees(self):
        a, b = cint(1), cint(2)
        assert show(a + b) == show(cadd(a, b))
        assert show(a - b) == show(csub(a, b))
        assert show(a * b) == show(cmul(a, b))
        assert show(a / b) == show(cdiv(a, b))
        assert show(a + 1) == Add(IntLit(1), IntLit(1))  # plain ints lift
        f = clam(lambda v: v)
        assert show(f @ cint(3)) == show(capp(f, cint(3)))

    @pytest.mark.parametrize(
        "op, combinator",
        [
            (operator.add, cadd),
            (operator.sub, csub),
            (operator.mul, cmul),
            (operator.truediv, cdiv),
        ],
        ids=["+", "-", "*", "/"],
    )
    def test_reflected_sugar_builds_same_trees(self, op, combinator):
        b = cint(3)
        assert show(op(2, b)) == show(combinator(cint(2), b))
        assert show(op(True, b)) == show(combinator(cbool(True), b))
        with pytest.raises(TypeMismatch, match="^not a code value: 'x'$"):
            op("x", b)

    def test_division_truncates_toward_zero(self):
        assert run(cdiv(cint(7), cint(2))) == VInt(3)
        assert run(cdiv(cint(0) - cint(7), cint(2))) == VInt(-3)


def _host_trunc_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# host references by infix symbol, independent of `base`
HOST = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _host_trunc_div,
    "=": lambda a, b: a == b,
}

OPERATORS = sorted(
    (c for c in BinOp.__subclasses__() if c.__module__ == "stagelet.base"),
    key=lambda c: c.__name__,
)


def _boxed(v):
    return VBool(v) if isinstance(v, bool) else VInt(v)


def _outcome(thunk):
    """("value", result), or the class and message of the staging error."""
    try:
        return "value", thunk()
    except StagingError as e:
        return type(e), str(e)


def _both_meanings(code):
    return _outcome(lambda: run(code)), _outcome(lambda: eval_ast(show(code)))


class TestEachOperator:
    """Run and show of every operator `base` defines; its combinator is `c`
    followed by its s-expression tag."""

    def test_the_five_are_found(self):
        assert {c.__name__ for c in OPERATORS} >= {"Add", "Sub", "Mul", "Div", "Eq"}

    @pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
    def test_meanings_match_host_reference(self, cls):
        comb = getattr(stagelet, "c" + cls.tag)
        for a, b in [(7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (0, 5), (4, 4)]:
            code = comb(cint(a), cint(b))
            assert type(show(code)) is cls
            want = ("value", _boxed(HOST[cls.symbol](a, b)))
            assert _both_meanings(code) == (want, want)

    @pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
    def test_zero_right_operand(self, cls):
        comb = getattr(stagelet, "c" + cls.tag)
        for a in (7, -7, 0):
            try:
                want = ("value", _boxed(HOST[cls.symbol](a, 0)))
            except ZeroDivisionError:
                want = (TypeMismatch, "division by zero")
            assert _both_meanings(comb(cint(a), cint(0))) == (want, want)

    @pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
    def test_boolean_operand(self, cls):
        comb = getattr(stagelet, "c" + cls.tag)
        for code, bad in [
            (comb(cbool(True), cint(1)), VBool(True)),
            (comb(cint(1), cbool(False)), VBool(False)),
        ]:
            want = (TypeMismatch, f"expected an integer, got {bad!r}")
            assert _both_meanings(code) == (want, want)

    @pytest.mark.parametrize("cls", OPERATORS, ids=lambda c: c.__name__)
    def test_left_operand_is_checked_before_right_is_evaluated(self, cls):
        comb = getattr(stagelet, "c" + cls.tag)
        code = comb(cbool(True), cdiv(cint(1), cint(0)))
        want = (TypeMismatch, "expected an integer, got VBool(value=True)")
        assert _both_meanings(code) == (want, want)


class TestBinders:
    def test_clam_alpha_to_squaring(self):
        tree = show(clam(lambda v: cmul(v, v)))
        assert alpha_eq(tree, Lam(x, Mul(Var(x), Var(x))))

    def test_clam_run_identity(self):
        assert apply_ints(run(clam(lambda v: v)), [5]) == VInt(5)

    def test_clet(self):
        tree = show(clet(cint(3), lambda v: cadd(v, v)))
        assert alpha_eq(tree, Let(x, IntLit(3), Add(Var(x), Var(x))))

    def test_let_under_lambda(self):
        c = clam(lambda a: clet(cadd(cint(1), cint(2)), lambda b: cadd(a, b)))
        expected = Lam(x, Let(y, Add(IntLit(1), IntLit(2)), Add(Var(x), Var(y))))
        assert alpha_eq(show(c), expected)
        assert apply_ints(run(c), [10]) == VInt(13)

    def test_hint_shows_up_in_names(self):
        tree = show(clam(lambda v: v, hint="acc"))
        assert pretty(tree) == "(fun acc -> acc)"

    def test_a_binder_is_named_by_its_index_path(self):
        # the lambda is child 2 of the sum at the root, its let child 1 of
        # the lambda, and the let's rhs and body children 1 and 2 of the let
        code = cadd(cint(0), clam(lambda v: clet(cint(1), lambda w: cadd(v, w), hint="acc")))
        tree = show(code)
        lam, let = tree.right, tree.right.body
        assert lam.param == Fresh("_2") and let.name == Fresh("_2_1")
        assert let.body == Add(Var(Fresh("_2")), Var(Fresh("_2_1")))
        assert pretty(tree) == "(0 + (fun v2 -> (let acc_2_1 = 1 in (v2 + acc_2_1))))"


class _Makers:
    """A semantics whose variables say which maker built them."""

    def mk_var(self, name):
        return "mk_var", name

    def mk_unbound(self, name):
        return "mk_unbound", name


class TestVariableScope:
    """A variable is its binder's (`mk_var`) where it is built at its
    binder's body location or below it, and unbound (`mk_unbound`) anywhere
    else; passed as an operand, it is the bare name or the same unbound
    denotation."""

    NAME, BODY = Fresh("_1"), "_1_1"

    @pytest.mark.parametrize(
        "loc, inside",
        [
            ("_1_1", True),
            ("_1_1_2", True),
            ("_1_1_12_3", True),
            # child 12 and child 10 of the function, beside its body
            ("_1_12", False),
            ("_1_10_1", False),
            ("_1", False),
            ("", False),
            ("_1_2", False),
            ("_2_1_1", False),
        ],
    )
    def test_scope_is_the_body_location_and_below(self, loc, inside):
        ctx = BuildContext(_Makers())
        var = codec._Var(self.NAME, self.BODY)
        made = ("mk_var" if inside else "mk_unbound", self.NAME)
        assert var._build(ctx, loc) == (made, {})
        assert var._operand(ctx, loc) == (self.NAME if inside else made, {})

    @pytest.mark.parametrize(
        "make, path, body",
        [
            (lambda f: clam(f), "", "_1"),
            (lambda f: clet(cint(0), f), "", "_2"),
            (lambda f: capp(clam(f), cint(0)), "_1", "_1_1"),
        ],
        ids=["clam", "clet", "redex"],
    )
    def test_each_binder_passes_its_body_location(self, make, path, body):
        seen = []
        show(make(lambda v: seen.append(v) or v))
        (var,) = seen
        assert (var.name.path, var.body) == (path, body)

    def test_a_carried_variable_shows_as_before(self):
        box = []
        code = cadd(
            capp(clam(lambda p: box.append(p) or p), cint(5)),
            clet(cint(0), lambda _: cadd(box[0], box[0])),
        )
        assert pretty(show(code)) == "(((fun v1_1 -> v1_1) 5) + (let v2 = 0 in (v1_1 + v1_1)))"
        assert free_vars(show(code)) == {Fresh("_1_1")}


class TestHints:
    """A hint is None or an identifier that ends in no digit and is no word
    `pretty` prints; any other hint could print two binders alike."""

    BINDERS = {
        "clam": lambda hint: clam(lambda v: v, hint=hint),
        "clet": lambda hint: clet(cint(1), lambda v: v, hint=hint),
        "genlet": lambda hint: genlet(Locus(""), 1, cint(1), hint=hint),
        "genletrec": lambda hint: genletrec(Locus(""), 1, cint(1), hint=hint),
    }

    def test_a_hint_ending_in_a_digit_would_capture(self):
        with pytest.raises(TypeMismatch, match="not a name hint: 'v1'"):
            clam(lambda x: clam(lambda y: x), hint="v1")  # (fun v1 -> (fun v1 -> v1))
        with pytest.raises(TypeMismatch, match="not a name hint: 'x_1'"):
            # (fun x_1 -> (fun x_1 -> x_1))
            clam(lambda x: clam(lambda y: x, hint="x"), hint="x_1")

    @pytest.mark.parametrize("binder", BINDERS)
    @pytest.mark.parametrize(
        "hint", ["v1", "x_1", "", "1x", "a b", "x-y", "fun", "let", "succ", 3, b"x"]
    )
    def test_every_binder_refuses_a_bad_hint(self, binder, hint):
        with pytest.raises(TypeMismatch, match="not a name hint"):
            self.BINDERS[binder](hint)

    @pytest.mark.parametrize("binder", BINDERS)
    @pytest.mark.parametrize("hint", [None, "x", "y", "acc", "v", "x_", "a_1b", "Fun"])
    def test_every_binder_takes_a_good_hint(self, binder, hint):
        self.BINDERS[binder](hint)

    def test_good_hints_never_render_two_paths_alike(self):
        paths = [()] + [
            p for n in (1, 2, 3) for p in itertools.product((1, 2, 3, 10), repeat=n)
        ]
        texts = {}
        for hint in [None, "x", "v", "x_", "a_1b", "acc"]:
            for path in paths:
                text = Fresh(location_of(path), hint).render()
                assert texts.setdefault(text, path) == path, text


class TestExamplesCorrespondence:
    def test_cgib5_unrolled_shape(self):
        l2 = Add(Var(y), Var(x))
        l3 = Add(l2, Var(y))
        l4 = Add(l3, l2)
        l5 = Add(l4, l3)
        got = show(lookup("cgib5").builder())
        assert alpha_eq(got, Lam(x, Lam(y, l5)))

    def test_cgib5_run_matches_recurrence(self):
        for xv in range(4):
            for yv in range(4):
                got = apply_ints(run(lookup("cgib5").builder()), [xv, yv])
                assert got == VInt(3 * xv + 5 * yv)
                assert got == VInt(gib(5, xv, yv))

    def test_run_agrees_with_eval_of_shown_code(self):
        samples = [(0, 0), (1, 1), (2, 3), (5, 7), (10, 10)]
        for entry in registry():
            if entry.kind is not ExampleKind.GENERATOR:
                continue
            tree = show(entry.builder())
            for args in samples:
                args = list(args[: entry.arity])
                via_run = apply_ints(run(entry.builder()), args)
                via_eval = apply_ints(eval_ast(tree), args)
                assert via_run == via_eval, entry.name

    def test_warmup_duplicates_code(self):
        six_seven = Add(IntLit(6), IntLit(7))
        expected = Div(
            Mul(Add(six_seven, IntLit(20)), Add(six_seven, IntLit(30))), IntLit(100)
        )
        assert show(lookup("shared-sums-plain").builder()) == expected


class TestDeterminismAndHygiene:
    def test_show_replay_identical(self):
        for entry in registry():
            if entry.kind is ExampleKind.BASE_PROGRAM:
                continue
            assert show(entry.builder()) == show(entry.builder())

    def test_all_binders_distinct(self):
        for entry in registry():
            if entry.kind is ExampleKind.BASE_PROGRAM:
                continue
            bound = binders(show(entry.builder()))
            assert len(bound) == len(set(bound)), entry.name

    def test_order_independence_sample(self):
        rng = random.Random(99)
        for _ in range(30):
            plan = ("locus", random_plan(rng, 4, in_locus=True, allow_locus=True))
            lr = show(build_code(plan, LEFT_FIRST))
            rl = show(build_code(plan, RIGHT_FIRST))
            assert lr == rl


class TestCli_independent_sexp:
    def test_sexp_of_shown_code_is_stable(self):
        tree = show(lookup("cack2").builder())
        assert to_sexp(tree) == to_sexp(show(lookup("cack2").builder()))


class TestRunErrors:
    def test_over_application(self):
        with pytest.raises(TypeMismatch):
            apply_ints(run(cint(3)), [1])

    def test_applying_a_non_function_raises_as_eval_ast(self):
        code = capp(cint(1), cint(2))
        for thunk in (lambda: run(code), lambda: eval_ast(show(code))):
            with pytest.raises(
                TypeMismatch, match=r"^cannot apply non-function VInt\(value=1\)$"
            ):
                thunk()

    def test_deep_show_is_a_staging_error(self):
        code = cint(0)
        for i in range(2000):
            code = cadd(code, cint(i))
        with pytest.raises(StepLimitExceeded, match="recursed past the host stack"):
            show(code)

    def test_long_let_chain_run_is_a_staging_error(self):
        with pytest.raises(StepLimitExceeded, match="recursed past the host stack"):
            run(clet_sum_chain(5000))

    def test_let_chain_runs_at_depth_400(self):
        # a build spends one host frame per level, so 400 nested lets fit
        assert run(clet_sum_chain(400)) == VInt(80200)  # 400 + 399 + ... + 1

    def test_free_output_is_still_showable(self):
        tree = show(lookup("clgib5-extruded").builder())
        assert free_vars(tree)


class TestLimits:
    """A limit is an int, or None for no limit; anything else is refused
    before the build starts."""

    def test_none_is_no_limit(self):
        cack2 = lookup("cack2").builder
        assert show(cack2(), canon_limit=None) == show(cack2())
        value = run(cack2(), step_limit=None, canon_limit=None)
        assert apply_ints(value, [3]) == VInt(9)

    @pytest.mark.parametrize("bad", ["5", 5.0, True, False, [1]], ids=repr)
    def test_anything_else_is_a_type_mismatch(self, bad):
        cack2 = lookup("cack2").builder
        with pytest.raises(TypeMismatch, match="not a limit"):
            show(cack2(), canon_limit=bad)
        with pytest.raises(TypeMismatch, match="not a limit"):
            run(cack2(), canon_limit=bad)
        with pytest.raises(TypeMismatch, match="not a limit"):
            run(cack2(), step_limit=bad)

    @pytest.mark.parametrize("bad", ["5", 2.5, True, False, [1]], ids=repr)
    def test_eval_ast_refuses_the_same_limits(self, bad):
        x = Source("x")
        tree = App(Lam(x, Var(x)), IntLit(1))
        assert eval_ast(tree, {}, step_limit=None) == VInt(1)
        with pytest.raises(TypeMismatch, match=f"^not a limit: {re.escape(repr(bad))}$"):
            eval_ast(tree, {}, step_limit=bad)


class TestNotCode:
    """Something that is not code where code belongs, or not a locus where a
    locus belongs, is a TypeMismatch naming it, not a raw Python error."""

    def test_lambda_body(self):
        with pytest.raises(TypeMismatch, match="^not a code value: 3$"):
            show(clam(lambda v: 3))

    def test_operand(self):
        with pytest.raises(TypeMismatch, match="^not a code value: 1$"):
            show(cadd(1, cint(2)))

    def test_locus_body(self):
        with pytest.raises(TypeMismatch, match="^not a code value: 5$"):
            run(with_locus(lambda l: 5))

    def test_genlet_locus(self):
        with pytest.raises(TypeMismatch, match="^not a locus: None$"):
            show(genlet(None, 1, cint(1)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: csucc("x"),
            lambda: csub(cint(1), "x"),
            lambda: cmul("x", cint(1)),
            lambda: cdiv(cint(1), "x"),
            lambda: ceq(cint(1), "x"),
            lambda: capp(cint(1), "x"),
            lambda: cif(cbool(True), cint(1), "x"),
            lambda: clet("x", lambda v: v),
            lambda: genlet(Locus(""), 1, "x"),
            lambda: genletrec(Locus(""), 1, "x"),
            lambda: cint(1) + "x",
            lambda: show("x"),
            lambda: run("x"),
        ],
        ids=[
            "csucc", "csub", "cmul", "cdiv", "ceq", "capp", "cif", "clet",
            "genlet", "genletrec", "lift", "show", "run",
        ],
    )
    def test_arguments_are_checked_when_written(self, make):
        with pytest.raises(TypeMismatch, match="^not a code value: 'x'$"):
            make()

    @pytest.mark.parametrize(
        "code",
        [
            clam(lambda v: "x"),
            clet(cint(1), lambda v: "x"),
            with_locus(lambda l: "x"),
            with_locus_rec(lambda l: "x"),
            with_locus(lambda l: cadd(cint(1), clam(lambda v: "x"))),
        ],
        ids=["clam", "clet", "with_locus", "with_locus_rec", "nested"],
    )
    def test_callback_results_are_checked(self, code):
        for meaning in (show, run):
            with pytest.raises(TypeMismatch, match="^not a code value: 'x'$"):
                meaning(code)

    def test_genletrec_locus(self):
        with pytest.raises(TypeMismatch, match="^not a locus: 'l'$"):
            genletrec("l", 0, cint(1))

    # a code value is callable, on a context and a location, but is never a
    # binder body
    @pytest.mark.parametrize("bad", [42, None, cint(1)], ids=repr)
    @pytest.mark.parametrize(
        "binder",
        [clam, lambda f: clet(cint(1), f), with_locus, with_locus_rec],
        ids=["clam", "clet", "with_locus", "with_locus_rec"],
    )
    def test_binder_body_is_checked_when_written(self, binder, bad):
        with pytest.raises(TypeMismatch, match=f"^not a function: {re.escape(repr(bad))}$"):
            binder(bad)

    @pytest.mark.parametrize("bad", [None, 5], ids=repr)
    def test_a_build_function_is_checked_when_wrapped(self, bad):
        with pytest.raises(TypeMismatch, match=f"^not a build function: {bad!r}$"):
            CodeValue(bad)

    @pytest.mark.parametrize("result", [5, (1, 2, 3), [1, 2]], ids=repr)
    def test_a_root_build_must_return_a_pair(self, result):
        code = CodeValue(lambda ctx, loc: result)
        want = f"^not a build result: {re.escape(repr(result))}$"
        for meaning in (show, run):
            with pytest.raises(TypeMismatch, match=want):
                meaning(code)

    @pytest.mark.parametrize(
        "place",
        [
            lambda c: cadd(c, cint(1)),
            lambda c: cadd(cint(1), c),
            lambda c: csucc(c),
            lambda c: clam(lambda v: c),
            lambda c: capp(clam(lambda v: v), c),
            lambda c: with_locus(lambda l: genlet(l, 0, c)),
        ],
        ids=["left", "right", "succ", "lam-body", "redex-arg", "genlet"],
    )
    @pytest.mark.parametrize("result", [5, (1, 2, 3)], ids=repr)
    def test_a_build_below_the_root_must_return_a_pair(self, place, result):
        code = place(CodeValue(lambda ctx, loc: result))
        want = f"^not a build result: {re.escape(repr(result))}$"
        for meaning in (show, run):
            with pytest.raises(TypeMismatch, match=want):
                meaning(code)

    def test_calling_a_user_code_value_checks_its_result(self):
        with pytest.raises(TypeMismatch, match="^not a build result: 5$"):
            CodeValue(lambda ctx, loc: 5)(BuildContext(ShowSemantics()), ROOT)
        built = cint(1)(BuildContext(ShowSemantics()), ROOT)
        assert CodeValue(lambda ctx, loc: built)(BuildContext(ShowSemantics()), ROOT) is built


class TestMemoKeys:
    """A memo key keys a dict, so an unhashable one is a TypeMismatch where
    the request is written, not a raw TypeError during the build."""

    @pytest.mark.parametrize("key", [[1], {}, (1, [2])], ids=repr)
    @pytest.mark.parametrize("request_", [genlet, genletrec])
    def test_unhashable_key_is_refused_when_written(self, request_, key):
        want = f"^memo key is not hashable: {re.escape(repr(key))}$"
        with pytest.raises(TypeMismatch, match=want):
            request_(Locus(""), key, cint(1))

    def test_show_of_an_unhashable_key(self):
        with pytest.raises(TypeMismatch, match="^memo key is not hashable"):
            show(with_locus(lambda l: genlet(l, [1], cint(1))))
        with pytest.raises(TypeMismatch, match="^memo key is not hashable"):
            run(with_locus_rec(lambda l: genletrec(l, {}, clam(lambda n: n))))


def _ident(v):
    return v


# each maker takes the previous code value, so the operators chain; every
# argument other than that one is made beforehand
# a variable of a function at `_1`, whose body is at `_1_1`
_LOCUS, _NAME, _BODY = Locus(""), Fresh("_1"), "_1_1"
RECORD_MAKERS = {
    "cint": lambda c: cint(7),
    "cbool": lambda c: cbool(True),
    "csucc": csucc,
    "cadd": lambda c: cadd(c, c),
    "csub": lambda c: csub(c, c),
    "cmul": lambda c: cmul(c, c),
    "cdiv": lambda c: cdiv(c, c),
    "ceq": lambda c: ceq(c, c),
    "capp": lambda c: capp(c, c),
    "cif": lambda c: cif(c, c, c),
    "variable": lambda c: codec._Var(_NAME, _BODY),
    "clam": lambda c: clam(_ident, "f"),
    "clet": lambda c: clet(c, _ident, "x"),
    "genlet": lambda c: genlet(_LOCUS, 1, c, "g"),
    "with_locus": lambda c: with_locus(_ident),
    "genletrec": lambda c: genletrec(_LOCUS, 1, c),
    "with_locus_rec": lambda c: with_locus_rec(_ident),
}


class TestCodeValuesAreRecords:
    """Each library combinator returns one slotted object holding its
    arguments, not a build closure with its cells; a build still spends
    one host frame per level."""

    @pytest.mark.parametrize("name", RECORD_MAKERS)
    def test_one_tracked_object_per_combinator(self, name):
        make, n = RECORD_MAKERS[name], 2000
        first, chain = cint(0), [None] * n
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            code = first
            for i in range(n):
                code = chain[i] = make(code)
            after = len(gc.get_objects())
        finally:
            if enabled:
                gc.enable()
        assert after - before == n

    @pytest.mark.parametrize("name", RECORD_MAKERS)
    def test_identity_equality_and_no_instance_dict(self, name):
        make = RECORD_MAKERS[name]
        one, other = make(cint(1)), make(cint(1))
        assert not hasattr(one, "__dict__")
        assert one == one and one != other
        assert hash(one) == hash(one)
        assert repr(one) == "CodeValue(...)"

    def test_a_deep_chain_hashes_and_compares_without_recursing(self):
        code = cint(0)
        for i in range(10_000):
            code = cadd(code, cint(i))
        assert code in {code} and code == code

    # the deepest chains handled under pytest were 952 levels both before and
    # after code values became records (3.11); a combinator that spent two
    # host frames per level would fail well short of this
    DEPTH = 900

    def test_show_of_a_deep_cadd_chain(self):
        code = cint(0)
        for _ in range(self.DEPTH):
            code = cadd(code, cint(1))
        assert run(code) == VInt(self.DEPTH)
        assert isinstance(show(code), Add)

    def test_run_of_a_deep_clet_chain(self):
        code = cint(5)
        for i in range(self.DEPTH):
            code = clet(cint(i), lambda v, body=code: body)
        assert run(code) == VInt(5)
        assert isinstance(show(code), Let)
