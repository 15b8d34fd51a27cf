"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import contextlib
import itertools
import random

from stagelet import (
    Add,
    App,
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
    VInt,
    Var,
    alpha_eq,
    apply_ints,
    cadd,
    cint,
    eval_ast,
    free_vars,
    genlet,
    lookup,
    run,
    show,
    with_locus,
)
from stagelet.cli import main
from stagelet.insertion import (
    EMPTY_BINDINGS,
    EMPTY_PER_LOCUS,
    BindingClass,
    addb,
    canon,
    merge,
    ordered,
)
from stagelet.semantics import ShowSemantics

from helpers import (
    LEFT_FIRST,
    RIGHT_FIRST,
    ackermann,
    binders,
    build_code,
    c09_plans,
    c10_plans,
    count_lets,
    gib,
    subtrees,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


x, y = Source("x"), Source("y")


def test_c01_ct1_exactness(capsys):
    with criterion(1, "ct1 exactness"):
        assert main(["run", "ct1"]) == 0
        assert capsys.readouterr().out == "3\n"
        assert main(["show", "ct1"]) == 0
        assert capsys.readouterr().out == "(1 + 2)\n"


def test_c02_csq_correspondence():
    with criterion(2, "csq correspondence"):
        assert alpha_eq(show(lookup("csq").builder()), Lam(x, Mul(Var(x), Var(x))))
        assert apply_ints(run(lookup("csq").builder()), [3]) == VInt(9)


def test_c03_cgib5_unrolling():
    with criterion(3, "cgib5 unrolling"):
        l2 = Add(Var(y), Var(x))
        l3 = Add(l2, Var(y))
        l4 = Add(l3, l2)
        expected = Lam(x, Lam(y, Add(l4, l3)))
        assert alpha_eq(show(lookup("cgib5").builder()), expected)
        for xv, yv in itertools.product(range(4), range(4)):
            got = apply_ints(run(lookup("cgib5").builder()), [xv, yv])
            assert got == VInt(3 * xv + 5 * yv)
            assert got == VInt(gib(5, xv, yv))


def test_c04_clgib5_let_insertion():
    with criterion(4, "clgib5 let-insertion"):
        z, u, v, w, x6 = (Source(t) for t in ("z", "u", "v", "w", "x6"))
        expected = Lam(
            x,
            Lam(
                y,
                Let(
                    z,
                    Var(y),
                    Let(
                        u,
                        Var(x),
                        Let(
                            v,
                            Add(Var(z), Var(u)),
                            Let(
                                w,
                                Add(Var(v), Var(z)),
                                Let(x6, Add(Var(w), Var(v)), Add(Var(x6), Var(w))),
                            ),
                        ),
                    ),
                ),
            ),
        )
        tree = show(lookup("clgib5").builder())
        assert alpha_eq(tree, expected)
        assert count_lets(tree) == 5
        gib5 = lookup("gib5").builder()
        for xv, yv in itertools.product(range(4), range(4)):
            via_inserted = apply_ints(eval_ast(tree), [xv, yv])
            via_base = apply_ints(eval_ast(gib5), [xv, yv])
            assert via_inserted == via_base


def test_c05_shared_sums_worked_example():
    with criterion(5, "shared-sums worked example"):
        a, b, c = Source("a"), Source("b"), Source("c")
        expected = Let(
            a,
            Add(IntLit(6), IntLit(7)),
            Let(
                b,
                Add(Var(a), IntLit(20)),
                Let(
                    c,
                    Add(Var(a), IntLit(30)),
                    Div(Mul(Var(b), Var(c)), IntLit(100)),
                ),
            ),
        )
        assert alpha_eq(show(lookup("shared-sums").builder()), expected)

        # unit-style replay of the intermediate stores
        s = ShowSemantics()
        n2, n4, n6 = Fresh("_2"), Fresh("_4"), Fresh("_6")
        d3 = s.mk_binop(Add, s.mk_int(6), s.mk_int(7))
        d4 = s.mk_binop(Add, s.mk_var(n2), s.mk_int(20))
        d6 = s.mk_binop(Add, s.mk_var(n2), s.mk_int(30))
        v2 = addb(1, n2, d3, EMPTY_PER_LOCUS)
        assert tuple(v2) == (1,)
        assert v2 == {1: BindingClass(n2, d3, frozenset())}
        v4 = addb(2, n4, d4, v2)
        assert tuple(v4) == (1, 2)
        assert v4 == {
            1: BindingClass(n2, d3, frozenset()),
            2: BindingClass(n4, d4, frozenset()),
        }
        v6 = addb(3, n6, d6, v2)
        assert tuple(v6) == (1, 3)
        locus = (1,)
        v5 = merge({locus: v4}, {locus: v6}).get(locus, EMPTY_PER_LOCUS)
        assert tuple(v5) == (1, 2, 3)
        assert v5 == {
            1: BindingClass(n2, d3, frozenset()),
            2: BindingClass(n4, d4, frozenset()),
            3: BindingClass(n6, d6, frozenset()),
        }


def test_c06_cack2_letrec_insertion():
    with criterion(6, "cack2 letrec-insertion"):
        a, b, c, u, v, w = (Source(t) for t in "abcuvw")

        def clause(self_name, next_name, var):
            return Lam(
                var,
                If(
                    Eq(Var(var), IntLit(0)),
                    App(Var(next_name), IntLit(1)),
                    App(
                        Var(next_name),
                        App(Var(self_name), Sub(Var(var), IntLit(1))),
                    ),
                ),
            )

        expected = LetRec(
            (
                (a, clause(a, b, u)),
                (b, clause(b, c, v)),
                (c, Lam(w, Add(Var(w), IntLit(1)))),
            ),
            Var(a),
        )
        tree = show(lookup("cack2").builder())  # default canon limit suffices
        assert alpha_eq(tree, expected)
        for n in range(11):
            got = apply_ints(eval_ast(tree), [n])
            assert got == VInt(2 * n + 3)
            assert got == VInt(ackermann(2, n))


def test_c07_scope_extrusion_detection(capsys):
    with criterion(7, "scope-extrusion detection"):
        assert main(["check", "clgib5-extruded"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("free: ")
        assert len(out.split()) >= 2
        for name in (
            "t1",
            "sq",
            "gib5",
            "ack2",
            "ct1",
            "csq",
            "cgib5",
            "clet-intro",
            "clgib5",
            "shared-sums-plain",
            "shared-sums",
            "cack2",
        ):
            assert main(["check", name]) == 0, name
            capsys.readouterr()


def test_c08_sharing_property():
    with criterion(8, "sharing by memo key"):
        rng = random.Random(88)
        for k in range(1, 6):
            for _ in range(10):
                rhss = [
                    cadd(cint(rng.randrange(10)), cint(rng.randrange(10)))
                    for _ in range(k)
                ]

                def gen(l, rhss=rhss):
                    uses = [genlet(l, 7, r) for r in rhss]
                    body = uses[0]
                    for u in uses[1:]:
                        body = cadd(body, u)
                    return body

                tree = show(with_locus(gen))
                assert count_lets(tree) == 1
                assert free_vars(tree) == set()
                bound = set(binders(tree))
                assert len(bound) == 1
                # no alias name survives: every variable is the representative
                used = {t.name for t in subtrees(tree) if isinstance(t, Var)}
                assert used <= bound


def test_c09_order_independence():
    with criterion(9, "order independence"):
        for plan in c09_plans():
            left = show(build_code(plan, LEFT_FIRST))
            right = show(build_code(plan, RIGHT_FIRST))
            assert left == right


def test_c10_run_show_coherence():
    with criterion(10, "run/show coherence"):
        for plan in c10_plans():
            code = build_code(plan, LEFT_FIRST)
            tree = show(code)
            assert free_vars(tree) == set()
            assert eval_ast(tree, {}) == run(code)


def test_c11_machinery_algebra():
    with criterion(11, "machinery algebra"):
        # merge identity
        store = addb(1, Fresh("_3"), ShowSemantics().mk_int(1), EMPTY_PER_LOCUS)
        nu = {(): store}
        assert merge(nu, EMPTY_BINDINGS) == nu
        assert merge(EMPTY_BINDINGS, nu) == nu

        # ordered respects the preorder, which is the insertion order
        rng = random.Random(1111)
        can = ShowSemantics().mk_int(0)
        for _ in range(40):
            st = EMPTY_PER_LOCUS
            nkeys = rng.randrange(1, 6)
            for i in range(rng.randrange(1, 10)):
                st = addb(rng.randrange(nkeys), Fresh(f"_{i}"), can, st)
            by_class = {id(cls): k for k, cls in st.items()}
            got = tuple(by_class[id(cls)] for cls in ordered(st))
            assert got == tuple(st)

        # addb's two cases on exhaustively enumerated stores of <=3 keys
        for length in (1, 2, 3):
            for seq in itertools.product((1, 2, 3), repeat=length):
                st = EMPTY_PER_LOCUS
                for pos, key in enumerate(seq):
                    name = Fresh(f"_{pos + 20}")
                    before = st
                    st = addb(key, name, can, st)
                    if key in before:
                        assert tuple(st) == tuple(before)
                        assert name in st[key].aliases
                        assert st[key].name == before[key].name
                    else:
                        assert tuple(st) == tuple(before) + (key,)
                        assert st[key] == BindingClass(name, can)

        # canon is idempotent on canonical stores
        assert canon(nu, ()) is nu
        assert canon(canon(nu, ()), ()) == canon(nu, ())
