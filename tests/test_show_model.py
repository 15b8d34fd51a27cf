"""`show` and `run` against the independent show-only model in `show_model`.

Each plan is realized with the shipped combinators (left operand first) and
with mirrored ones (right operand first). Its shown code must match the
model's tree byte for byte, and running it must agree with `eval_ast` of that
tree: the same value, or the same staging error.
"""

import ast
import os
import pathlib
import random

import pytest

from stagelet import (
    StagingError,
    UnboundVariable,
    VInt,
    apply_ints,
    eval_ast,
    free_vars,
    lookup,
    pretty,
    run,
    show,
)

import show_model
from helpers import (
    LEFT_FIRST,
    RIGHT_FIRST,
    build_code,
    c09_plans,
    c10_plans,
    cack,
    clgib,
    count_lets,
)
from show_model import model_show


def outcome(thunk):
    try:
        return thunk()
    except StagingError as e:
        return type(e), str(e)


def same_text(got, want):
    # pytest's diff of two unequal lines of 100 kB takes minutes: show where
    # they part instead
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        near = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"at {at}: {got[near]!r} != {want[near]!r}")


def agree(plan, args=()):
    """Check `plan` against the model under both build orders; returns the
    model's tree.

    The two realizations share one dict of host slots, as a host program's
    state outlives a build: a `kept` read that the right-first build reaches
    before its slot's `keep` reads the variable the left-first build kept,
    which has the same name and body location."""
    want = model_show(plan)
    text = pretty(want)
    expected = outcome(lambda: apply_ints(eval_ast(want), args))
    held = {}
    for builders in (LEFT_FIRST, RIGHT_FIRST):
        code = build_code(plan, builders, held=held)
        same_text(pretty(show(code)), text)
        assert outcome(lambda: apply_ints(run(code), args)) == expected
    return want


# ---------------------------------------------------------------------------
# Plans


def total(parts):
    """A balanced sum of `parts`, so a long sum stays shallow."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return ("add", total(parts[:half]), total(parts[half:]))


def shared_gib(n):
    """The body of `clgib(n)` under `fun x -> fun y ->` (variables 0, 1)."""
    if n < 2:
        return ("var", n)
    return ("add", ("genlet", n - 1, shared_gib(n - 1)), ("genlet", n - 2, shared_gib(n - 2)))


def clgib_plan(n):
    return ("lam", ("lam", ("locus", shared_gib(n))))


def extruded_plan(n):
    # the locus above `fun y`: requests that mention y are bound above it
    return ("lam", ("locus", ("lam", shared_gib(n))))


def cack_plan(depth):
    minus_one = ("sub", ("var", 0), ("int", 1))
    defs = (("add", ("var", 0), ("int", 1)),) + tuple(
        ("eqif", ("var", 0), ("int", 0), ("call", m - 1, ("int", 1)),
         ("call", m - 1, ("call", m, minus_one)))
        for m in range(1, depth + 1)
    )
    return ("rec", defs, ("ref", depth))


def wide_plan(rng, inner=12, requests=160, keys=120):
    """`fun x -> locus -> fun y ->` a sum of `inner` loci, each a sum of
    `requests` genlets on `keys` memo keys, a tenth of them bound at the
    outer locus; about 1200 memo keys in all."""

    def request(up, depth):
        return ("genlet", rng.randrange(keys), rhs(up, depth), up)

    def rhs(up, depth):
        if depth and rng.random() < 0.3:
            # a request bound outside may mention only what is bound there
            inner_up = up or int(rng.random() < 0.2)
            return ("mul", request(inner_up, depth - 1), ("int", rng.randrange(1, 4)))
        var = 0 if up else rng.randrange(2)
        return ("add", ("var", var), ("int", rng.randrange(10)))

    loci = [
        ("locus", total([request(int(rng.random() < 0.1), 2) for _ in range(requests)]))
        for _ in range(inner)
    ]
    return ("lam", ("locus", ("lam", total(loci), "y")), "x")


def rec_plan(rng, nkeys=4):
    """`fun x ->` a letrec locus of `nkeys` mutually recursive clauses. A
    clause calls clauses on n - 1 only when n is not 0, so every call chain
    ends; the body may open a let locus whose requests call clauses."""
    minus_one = ("sub", ("var", 0), ("int", 1))

    def step():
        calls = [("call", rng.randrange(nkeys), minus_one) for _ in range(rng.randrange(1, 3))]
        return total(calls + [("var", 0)])

    defs = tuple(
        ("eqif", ("var", 0), ("int", 0), ("int", rng.randrange(5)), step())
        for _ in range(nkeys)
    )
    calls = [("call", rng.randrange(nkeys), ("var", 0)) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.5:
        body = total(calls)
    else:
        body = ("locus", total([("genlet", rng.randrange(2), c) for c in calls]))
    return ("lam", ("rec", defs, body))


def held_plan(rng, parts=4, depth=3):
    """`fun x ->` a sum of `parts` terms whose binders (a let, a redex, a
    function never called) may keep their variable in a host slot. A slot
    is read back later in left-first build order: mostly inside its
    binder's body, where the variable is bound, and now and then outside
    it, where it is unbound from the build on although the binder may have
    run in the same activation."""
    slots = []

    def term(depth, ints, inside):
        """A term of integer type; `ints` flags which variables are ints,
        and `inside` holds the slots kept by the binders around it."""
        r = rng.random()
        if depth == 0 or r < 0.2:
            if inside and rng.random() < 0.4:
                return ("kept", rng.choice(inside))
            if slots and rng.random() < 0.08:
                return ("kept", rng.choice(slots))
            if rng.random() < 0.5:
                return ("var", rng.choice([i for i, k in enumerate(ints) if k]))
            return ("int", rng.randrange(5))
        if r < 0.4:
            return ("add", term(depth - 1, ints, inside), term(depth - 1, ints, inside))
        if r < 0.55:
            rhs = term(depth - 1, ints, inside)
            return ("let", rhs, body(depth, ints + (True,), inside))
        if r < 0.75:
            # built as a redex left first, as a call of a function right first
            fun = body(depth, ints + (True,), inside)
            return ("app", fun, term(depth - 1, ints, inside))
        if r < 0.85:
            # let f = fun p -> ... in ...: f is never called, so p is never bound
            fun = ("lam", body(depth, ints + (True,), inside))
            return ("let", fun, term(depth - 1, ints + (False,), inside))
        return ("eqif", *(term(depth - 1, ints, inside) for _ in range(4)))

    def body(depth, ints, inside):
        if rng.random() < 0.6:
            slots.append(len(slots))
            return ("keep", slots[-1], term(depth - 1, ints, inside + (slots[-1],)))
        return term(depth - 1, ints, inside)

    return ("lam", total([term(depth, (True,), ()) for _ in range(parts)]), "x")


def extrusion_plan(rng):
    """`fun x -> locus -> fun y ->` requests, some mentioning y."""
    requests = [
        ("genlet", rng.randrange(4), ("add", ("var", rng.randrange(2)), ("int", i)))
        for i in range(rng.randrange(1, 6))
    ]
    return ("lam", ("locus", ("lam", total(requests), "y")), "x")


# ---------------------------------------------------------------------------
# Tests


def test_the_model_imports_only_syntax():
    tree = ast.parse(pathlib.Path(show_model.__file__).read_text())
    imported = {
        n.module if isinstance(n, ast.ImportFrom) else a.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for a in n.names
    }
    assert imported == {"stagelet.base"}


@pytest.mark.parametrize(
    "plan, code",
    [
        (clgib_plan(5), lambda: lookup("clgib5").builder()),
        (clgib_plan(8), lambda: clgib(8)),
        (extruded_plan(5), lambda: lookup("clgib5-extruded").builder()),
        (cack_plan(2), lambda: lookup("cack2").builder()),
        (cack_plan(8), lambda: cack(8)),
    ],
    ids=["clgib5", "clgib(8)", "clgib5-extruded", "cack2", "cack(8)"],
)
def test_the_model_spells_the_pinned_generators(plan, code):
    assert pretty(model_show(plan)) == pretty(show(code()))


def test_c09_plans():
    for plan in c09_plans():
        agree(plan)


def test_c10_plans():
    for plan in c10_plans():
        agree(plan)


@pytest.mark.parametrize("seed", range(3))
def test_a_thousand_memo_keys_over_nested_loci(seed):
    tree = agree(wide_plan(random.Random(seed)), (3, 4))
    assert count_lets(tree) >= 1000


def test_mutually_recursive_letrec_plans():
    rng = random.Random(7)
    for _ in range(60):
        agree(rec_plan(rng), (rng.randrange(4),))


def test_extrusion_cases():
    tree = agree(extruded_plan(5), (1, 2))
    assert free_vars(tree)
    rng = random.Random(12)
    extruded = 0
    for _ in range(60):
        extruded += bool(free_vars(agree(extrusion_plan(rng), (1, 2))))
    assert 10 < extruded < 60


def test_variables_carried_through_host_state():
    rng = random.Random(30)
    unbound = values = 0
    for _ in range(80):
        tree = agree(held_plan(rng), (3,))
        got = outcome(lambda: apply_ints(eval_ast(tree), (3,)))
        if isinstance(got, VInt):
            values += bool(free_vars(tree))
        else:
            unbound += got[0] is UnboundVariable
    # some raise at a carried variable, and some never reach the free name
    # they show
    assert unbound > 20 and values > 3
