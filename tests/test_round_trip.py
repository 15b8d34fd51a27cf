"""Printed code means the tree it was printed from.

`to_sexp(show(g))` is read back with every name taken as its text, and must
be alpha-equal to the tree: a binder whose name prints like another's, or a
use site holding a name object that prints unlike its binder's, would change
which binder a printed name refers to.
"""

import pytest

from stagelet import (
    Fresh,
    Lam,
    Source,
    Var,
    alpha_eq,
    free_vars,
    registry,
    show,
    to_sexp,
)
from stagelet.examples import ExampleKind

from helpers import (
    LEFT_FIRST,
    binders,
    build_code,
    c09_plans,
    c10_plans,
    parse_sexp,
    read_tree,
)


def check_round_trip(tree):
    texts = [n.render() for n in binders(tree)]
    assert len(set(texts)) == len(texts)
    back = read_tree(parse_sexp(to_sexp(tree)))
    # free names (scope extrusion) are closed over first, so they must read
    # back as themselves too
    for name in sorted(free_vars(tree), key=lambda n: n.render()):
        tree, back = Lam(name, tree), Lam(Source(name.render()), back)
    assert alpha_eq(back, tree)


GENERATORS = [e for e in registry() if e.kind is not ExampleKind.BASE_PROGRAM]


@pytest.mark.parametrize("entry", GENERATORS, ids=lambda e: e.name)
def test_registry_generators(entry):
    check_round_trip(show(entry.builder()))


@pytest.mark.parametrize("plans", [c09_plans, c10_plans], ids=["c09", "c10"])
def test_acceptance_plans(plans):
    for plan in plans():
        check_round_trip(show(build_code(plan, LEFT_FIRST)))


def test_a_capture_would_show():
    # hand-built past the hint rule: (fun v1 -> (fun v1 -> v1))
    outer, inner = Fresh("", "v1"), Fresh("_1")
    with pytest.raises(AssertionError):
        check_round_trip(Lam(outer, Lam(inner, Var(outer))))
