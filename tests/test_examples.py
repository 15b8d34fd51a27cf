import random
import re

import pytest

from stagelet import (
    BaseAst,
    CodeValue,
    StepLimitExceeded,
    TypeMismatch,
    VInt,
    apply_ints,
    eval_ast,
    free_vars,
    lookup,
    registry,
    run,
    show,
)
from stagelet.examples import ExampleKind

from helpers import ackermann, gib

EXPECTED = {
    "t1": (ExampleKind.BASE_PROGRAM, 0),
    "sq": (ExampleKind.BASE_PROGRAM, 1),
    "gib5": (ExampleKind.BASE_PROGRAM, 2),
    "ack2": (ExampleKind.BASE_PROGRAM, 1),
    "ct1": (ExampleKind.GENERATOR, 0),
    "csq": (ExampleKind.GENERATOR, 1),
    "cgib5": (ExampleKind.GENERATOR, 2),
    "clet-intro": (ExampleKind.GENERATOR, 1),
    "clgib5": (ExampleKind.GENERATOR, 2),
    "shared-sums-plain": (ExampleKind.GENERATOR, 0),
    "shared-sums": (ExampleKind.GENERATOR, 0),
    "cack2": (ExampleKind.GENERATOR, 1),
    "clgib5-extruded": (ExampleKind.GENERATOR_EXPECT_EXTRUSION, 2),
}


class TestRegistry:
    def test_names_and_kinds(self):
        entries = {e.name: e for e in registry()}
        assert set(entries) == set(EXPECTED)
        for name, (kind, arity) in EXPECTED.items():
            assert entries[name].kind is kind, name
            assert entries[name].arity == arity, name

    def test_lookup(self):
        assert lookup("ct1").name == "ct1"
        assert lookup("nosuch") is None

    def test_builders_build_the_right_shape(self):
        for entry in registry():
            built = entry.builder()
            if entry.kind is ExampleKind.BASE_PROGRAM:
                assert isinstance(built, BaseAst)
            else:
                assert isinstance(built, CodeValue)


class TestApplyInts:
    def test_no_args_passthrough(self):
        assert apply_ints(VInt(3), []) == VInt(3)

    def test_currying(self):
        assert apply_ints(run(lookup("cgib5").builder()), [1, 1]) == VInt(8)

    def test_on_evaluated_shown_code(self):
        got = apply_ints(eval_ast(show(lookup("cack2").builder())), [4])
        assert got == VInt(11)
        assert got == VInt(ackermann(2, 4))

    def test_over_application(self):
        with pytest.raises(TypeMismatch):
            apply_ints(VInt(3), [1])

    @pytest.mark.parametrize("bad", ["a", 1.5, True, None], ids=repr)
    def test_arguments_are_integers_as_cint_takes(self, bad):
        # a string, a float or a bool would fold into a VInt no meaning
        # agrees on, and None into a raw TypeError
        want = f"^not an integer: {re.escape(repr(bad))}$"
        for value in (
            run(lookup("cgib5").builder()),
            eval_ast(lookup("gib5").builder()),
        ):
            for args in ((bad, 2), (2, bad)):
                with pytest.raises(TypeMismatch, match=want):
                    apply_ints(value, args)


def _result(entry, args):
    if entry.kind is ExampleKind.BASE_PROGRAM:
        return apply_ints(eval_ast(entry.builder(), {}), args)
    return apply_ints(run(entry.builder()), args)


class TestCounterparts:
    PAIRS = (
        ("ct1", "t1"),
        ("csq", "sq"),
        ("cgib5", "gib5"),
        ("clgib5", "gib5"),
        ("cack2", "ack2"),
    )

    def test_generator_matches_base_program(self):
        rng = random.Random(8)
        for gen_name, base_name in self.PAIRS:
            gen, base = lookup(gen_name), lookup(base_name)
            assert gen.arity == base.arity
            for _ in range(6):
                args = [rng.randrange(0, 11) for _ in range(gen.arity)]
                assert _result(gen, args) == _result(base, args), (gen_name, args)

    def test_oracles(self):
        assert _result(lookup("cgib5"), [2, 3]) == VInt(gib(5, 2, 3))
        assert _result(lookup("cack2"), [6]) == VInt(ackermann(2, 6))
        assert _result(lookup("cack2"), [10]) == VInt(23)
        assert _result(lookup("ack2"), [6]) == VInt(2 * 6 + 3)

    @pytest.mark.xfail(
        strict=True,
        raises=StepLimitExceeded,
        reason="both evaluators recurse once per Ackermann call level and "
        "pass the host stack (CHANGES.md FOUND line on `stagelet run cack2 "
        "150`; ROADMAP items 5 and 6)",
    )
    def test_cack2_on_150(self):
        code = lookup("cack2").builder  # ackermann(2, n) is 2n + 3
        assert apply_ints(run(code()), [150]) == VInt(303)
        assert apply_ints(eval_ast(show(code())), [150]) == VInt(303)


class TestShapes:
    def test_shared_sums_has_exactly_three_bindings(self):
        from helpers import count_lets

        assert count_lets(show(lookup("shared-sums").builder())) == 3
        assert count_lets(show(lookup("shared-sums-plain").builder())) == 0


class TestScopes:
    def test_every_generator_is_closed_except_the_extruded_one(self):
        for entry in registry():
            if entry.kind is ExampleKind.BASE_PROGRAM:
                continue
            free = free_vars(show(entry.builder()))
            if entry.kind is ExampleKind.GENERATOR_EXPECT_EXTRUSION:
                assert free, entry.name
            else:
                assert free == set(), entry.name
