"""Tests of the benchmark's own parts: workloads, references, gate, tracer.

Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

import random
import signal
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stagelet import apply_ints, eval_ast, free_vars, show  # noqa: E402
from stagelet import run as stage_run  # noqa: E402
from stagelet.base import Lam, Source, Var  # noqa: E402
from stagelet import base, codec, examples, insertion, semantics  # noqa: E402

LIB = types.SimpleNamespace(
    base=base, codec=codec, examples=examples, insertion=insertion,
    semantics=semantics, workloads=workloads, gate=gate, tracer=tracer,
)
MODULES = {"insertion": insertion, "codec": codec, "semantics": semantics}


def _gib(n, x, y):
    return x if n == 0 else y if n == 1 else _gib(n - 1, x, y) + _gib(n - 2, x, y)


def _small(workload, count=4):
    timed = [i for i in workload.instances if "exec" in i.timed]
    return sorted(timed, key=lambda i: i.size)[:count]


def test_host_references_match_their_definitions():
    for n in range(12):
        assert workloads.gib(n, 3, -2) == _gib(n, 3, -2)
    closed = {0: lambda n: n + 1, 1: lambda n: n + 2, 2: lambda n: 2 * n + 3,
              3: lambda n: 2 ** (n + 3) - 3}
    for m, f in closed.items():
        for n in range(6):
            assert workloads.ackermann(m, n) == f(n)
    coeffs = [3, -1, 4, 1, -5]
    for x in range(-3, 4):
        assert workloads.horner(coeffs, x) == sum(c * x**i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_instances_give_the_host_answers(name):
    workload = workloads.DRAWS[name](random.Random(5))
    for inst in _small(workload):
        value = stage_run(inst.gen)
        tree = show(inst.gen)
        assert not free_vars(tree)
        for args, expected in zip(inst.args, inst.expected):
            assert apply_ints(value, args).value == expected
            assert apply_ints(eval_ast(tree), args).value == expected


def test_plan_evaluator_agrees_with_the_generated_code():
    rng = random.Random(11)
    for _ in range(40):
        plan = workloads.random_plan(rng, 60, 2)
        tree = show(workloads.plain_generator(plan))
        for args in ((0, 0), (3, -7), (-9, 9)):
            assert apply_ints(eval_ast(tree), args).value == workloads.eval_plan(plan, args)


def test_ack_reference_tree_matches_generated_code_up_to_renaming():
    for m in (1, 2, 5, 9):
        tree = show(workloads.cack(m))
        assert gate.check_tree(workloads.ack_tree(m), tree) is None
        assert gate.check_tree(workloads.ack_tree(m + 1), tree) is not None


def test_shape_is_renaming_invariant_and_structure_sensitive():
    x, y, z = Source("x"), Source("y"), Source("z")
    assert gate.shape(Lam(x, Var(x))) == gate.shape(Lam(y, Var(y)))
    assert gate.shape(Lam(x, Var(x))) != gate.shape(Lam(x, Var(z)))
    assert gate.count_nodes(Lam(x, Var(x))) == 2


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.DRAWS[name](random.Random(3))
        b = workloads.DRAWS[name](random.Random(3))
        key = lambda w: [(i.label, i.args, i.expected) for i in w.instances]  # noqa: E731
        assert key(a) == key(b)
        assert [p.label for p in a.probes] == [p.label for p in b.probes]


def test_ack_exec_batches_take_one_argument_per_third():
    rng = random.Random(4)
    for m in (1, 2):
        top = workloads._ACK_EXEC_N[m] + 1
        batches = workloads.ack_exec_args(rng, m, 33)
        assert len(batches) == 33
        for batch in batches:
            assert len(batch) == 3
            for j, (n,) in enumerate(batch):
                assert j * top // 3 <= n < (j + 1) * top // 3
    for batch in workloads.ack_exec_args(rng, 3, 5):
        assert sorted(n for (n,) in batch) == list(range(workloads._ACK_EXEC_N[3] + 1))


def test_reference_ms_is_the_median_ratio_to_the_slice():
    pairs = [(2e-3, 1e-4), (3e-3, 1e-4), (40e-3, 1e-4)]  # the last one a collection
    assert run.reference_ms(pairs) == pytest.approx(30 * run.CAL_SLICE_MS)
    calibration = run.Calibration(workloads)
    assert 0 < calibration.burst(3) < 1


def test_add_chain_rendering_reference():
    code, text = workloads.add_chain(4)
    assert text == "(1 + (2 + (3 + 4)))"
    assert base.pretty(show(code)) == text


def _traced_show(gen):
    t = tracer.Tracer(MODULES)
    with t:
        show(t.traced_generator(gen))
    return t


def test_traced_counts_for_clgib_14():
    t = _traced_show(workloads.clgib(14))
    assert t.counts["classes"] == 14
    assert t.counts["aliases"] == 1204
    assert t.counts["merge.calls"] == 609
    assert t.counts["env.redirect.calls"] == 1204


def test_traced_counts_for_cack_48():
    t = _traced_show(workloads.cack(48))
    assert t.counts["canon.rounds"] == 49
    assert t.counts["env.redirect.calls"] == 4800


def test_traced_counts_for_cpoly_100():
    t = _traced_show(workloads.cpoly(list(range(1, 101))))
    assert t.counts["classes"] == 99
    assert t.counts["aliases"] == 0


def _attributes():
    owners = [base, codec, examples, insertion, semantics, semantics.Env, insertion.Pending]
    return [dict(vars(owner)) for owner in owners]


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_traced_run_restores_attributes_and_agrees_with_untraced(alarm):
    before = _attributes()
    rng = random.Random(2)
    for name in workloads.WORKLOADS:
        full = workloads.DRAWS[name](rng)
        workload = workloads.Workload(name, tuple(_small(full, 3)), ())
        runner = run.Runner(LIB, workload)
        t = tracer.Tracer(MODULES)
        rounds = runner.traced_rounds(random.Random(1), 0.0, t)
        metrics = run.per_layer(t, rounds)
        assert metrics["trace.errors"]["value"] == 0
        assert all(error is None for error in runner.outcomes.values())
        after = _attributes()
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            assert all(old[k] is new[k] for k in old)


def test_self_time_subtracts_children():
    t = tracer.Tracer(MODULES)
    inner = t.wrap("inner", lambda: sum(range(20_000)))
    t.call("outer", lambda: [inner() for _ in range(3)])
    selfs = t.self_times()
    outer_total = t.durations("outer")[0]
    assert selfs["outer"] + selfs["inner"] == pytest.approx(outer_total)
    assert selfs["outer"] < outer_total


def test_percentiles_leave_ten_samples_beyond_p90():
    p50, p90 = run.percentiles(range(100))
    assert p50 == 49.5
    assert sum(v > p90 for v in range(100)) == 10
