"""Seeded inputs for the stagelet benchmark, with host-Python reference answers.

Each workload draws a fixed number of generator instances from its seed.
Sizes are stratified over the workload's range (one draw per stratum), so
totals such as the output size move little from seed to seed, while the
seed still picks every size, argument and coefficient. References are
computed here in plain Python and never by the library under test.

Probes are a fixed set of operations past a known limit of the library (the
host stack, or clgib(20)'s run time). They are attempted once per run and
count toward `fail_ratio` only; they never enter a timing sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from stagelet import (
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
    genlet,
    genletrec,
    with_locus,
    with_locus_rec,
)
from stagelet.base import Add, App, Eq, If, IntLit, Lam, LetRec, Source, Sub, Var

PHASES = frozenset({"gen", "run", "exec", "check"})
INSTANCES = 100  # the fewest that leave ten samples beyond the p90


@dataclass(frozen=True)
class Instance:
    """One generator and the arguments its value is applied to.

    `expected[i]` is the host-reference result for `args[i]`. `reference`,
    when set, is a host-built tree the generated code must equal up to
    renaming. `timed` names the phases whose times enter the samples; the
    other phases run, and are checked, on the instance's first attempt.
    """

    label: str
    size: int
    gen: object
    args: tuple
    expected: tuple
    reference: object = None
    timed: frozenset = PHASES


@dataclass(frozen=True)
class Probe:
    """One operation past a known limit. `phase` is "gen" (pretty(show(g)),
    compared with `text` when given, otherwise evaluated on `args`) or "run"
    (run(g) applied to `args`)."""

    label: str
    phase: str
    gen: object
    args: tuple
    expected: tuple
    text: str | None = None
    timeout_s: float = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    probes: tuple


def stratified(rng, lo, hi, count):
    """`count` integers in [lo, hi], one uniform draw from each of `count`
    equal strata, in seeded order."""
    width = (hi - lo + 1) / count
    sizes = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def log_stratified(rng, lo, hi, count):
    """Like `stratified`, with strata of equal width in log space."""
    a, b = math.log(lo), math.log(hi + 1)
    sizes = [
        min(hi, int(math.exp(a + (i + rng.random()) * (b - a) / count)))
        for i in range(count)
    ]
    rng.shuffle(sizes)
    return sizes


# ---------------------------------------------------------------------------
# Host references


def gib(n, x, y):
    for _ in range(n):
        x, y = y, x + y
    return x


def ackermann(m, n):
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 0:
            n += 1
        elif n == 0:
            stack.append(m - 1)
            n = 1
        else:
            stack.append(m - 1)
            stack.append(m)
            n -= 1
    return n


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# fib-share: alias-heavy let-insertion


def shared_gib(l, x, y, n):
    """The shared Fibonacci generator of the clgib5 example: every request
    site builds its own subtree, and the memo key n folds equal ones."""
    if n == 0:
        return x
    if n == 1:
        return y
    return cadd(
        genlet(l, n - 1, shared_gib(l, x, y, n - 1)),
        genlet(l, n - 2, shared_gib(l, x, y, n - 2)),
    )


def clgib(n):
    return clam(lambda x: clam(lambda y: with_locus(lambda l: shared_gib(l, x, y, n))))


# exec is timed on n <= 11 only: from n=12 on it is mostly copying Env dicts
# of over 600 entries, which a slow spell of the host slows by half as much
# as the calibration slice, so that its times would follow the host
_FIB_EXEC_MAX_N = 11


def _fib_instance(rng, n, timed):
    args = tuple((rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(2))
    expected = tuple(gib(n, x, y) for x, y in args)
    return Instance(f"clgib({n})", n, clgib(n), args, expected, timed=timed)


def fib_share(rng):
    big = [_fib_instance(rng, n, PHASES - {"exec"}) for n in stratified(rng, 8, 13, INSTANCES)]
    small = [
        _fib_instance(rng, n, frozenset({"exec"}))
        for n in stratified(rng, 8, _FIB_EXEC_MAX_N, INSTANCES)
    ]
    instances = big + small
    rng.shuffle(instances)
    probe = Probe(
        "clgib(20) within 2 s", "gen", clgib(20), ((1, 2),), (gib(20, 1, 2),),
        timeout_s=2.0,
    )
    return Workload("fib-share", tuple(instances), (probe,))


# ---------------------------------------------------------------------------
# ack-letrec: letrec-insertion and the canon fixpoint


def cack(depth):
    """Letrec Ackermann specialised to its first argument `depth`: one
    mutually recursive clause per level, requested by genletrec."""

    def gen(l):
        def ack(m):
            if m == 0:
                return clam(lambda n: cadd(n, cint(1)))
            return clam(
                lambda n: cif(
                    ceq(n, cint(0)),
                    capp(genletrec(l, m - 1, ack(m - 1)), cint(1)),
                    capp(
                        genletrec(l, m - 1, ack(m - 1)),
                        capp(genletrec(l, m, ack(m)), csub(n, cint(1))),
                    ),
                )
            )

        return genletrec(l, depth, ack(depth))

    return with_locus_rec(gen)


def ack_tree(depth):
    """The tree cack(depth) must produce, up to renaming: clauses from the
    requested level down to 0, then the top clause's name."""
    names = [Source(f"ack{m}") for m in range(depth + 1)]
    clauses = []
    for m in range(depth, -1, -1):
        n = Source(f"n{m}")
        if m == 0:
            body = Add(Var(n), IntLit(1))
        else:
            body = If(
                Eq(Var(n), IntLit(0)),
                App(Var(names[m - 1]), IntLit(1)),
                App(Var(names[m - 1]), App(Var(names[m]), Sub(Var(n), IntLit(1)))),
            )
        clauses.append((names[m], Lam(n, body)))
    return LetRec(tuple(clauses), Var(names[depth]))


# n ranges per small depth, kept well inside the host stack (ack(3, 5) and
# ack(2, 150) are not: they are probes)
_ACK_EXEC_N = {1: 60, 2: 24, 3: 3}


def ack_exec_args(rng, m, count):
    """`count` argument batches for cack(m), each with one argument from
    each third of its range. Each third's arguments are stratified over the
    batches and the k-th batch takes the k-th smallest of each, so that the
    batches' costs are spread alike from seed to seed. A range too
    short for thirds gives every batch all of its arguments, in seeded
    order."""
    top = _ACK_EXEC_N[m] + 1
    if top < 6:
        return [tuple((n,) for n in rng.sample(range(top), top)) for _ in range(count)]
    thirds = [sorted(stratified(rng, j * top // 3, (j + 1) * top // 3 - 1, count)) for j in range(3)]
    return [tuple((n,) for n in batch) for batch in zip(*thirds)]


def ack_letrec(rng):
    big = [
        Instance(f"cack({m})", m, cack(m), (), (), ack_tree(m), frozenset({"gen", "run", "check"}))
        for m in log_stratified(rng, 8, 48, INSTANCES)
    ]
    small = []
    batches = {m: ack_exec_args(rng, m, len(range(m - 1, INSTANCES, 3))) for m in (1, 2, 3)}
    for i in range(INSTANCES):
        m = 1 + i % 3
        args = batches[m][i // 3]
        expected = tuple(ackermann(m, n) for (n,) in args)
        small.append(
            Instance(f"cack({m})", m, cack(m), args, expected, ack_tree(m), frozenset({"exec"}))
        )
    instances = big + small
    rng.shuffle(instances)
    probes = (
        Probe("cack(2) on 150", "run", cack(2), ((150,),), (ackermann(2, 150),)),
        Probe("cack(3) on 5", "run", cack(3), ((5,),), (ackermann(3, 5),)),
    )
    return Workload("ack-letrec", tuple(instances), probes)


# ---------------------------------------------------------------------------
# poly-exec: stage once, run many


def cpoly(coeffs):
    """Horner's rule unrolled over `coeffs` (lowest degree first), one
    genlet per step, bound at a locus just inside the function of x."""

    def body(x):
        def steps(l):
            acc = cint(coeffs[-1])
            for i in range(len(coeffs) - 2, -1, -1):
                acc = genlet(l, i, cadd(cmul(acc, x), cint(coeffs[i])))
            return acc

        return with_locus(steps)

    return clam(body)


def _poly_instance(rng, k, batch):
    coeffs = [rng.randint(-9, 9) for _ in range(k)]
    args = tuple((rng.randint(-4, 4),) for _ in range(batch))
    expected = tuple(horner(coeffs, x) for (x,) in args)
    return Instance(f"cpoly({k})", k, cpoly(coeffs), args, expected)


def poly_exec(rng):
    instances = tuple(_poly_instance(rng, k, 12) for k in stratified(rng, 8, 64, INSTANCES))
    probes = []
    for k in (150, 200):
        inst = _poly_instance(rng, k, 2)
        probes.append(Probe(f"cpoly({k}) show", "gen", inst.gen, inst.args, inst.expected))
        probes.append(Probe(f"cpoly({k}) run", "run", inst.gen, inst.args, inst.expected))
    return Workload("poly-exec", instances, tuple(probes))


# ---------------------------------------------------------------------------
# plain-tree: the plain combinators, no locus


def random_plan(rng, budget, nvars):
    """An int-typed plan over `nvars` variables whose generated tree has
    about `budget` nodes (a part of 2 becomes a leaf of 1).

    Plans are nested tuples; `realize` turns one into combinators and
    `eval_plan` evaluates it directly. Division is always by `b*b + 1`, so
    every plan is total.
    """
    if budget < 4:
        if nvars and rng.random() < 0.6:
            return ("var", rng.randrange(nvars))
        return ("int", rng.randrange(10))

    def split(total):
        left = min(total - 1, max(1, round(total * rng.uniform(0.3, 0.7))))
        return left, total - left

    kind = rng.choice(("add", "add", "sub", "sub", "mul", "div", "if", "let", "app"))
    if kind == "div" and budget >= 7:
        # Div(a, Add(Mul(b, b), 1)): 4 + a + 2b nodes
        b = max(1, (budget - 4) // 5)
        return ("div", random_plan(rng, budget - 4 - 2 * b, nvars), random_plan(rng, b, nvars))
    if kind == "if":
        # If(Eq(x, y), t, e) or If(BoolLit, t, e)
        if rng.random() < 0.2 or budget < 7:
            t, e = split(budget - 2)
            cond = ("bool", rng.random() < 0.5)
        else:
            c = max(2, (budget - 2) // 3)
            t, e = split(budget - 2 - c)
            x, y = split(c)
            cond = ("eq", random_plan(rng, x, nvars), random_plan(rng, y, nvars))
        return ("if", cond, random_plan(rng, t, nvars), random_plan(rng, e, nvars))
    if kind == "app":
        # App(Lam(body), arg)
        body, arg = split(budget - 2)
        return ("app", random_plan(rng, body, nvars + 1), random_plan(rng, arg, nvars))
    left, right = split(budget - 1)
    if kind == "let":
        return ("let", random_plan(rng, left, nvars), random_plan(rng, right, nvars + 1))
    kind = "add" if kind == "div" else kind
    return (kind, random_plan(rng, left, nvars), random_plan(rng, right, nvars))


_BINARY = {"add": cadd, "sub": csub, "mul": cmul, "eq": ceq}


def realize(plan, env):
    """The generator for `plan`, with `env` the code values of its variables."""
    tag = plan[0]
    if tag == "int":
        return cint(plan[1])
    if tag == "bool":
        return cbool(plan[1])
    if tag == "var":
        return env[plan[1]]
    if tag in _BINARY:
        return _BINARY[tag](realize(plan[1], env), realize(plan[2], env))
    if tag == "div":
        d = realize(plan[2], env)
        return cdiv(realize(plan[1], env), cadd(cmul(d, d), cint(1)))
    if tag == "if":
        return cif(realize(plan[1], env), realize(plan[2], env), realize(plan[3], env))
    if tag == "let":
        return clet(realize(plan[1], env), lambda v: realize(plan[2], env + (v,)))
    if tag == "app":
        return capp(clam(lambda v: realize(plan[1], env + (v,))), realize(plan[2], env))
    raise ValueError(f"unknown plan node {tag!r}")


def eval_plan(plan, env):
    tag = plan[0]
    if tag in ("int", "bool"):
        return plan[1]
    if tag == "var":
        return env[plan[1]]
    if tag == "add":
        return eval_plan(plan[1], env) + eval_plan(plan[2], env)
    if tag == "sub":
        return eval_plan(plan[1], env) - eval_plan(plan[2], env)
    if tag == "mul":
        return eval_plan(plan[1], env) * eval_plan(plan[2], env)
    if tag == "eq":
        return eval_plan(plan[1], env) == eval_plan(plan[2], env)
    if tag == "div":
        a, d = eval_plan(plan[1], env), eval_plan(plan[2], env) ** 2 + 1
        return abs(a) // d * (1 if a >= 0 else -1)
    if tag == "if":
        return eval_plan(plan[2] if eval_plan(plan[1], env) else plan[3], env)
    if tag == "let":
        return eval_plan(plan[2], env + (eval_plan(plan[1], env),))
    if tag == "app":
        return eval_plan(plan[1], env + (eval_plan(plan[2], env),))
    raise ValueError(f"unknown plan node {tag!r}")


def plain_generator(plan):
    return clam(lambda a: clam(lambda b: realize(plan, (a, b))))


def add_chain(depth):
    """cint(1) + (cint(2) + (... + cint(depth))) and its pretty rendering."""
    code = cint(depth)
    for i in range(depth - 1, 0, -1):
        code = cadd(cint(i), code)
    text = "".join(f"({i} + " for i in range(1, depth)) + str(depth) + ")" * (depth - 1)
    return code, text


def let_chain(depth):
    """let v1 = 1 in let v2 = v1 + 1 in ... v_depth, whose value is depth."""

    def step(i, prev):
        if i == depth:
            return prev
        return clet(cadd(prev, cint(1)), lambda v: step(i + 1, v))

    return clet(cint(1), lambda v: step(1, v))


def plain_tree(rng):
    instances = []
    for size in stratified(rng, 140, 1400, INSTANCES):
        plan = random_plan(rng, size, 2)
        args = tuple((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6))
        expected = tuple(eval_plan(plan, a) for a in args)
        instances.append(Instance(f"plan({size})", size, plain_generator(plan), args, expected))
    probes = []
    for depth in (400, 1_000, 10_000):
        code, text = add_chain(depth)
        probes.append(Probe(f"add chain {depth} show", "gen", code, (), (), text=text))
        probes.append(Probe(f"add chain {depth} run", "run", code, ((),), (depth * (depth + 1) // 2,)))
        probes.append(Probe(f"let chain {depth} run", "run", let_chain(depth), ((),), (depth,)))
    return Workload("plain-tree", tuple(instances), tuple(probes))


DRAWS = {
    "fib-share": fib_share,
    "ack-letrec": ack_letrec,
    "poly-exec": poly_exec,
    "plain-tree": plain_tree,
}
WORKLOADS = tuple(DRAWS)
