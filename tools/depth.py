"""Print the deepest chains that stagelet's entry points handle.

Three chains, each a function of `x` applied to 1, whose value is the depth
plus one:

- `cadd`: `x + 1 + ... + 1`, each sum the left operand of the next;
- `clet`: `let v1 = x + 1 in let v2 = v1 + 1 in ... vn`;
- `redex`: `(fun v1 -> (fun v2 -> ... vn) (v1 + 1)) (x + 1)`, each redex
  in the body of the one before, as the lets are.

For each chain it prints the deepest one that each entry point handles:

- `show`: building the chain's generator and its tree;
- `run`: building and running the generator, then applying the function
  once (`apply_ints`);
- `pretty` and `to_sexp`: rendering the tree;
- `eval_ast`: evaluating the tree and applying it once.

`show` and `run` take generators built with the library's combinators;
the renderers and `eval_ast` take the same trees built by hand, so each is
measured on its own, past the depth where `show` stops.

A fourth row, `cack2`, is call depth: the greatest `n` for which
Ackermann's function specialised to 2 (`cack(2)`), applied to `n`, gives
`2n + 3`, once through `run` and once through `eval_ast` on the tree
`show` builds. Applied to `n`, it nests about `2n` calls deep on the host
stack; the other entry points have no cell in this row. Each depth is found
by bisection up to 10^4, at the interpreter's default recursion limit, in
the main thread, from a shallow stack; a depth of 10^4 is printed as
`>=10000`. Every entry point must fail on a chain too deep for it with
`StepLimitExceeded`: any other error, or a wrong value, makes the tool exit
non-zero.

Run it from the repository's root as

    python3 tools/depth.py

It leaves the recursion limit and every other interpreter setting as they
are, and prints only.
"""

import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src")]

from stagelet import (  # noqa: E402
    Add,
    App,
    IntLit,
    Lam,
    Let,
    Source,
    StepLimitExceeded,
    Var,
    VInt,
    apply_ints,
    cadd,
    capp,
    cint,
    clam,
    clet,
    eval_ast,
    pretty,
    run,
    show,
    to_sexp,
)
from stagelet.examples import ackermann, cack  # noqa: E402

MAX_DEPTH = 10_000


def cadd_chain(n):
    def body(x):
        code = x
        for _ in range(n):
            code = cadd(code, cint(1))
        return code

    return clam(body, "x")


def clet_chain(n):
    def step(i, prev):
        if i == n:
            return prev
        return clet(cadd(prev, cint(1)), lambda v: step(i + 1, v))

    return clam(lambda x: step(0, x), "x")


def redex_chain(n):
    def step(i, prev):
        if i == n:
            return prev
        return capp(clam(lambda v: step(i + 1, v)), cadd(prev, cint(1)))

    return clam(lambda x: step(0, x), "x")


def _names(n):
    return [Source("x")] + [Source(f"v{i}") for i in range(1, n + 1)]


def cadd_tree(n):
    tree = Var(Source("x"))
    for _ in range(n):
        tree = Add(tree, IntLit(1))
    return Lam(Source("x"), tree)


def clet_tree(n):
    names = _names(n)
    tree = Var(names[n])
    for i in range(n, 0, -1):
        tree = Let(names[i], Add(Var(names[i - 1]), IntLit(1)), tree)
    return Lam(names[0], tree)


def redex_tree(n):
    names = _names(n)
    tree = Var(names[n])
    for i in range(n, 0, -1):
        tree = App(Lam(names[i], tree), Add(Var(names[i - 1]), IntLit(1)))
    return Lam(names[0], tree)


CHAINS = {
    "cadd": (cadd_chain, cadd_tree),
    "clet": (clet_chain, clet_tree),
    "redex": (redex_chain, redex_tree),
}


def _applied(value, n):
    got = apply_ints(value, (1,))
    if got != VInt(n + 1):
        raise SystemExit(f"wrong value at depth {n}: {got!r}")


def _show(chain, tree, n):
    show(chain(n))


def _run(chain, tree, n):
    _applied(run(chain(n)), n)


def _pretty(chain, tree, n):
    pretty(tree(n))


def _to_sexp(chain, tree, n):
    to_sexp(tree(n))


def _eval_ast(chain, tree, n):
    _applied(eval_ast(tree(n)), n)


ENTRY_POINTS = {
    "show": _show,
    "run": _run,
    "pretty": _pretty,
    "to_sexp": _to_sexp,
    "eval_ast": _eval_ast,
}


def _cack2_run(n):
    _applied_ackermann(run(cack(2)), n)


def _cack2_eval_ast(n):
    _applied_ackermann(eval_ast(show(cack(2))), n)


def _applied_ackermann(value, n):
    got = apply_ints(value, (n,))
    if got != VInt(ackermann(2, n)):
        raise SystemExit(f"wrong value of cack2 on {n}: {got!r}")


CALLS = {"run": _cack2_run, "eval_ast": _cack2_eval_ast}


def handles(probe, args, n):
    """Whether `probe(*args, n)` handles depth `n`; only
    `StepLimitExceeded` is a refusal."""
    try:
        probe(*args, n)
    except StepLimitExceeded:
        return False
    return True


def deepest(probe, *args):
    """The greatest depth up to `MAX_DEPTH` that `probe` handles, by
    bisection; every depth below a handled one is taken as handled."""
    if handles(probe, args, MAX_DEPTH):
        return MAX_DEPTH
    lo, hi = 0, MAX_DEPTH  # lo is handled, hi is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if handles(probe, args, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _cell(n):
    return f">={n}" if n == MAX_DEPTH else str(n)


def main():
    print(
        f"deepest chain handled, Python {platform.python_version()}, "
        f"recursion limit {sys.getrecursionlimit()}, main thread"
    )
    print(f"{'chain':<6}" + "".join(f"{name:>10}" for name in ENTRY_POINTS))
    # plain loops: a comprehension would be one more host frame under
    # every probe on interpreters before 3.12
    for label, (chain, tree) in CHAINS.items():
        cells = []
        for probe in ENTRY_POINTS.values():
            cells.append(_cell(deepest(probe, chain, tree)))
        print(f"{label:<6}" + "".join(f"{c:>10}" for c in cells))
    cells = []
    for name in ENTRY_POINTS:
        cells.append(_cell(deepest(CALLS[name])) if name in CALLS else "-")
    print(f"{'cack2':<6}" + "".join(f"{c:>10}" for c in cells))


if __name__ == "__main__":
    main()
