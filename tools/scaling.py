"""Print how building a wide letrec locus scales with its number of clauses.

For each family and size n it builds the generator with `run` and prints
the build's wall time and `canon`'s self time in a build under cProfile
(its tottime, with the cyclic collector paused), each the best of
`--repeat` builds and each with its ratio to the size before. The
families, from `stagelet.examples`:

- `cwide(n)`: n clauses `f_i = fun x -> x + i`, each odd one also calling
  `f_{i-1}`, under one letrec locus;
- `cdfa`: a staged automaton with one mutually recursive clause per state,
  on a random 10-symbol table of n states (seed 5).

Run it from the repository's root as

    python3 tools/scaling.py [--repeat R] [N ...]

with sizes 1000, 2000, 4000 and 8000 by default. The builds run in a worker
thread started with a 512 MB stack, which raises the recursion limit for
its run; the limit is put back when it ends. It prints only, and checks
nothing but that each built function computes what its host reference
does on one input.
"""

import argparse
import cProfile
import gc
import pstats
import random
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from stagelet import apply_ints, insertion, run  # noqa: E402
from stagelet.examples import cdfa, cwide, dfa, random_dfa, wide  # noqa: E402

SIZES = (1000, 2000, 4000, 8000)
STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 100_000
ARG = 7301


def families():
    """(name, generator of size n, host reference of size n) per family."""

    def automaton(n):
        delta, accept = random_dfa(random.Random(5), n)
        return cdfa(delta, accept), lambda x: dfa(delta, accept, x)

    yield "cwide", lambda n: (cwide(n), lambda x: wide(n, x))
    yield "cdfa", automaton


def canon_self_s(gen):
    """`canon`'s tottime, in seconds, over one `run(gen)` under cProfile,
    with the cyclic collector paused: cProfile charges a collection to
    whichever function allocates when it starts, so canon's figure would
    include the collector's pauses for the whole heap."""
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run(gen)
    finally:
        profile.disable()
        gc.enable()
    code = insertion.canon.__code__
    for (path, line, _), row in pstats.Stats(profile).stats.items():
        if (path, line) == (code.co_filename, code.co_firstlineno):
            return row[2]
    return 0.0


def ratio(now, before):
    return f"x{now / before:.2f}" if before else "-"


def measure(sizes, repeat):
    print(f"{'family':8} {'n':>6} {'run ms':>9} {'ratio':>7} {'canon ms':>9} {'ratio':>7}")
    for name, make in families():
        last_run = last_canon = None
        for n in sizes:
            gen, host = make(n)
            best = float("inf")
            for _ in range(repeat):
                start = time.perf_counter()
                value = run(gen)
                best = min(best, time.perf_counter() - start)
            if apply_ints(value, [ARG]).value != host(ARG):
                raise SystemExit(f"{name}({n}) computed a wrong value")
            canon_s = min(canon_self_s(gen) for _ in range(repeat))
            print(
                f"{name:8} {n:>6} {best * 1e3:>9.1f} {ratio(best, last_run):>7}"
                f" {canon_s * 1e3:>9.2f} {ratio(canon_s, last_canon):>7}",
                flush=True,
            )
            last_run, last_canon = best, canon_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, default=SIZES)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    failure = []

    def work():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            measure(args.sizes, args.repeat)
        except BaseException as e:  # re-raised by the main thread
            failure.append(e)
        finally:
            sys.setrecursionlimit(limit)

    threading.stack_size(STACK_BYTES)
    try:
        worker = threading.Thread(target=work)
        worker.start()
    finally:
        threading.stack_size(0)
    worker.join()
    if failure:
        raise failure[0]


if __name__ == "__main__":
    main()
