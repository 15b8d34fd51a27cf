"""Print how much work `show` and `run` leave to the cyclic collector.

For each instance and each of `show` and `run` it prints:

- `build`: the collector-tracked objects that building the instance's
  denotation leaves in the heap, the denotation still held;
- `call`: the tracked objects that one `show` or `run` call leaves, its
  result still held (show's denotation is garbage by then; run's value
  holds its denotation);
- `young`, `middle`, `full`: the collections of generations 0, 1 and 2
  that a fixed loop of calls triggers (`loops` calls, results dropped),
  counted with a `gc.callbacks` hook from a freshly collected heap;
- `peak kB`: the `tracemalloc` peak of one `show` or `run` call, from a
  freshly collected heap, its result held.

`build` and `call` are counted with `gc.get_objects()` around the work while
the collector is paused, so garbage that only the collector could free
counts too.

The instances, from `stagelet.examples`: shared Fibonacci `clgib(13)`,
letrec Ackermann `cack(48)`, unrolled Horner `cpoly` over 64 coefficients
(those of the tests' `cpoly(64)`) and a staged automaton `cdfa` on a random
10-symbol table of 400 states (seed 5).

Run it from the repository's root as

    python3 tools/collector.py

The tool pauses and starts the collector, and starts and stops
`tracemalloc`, only in its own process, and leaves the collector's
thresholds as they are. It prints only, and checks nothing but that each
`run` and `show` returns.
"""

import gc
import random
import sys
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src")]

from stagelet import run, show  # noqa: E402
from stagelet.codec import ROOT, BuildContext  # noqa: E402
from stagelet.examples import cack, cdfa, clgib, cpoly, random_dfa  # noqa: E402
from stagelet.semantics import RunSemantics, ShowSemantics  # noqa: E402


def instances():
    """(name, generator, calls in the collection loop) per instance."""
    delta, accept = random_dfa(random.Random(5), 400)
    yield "clgib(13)", clgib(13), 20
    yield "cack(48)", cack(48), 20
    yield "cpoly(64)", cpoly([(-1) ** i * (i % 10) for i in range(64)]), 50
    yield "cdfa(400)", cdfa(delta, accept), 2


def tracked(call):
    """The tracked objects that `call()` leaves, its result held, with the
    collector paused."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = call()  # noqa: F841  (held while counting)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


def collections(call, loops):
    """The collections per generation that `loops` calls of `call` trigger."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        for _ in range(loops):
            call()
    finally:
        gc.callbacks.remove(count)
    return counts


def peak_kb(call):
    """The tracemalloc peak of one `call()`, in kB, its result held."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()  # noqa: F841  (held while the peak is read)
        return tracemalloc.get_traced_memory()[1] / 1e3
    finally:
        tracemalloc.stop()


def main():
    print(
        f"{'instance':10} {'phase':5} {'build':>7} {'call':>7}"
        f" {'loops':>6} {'young':>6} {'middle':>6} {'full':>5} {'peak kB':>8}"
    )
    for name, gen, loops in instances():
        for phase, meaning, sem in (("show", show, ShowSemantics), ("run", run, RunSemantics)):
            built = tracked(lambda: gen(BuildContext(sem()), ROOT))
            left = tracked(lambda: meaning(gen))
            young, middle, full = collections(lambda: meaning(gen), loops)
            peak = peak_kb(lambda: meaning(gen))
            print(
                f"{name:10} {phase:5} {built:>7} {left:>7}"
                f" {loops:>6} {young:>6} {middle:>6} {full:>5} {peak:>8.1f}",
                flush=True,
            )


if __name__ == "__main__":
    main()
