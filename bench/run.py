"""stagelet benchmark: generation, execution and cross-check time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (see `workloads.py`) through stagelet's public API
in this process, with no extra threads, and checks every answer against a
host-Python reference. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it records the seed, the Python version, `nproc` and sample counts.

Each instance runs four phases, each under a per-operation timeout:
gen = pretty(show(g)), run = run(g), exec = apply_ints over the instance's
argument batch, and check = eval_ast on the same arguments plus free_vars.
Passes over the instance set, each in a fresh seeded order so that a slow
spell of the machine hits every size alike, repeat until `--seconds` have
passed.

Times are reported in reference milliseconds (and `setup_s` in reference
seconds). A shared host switches between speeds, by up to half, from one
millisecond to the next and from one minute to the next. So every timed
operation is followed by one calibration slice, a fixed piece of host-Python
work that never calls stagelet, and an instance's time is the median over its
passes of operation time over slice time, multiplied by CAL_SLICE_MS: what
the operation costs on a host where one slice takes CAL_SLICE_MS. The median
drops the passes that a garbage collection or a preemption happened to hit.
The p50 and p90 are taken over the instances. The line before the result
also gives the raw wall-clock p50s and the mean slice time.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
untraced and traced passes alternate, and the metrics are per-layer self
times and counts from the traced passes (see `tracer.py`); the spans are
written to bench/out/.

Exit status: 0 when every answer is right, 1 on any wrong answer or failed
non-probe operation (the result is still printed), 2 when stagelet cannot be
imported from this checkout's src/ (nothing is printed).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

OP_TIMEOUT_S = 20.0
SETUP_REPEATS = 7
# the reference time of one calibration slice; set-up is calibrated against
# SETUP_SLICES slices before and after each of its repeats
CAL_SLICE_MS = 0.2
SETUP_SLICES = 50
WARMUP_INSTANCES = 3
PEAK_INSTANCES = 5
PHASES = ("gen", "run", "exec", "check")
# the benchmark's own modules, re-imported with stagelet at every set-up
FRESH_MODULES = ("workloads", "gate", "tracer")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("operation timed out")


def timed(fn, args, timeout_s):
    """(result, seconds) of fn(*args); raises OpTimeout after `timeout_s`."""
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Calibration:
    """A fixed slice of host-Python work: the benchmark's own evaluator run
    over a fixed random plan. It calls nothing in stagelet, so a change to
    the library cannot change its time; only the host's speed can."""

    def __init__(self, workloads):
        self.plan = workloads.random_plan(random.Random("calibration"), 400, 2)
        self.eval_plan = workloads.eval_plan

    def slice(self):
        """Seconds of one slice."""
        start = time.perf_counter()
        for a in range(-3, 3):
            self.eval_plan(self.plan, (a, 2))
        return time.perf_counter() - start

    def burst(self, count):
        """Mean seconds of `count` slices."""
        return statistics.fmean(self.slice() for _ in range(count))


class Library:
    """stagelet from this checkout's src/, and the benchmark modules that use
    it, imported afresh."""

    def __init__(self):
        for name in list(sys.modules):
            if name == "stagelet" or name.startswith("stagelet.") or name in FRESH_MODULES:
                del sys.modules[name]
        stagelet = importlib.import_module("stagelet")
        where = Path(stagelet.__file__).resolve()
        if SRC_DIR.resolve() not in where.parents:
            raise ImportError(f"stagelet was imported from {where}, not from {SRC_DIR}")
        for name in ("base", "codec", "insertion", "semantics", "examples"):
            setattr(self, name, importlib.import_module(f"stagelet.{name}"))
        for name in FRESH_MODULES:
            setattr(self, name, importlib.import_module(name))


def applied_trees(lib, tree, args):
    """`tree` applied to each argument tuple, as syntax."""
    out = []
    for arg_tuple in args:
        t = tree
        for a in arg_tuple:
            t = lib.base.App(t, lib.base.IntLit(a))
        out.append(t)
    return out


class Runner:
    """One workload's instances, samples and operation outcomes."""

    def __init__(self, lib, workload):
        self.lib = lib
        self.workload = workload
        self.instances = workload.instances
        # samples[phase][i]: (seconds, calibration slice seconds) of each
        # timed attempt of instance i
        self.samples = {p: {} for p in PHASES}
        # a Calibration, once set-up is over: every untraced operation is
        # then followed by one slice
        self.calibration = None
        # outcomes[(i, phase)] or outcomes[("probe", label)]: None while every
        # attempt passed, else the first failure
        self.outcomes = {}
        self.wrong = []
        self.texts = {}
        self.nodes = {}

    def _record(self, key, error):
        if error is not None and error.startswith("wrong answer"):
            self.wrong.append(f"{key}: {error}")
        if self.outcomes.get(key) is None:
            self.outcomes[key] = error

    def _attempt(self, key, fn, args, verify, timeout_s=OP_TIMEOUT_S, tracer=None):
        """One operation, checked outside its timed region; returns
        (result, seconds, slice seconds or None), or None if it failed. A
        traced operation's outcome is not recorded: it is compared with the
        untraced one."""
        record = self._record
        if tracer is not None:
            fn = tracer.wrap(f"op.{key[1]}", fn)
            record = lambda key, error: None  # noqa: E731
        try:
            result, secs = timed(fn, args, timeout_s)
        except Exception as exc:  # every failure of the library is an outcome
            if tracer is not None:
                tracer.reset_open()
            record(key, f"{type(exc).__name__}: {exc}"[:300])
            return None
        cal = self.calibration.slice() if self.calibration and tracer is None else None
        error = verify(result)
        record(key, error)
        return None if error else (result, secs, cal)

    def _api(self, tracer):
        """The public calls the phases make, wrapped as spans when traced."""
        base, codec, examples = self.lib.base, self.lib.codec, self.lib.examples
        api = {
            "show": codec.show,
            "run": codec.run,
            "pretty": base.pretty,
            "apply_ints": examples.apply_ints,
            "eval_ast": base.eval_ast,
            "free_vars": base.free_vars,
        }
        if tracer is not None:
            api["pretty"] = tracer.wrap("base.pretty", base.pretty)
            api["apply_ints"] = tracer.wrap("examples.apply_ints", examples.apply_ints)
            api["eval_ast"] = tracer.wrap("base.eval_ast", base.eval_ast)
            api["free_vars"] = tracer.wrap("base.free_vars", base.free_vars)
        return api

    def run_instance(self, i, record=True, tracer=None, full=False):
        """The phases of instance i: all of them when `full` or on its first
        attempt, else only its timed phases and what they need. Returns the
        seconds of each phase that passed, and a fingerprint of each phase's
        outcome."""
        gate, inst = self.lib.gate, self.instances[i]
        wanted = set(PHASES) if full or (i, "gen") not in self.outcomes else set(inst.timed)
        api = self._api(tracer)
        gen = inst.gen if tracer is None else tracer.traced_generator(inst.gen)
        times, cals, prints = {}, {}, {}

        def gen_phase(g):
            tree = api["show"](g)
            return tree, api["pretty"](tree)

        def verify_gen(result):
            tree, text = result
            if i in self.texts:
                return None if text == self.texts[i] else "wrong answer: output differs between passes"
            error = gate.check_tree(inst.reference, tree)
            if error is None:
                self.texts[i] = text
                self.nodes[i] = gate.count_nodes(tree)
            return error

        tree = value = None
        if wanted & {"gen", "check"}:
            got = self._attempt((i, "gen"), gen_phase, (gen,), verify_gen, tracer=tracer)
            if got:
                (tree, prints["gen"]), times["gen"], cals["gen"] = got
                if tracer is not None:
                    tracer.call("base.to_sexp", self.lib.base.to_sexp, tree)

        if wanted & {"run", "exec"}:
            got = self._attempt((i, "run"), api["run"], (gen,), gate.check_function, tracer=tracer)
            if got:
                value, times["run"], cals["run"] = got
                prints["run"] = "function"

        if "exec" in wanted and inst.args and value is None:
            self._record((i, "exec"), "skipped: run failed")
        elif "exec" in wanted and inst.args:

            def exec_phase(v):
                return [api["apply_ints"](v, a) for a in inst.args]

            def verify_exec(values):
                return gate.check_values(inst.expected, values)

            got = self._attempt((i, "exec"), exec_phase, (value,), verify_exec, tracer=tracer)
            if got:
                prints["exec"] = gate.as_ints(got[0])
                times["exec"], cals["exec"] = got[1:]

        if "check" in wanted and tree is None:
            self._record((i, "check"), "skipped: gen failed")
        elif "check" in wanted:
            targets = applied_trees(self.lib, tree, inst.args) if inst.args else [tree]

            def check_phase(ts, t):
                return [api["eval_ast"](x) for x in ts], api["free_vars"](t)

            def verify_check(result):
                values, free = result
                if inst.args:
                    error = gate.check_values(inst.expected, values)
                else:
                    error = gate.check_function(values[0])
                return error or gate.check_closed(free)

            got = self._attempt((i, "check"), check_phase, (targets, tree), verify_check, tracer=tracer)
            if got:
                prints["check"] = gate.as_ints(got[0][0]) if inst.args else "function"
                times["check"], cals["check"] = got[1:]

        if record:
            for phase, secs in times.items():
                if phase in inst.timed:
                    self.samples[phase].setdefault(i, []).append((secs, cals[phase]))
        return times, prints

    def _order(self, rng):
        order = list(range(len(self.instances)))
        rng.shuffle(order)
        gc.collect()
        return order

    def passes(self, rng, seconds):
        """Untraced passes until `seconds` have passed; the first completes.
        Returns the number of passes begun."""
        deadline = time.perf_counter() + seconds
        count = 0
        while not count or time.perf_counter() < deadline:
            for i in self._order(rng):
                if count and time.perf_counter() >= deadline:
                    break
                self.run_instance(i)
            count += 1
        return count

    def traced_rounds(self, rng, seconds, tracer):
        """Rounds of one untraced and one traced pass, both complete, while
        another round fits in `seconds`; the first always runs. Each round
        is (untraced, traced, first span, end span, counts); the first two
        map instance to run_instance's result."""
        deadline = time.perf_counter() + seconds
        rounds = []
        last = 0.0
        while not rounds or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            order = self._order(rng)
            untraced = {i: self.run_instance(i, full=True) for i in order}
            gc.collect()
            first, before = len(tracer.starts), Counter(tracer.counts)
            with tracer:
                traced = {
                    i: self.run_instance(i, record=False, tracer=tracer, full=True) for i in order
                }
            rounds.append((untraced, traced, first, len(tracer.starts), tracer.counts - before))
            last = time.perf_counter() - start
        return rounds

    def probes(self):
        """Attempt each probe once; they count as outcomes, never as samples."""
        for probe in self.workload.probes:
            op = self._probe_gen if probe.phase == "gen" else self._probe_run
            self._attempt(
                ("probe", probe.label), op, (probe.gen, probe.args),
                lambda result, probe=probe: self._verify_probe(probe, result),
                probe.timeout_s,
            )

    def _probe_gen(self, gen, args):
        """The rendering, and the values of the rendered tree on `args`."""
        tree = self.lib.codec.show(gen)
        text = self.lib.base.pretty(tree)
        return text, [self.lib.base.eval_ast(t) for t in applied_trees(self.lib, tree, args)]

    def _probe_run(self, gen, args):
        value = self.lib.codec.run(gen)
        return None, [self.lib.examples.apply_ints(value, a) for a in args]

    def _verify_probe(self, probe, result):
        text, values = result
        if probe.text is not None and text != probe.text:
            return "wrong answer: rendering differs"
        return self.lib.gate.check_values(probe.expected, values)

    def peak_mem_mb(self):
        """Median over the largest instances of the tracemalloc peak of show,
        run and exec of one instance."""
        lib = self.lib
        largest = sorted(self.instances, key=lambda x: (x.size, len(x.args)))[-PEAK_INSTANCES:]
        peaks = []
        for inst in largest:
            gc.collect()
            tracemalloc.start()
            try:
                tree = lib.codec.show(inst.gen)
                value = lib.codec.run(inst.gen)
                results = [lib.examples.apply_ints(value, a) for a in inst.args]
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
                del tree, value, results
            except Exception:  # the passes have recorded this instance's failure
                pass
            finally:
                tracemalloc.stop()
        return statistics.median(peaks) if peaks else 0.0


def percentiles(values):
    """Median and the nearest-rank 90th percentile."""
    ordered = sorted(values)
    return statistics.median(ordered), ordered[math.ceil(0.9 * len(ordered)) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def reference_ms(pairs):
    """An instance's time in reference ms, from its (seconds, slice seconds)
    pairs."""
    return statistics.median(s / c for s, c in pairs) * CAL_SLICE_MS


def raw_p50s(runner):
    """Wall-clock ms p50 over the instances of each instance's fastest pass,
    for the record; the metrics are in reference ms."""
    return {
        phase: percentiles([min(s for s, _ in v) for v in runner.samples[phase].values()])[0] * 1e3
        for phase in PHASES
    }


def end_to_end(runner, setup_s):
    metrics = {"setup_s": metric(setup_s, "s")}
    for phase in PHASES:
        values = [reference_ms(v) / 1e3 for v in runner.samples[phase].values()]
        p50, p90 = percentiles(values)
        metrics[f"{phase}_ms.p50"] = metric(p50 * 1e3, "ms")
        metrics[f"{phase}_ms.p90"] = metric(p90 * 1e3, "ms")
    metrics["code_kb"] = metric(sum(len(t.encode()) for t in runner.texts.values()) / 1e3, "kB")
    metrics["code_nodes"] = metric(sum(runner.nodes.values()), "nodes")
    metrics["peak_mem_mb"] = metric(runner.peak_mem_mb(), "MB")
    failed = sum(e is not None for e in runner.outcomes.values())
    metrics["fail_ratio"] = metric(failed / len(runner.outcomes), "ratio")
    return metrics


def per_layer(tracer, rounds):
    """Self times are medians over the traced passes; counts come from the
    first (they repeat exactly)."""
    selfs, overheads = [], []
    for untraced, _, first, last, _ in rounds:
        selfs.append(tracer.self_times(first, last))
        gen_untraced = sum(times.get("gen", 0.0) for times, _ in untraced.values())
        overheads.append(sum(tracer.durations("op.gen", first, last)) / gen_untraced)

    def ms(*names):
        return statistics.median(sum(s[n] for n in names) for s in selfs) * 1e3

    errors = sum(
        untraced[i][1].get(phase) != traced[i][1].get(phase)
        for untraced, traced, _, _, _ in rounds
        for i in untraced
        for phase in PHASES
    )
    counts = rounds[0][4]
    classes = counts["classes"]
    values = {
        "insertion.merge.calls": (counts["merge.calls"], "count"),
        "insertion.merge.self_ms": (ms("insertion.merge"), "ms"),
        "insertion.addb.calls": (counts["addb.calls"], "count"),
        "insertion.addb.self_ms": (ms("insertion.addb"), "ms"),
        "insertion.ordered.self_ms": (ms("insertion.ordered"), "ms"),
        "insertion.classes": (classes, "count"),
        "insertion.aliases": (counts["aliases"], "count"),
        "insertion.share_ratio": (counts["addb.calls"] / classes if classes else 0.0, "ratio"),
        "insertion.canon.rounds": (counts["canon.rounds"], "count"),
        "insertion.canon.self_ms": (ms("insertion.canon"), "ms"),
        "insertion.bind.self_ms": (ms("insertion.bind_lets", "insertion.bind_letrec"), "ms"),
        "semantics.env.redirect.calls": (counts["env.redirect.calls"], "count"),
        "semantics.env.extend.calls": (counts["env.extend.calls"], "count"),
        "semantics.env.lookup.calls": (counts["env.lookup.calls"], "count"),
        # apply_ints only calls the closures run's denotation built
        "semantics.run_denote_ms": (ms("semantics.run_denote", "examples.apply_ints"), "ms"),
        "semantics.show_denote_ms": (ms("semantics.show_denote"), "ms"),
        # forcing a pending letrec clause builds it
        "codec.build_ms": (ms("codec.build", "codec.force"), "ms"),
        "base.pretty_ms": (ms("base.pretty"), "ms"),
        "base.to_sexp_ms": (ms("base.to_sexp"), "ms"),
        "base.eval_ms": (ms("base.eval_ast"), "ms"),
        "base.free_vars_ms": (ms("base.free_vars"), "ms"),
        "trace.overhead_ratio": (statistics.median(overheads), "ratio"),
        "trace.errors": (errors, "count"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    signal.signal(signal.SIGALRM, _on_alarm)
    setups, slices = [], []
    try:
        calibration = Calibration(Library().workloads)
        for _ in range(SETUP_REPEATS):
            before = calibration.burst(SETUP_SLICES)
            start = time.perf_counter()
            lib = Library()
            build = lib.workloads.DRAWS.get(opts.workload)
            if build is None:
                parser.error(f"unknown workload {opts.workload!r}")
            runner = Runner(lib, build(random.Random(opts.seed)))
            by_size = sorted(range(len(runner.instances)), key=lambda i: runner.instances[i].size)
            for i in by_size[:WARMUP_INSTANCES]:
                runner.run_instance(i, record=False)
            secs = time.perf_counter() - start
            slice_s = (before + calibration.burst(SETUP_SLICES)) / 2
            setups.append(secs / slice_s * CAL_SLICE_MS / 1e3)
            slices.append(slice_s)
    except ImportError as exc:
        print(f"cannot load stagelet from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    runner.calibration = calibration
    rng = random.Random(f"order-{opts.seed}")
    if opts.trace:
        tracer = lib.tracer.Tracer(
            {"insertion": lib.insertion, "codec": lib.codec, "semantics": lib.semantics}
        )
        rounds = runner.traced_rounds(rng, opts.seconds, tracer)
        passes = 2 * len(rounds)
        metrics = per_layer(tracer, rounds)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{opts.workload}-{opts.seed}.tsv.gz")
    else:
        passes = runner.passes(rng, opts.seconds)
        runner.probes()
        metrics = end_to_end(runner, statistics.median(setups))
        slices += [c for v in runner.samples.values() for pairs in v.values() for _, c in pairs]

    failures = {str(k): e for k, e in runner.outcomes.items() if e is not None}
    nonprobe = [k for k, e in runner.outcomes.items() if e is not None and k[0] != "probe"]
    correct = not runner.wrong and not nonprobe
    print(json.dumps({
        "bench": "stagelet",
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": passes,
        "instances": len(runner.instances),
        "samples": {p: len(runner.samples[p]) for p in PHASES},
        "slice_ms.mean": statistics.fmean(slices) * 1e3 if slices else None,
        "raw_ms.p50": raw_p50s(runner) if not opts.trace else None,
        "failures": failures,
        "wrong": runner.wrong[:10],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
