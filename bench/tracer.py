"""Spans and counters around calls into stagelet's layers, from outside.

The tracer patches module and class attributes while installed and puts the
exact original objects back when removed. It never wraps
`CodeValue.__call__`: that would add a host frame per build level and turn
deep but working generators into RecursionErrors.

A span is (parent, name, start, end), kept in memory until the run writes
them out; its self time is its duration minus its direct children's.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter

# insertion functions codec imports by name: both bindings are patched, or
# every call codec makes would be missed
INSERTION_FUNCTIONS = ("merge", "addb", "ordered", "canon", "bind_lets", "bind_letrec")
COUNTED_ENV_METHODS = ("extend", "redirect", "lookup")


class Tracer:
    def __init__(self, modules):
        """`modules` maps "insertion", "codec", "semantics" to the loaded
        stagelet modules."""
        self.modules = modules
        self.names = []
        self._name_ids = {}
        self.parents = array("l")
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]
        self.counts = Counter()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """`fn` recorded as a span called `name`, adding one host frame."""
        code = self._name_id(name)
        parents, name_ids, starts, ends, open_ = (
            self.parents, self.name_ids, self.starts, self.ends, self._open,
        )

        def traced(*args):
            sid = len(starts)
            parents.append(open_[-1])
            name_ids.append(code)
            ends.append(0.0)
            open_.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args)
            finally:
                ends[sid] = perf_counter()
                open_.pop()

        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def reset_open(self):
        """Forget spans left open by an operation that died mid-way."""
        del self._open[1:]

    def traced_generator(self, gen):
        """`gen` with its build call and its denotation call recorded as
        separate spans, as `show` and `run` make them."""
        codec, semantics = self.modules["codec"], self.modules["semantics"]
        build = self.wrap("codec.build", gen)

        def traced_build(ctx, loc):
            d, v = build(ctx, loc)
            if isinstance(ctx.sem, semantics.ShowSemantics):
                return self.wrap("semantics.show_denote", d), v
            return self.wrap("semantics.run_denote", d), v

        return codec.CodeValue(traced_build)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _placing(self, fn):
        """Count the classes and aliases a bind function places."""
        counts = self.counts

        def placing(classes, body, sem):
            classes = list(classes)
            counts["classes"] += len(classes)
            counts["aliases"] += sum(len(c.aliases) for c in classes)
            return fn(classes, body, sem)

        return placing

    def install(self):
        insertion, codec = self.modules["insertion"], self.modules["codec"]
        env = self.modules["semantics"].Env
        for fname in INSERTION_FUNCTIONS:
            original = getattr(insertion, fname)
            wrapped = self.wrap(f"insertion.{fname}", original)
            if fname in ("merge", "addb"):
                wrapped = self._counted(f"{fname}.calls", wrapped)
            if fname.startswith("bind_"):
                wrapped = self._placing(wrapped)
            for module in (insertion, codec):
                if fname in vars(module):
                    self._patch(module, fname, wrapped)
        for method in COUNTED_ENV_METHODS:
            self._patch(env, method, self._counted(f"env.{method}.calls", vars(env)[method]))
        force = vars(insertion.Pending)["force"]
        self._patch(
            insertion.Pending, "force",
            self._counted("canon.rounds", self.wrap("codec.force", force)),
        )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self, first=0, last=None):
        """Self time in seconds per span name over spans[first:last]."""
        last = len(self.starts) if last is None else last
        child = {}
        for sid in range(first, last):
            p = self.parents[sid]
            if p >= first:
                child[p] = child.get(p, 0.0) + self.ends[sid] - self.starts[sid]
        totals = Counter()
        for sid in range(first, last):
            dur = self.ends[sid] - self.starts[sid]
            totals[self.names[self.name_ids[sid]]] += dur - child.get(sid, 0.0)
        return totals

    def durations(self, name, first=0, last=None):
        """Durations in seconds of the spans called `name`, in order."""
        last = len(self.starts) if last is None else last
        code = self._name_ids.get(name)
        return [
            self.ends[sid] - self.starts[sid]
            for sid in range(first, last)
            if self.name_ids[sid] == code
        ]

    def write(self, path):
        """All spans as gzipped tab-separated lines: id, parent, name, start
        and end in microseconds from the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for sid in range(len(self.starts)):
                out.write(
                    f"{sid}\t{self.parents[sid]}\t{self.names[self.name_ids[sid]]}\t"
                    f"{(self.starts[sid] - t0) * 1e6:.1f}\t{(self.ends[sid] - t0) * 1e6:.1f}\n"
                )
