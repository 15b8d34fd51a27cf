"""Virtual-binding stores and the machinery that turns them into real binders.

A binding requested deep inside a generator floats upward attached to code
values until the locus it names converts it to a let (or letrec) around the
code built there. The bindings destined for one locus are a store: an
insertion-ordered dict from memo key to `BindingClass`. The bindings of a
code value are an insertion-ordered dict from locus location to store, and no
store in it is empty. Both are immutable by convention: every operation
returns a new dict and never writes into one it was given.
"""

from __future__ import annotations

from types import MappingProxyType

from .base import StagingError, _Record

DEFAULT_CANON_LIMIT = 10_000


class ResidualBindings(StagingError):
    """A generator finished with bindings still floating (locus never opened)."""

    def __init__(self, loci):
        self.loci = tuple(loci)
        rendered = ", ".join(render_location(l) for l in self.loci)
        super().__init__(f"unplaced bindings for loci: {rendered}")


class CanonLimitExceeded(StagingError):
    def __init__(self, locus, keys):
        self.locus = locus
        self.keys = tuple(keys)
        super().__init__(
            f"canonicalization at locus {render_location(locus)} did not settle; "
            f"keys still pending: {list(self.keys)}"
        )


class PendingBinding(StagingError):
    """A letrec-requested binding reached a plain let locus."""


def render_location(loc) -> str:
    return "[" + ",".join(str(i) for i in loc) + "]"


class Locus(metaclass=_Record):
    """Marks where requested bindings materialize; opaque to generators."""

    location: tuple


class Pending:
    """A right-hand side that is still a code value, anchored to a fixed
    location; forcing it twice yields structurally identical results."""

    __slots__ = ("_thunk",)

    def __init__(self, thunk):
        self._thunk = thunk

    def force(self):
        return self._thunk()

    def __repr__(self):
        return "Pending(...)"


_EMPTY_LOG = frozenset()


class BindingClass(metaclass=_Record):
    """One equivalence class of requested bindings: the representative name
    to bind, its right-hand side, and the log of the requests folded into it.

    A log is a frozenset of alias names, or a fold node `(request name,
    incoming class's log, earlier log)`: a fold records its request without
    copying, and the alias set is built from the log once, when the class is
    bound. A class is its names: `==` and `hash` read the name, the
    right-hand side and the aliases, so classes folded in different orders
    into the same names are equal; the log only records how the class was
    built."""

    name: object
    rhs: object  # a denotation, or a Pending
    log: object = _EMPTY_LOG

    @property
    def aliases(self) -> frozenset:
        """The other names of the representative's binding."""
        return frozenset(_requests(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.name == other.name
            and self.rhs == other.rhs
            and self.aliases == other.aliases
        )

    def __hash__(self):
        return hash((self.name, self.rhs, self.aliases))

    def __repr__(self):
        aliases = list(_requests(self))
        return f"BindingClass(name={self.name!r}, rhs={self.rhs!r}, aliases={aliases!r})"


def _requests(cls: BindingClass):
    """The aliases of `cls` as the keys of a dict, in request order: a fold
    node's earlier log, then its request name, then the incoming log. Each
    node is visited once, so a log shared by two folded classes is read
    once; a frozenset log is returned as it is."""
    node = cls.log
    if type(node) is frozenset:
        return node
    names, seen, stack = {}, set(), []
    while True:
        # descend the earlier logs to the first request not yet read
        while type(node) is tuple and id(node) not in seen:
            seen.add(id(node))
            stack.append(node)
            node = node[2]
        if type(node) is frozenset:
            for n in node:
                names[n] = None
        if not stack:
            break
        name, node, _ = stack.pop()
        names[name] = None
    names.pop(cls.name, None)
    return names


# the store of a locus with no requests; shared, so read-only
EMPTY_PER_LOCUS = MappingProxyType({})


def _fold(existing: BindingClass, name, rhs, log) -> BindingClass:
    """`existing` after absorbing a class with the given fields: it keeps its
    name, logs the incoming name and log after its own log, and keeps its
    right-hand side unless only the incoming one is forced."""
    if isinstance(existing.rhs, Pending) and not isinstance(rhs, Pending):
        kept = rhs
    else:
        kept = existing.rhs
    return BindingClass(existing.name, kept, (name, log, existing.log))


def addb(key, name, rhs, store):
    """Add one requested binding of `name` to `rhs` under memo key `key`.

    An existing class for the key logs the name as an alias and keeps its
    own right-hand side; a new key enters greater than everything present.
    So the key order is the whole binding preorder: the bindings a
    right-hand side requested were inserted before its own key.
    """
    existing = store.get(key)
    classes = dict(store)
    if existing is None:
        classes[key] = BindingClass(name, rhs)
    else:
        classes[key] = _fold(existing, name, rhs, _EMPTY_LOG)
    return classes


# the bindings of a code value that requested none; shared, so read-only
EMPTY_BINDINGS = MappingProxyType({})


def without(bindings, loc):
    """`bindings` less the store of `loc`, once a locus has placed it."""
    if loc not in bindings:
        return bindings
    rest = dict(bindings)
    del rest[loc]
    return rest


def merge(v1, v2):
    """Fold the classes of v2 into v1, locus by locus, each locus traversed
    in v2's binding order, so v2's newcomers end up after everything in v1.
    A class found in both is kept as it is: folding it into itself adds no
    name."""
    if not v2:
        return v1
    if not v1:
        return v2
    stores = dict(v1)
    for loc, incoming in v2.items():
        store = stores.get(loc)
        if store is None:
            stores[loc] = incoming
            continue
        classes = dict(store)
        for key, cls in incoming.items():
            existing = classes.get(key)
            if existing is None:
                classes[key] = cls
            elif existing is not cls:
                classes[key] = _fold(existing, cls.name, cls.rhs, cls.log)
        stores[loc] = classes
    return stores


def ordered(store):
    """The classes in binding order, outermost first: a class's right-hand
    side mentions only classes before it."""
    return list(store.values())


def _require_canonical(cls: BindingClass):
    if isinstance(cls.rhs, Pending):
        raise PendingBinding(
            f"binding {cls.name.render()} is still a code value; "
            "letrec-requested bindings need a letrec locus"
        )
    return cls.rhs


def bind_lets(classes, body, sem):
    """Nest the classes around `body` as let-expressions, outermost first,
    each binding its aliases too. They may be bound in any order: the alias
    sets at one locus are pairwise disjoint and hold no representative."""
    den = body
    for cls in reversed(list(classes)):
        den = sem.mk_let(cls.name, _require_canonical(cls), den, _requests(cls))
    return den


def bind_letrec(classes, body, sem):
    """One letrec over all classes; aliases from any class may appear in any
    clause (folding during canonicalization creates them), so every clause and
    the body see every (alias, representative) pair."""
    classes = list(classes)
    if not classes:
        return body
    pairs = tuple((alias, cls.name) for cls in classes for alias in _requests(cls))
    clauses = [(cls.name, _require_canonical(cls)) for cls in classes]
    return sem.mk_letrec(clauses, body, pairs)


def canon(bindings, loc, round_limit=DEFAULT_CANON_LIMIT):
    """Force pending right-hand sides at `loc` until all classes there are
    canonical, merging whatever bindings each forcing produces.

    Forcing a pending class may request the same key again; the merge folds
    that re-occurrence into the now-canonical class, which is what lets the
    process terminate. Picks the earliest pending key in insertion order;
    aborts after `round_limit` forcings, or never if it is None.
    """
    current = bindings
    rounds = 0
    while True:
        store = current.get(loc, EMPTY_PER_LOCUS)
        pending_keys = [k for k, cls in store.items() if isinstance(cls.rhs, Pending)]
        if not pending_keys:
            return current
        if round_limit is not None and rounds >= round_limit:
            raise CanonLimitExceeded(loc, pending_keys)
        key = pending_keys[0]
        cls = store[key]
        den, produced = cls.rhs.force()
        classes = dict(store)
        classes[key] = BindingClass(cls.name, den, cls.log)
        current = merge({**current, loc: classes}, produced)
        rounds += 1
