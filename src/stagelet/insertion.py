"""Virtual-binding stores and the machinery that turns them into real binders.

A binding requested deep inside a generator floats upward attached to code
values until the locus it names converts it to a let (or letrec) around the
code built there. The bindings destined for one locus are a store: an
insertion-ordered dict from memo key to `BindingClass`. The bindings of a
code value are an insertion-ordered dict from locus location to store, and no
store in it is empty. Both are immutable by convention: every operation
returns a new dict and never writes into one it was given.

The fold rule, by which a request for a key already present becomes an
alias of that key's class, is written once, in `_fold`: one loop that folds
a store into a dict in place, making each folded class without a Python
frame. `addb`, `merge` and `canon` all fold through it. `canon` finds the
next class to force with one forward cursor over its locus's keys, so a
letrec locus costs time linear in its clauses.
"""

from __future__ import annotations

from types import MappingProxyType

from .base import StagingError, _Record, _expect_location, _slot_new, render_location

DEFAULT_CANON_LIMIT = 10_000


class ResidualBindings(StagingError):
    """A generator finished with bindings still floating (locus never opened).
    `loci` holds the location strings of those loci."""

    def __init__(self, loci):
        self.loci = tuple(loci)
        rendered = ", ".join(map(render_location, self.loci))
        super().__init__(f"unplaced bindings for loci: {rendered}")


class CanonLimitExceeded(StagingError):
    """`locus` holds the location string of the locus that did not settle."""

    def __init__(self, locus, keys):
        self.locus = locus
        self.keys = tuple(keys)
        super().__init__(
            f"canonicalization at locus {render_location(locus)} did not settle; "
            f"keys still pending: {list(self.keys)}"
        )


class PendingBinding(StagingError):
    """A letrec-requested binding reached a plain let locus."""


class Locus(metaclass=_Record):
    """Marks where requested bindings materialize; opaque to generators.
    `location` is the locus's location string, in the format `base` states
    at `ROOT`; anything else is refused."""

    location: str

    def __post_init__(self):
        _expect_location(self.location)


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
    node's earlier log, then its request name, then the incoming log. The
    walk is iterative and visits each node once, so a log shared by two
    folded classes is read once; it lists the names as it meets them and
    drops repeats once, at the end (`dict.fromkeys`). A frozenset log is
    returned as it is."""
    node = cls.log
    if type(node) is frozenset:
        return node
    names, seen, stack = [], set(), []
    while True:
        # descend the earlier logs to the first request not yet read
        while type(node) is tuple and id(node) not in seen:
            seen.add(id(node))
            stack.append(node)
            node = node[2]
        if type(node) is frozenset:
            names.extend(node)
        if not stack:
            break
        name, node, _ = stack.pop()
        names.append(name)
    names = dict.fromkeys(names)
    names.pop(cls.name, None)
    return names


# `BindingClass(name, rhs, log)` without the Python frame of its `__init__`
# (`_slot_new`): `_new(BindingClass)`, then the three slot setters. A build
# makes one class per request and one per fold, so the frame is worth saving
_new, _set_name, _set_rhs, _set_log = _slot_new(BindingClass)


def _fold(classes, incoming):
    """Fold store `incoming` into the dict `classes`, in place, in
    `incoming`'s order: the fold rule's one writer. A new key enters last;
    a class already there keeps its name, logs the incoming name and log
    after its own log as the node `(name, incoming log, earlier log)`, and
    keeps its right-hand side unless only the incoming one is forced. A
    class found on both sides is kept as it is: folding it into itself adds
    no name."""
    for key, cls in incoming.items():
        existing = classes.get(key)
        if existing is None:
            classes[key] = cls
        elif existing is not cls:
            folded = _new(BindingClass)
            _set_name(folded, existing.name)
            rhs = existing.rhs
            if isinstance(rhs, Pending) and not isinstance(cls.rhs, Pending):
                rhs = cls.rhs
            _set_rhs(folded, rhs)
            _set_log(folded, (cls.name, cls.log, existing.log))
            classes[key] = folded


# the store of a locus with no requests; shared, so read-only
EMPTY_PER_LOCUS = MappingProxyType({})


def addb(key, name, rhs, store):
    """Add one requested binding of `name` to `rhs` under memo key `key`: a
    new class, made without a frame, entered into a copy of `store`, or
    folded into the class there by `_fold`.

    An existing class for the key logs the name as an alias and keeps its
    own right-hand side; a new key enters greater than everything present.
    So the key order is the whole binding preorder: the bindings a
    right-hand side requested were inserted before its own key.
    """
    cls = _new(BindingClass)
    _set_name(cls, name)
    _set_rhs(cls, rhs)
    _set_log(cls, _EMPTY_LOG)
    classes = dict(store)
    if key in classes:
        _fold(classes, {key: cls})
    else:
        classes[key] = cls
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
    """Fold the classes of v2 into v1, locus by locus (`_fold` on a copy of
    v1's store), each locus traversed in v2's binding order, so v2's
    newcomers end up after everything in v1."""
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
        _fold(classes, incoming)
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

    Forcing a pending class may request the same key again; the fold logs
    that re-occurrence in the now-canonical class, which is what lets the
    process terminate. Each round forces the earliest pending key in
    insertion order; aborts after `round_limit` forcings, or never if it is
    None. Returns `bindings` itself when nothing at `loc` is pending.

    One forward cursor finds that key. The store of `loc` is copied once;
    each round folds the classes it produced at `loc` into that copy in
    place (`_fold`), appending new keys to the key list, and passes those
    produced for other loci through `merge`. A forced class stays forced,
    since a fold keeps a forced right-hand side over a pending one, and a
    new key enters last: so no pending key ever lies behind the cursor, and
    a locus of n clauses costs O(n) besides the forcings.
    """
    store = bindings.get(loc, EMPTY_PER_LOCUS)
    keys = list(store)
    i, n = 0, len(keys)
    while i < n and not isinstance(store[keys[i]].rhs, Pending):
        i += 1
    if i == n:
        return bindings
    classes = dict(store)
    current = {**bindings, loc: classes}
    rounds = 0
    while i < n:
        if round_limit is not None and rounds >= round_limit:
            pending = [k for k in keys[i:] if isinstance(classes[k].rhs, Pending)]
            raise CanonLimitExceeded(loc, pending)
        key = keys[i]
        cls = classes[key]
        den, produced = cls.rhs.force()
        classes[key] = BindingClass(cls.name, den, cls.log)
        incoming = produced.get(loc)
        if incoming is not None:
            keys.extend(k for k in incoming if k not in classes)
            n = len(keys)
            _fold(classes, incoming)
            produced = without(produced, loc)
        # the other loci, once a round: `current` keeps `classes` at `loc`
        current = merge(current, produced)
        rounds += 1
        while i < n and not isinstance(classes[keys[i]].rhs, Pending):
            i += 1
    return current
