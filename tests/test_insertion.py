import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stagelet import (
    Add,
    App,
    CanonLimitExceeded,
    Fresh,
    IntLit,
    Lam,
    Let,
    LetRec,
    Locus,
    PendingBinding,
    ResidualBindings,
    Source,
    TypeMismatch,
    UnboundVariable,
    VInt,
    Var,
    alpha_eq,
    apply_ints,
    cadd,
    capp,
    cbool,
    cif,
    cint,
    clam,
    eval_ast,
    free_vars,
    genlet,
    genletrec,
    pretty,
    run,
    show,
    with_locus,
    with_locus_rec,
)
from stagelet import codec, examples, insertion
from stagelet.base import _RecCell
from stagelet.codec import BuildContext
from stagelet.examples import ExampleEntry, ExampleKind, _ack_requests, lookup, registry
from stagelet.insertion import (
    DEFAULT_CANON_LIMIT,
    EMPTY_BINDINGS,
    EMPTY_PER_LOCUS,
    BindingClass,
    Pending,
    addb,
    bind_letrec,
    bind_lets,
    canon,
    merge,
    ordered,
    without,
)
from stagelet.semantics import EMPTY_ENV, RunSemantics, ShowSemantics

import helpers
from helpers import (
    LEFT_FIRST,
    ackermann,
    binders,
    build_code,
    cack,
    cdfa,
    check_record,
    clgib,
    dfa,
    count_lets,
    gib,
    random_dfa,
    random_plan,
    records_of,
)

S = ShowSemantics
R = RunSemantics


def canonical_int(i):
    return S().mk_int(i)


class TestAddb:
    def test_first_insertion(self):
        name = Fresh("_2")
        rhs = canonical_int(3)
        v2 = addb(1, name, rhs, EMPTY_PER_LOCUS)
        assert tuple(v2) == (1,)
        assert v2 == {1: BindingClass(name, rhs, frozenset())}

    def test_new_key_becomes_latest(self):
        n2, n4 = Fresh("_2"), Fresh("_4")
        v2 = addb(1, n2, canonical_int(3), EMPTY_PER_LOCUS)
        v4 = addb(2, n4, canonical_int(20), v2)
        assert tuple(v4) == (1, 2)
        assert set(v4) == {1, 2}

    def test_existing_key_gains_alias_and_keeps_rhs(self):
        n2, other = Fresh("_2"), Fresh("_9")
        rhs = canonical_int(3)
        v2 = addb(1, n2, rhs, EMPTY_PER_LOCUS)
        v = addb(1, other, canonical_int(99), v2)
        cls = v[1]
        assert cls.name == n2
        assert cls.rhs is rhs  # the later right-hand side is disregarded
        assert cls.aliases == {other}
        assert tuple(v) == tuple(v2)
        assert tuple(v) == (1,)

    def test_reinserting_the_representative_is_a_noop_alias(self):
        n = Fresh("_2")
        v = addb(1, n, canonical_int(3), EMPTY_PER_LOCUS)
        v = addb(1, n, canonical_int(3), v)
        assert v[1].aliases == frozenset()

    def test_representative_readded_with_canonical_rhs_replaces_pending(self):
        n, other = Fresh("_2"), Fresh("_9")
        pen, can = Pending(lambda: None), canonical_int(3)
        store = addb(1, other, pen, addb(1, n, pen, EMPTY_PER_LOCUS))
        after = addb(1, n, can, store)
        assert after[1] == BindingClass(n, can, frozenset({other}))
        assert after[1].rhs is can
        assert store[1].rhs is pen  # the store added to is unchanged
        # a pending right-hand side never replaces a canonical one
        again = addb(1, n, Pending(lambda: None), after)
        assert again == after

    def test_matches_naive_model_exhaustively(self):
        keys = (1, 2, 3)
        for length in (1, 2, 3):
            for seq in itertools.product(keys, repeat=length):
                names = [Fresh(f"_{i + 10}") for i in range(length)]
                store = EMPTY_PER_LOCUS
                # naive replay of the two-case definition
                classes, seen = {}, []
                for key, name in zip(seq, names):
                    store = addb(key, name, canonical_int(0), store)
                    if key in classes:
                        rep, aliases = classes[key]
                        if name != rep:
                            aliases = aliases | {name}
                        classes[key] = (rep, aliases)
                    else:
                        classes[key] = (name, frozenset())
                        seen.append(key)
                assert tuple(store) == tuple(seen)
                for key, (rep, aliases) in classes.items():
                    assert store[key].name == rep
                    assert store[key].aliases == aliases


def model_merge(v1, v2):
    """The merge rule spelled out: per locus, v2's classes in order, each
    new key appended, each existing class keeping its name, absorbing the
    incoming names as aliases and taking the incoming right-hand side only
    when it alone is canonical."""
    out = {loc: dict(store) for loc, store in v1.items()}
    for loc, store in v2.items():
        classes = out.setdefault(loc, {})
        for key, cls in store.items():
            old = classes.get(key)
            if old is None:
                classes[key] = cls
                continue
            forced = isinstance(old.rhs, Pending) and not isinstance(cls.rhs, Pending)
            aliases = (old.aliases | cls.aliases | {cls.name}) - {old.name}
            classes[key] = BindingClass(old.name, cls.rhs if forced else old.rhs, aliases)
    return out


# a random bindings map over two loci, four keys and four names
NAMES = [Fresh(f"_{i}") for i in range(4)]
LOCS = [(), (1,)]


def random_rhs(rng):
    pick = rng.randrange(3)
    if pick < 2:
        return canonical_int(pick)
    # forcing requests one more key, with a forced right-hand side
    loc, key, name = rng.choice(LOCS), rng.randrange(4), rng.choice(NAMES)
    return Pending(
        lambda: (
            canonical_int(5),
            {loc: addb(key, name, canonical_int(6), EMPTY_PER_LOCUS)},
        )
    )


def grow(rng, v, steps):
    for _ in range(steps):
        loc = rng.choice(LOCS)
        key, name = rng.randrange(4), rng.choice(NAMES)
        v = {**v, loc: addb(key, name, random_rhs(rng), v.get(loc, EMPTY_PER_LOCUS))}
    return v


class TestMerge:
    def test_identities(self):
        n = Fresh("_2")
        v = {(): addb(1, n, canonical_int(3), EMPTY_PER_LOCUS)}
        assert merge(v, EMPTY_BINDINGS) == v
        assert merge(EMPTY_BINDINGS, v) == v

    def test_worked_three_key_merge(self):
        # two stores sharing key 1, merged at one locus
        n2, n4, n6 = Fresh("_2"), Fresh("_4"), Fresh("_6")
        d3, d4, d6 = (canonical_int(i) for i in (3, 20, 30))
        v2 = addb(1, n2, d3, EMPTY_PER_LOCUS)
        v4 = addb(2, n4, d4, v2)
        v6 = addb(3, n6, d6, v2)
        locus = (1,)
        v5 = merge({locus: v4}, {locus: v6}).get(locus, EMPTY_PER_LOCUS)
        assert tuple(v5) == (1, 2, 3)
        assert set(v5) == {1, 2, 3}
        assert v5[1] == BindingClass(n2, d3, frozenset())
        assert v5[2] == BindingClass(n4, d4, frozenset())
        assert v5[3] == BindingClass(n6, d6, frozenset())

    def test_rhs_collision_rules(self):
        rep, inc = Fresh("_1"), Fresh("_2")
        can1, can2 = canonical_int(1), canonical_int(2)
        pen1, pen2 = Pending(lambda: None), Pending(lambda: None)

        def merged(a, b):
            sa = {(): addb(0, rep, a, EMPTY_PER_LOCUS)}
            sb = {(): addb(0, inc, b, EMPTY_PER_LOCUS)}
            cls = merge(sa, sb).get((), EMPTY_PER_LOCUS)[0]
            assert cls.name == rep
            assert cls.aliases == {inc}
            return cls.rhs

        assert merged(can1, can2) is can1  # first canonical wins
        assert merged(can1, pen2) is can1  # canonical beats pending
        assert merged(pen1, can2) is can2  # incoming canonical canonicalizes
        assert merged(pen1, pen2) is pen1  # pending keeps first

    def test_store_into_bindings_lacking_its_locus_is_the_fold_into_empty(self):
        n1, n2, n3 = Fresh("_1"), Fresh("_2"), Fresh("_3")
        incoming = EMPTY_PER_LOCUS
        for key, name, i in [(1, n1, 3), (1, n2, 4), (2, n3, 5)]:
            incoming = addb(key, name, canonical_int(i), incoming)
        v1 = {(7,): addb(1, Fresh("_8"), canonical_int(0), EMPTY_PER_LOCUS)}
        got = merge(v1, {(6,): incoming})
        at6 = got.get((6,), EMPTY_PER_LOCUS)
        assert at6 == model_merge(EMPTY_BINDINGS, {(6,): incoming})[(6,)]
        assert tuple(at6) == (1, 2)
        assert at6[1].aliases == {n2}
        assert got.get((7,), EMPTY_PER_LOCUS) == v1.get((7,), EMPTY_PER_LOCUS)

    def test_matches_the_fold_rule_on_random_stores(self):
        rng = random.Random(8)
        names = [Fresh(f"_{i}") for i in range(4)]
        rhss = [canonical_int(0), canonical_int(1), Pending(lambda: None)]

        def grow(v, steps):
            for _ in range(steps):
                loc = rng.choice([(), (1,)])
                key, name, rhs = rng.randrange(4), rng.choice(names), rng.choice(rhss)
                v = {**v, loc: addb(key, name, rhs, v.get(loc, EMPTY_PER_LOCUS))}
            return v

        for _ in range(300):
            shared = grow(EMPTY_BINDINGS, rng.randrange(4))
            v1 = grow(shared, rng.randrange(4))
            v2 = grow(shared, rng.randrange(4))
            got = merge(v1, v2)
            want = model_merge(v1, v2)
            assert got == want
            assert [tuple(s) for s in got.values()] == [
                tuple(s) for s in want.values()
            ]

    def test_distinct_loci_stay_separate(self):
        a = {(1,): addb(1, Fresh("_5"), canonical_int(0), EMPTY_PER_LOCUS)}
        b = {(2,): addb(1, Fresh("_6"), canonical_int(0), EMPTY_PER_LOCUS)}
        both = merge(a, b)
        assert set(both) == {(1,), (2,)}


# the (alias, representative) pair of every Env.redirect that showing
# clgib(10) and cack(8) makes, in call order, as JSON
_REDIRECTS_SCRIPT = """
import json
from stagelet import show
from stagelet.semantics import Env
from helpers import cack, clgib

seen = []
redirect = Env.redirect

def spy(env, alias, representative):
    seen.append((alias.render(), representative.render()))
    return redirect(env, alias, representative)

Env.redirect = spy
for gen in (clgib(10), cack(8)):
    show(gen)
print(json.dumps(seen))
"""


class TestFoldLog:
    """A fold logs its request in one node and copies nothing; the alias set
    is read from the log, each name once, in request order."""

    def test_merging_bindings_with_themselves_keeps_their_classes(self):
        rng = random.Random(31)
        for _ in range(100):
            v = grow(rng, EMPTY_BINDINGS, rng.randrange(1, 6))
            got = merge(v, v)
            assert list(got) == list(v)
            for loc, store in v.items():
                assert list(got[loc]) == list(store)
                assert all(got[loc][key] is cls for key, cls in store.items())

    def test_aliases_come_in_request_order(self):
        a, b, c, d, e = (Fresh(f"_{i}") for i in range(5))
        can = canonical_int(0)
        left = addb(0, c, can, addb(0, b, can, addb(0, a, can, EMPTY_PER_LOCUS)))
        right = addb(0, a, can, addb(0, e, can, addb(0, d, can, EMPTY_PER_LOCUS)))
        cls = merge({(): left}, {(): right})[()][0]
        # the earlier log, the incoming representative, the incoming log;
        # the representative itself is dropped wherever it was requested
        assert list(insertion._requests(cls)) == [b, c, d, e]
        assert cls.aliases == {b, c, d, e}
        assert cls.name == a

    def test_an_alias_met_under_both_spellings_is_one_alias(self):
        # a hinted and an unhinted name at one location are one key: the
        # first spelling met is kept, and the representative is dropped
        # under either spelling
        a, b, c = (Fresh(f"_{i}") for i in range(3))
        hinted_a, hinted_b = Fresh("_0", hint="a"), Fresh("_1", hint="b")

        def folded(rhs):
            store = EMPTY_PER_LOCUS
            for name in (a, hinted_b, c, b, hinted_a):
                store = addb(0, name, rhs, store)
            return store[0]

        cls = folded(canonical_int(0))
        aliases = list(insertion._requests(cls))
        assert aliases == [b, c] and aliases[0] is hinted_b
        assert cls.aliases == {b, c}
        for request in (b, hinted_b):
            tree = bind_lets([cls], S().mk_request(request), S())(EMPTY_ENV)
            assert tree == Let(a, IntLit(0), Var(a))
            r = R()
            d = bind_lets([folded(r.mk_int(0))], r.mk_request(request), r)
            assert d({}) == VInt(0)

    @pytest.mark.parametrize("how", ["addb", "merge into", "merge from"])
    def test_a_hundred_thousand_folds_flatten(self, how):
        can = canonical_int(0)
        names = [Fresh(f"_{i}") for i in range(10**5)]
        if how == "addb":
            store = EMPTY_PER_LOCUS
            for name in names:
                store = addb(0, name, can, store)
        else:
            # the log deepens along its earlier logs merging into the
            # class, along its incoming logs merging the class into others
            v = EMPTY_BINDINGS
            for name in names:
                one = {(): {0: BindingClass(name, can)}}
                v = merge(v, one) if how == "merge into" else merge(one, v)
            store = v[()]
        cls = store[0]
        assert cls.name == (names[0] if how != "merge from" else names[-1])
        assert len(cls.aliases) == len(names) - 1
        assert cls.name not in cls.aliases
        alias = names[len(names) // 2]
        tree = bind_lets([cls], S().mk_request(alias), S())(EMPTY_ENV)
        assert tree == Let(cls.name, IntLit(0), Var(cls.name))

    def test_repr_and_eq_of_a_hundred_thousand_folds(self):
        can = canonical_int(0)
        names = [Fresh(f"_{i}") for i in range(10**5)]

        def folded(names):
            store = EMPTY_PER_LOCUS
            for name in names:
                store = addb(0, name, can, store)
            return store[0]

        a, b = folded(names), folded(names)
        assert a.log is not b.log
        assert a == b
        assert a != folded(names[:-1])
        # differs at the deepest fold only
        assert a != folded([names[0], Fresh("_-1"), *names[2:]])
        assert repr(a) == f"BindingClass(name={names[0]!r}, rhs={can!r}, aliases={names[1:]!r})"

    def test_a_class_is_its_names_not_its_fold_order(self):
        a, b, c, d = (Fresh(f"_{i}") for i in range(4))
        can = canonical_int(0)

        def folded(*names):
            store = EMPTY_PER_LOCUS
            for name in names:
                store = addb(0, name, can, store)
            return store[0]

        one, other = folded(a, b, c, d), folded(a, d, c, b)
        merged = merge({(): {0: folded(a, c)}}, {(): {0: folded(d, b)}})[()][0]
        assert one.log != other.log != merged.log
        for twin in (other, merged):
            assert one == twin and not one != twin
            assert hash(one) == hash(twin)
        assert list(insertion._requests(one)) == [b, c, d]
        assert list(insertion._requests(merged)) == [c, d, b]

    def test_an_explicit_log_equals_a_folded_one(self):
        a, b, c = Source("a"), Source("b"), Source("c")
        can = canonical_int(0)
        folded = addb(0, b, can, addb(0, a, can, EMPTY_PER_LOCUS))[0]
        explicit = BindingClass(a, can, frozenset({b}))
        assert folded.log != explicit.log
        assert folded == explicit and hash(folded) == hash(explicit)
        for different in (
            BindingClass(a, can),
            BindingClass(a, can, frozenset({c})),
            BindingClass(a, can, frozenset({b, c})),
            BindingClass(b, can, frozenset({a})),
        ):
            assert folded != different and not folded == different

    def test_redirect_order_does_not_follow_the_hash_seed(self):
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(
            [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        )
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-c", _REDIRECTS_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(done.stdout))
        assert len(runs[0]) > 300
        assert runs[0] == runs[1]


RECORDS = {
    Locus: (Locus("_1_2"), ["location"]),
    BindingClass: (
        BindingClass(Source("a"), IntLit(1), frozenset({Source("b")})),
        ["name", "rhs", "log"],
    ),
    # a semantics compares by identity, so a stand-in that copies to an equal
    BuildContext: (BuildContext(None, 7), ["sem", "canon_limit"]),
    ExampleEntry: (lookup("t1"), ["name", "kind", "arity", "builder"]),
}


class TestRecords:
    """Insertion, build and example records are frozen slotted dataclasses."""

    def test_every_record_has_a_sample(self):
        found = records_of(insertion) | records_of(codec) | records_of(examples)
        assert found == set(RECORDS)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_contract(self, cls):
        check_record(*RECORDS[cls])

    def test_repr(self):
        assert repr(Locus("_1_2")) == "Locus(location='_1_2')"
        assert repr(RECORDS[BindingClass][0]) == (
            "BindingClass(name=Source('a'), rhs=IntLit(value=1), "
            "aliases=[Source('b')])"
        )

    @pytest.mark.parametrize(
        "location",
        [(1, 2), 5, None, "abc", "_", "_1_", "1_2", "_1a", "_-1"],
        ids=["tuple", "int", "none", "letters", "bare-separator", "trailing-separator",
             "no-leading-separator", "letter-in-index", "negative"],
    )
    def test_a_locus_takes_only_a_location_string(self, location):
        # refused where it is made, so a forged locus never reaches a build
        # or a message that reads its location
        with pytest.raises(TypeMismatch, match=f"^not a location: {re.escape(repr(location))}$"):
            Locus(location)

    @pytest.mark.parametrize("location", ["", "_1_2", "_0_17"], ids=["root", "child", "wide"])
    def test_a_locus_of_a_location_string_is_a_record(self, location):
        check_record(Locus(location), ["location"])

    def test_defaults(self):
        assert BindingClass(Source("a"), None).aliases == frozenset()
        assert BuildContext(None).canon_limit == DEFAULT_CANON_LIMIT
        assert dataclasses.fields(BindingClass)[2].default == frozenset()


class TestStoreInvariants:
    def test_preorder_stays_reflexive_and_transitive(self):
        rng = random.Random(23)
        can = canonical_int(0)
        # the preorder is the key order of the store, a linear order, so it
        # is reflexive and transitive; check that it is first-request order
        for _ in range(50):
            store = EMPTY_PER_LOCUS
            requested = [rng.randrange(5) for _ in range(rng.randrange(1, 10))]
            for i, k in enumerate(requested):
                store = addb(k, Fresh(f"_{i}"), can, store)
            if rng.random() < 0.5:
                requested.append(rng.randrange(5))
                other = addb(requested[-1], Fresh("_99"), can, EMPTY_PER_LOCUS)
                store = merge({(): store}, {(): other}).get((), EMPTY_PER_LOCUS)
            assert tuple(store) == tuple(dict.fromkeys(requested))
            for cls in store.values():
                assert cls.name not in cls.aliases

    def test_thousand_keys_keep_first_request_order(self):
        # 8 stores of 250 random requests each, merged at one locus
        rng = random.Random(41)
        can = canonical_int(0)
        first, others = {}, {}
        merged = EMPTY_BINDINGS
        for part in range(8):
            store = EMPTY_PER_LOCUS
            for i in range(250):
                key, name = rng.randrange(1200), Fresh(f"_{part}_{i}")
                store = addb(key, name, can, store)
                if key in first:
                    others[key].add(name)
                else:
                    first[key], others[key] = name, set()
            merged = merge(merged, {(): store})
        store = merged.get((), EMPTY_PER_LOCUS)
        seq = tuple(first)
        assert len(seq) > 900
        assert [c.name for c in ordered(store)] == [first[k] for k in seq]
        assert all(store[k].aliases == others[k] for k in seq)
        assert tuple(store) == seq

    def test_absent_locus_reads_empty(self):
        assert EMPTY_BINDINGS.get((1, 2), EMPTY_PER_LOCUS) is EMPTY_PER_LOCUS

    def test_empty_stores_are_dropped(self):
        store = addb(1, Fresh("_2"), canonical_int(1), EMPTY_PER_LOCUS)
        assert not without({(1,): store}, (1,))
        assert without(EMPTY_BINDINGS, (1,)) is EMPTY_BINDINGS


class TestRandomOperations:
    """Random sequences of the binding operations. No operation drops an
    empty store, so none may make one: every reachable bindings map holds
    only non-empty stores, in the key order the merge rule gives."""

    @staticmethod
    def model_canon(v, loc):
        """`canon` replayed with `model_merge`; the key orders it reaches."""
        while True:
            store = v.get(loc, {})
            pending = [k for k, cls in store.items() if isinstance(cls.rhs, Pending)]
            if not pending:
                return v
            cls = store[pending[0]]
            den, produced = cls.rhs.force()
            forced = {**store, pending[0]: BindingClass(cls.name, den, cls.aliases)}
            v = model_merge({**v, loc: forced}, produced)

    @staticmethod
    def key_orders(v):
        return {loc: tuple(store) for loc, store in v.items()}

    def test_no_empty_store_and_model_key_order(self):
        rng = random.Random(29)
        made = 0
        for _ in range(150):
            pool = [EMPTY_BINDINGS, grow(rng, EMPTY_BINDINGS, rng.randrange(1, 5))]
            for _ in range(rng.randrange(1, 12)):
                v1, v2 = rng.choice(pool), rng.choice(pool)
                loc = rng.choice(LOCS)
                op = rng.randrange(5)
                if op == 0:
                    key, name, rhs = rng.randrange(4), rng.choice(NAMES), random_rhs(rng)
                    got = {**v1, loc: addb(key, name, rhs, v1.get(loc, EMPTY_PER_LOCUS))}
                    want = model_merge(v1, {loc: {key: BindingClass(name, rhs)}})
                    assert got == want
                elif op in (1, 2):
                    if op == 2:
                        v1, v2 = v2, v1
                    got, want = merge(v1, v2), model_merge(v1, v2)
                    assert got == want
                elif op == 3:
                    # each forcing builds new denotations: compare key orders
                    got, want = canon(v1, loc), self.model_canon(v1, loc)
                else:
                    got = without(v1, loc)
                    want = {l: s for l, s in v1.items() if l != loc}
                    assert got == want
                assert all(got.values()), "an empty store is reachable"
                assert self.key_orders(got) == self.key_orders(want)
                pool.append(got)
                made += 1
        assert made > 500


class TestImmutability:
    """A store is a plain dict, so only convention keeps it unchanged: no
    operation writes into a store or a binding map it was given."""

    def test_no_operation_changes_its_inputs(self):
        rng = random.Random(12)

        def snapshot(*vbs):
            return [(list(v.items()), [list(s.items()) for s in v.values()]) for v in vbs]

        for _ in range(300):
            v1 = grow(rng, EMPTY_BINDINGS, rng.randrange(5))
            v2 = grow(rng, EMPTY_BINDINGS, rng.randrange(5))
            loc = rng.choice(LOCS)
            store = v1.get(loc, EMPTY_PER_LOCUS)
            before = snapshot(v1, v2), list(store.items())
            addb(rng.randrange(4), rng.choice(NAMES), random_rhs(rng), store)
            merge(v1, v2)
            merge(v2, v1)
            canon(v1, loc)
            without(v1, loc)
            assert (snapshot(v1, v2), list(store.items())) == before

    def test_the_shared_empty_store_is_read_only(self):
        with pytest.raises(TypeError):
            EMPTY_PER_LOCUS[1] = BindingClass(Fresh("_1"), canonical_int(0))
        assert not EMPTY_PER_LOCUS

    def test_the_shared_empty_bindings_are_read_only(self):
        store = addb(1, Fresh("_2"), canonical_int(1), EMPTY_PER_LOCUS)
        with pytest.raises(TypeError):
            EMPTY_BINDINGS[(1,)] = store
        assert not EMPTY_BINDINGS


class TestOrdered:
    def test_empty(self):
        assert ordered(EMPTY_PER_LOCUS) == []

    def test_insertion_order_is_respected(self):
        v = addb(7, Fresh("_1"), canonical_int(0), EMPTY_PER_LOCUS)
        v = addb(5, Fresh("_2"), canonical_int(0), v)
        assert [c.name for c in ordered(v)] == [Fresh("_1"), Fresh("_2")]

    def test_tie_break_by_insertion_seq(self):
        c1 = BindingClass(Fresh("_1"), canonical_int(0))
        c2 = BindingClass(Fresh("_2"), canonical_int(0))
        store = {2: c2, 1: c1}
        assert ordered(store) == [c2, c1]

    def test_consistent_with_preorder_bruteforce(self):
        rng = random.Random(17)
        for _ in range(50):
            store = EMPTY_PER_LOCUS
            nkeys = rng.randrange(1, 6)
            for i in range(rng.randrange(1, 9)):
                store = addb(
                    rng.randrange(nkeys), Fresh(f"_{i}"), canonical_int(i), store
                )
            keys = [
                next(k for k, c in store.items() if c is cls)
                for cls in ordered(store)
            ]
            assert tuple(keys) == tuple(store)


class TestAliasBinding:
    """A locus's aliases go to the semantics with its binders, in its block
    of lets (`mk_lets`) or its letrec: run maps each to the binder's name in
    its alias table and binds no alias key, show redirects each to the
    binder's name."""

    def test_no_aliases_is_a_plain_let(self):
        n = Source("n")
        for sem, env, want in ((S(), EMPTY_ENV, Let(n, IntLit(7), Var(n))), (R(), {}, VInt(7))):
            d = sem.mk_lets([(n, sem.mk_int(7), frozenset())], sem.mk_var(n))
            assert d(env) == sem.mk_let(n, sem.mk_int(7), sem.mk_var(n))(env) == want

    def test_alias_renders_as_representative(self):
        n, m = Source("n"), Source("m")
        s = S()
        d = s.mk_lets([(n, s.mk_int(8), {m})], s.mk_request(m))
        assert d(EMPTY_ENV) == Let(n, IntLit(8), Var(n))
        d = s.mk_letrec([(n, s.mk_request(m))], s.mk_request(m), [(m, n)])
        assert d(EMPTY_ENV) == LetRec(((n, Var(n)),), Var(n))

    def test_alias_gets_representative_value(self):
        n, m, x = Source("n"), Source("m"), Source("x")
        r = R()
        d = r.mk_lets([(n, r.mk_int(8), {m})], r.mk_request(m))
        assert d({}) == VInt(8)
        ident = r.mk_lam(x, r.mk_var(x))
        d = r.mk_letrec([(n, ident)], r.mk_app(r.mk_request(m), r.mk_int(8)), [(m, n)])
        assert d({}) == VInt(8)

    def test_alias_is_bound_to_the_same_object(self):
        # run binds a binder's own names only; an alias request reads its
        # representative's object, or its cell's value in a letrec
        n, m, k, f = Source("n"), Source("m"), Source("k"), Source("f")
        r = R()
        seen = []

        def body(env):
            seen.append(env)
            return VInt(0)

        def sum_of(a, b):
            # a new VInt on every evaluation, so `is` tells bindings apart
            return r.mk_binop(Add, r.mk_int(a), r.mk_int(b))

        r.mk_lets([(n, sum_of(1, 2), [m, k])], body)({})
        (env,) = seen
        assert set(env) == {n} and env[n] == VInt(3)
        assert r.mk_request(m)(env) is env[n] and r.mk_request(k)(env) is env[n]
        r.mk_letrec([(f, sum_of(0, 1)), (n, sum_of(1, 1))], body, [(m, n), (k, f)])({})
        env = seen[1]
        assert set(env) == {f, n}
        assert isinstance(env[n], _RecCell) and isinstance(env[f], _RecCell)
        assert r.mk_request(m)(env) is env[n].force() == VInt(2)
        assert r.mk_request(k)(env) is env[f].force() == VInt(1)

    def test_let_alias_is_not_bound_in_its_rhs(self):
        n, m = Source("n"), Source("m")
        r = R()
        d = r.mk_lets([(n, r.mk_request(m), [m])], r.mk_int(0))
        with pytest.raises(UnboundVariable, match="^unbound variable m$"):
            d({})

    def test_a_block_binds_outermost_first_and_scopes_each_alias_below(self):
        # let n = 1 in let k = m + 1 in m + k, where m is an alias of n: the
        # second rhs and the body read it, the first rhs does not
        n, m, k = Source("n"), Source("m"), Source("k")
        s, r = S(), R()
        tree = Let(n, IntLit(1), Let(k, Add(Var(n), IntLit(1)), Add(Var(n), Var(k))))
        for sem, env, want in ((s, EMPTY_ENV, tree), (r, {}, VInt(3))):
            block = [
                (n, sem.mk_int(1), [m]),
                (k, sem.mk_binop(Add, sem.mk_request(m), 1), ()),
            ]
            d = sem.mk_lets(block, sem.mk_binop(Add, sem.mk_request(m), sem.mk_var(k)))
            assert d(env) == want


class TestBind:
    def test_bind_lets_empty(self):
        d = S().mk_int(1)
        assert bind_lets([], d, S()) is d

    def test_bind_lets_single_class(self):
        n = Source("n")
        cls = BindingClass(n, canonical_int(7))
        tree = bind_lets([cls], S().mk_var(n), S())(EMPTY_ENV)
        assert tree == Let(n, IntLit(7), Var(n))

    def test_bind_lets_rejects_pending(self):
        cls = BindingClass(Source("n"), Pending(lambda: None))
        with pytest.raises(PendingBinding):
            bind_lets([cls], S().mk_int(1), S())

    def test_a_pending_block_names_its_innermost_pending_class(self):
        code = with_locus(lambda l: cadd(genletrec(l, 1, cint(1)), genletrec(l, 2, cint(2))))
        for meaning in (show, run):
            with pytest.raises(PendingBinding, match="^binding v1_2 is still a code value;"):
                meaning(code)

    def test_bind_letrec_empty(self):
        d = S().mk_int(1)
        assert bind_letrec([], d, S()) is d

    def test_bind_letrec_single_recursive_clause(self):
        s = S()
        f, n = Source("f"), Source("n")
        rhs = s.mk_lam(n, s.mk_app(s.mk_var(f), s.mk_var(n)))
        cls = BindingClass(f, rhs)
        tree = bind_letrec([cls], s.mk_var(f), s)(EMPTY_ENV)
        assert tree == LetRec(((f, Lam(n, App(Var(f), Var(n)))),), Var(f))


class TestGenlet:
    def test_single_binding(self):
        c = with_locus(lambda l: genlet(l, 1, cadd(cint(3), cint(4))))
        v = Source("v")
        assert alpha_eq(show(c), Let(v, Add(IntLit(3), IntLit(4)), Var(v)))
        assert run(c) == VInt(7)

    def test_same_key_is_shared(self):
        def gen(l):
            a = genlet(l, 1, cadd(cint(3), cint(4)))
            b = genlet(l, 1, cadd(cint(3), cint(4)))
            return cadd(a, b)

        tree = show(with_locus(gen))
        assert count_lets(tree) == 1
        let = tree
        assert let.body == Add(Var(let.name), Var(let.name))
        assert run(with_locus(gen)) == VInt(14)

    def test_with_locus_without_requests(self):
        assert show(with_locus(lambda l: cint(5))) == IntLit(5)

    def test_inner_locus_passes_outer_requests_through(self):
        seen = {}

        def outer(lo):
            inner = with_locus(lambda li: cadd(genlet(lo, 1, cint(3)), cint(0)))
            seen["inner"] = inner
            return cadd(inner, cint(1))

        tree = show(with_locus(outer))
        # the single let lands at the outer locus, above the inner sum
        assert isinstance(tree, Let)
        assert tree.rhs == IntLit(3)
        # and the inner composite really does forward the outer-locus store
        ctx = BuildContext(ShowSemantics())
        _, vb = seen["inner"](ctx, "_1_1")
        assert tuple(vb) == ("",)
        assert "_1_1" not in vb

    def test_binding_order_tracks_dependencies(self):
        rng = random.Random(3)
        for _ in range(25):
            k = rng.randrange(2, 6)
            keys = list(range(10, 10 + k))
            rng.shuffle(keys)

            def gen(l, keys=keys, k=k):
                prev = genlet(l, keys[0], cint(1))
                uses = [prev]
                for i in range(1, k):
                    prev = genlet(l, keys[i], cadd(prev, cint(i)))
                    uses.append(prev)
                body = uses[-1]
                for u in uses[:-1]:
                    body = cadd(body, u)
                return body

            tree = show(with_locus(gen))
            chain = []
            node = tree
            while isinstance(node, Let):
                chain.append((node.name, node.rhs))
                node = node.body
            assert len(chain) == k
            outer = set()
            for name, rhs in chain:
                mentioned = {n for n in free_vars(rhs) if isinstance(n, Fresh)}
                assert mentioned <= outer  # dependencies are bound further out
                outer.add(name)
            assert free_vars(tree) == set()

    def test_residual_bindings_surface_at_show_and_run(self):
        leaked = {}

        def capture(l):
            leaked["locus"] = l
            return cint(0)

        show(with_locus(capture))
        stray = genlet(leaked["locus"], 1, cadd(cint(3), cint(4)))
        with pytest.raises(ResidualBindings) as e:
            show(stray)
        assert e.value.loci == ("",)
        with pytest.raises(ResidualBindings):
            run(stray)

    def test_residual_bindings_at_nested_loci_keep_their_indices(self):
        leaked = {}

        def capture(key):
            def gen(l):
                leaked[key] = l
                return cint(0)

            return gen

        show(clam(lambda v: cadd(with_locus(capture("a")), v)))
        show(cif(cbool(True), cint(1), with_locus(capture("b"))))
        one = genlet(leaked["a"], 1, cint(3))
        two = cadd(one, genlet(leaked["b"], 2, cint(4)))
        for code, loci, message in (
            (one, ("_1_1",), "unplaced bindings for loci: [1,1]"),
            (two, ("_1_1", "_3"), "unplaced bindings for loci: [1,1], [3]"),
        ):
            for meaning in (show, run):
                with pytest.raises(ResidualBindings) as e:
                    meaning(code)
                assert e.value.loci == loci
                assert str(e.value) == message


class TestGenletrec:
    def test_single_nonrecursive_clause(self):
        c = with_locus_rec(
            lambda l: genletrec(l, 0, clam(lambda n: cadd(n, cint(1))))
        )
        z, n = Source("z"), Source("n")
        assert alpha_eq(show(c), LetRec(((z, Lam(n, Add(Var(n), IntLit(1)))),), Var(z)))

    def test_trivial_body(self):
        assert show(with_locus_rec(lambda l: cint(7))) == IntLit(7)

    def test_same_key_reoccurrence_folds_into_alias(self):
        def gen(l):
            def g():
                return clam(lambda n: capp(genletrec(l, 0, g()), n))

            return genletrec(l, 0, g())

        tree = show(with_locus_rec(gen))
        assert isinstance(tree, LetRec)
        assert len(tree.clauses) == 1
        name, rhs = tree.clauses[0]
        # the recursive reference inside the clause is the representative
        assert free_vars(tree) == set()
        assert isinstance(rhs, Lam)
        assert rhs.body == App(Var(name), Var(rhs.param))

    def test_pending_request_at_plain_locus_is_an_error(self):
        c = with_locus(
            lambda l: cadd(genletrec(l, 0, clam(lambda n: n)), cint(1))
        )
        with pytest.raises(PendingBinding):
            show(c)


class TestCanon:
    def test_all_canonical_is_unchanged(self):
        store = addb(1, Fresh("_3"), canonical_int(5), EMPTY_PER_LOCUS)
        vb = {"": store}
        assert canon(vb, "") is vb
        assert canon(canon(vb, ""), "") == canon(vb, "")

    def test_ack_specialization_settles_to_three_classes(self):
        ctx = BuildContext(ShowSemantics())
        _, vb = _ack_requests(Locus(""), 2)(ctx, "_1")
        settled = canon(vb, "")
        store = settled.get("", EMPTY_PER_LOCUS)
        assert tuple(store) == (2, 1, 0)
        assert all(
            not isinstance(cls.rhs, Pending) for cls in store.values()
        )
        # canonicalization is idempotent once settled
        assert canon(settled, "") is settled

    def test_round_limit(self):
        # every forcing of key i requests a fresh key i + 1: never settles
        def gen(l):
            def g(i):
                return clam(lambda n: capp(genletrec(l, i + 1, g(i + 1)), n))

            return genletrec(l, 0, g(0))

        with pytest.raises(CanonLimitExceeded) as e:
            show(with_locus_rec(gen), canon_limit=5)
        assert e.value.keys  # reports what was still pending

    def test_round_limit_at_a_nested_locus_keeps_its_indices(self):
        def gen(l):
            def g(i):
                return clam(lambda n: capp(genletrec(l, i + 1, g(i + 1)), n))

            return genletrec(l, 0, g(0))

        code = cadd(cint(0), clam(lambda x: with_locus_rec(gen)))
        with pytest.raises(CanonLimitExceeded) as e:
            show(code, canon_limit=3)
        assert (e.value.locus, e.value.keys) == ("_2_1", (3,))
        assert str(e.value) == (
            "canonicalization at locus [2,1] did not settle; keys still pending: [3]"
        )

    def test_replay_of_pending_is_stable(self):
        ctx = BuildContext(ShowSemantics())
        _, vb = _ack_requests(Locus(""), 2)(ctx, "_1")
        cls = vb.get("", EMPTY_PER_LOCUS)[2]
        d1, v1 = cls.rhs.force()
        d2, v2 = cls.rhs.force()
        assert d1(EMPTY_ENV) == d2(EMPTY_ENV)
        assert tuple(v1) == tuple(v2)
        s1, s2 = v1.get("", EMPTY_PER_LOCUS), v2.get("", EMPTY_PER_LOCUS)
        assert tuple(s1) == tuple(s2)
        assert {k: c.name for k, c in s1.items()} == {
            k: c.name for k, c in s2.items()
        }


class TestCanonCursor:
    """`canon` finds the next key to force with one forward cursor;
    `model_canon` in `helpers` rescans its store each round. On random
    bindings at two loci, whose pending classes, when forced, re-request
    keys, request new ones and request at the other locus, the two must
    agree on the result, its order of loci, keys and aliases, the `force`
    and `merge` calls, and the `CanonLimitExceeded` raised at every round
    limit below the rounds needed."""

    LOCI = ("_1", "_2")

    @classmethod
    def world(cls, rng, log):
        """Random bindings at `LOCI` and a `force` counter. A pending class
        of (locus, key) is one `Pending` per pair, made here; forcing it
        yields a fixed denotation and the bindings of a fixed random list
        of requests, each canonical or pending, at either locus. `log`
        collects what the forcings at the first locus did: "again" for a
        key requested there before, "new" for a first request there,
        "other" for a request at the second locus."""
        nkeys = rng.randrange(1, 8)
        counter = itertools.count()
        forces = [0]
        seen = set()

        def requests(count):
            return [
                (
                    rng.choice(cls.LOCI),
                    rng.randrange(nkeys),
                    rng.random() < 0.6,
                    Source(f"n{next(counter)}"),
                )
                for _ in range(count)
            ]

        def bindings(reqs):
            v = {}
            for loc, key, pending, name in reqs:
                rhs = pendings[loc, key] if pending else ("canonical", loc, key)
                v[loc] = addb(key, name, rhs, v.get(loc, EMPTY_PER_LOCUS))
            return v

        def force(loc, key):
            forces[0] += 1
            reqs = scripts[loc, key]
            for l, k, _, _ in reqs:
                log.add("other" if l != cls.LOCI[0] else "again" if k in seen else "new")
                if l == cls.LOCI[0]:
                    seen.add(k)
            return ("den", loc, key), bindings(reqs)

        pairs = [(loc, key) for loc in cls.LOCI for key in range(nkeys)]
        scripts = {pair: requests(rng.randrange(4)) for pair in pairs}
        pendings = {pair: Pending(lambda pair=pair: force(*pair)) for pair in pairs}
        start = bindings(requests(rng.randrange(1, 6)))
        seen.update(start.get(cls.LOCI[0], ()))
        return start, forces, seen

    @staticmethod
    def summary(v):
        return [
            (loc, [(k, c.name, c.rhs, list(insertion._requests(c))) for k, c in store.items()])
            for loc, store in v.items()
        ]

    def test_matches_the_rescanning_model(self, monkeypatch):
        merges = [0]
        original = insertion.merge

        def counted(v1, v2):
            merges[0] += 1
            return original(v1, v2)

        monkeypatch.setattr(insertion, "merge", counted)
        rng = random.Random(14)
        loc = self.LOCI[0]
        log, limits, unchanged = set(), 0, 0
        for _ in range(400):
            v, forces, seen = self.world(rng, log)
            before = self.summary(v)
            initial = set(seen)

            def outcome(fn, limit):
                forces[0] = merges[0] = 0
                seen.clear()
                seen.update(initial)
                try:
                    got = fn(v, loc, limit)
                except CanonLimitExceeded as e:
                    return ("limit", str(e), e.locus, e.keys), forces[0], merges[0]
                return (self.summary(got), got is v), forces[0], merges[0]

            want = outcome(helpers.model_canon, None)
            assert outcome(canon, None) == want
            rounds = want[1]
            unchanged += rounds == 0
            for limit in range(rounds + 1):
                got = outcome(canon, limit)
                assert got == outcome(helpers.model_canon, limit), (limit, rounds)
                limits += limit < rounds
            assert self.summary(v) == before
        assert log == {"again", "new", "other"}
        assert limits > 300 and unchanged > 20

    def test_canon_of_cwide_is_the_model_s(self, monkeypatch):
        # one letrec locus of 300 clauses, built once, canonicalized by both
        seen = {}

        def spy(v, loc, limit):
            seen[loc] = v
            return canon(v, loc, limit)

        monkeypatch.setattr(codec, "canon", spy)
        helpers.cwide(300)._build(BuildContext(ShowSemantics()), "")
        ((loc, v),) = seen.items()
        got, want = canon(v, loc), helpers.model_canon(v, loc)
        assert [(k, c.name, list(insertion._requests(c))) for k, c in got[loc].items()] == [
            (k, c.name, list(insertion._requests(c))) for k, c in want[loc].items()
        ]
        assert list(got[loc]) == list(range(300))


class TestEndToEnd:
    def test_shared_sums_three_bindings(self):
        def gen(l):
            x = genlet(l, 1, cadd(cint(6), cint(7)))
            return (
                genlet(l, 2, cadd(x, cint(20))) * genlet(l, 3, cadd(x, cint(30)))
            ) / cint(100)

        tree = show(with_locus(gen))
        assert count_lets(tree) == 3
        assert free_vars(tree) == set()
        assert run(with_locus(gen)) == VInt((13 + 20) * (13 + 30) // 100)

    def test_ack_pipeline(self):
        c = cack(2)
        tree = show(c)
        assert isinstance(tree, LetRec)
        assert len(tree.clauses) == 3
        assert free_vars(tree) == set()
        assert pretty(tree).count("fun") == 3
        bound = binders(tree)
        assert len(bound) == len(set(bound))


class TestAliasClasses:
    """The order of a bind's redirects does not change what it means: at
    every bind the alias sets are pairwise disjoint and no alias is a
    representative, so each alias has exactly one target and no target is
    itself redirected."""

    @pytest.fixture
    def binds(self, monkeypatch):
        seen = []
        for fname in ("bind_lets", "bind_letrec"):

            def spy(classes, body, sem, original=getattr(codec, fname)):
                classes = list(classes)
                seen.append(classes)
                return original(classes, body, sem)

            monkeypatch.setattr(codec, fname, spy)
        return seen

    @staticmethod
    def check(binds):
        aliases = 0
        for classes in binds:
            reps = {cls.name for cls in classes}
            assert len(reps) == len(classes)
            taken = set()
            for cls in classes:
                assert not cls.aliases & reps
                assert not cls.aliases & taken
                taken |= cls.aliases
            aliases += len(taken)
        return aliases

    def test_registry_generators(self, binds):
        for entry in registry():
            if entry.kind is not ExampleKind.BASE_PROGRAM:
                show(entry.builder())
                run(entry.builder())
        assert self.check(binds) > 0

    def test_clgib(self, binds):
        for n in range(1, 15):
            gen = clgib(n)
            show(gen)
            value = run(gen)
            assert value.fn(VInt(2)).fn(VInt(3)) == VInt(gib(n, 2, 3))
        assert self.check(binds) > 1000

    def test_cack(self, binds):
        for depth in range(1, 49):
            show(cack(depth))
        assert run(cack(2)).fn(VInt(3)) == VInt(ackermann(2, 3))
        assert self.check(binds) > 1000

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_cack_run_agrees_with_its_shown_code(self, depth):
        value = run(cack(depth))
        shown = eval_ast(show(cack(depth)))
        for n in range(4):
            want = VInt(ackermann(depth, n))
            assert value.fn(VInt(n)) == shown.fn(VInt(n)) == want

    def test_random_plans(self, binds):
        rng = random.Random(4141)
        for _ in range(200):
            body = random_plan(rng, rng.randrange(2, 6), in_locus=True, allow_locus=True)
            show(build_code(("locus", body), LEFT_FIRST))
        assert self.check(binds) > 0


def _reachable(delta):
    """The states reachable from state 0 of transition table `delta`."""
    seen, todo = {0}, [0]
    while todo:
        for t in delta[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


class TestStagedAutomata:
    """`cdfa`: cyclic mutual recursion at one letrec locus, one clause per
    reachable state, against the host loop `dfa`."""

    def test_run_agrees_with_the_host_at_a_thousand_states(self):
        rng = random.Random(5)
        delta, accept = random_dfa(rng, 1000)
        value = run(cdfa(delta, accept))
        for _ in range(200):
            n = rng.randrange(10 ** rng.randrange(1, 9))
            assert apply_ints(value, (n,)) == VInt(dfa(delta, accept, n)), n

    @pytest.mark.parametrize("states", [20, 50])
    def test_run_show_and_the_host_agree(self, states):
        rng = random.Random(states)
        delta, accept = random_dfa(rng, states)
        value = run(cdfa(delta, accept))
        tree = show(cdfa(delta, accept))
        assert type(tree) is LetRec
        assert len(tree.clauses) == len(_reachable(delta))
        assert free_vars(tree) == set()
        shown = eval_ast(tree)
        wants = set()
        for n in [0, 9, 10, *(rng.randrange(10**8) for _ in range(100))]:
            want = VInt(dfa(delta, accept, n))
            assert value.fn(VInt(n)) == shown.fn(VInt(n)) == want, n
            wants.add(want)
        assert wants == {VInt(0), VInt(1)}


class TestWideLetrec:
    """`cwide`: one letrec locus of many clauses, against the host formula
    `wide`."""

    def test_run_show_and_the_host_agree(self):
        value, tree = run(helpers.cwide(100)), show(helpers.cwide(100))
        assert type(tree) is Lam and type(tree.body) is LetRec
        assert len(tree.body.clauses) == 100
        assert free_vars(tree) == set()
        shown = eval_ast(tree)
        for x in (0, 1, -7, 12345):
            want = VInt(helpers.wide(100, x))
            assert apply_ints(value, (x,)) == apply_ints(shown, (x,)) == want, x

    def test_run_agrees_with_the_host_at_two_thousand_clauses(self):
        value = run(helpers.cwide(2000))
        for x in (0, 3, -11):
            assert apply_ints(value, (x,)) == VInt(helpers.wide(2000, x)), x
