"""Database-late closure compilation of scalar KOLA terms.

Every function/predicate/object term compiles *once* into a Python
closure; the database is an argument of every call, not a value closed
over at compile time:

* functions   compile to ``f(x, db) -> value``;
* predicates  compile to ``p(x, db) -> bool``;
* objects     compile to ``o(db) -> value``.

Codegen kernels (:mod:`repro.exec.codegen`) call these closures for
the combinators they do not inline, and the closure emitter
(:mod:`repro.exec.emit`) builds its per-element stages from them.
Keeping ``db`` out of the closures is what lets one compiled plan
retarget across databases with the same schema (see
``tests/test_compile.py::TestRetargeting``).

Primitive semantics come from the shared tables in
:mod:`repro.core.prims` — the same tables the tree-walking evaluator
uses, so the backends cannot drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.bags import KBag, as_bag
from repro.core.errors import EvalError
from repro.core.lists import KList, as_list, stable_sort_key
from repro.core.prims import COMPARISONS, SETOPS, compare
from repro.core.terms import Term
from repro.core.values import KPair, as_bool, as_pair, as_set, kset

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.schema.adt import Database

#: A compiled function: ``f(x, db) -> value``.
ScalarFn = Callable[[object, "Database | None"], object]
#: A compiled predicate: ``p(x, db) -> bool``.
ScalarPred = Callable[[object, "Database | None"], bool]
#: A compiled object expression: ``o(db) -> value``.
ScalarObj = Callable[["Database | None"], object]


def scalar_obj(term: Term) -> ScalarObj:
    """Compile an object expression to a ``db -> value`` thunk."""
    op = term.op
    if op == "lit":
        value = term.label
        return lambda db: value
    if op == "setname":
        name = term.label
        def _setname(db):
            if db is None:
                raise EvalError(f"named collection {name!r} needs a database")
            return db.collection(name)
        return _setname
    if op == "pairobj":
        left = scalar_obj(term.args[0])
        right = scalar_obj(term.args[1])
        return lambda db: KPair(left(db), right(db))
    if op == "invoke":
        fn = scalar_fn(term.args[0])
        arg = scalar_obj(term.args[1])
        return lambda db: fn(arg(db), db)
    if op == "test":
        pred = scalar_pred(term.args[0])
        arg = scalar_obj(term.args[1])
        return lambda db: pred(arg(db), db)
    raise EvalError(f"cannot compile object expression {op!r}")


def scalar_fn(term: Term) -> ScalarFn:
    """Compile a function-sorted ground term to ``(x, db) -> value``."""
    op = term.op
    args = term.args

    # -- primitives ---------------------------------------------------------
    if op == "id":
        return lambda x, db: x
    if op == "pi1":
        return lambda x, db: as_pair(x, "pi1").fst
    if op == "pi2":
        return lambda x, db: as_pair(x, "pi2").snd
    if op == "prim":
        name = term.label
        def _prim(x, db):
            if db is None:
                raise EvalError(f"primitive {name!r} needs a database")
            return db.apply_prim(name, x)
        return _prim
    if op == "setop":
        set_op = SETOPS[term.label]
        label = term.label
        def _setop(x, db):
            pair_value = as_pair(x, label)
            return set_op(as_set(pair_value.fst, label),
                          as_set(pair_value.snd, label))
        return _setop

    # -- function formers (Table 1) ----------------------------------------
    if op == "compose":
        outer = scalar_fn(args[0])
        inner = scalar_fn(args[1])
        return lambda x, db: outer(inner(x, db), db)
    if op == "pair":
        left = scalar_fn(args[0])
        right = scalar_fn(args[1])
        return lambda x, db: KPair(left(x, db), right(x, db))
    if op == "cross":
        left = scalar_fn(args[0])
        right = scalar_fn(args[1])
        def _cross(x, db):
            pair_value = as_pair(x, "cross")
            return KPair(left(pair_value.fst, db),
                         right(pair_value.snd, db))
        return _cross
    if op == "const_f":
        value_thunk = scalar_obj(args[0])
        return lambda x, db: value_thunk(db)
    if op == "curry_f":
        fn = scalar_fn(args[0])
        key_thunk = scalar_obj(args[1])
        return lambda x, db: fn(KPair(key_thunk(db), x), db)
    if op == "cond":
        pred = scalar_pred(args[0])
        then_fn = scalar_fn(args[1])
        else_fn = scalar_fn(args[2])
        return lambda x, db: then_fn(x, db) if pred(x, db) else else_fn(x, db)

    # -- query formers (Table 2) -------------------------------------------
    if op == "flat":
        def _flat(x, db):
            result: set = set()
            for inner in as_set(x, "flat"):
                result.update(as_set(inner, "flat element"))
            return kset(result)
        return _flat
    if op == "iterate":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        return lambda x, db: kset(fn(item, db)
                                  for item in as_set(x, "iterate")
                                  if pred(item, db))
    if op == "iter":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        def _iter(x, db):
            pair_value = as_pair(x, "iter")
            env = pair_value.fst
            return kset(fn(KPair(env, y), db)
                        for y in as_set(pair_value.snd, "iter")
                        if pred(KPair(env, y), db))
        return _iter
    if op == "join":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        def _join(x, db):
            pair_value = as_pair(x, "join")
            left = as_set(pair_value.fst, "join")
            right = as_set(pair_value.snd, "join")
            return kset(fn(KPair(a, b), db) for a in left for b in right
                        if pred(KPair(a, b), db))
        return _join
    if op == "nest":
        key_fn = scalar_fn(args[0])
        val_fn = scalar_fn(args[1])
        def _nest(x, db):
            pair_value = as_pair(x, "nest")
            groups: dict[object, set] = {
                key: set() for key in as_set(pair_value.snd, "nest")}
            for item in as_set(pair_value.fst, "nest"):
                key = key_fn(item, db)
                if key in groups:
                    groups[key].add(val_fn(item, db))
            return kset(KPair(key, kset(members))
                        for key, members in groups.items())
        return _nest
    if op == "unnest":
        key_fn = scalar_fn(args[0])
        set_fn = scalar_fn(args[1])
        def _unnest(x, db):
            result = set()
            for item in as_set(x, "unnest"):
                key = key_fn(item, db)
                for member in as_set(set_fn(item, db), "unnest inner"):
                    result.add(KPair(key, member))
            return kset(result)
        return _unnest

    # -- bags ----------------------------------------------------------------
    if op == "tobag":
        return lambda x, db: KBag.of(as_set(x, "tobag"))
    if op == "distinct":
        return lambda x, db: as_bag(x, "distinct").support()
    if op == "bag_iterate":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        return lambda x, db: (as_bag(x, "bag_iterate")
                              .filter(lambda item: pred(item, db))
                              .map(lambda item: fn(item, db)))
    if op == "bag_flat":
        return lambda x, db: as_bag(x, "bag_flat").flatten()
    if op == "bag_union":
        def _bag_union(x, db):
            pair_value = as_pair(x, "bag_union")
            return as_bag(pair_value.fst, "bag_union").additive_union(
                as_bag(pair_value.snd, "bag_union"))
        return _bag_union
    if op == "bag_join":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        def _bag_join(x, db):
            pair_value = as_pair(x, "bag_join")
            counts: dict[object, int] = {}
            for a, a_count in as_bag(pair_value.fst,
                                     "bag_join").counts().items():
                for b, b_count in as_bag(pair_value.snd,
                                         "bag_join").counts().items():
                    if pred(KPair(a, b), db):
                        image = fn(KPair(a, b), db)
                        counts[image] = counts.get(image, 0) \
                            + a_count * b_count
            return KBag(counts)
        return _bag_join

    # -- lists ---------------------------------------------------------------
    if op == "listify":
        key_fn = scalar_fn(args[0])
        return lambda x, db: KList(sorted(
            as_set(x, "listify"),
            key=lambda item: stable_sort_key(key_fn(item, db), item)))
    if op == "list_iterate":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        return lambda x, db: (as_list(x, "list_iterate")
                              .filter(lambda item: pred(item, db))
                              .map(lambda item: fn(item, db)))
    if op == "list_flat":
        return lambda x, db: as_list(x, "list_flat").flatten()
    if op == "list_cat":
        def _list_cat(x, db):
            pair_value = as_pair(x, "list_cat")
            return as_list(pair_value.fst, "list_cat").concat(
                as_list(pair_value.snd, "list_cat"))
        return _list_cat
    if op == "to_set":
        return lambda x, db: as_list(x, "to_set").support()

    # -- aggregates -----------------------------------------------------------
    if op == "count":
        return lambda x, db: len(as_set(x, "count"))
    if op == "bag_count":
        return lambda x, db: len(as_bag(x, "bag_count"))
    if op == "ssum":
        def _ssum(x, db):
            total = 0
            for item in as_set(x, "ssum"):
                if not isinstance(item, (int, float)):
                    raise EvalError(f"ssum over non-number {item!r}")
                total += item
            return total
        return _ssum
    if op == "bag_sum":
        def _bag_sum(x, db):
            total = 0
            for item, mult in as_bag(x, "bag_sum").counts().items():
                if not isinstance(item, (int, float)):
                    raise EvalError(f"bag_sum over non-number {item!r}")
                total += item * mult
            return total
        return _bag_sum
    if op == "plus":
        def _plus(x, db):
            pair_value = as_pair(x, "plus")
            if not isinstance(pair_value.fst, (int, float)) \
                    or not isinstance(pair_value.snd, (int, float)):
                raise EvalError(f"plus over non-numbers {pair_value!r}")
            return pair_value.fst + pair_value.snd
        return _plus

    if op == "meta":
        raise EvalError(
            f"cannot compile pattern metavariable {term.label[0]!r}; "
            "only ground terms are executable")
    raise EvalError(f"cannot compile function operator {op!r}")


def scalar_pred(term: Term) -> ScalarPred:
    """Compile a predicate-sorted ground term to ``(x, db) -> bool``."""
    op = term.op
    args = term.args

    if op in COMPARISONS:
        name = op
        def _cmp(x, db):
            pair_value = as_pair(x, name)
            return compare(name, pair_value.fst, pair_value.snd)
        return _cmp
    if op == "isin":
        def _isin(x, db):
            pair_value = as_pair(x, "in")
            return pair_value.fst in as_set(pair_value.snd, "in")
        return _isin
    if op == "subset":
        def _subset(x, db):
            pair_value = as_pair(x, "subset")
            return as_set(pair_value.fst, "subset") <= as_set(
                pair_value.snd, "subset")
        return _subset
    if op == "pprim":
        name = term.label
        def _pprim(x, db):
            if db is None:
                raise EvalError(
                    f"primitive predicate {name!r} needs a database")
            return db.test_pprim(name, x)
        return _pprim

    if op == "oplus":
        pred = scalar_pred(args[0])
        fn = scalar_fn(args[1])
        return lambda x, db: pred(fn(x, db), db)
    if op == "conj":
        left = scalar_pred(args[0])
        right = scalar_pred(args[1])
        return lambda x, db: left(x, db) and right(x, db)
    if op == "disj":
        left = scalar_pred(args[0])
        right = scalar_pred(args[1])
        return lambda x, db: left(x, db) or right(x, db)
    if op == "inv":
        pred = scalar_pred(args[0])
        def _inv(x, db):
            pair_value = as_pair(x, "inv")
            return pred(KPair(pair_value.snd, pair_value.fst), db)
        return _inv
    if op == "neg":
        pred = scalar_pred(args[0])
        return lambda x, db: not pred(x, db)
    if op == "const_p":
        value_thunk = scalar_obj(args[0])
        return lambda x, db: as_bool(value_thunk(db), "Kp")
    if op == "curry_p":
        pred = scalar_pred(args[0])
        key_thunk = scalar_obj(args[1])
        return lambda x, db: pred(KPair(key_thunk(db), x), db)

    if op == "meta":
        raise EvalError(
            f"cannot compile pattern metavariable {term.label[0]!r}; "
            "only ground terms are executable")
    raise EvalError(f"cannot compile predicate operator {op!r}")


def is_const_true(term: Term) -> bool:
    """``Kp(T)`` — the constant-true predicate (fusable to nothing)."""
    return (term.op == "const_p" and term.args[0].op == "lit"
            and term.args[0].label is True)


def is_identity(term: Term) -> bool:
    """``id`` — the identity function (fusable to nothing)."""
    return term.op == "id"
