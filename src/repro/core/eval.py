"""Operational semantics of KOLA (Tables 1 and 2 of the paper).

Three mutually recursive entry points mirror the paper's notation:

* :func:`apply_fn`  — ``f ! x``  (function invocation);
* :func:`test_pred` — ``p ? x``  (predicate test);
* :func:`eval_obj`  — evaluation of object expressions (literals, named
  sets, pairs, and embedded ``!``/``?`` applications).

The evaluator is the library's ground truth: the rewrite rules shipped in
:mod:`repro.rules` are *verified against it* by the Larch-substitute
checker, and the physical plans of :mod:`repro.optimizer` are tested to
agree with it.

Every semantic equation below is implemented literally; for example
Table 2's

    iterate (p, f) ! A = { f ! x  |  x in A,  p ? x }

becomes a frozenset comprehension over the set value ``A``.  Domain
errors (projecting a non-pair, iterating a non-set...) raise
:class:`~repro.core.errors.EvalError` with the offending operator named.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import EvalError
from repro.core.prims import COMPARISONS, SETOPS, compare
from repro.core.terms import Term
from repro.core.values import KPair, as_bool, as_pair, as_set, kset

if TYPE_CHECKING:  # pragma: no cover - annotation-only (import cycle)
    from repro.schema.adt import Database

# Shared with the scalar closures and the codegen kernels — one source
# of primitive semantics across every execution path (repro.core.prims).
_COMPARISONS = COMPARISONS
_SETOPS = SETOPS


def eval_obj(term: Term, db: Database | None = None) -> object:
    """Evaluate an object expression to a KOLA value."""
    op = term.op
    if op == "lit":
        return term.label
    if op == "setname":
        if db is None:
            raise EvalError(
                f"named collection {term.label!r} needs a database")
        return db.collection(term.label)
    if op == "pairobj":
        return KPair(eval_obj(term.args[0], db), eval_obj(term.args[1], db))
    if op == "invoke":
        return apply_fn(term.args[0], eval_obj(term.args[1], db), db)
    if op == "test":
        return test_pred(term.args[0], eval_obj(term.args[1], db), db)
    if op == "meta":
        raise EvalError(
            f"cannot evaluate pattern metavariable {term.label[0]!r}; "
            "only ground terms are executable")
    raise EvalError(f"term of operator {term.op!r} is not an object expression")


def apply_fn(term: Term, value: object, db: Database | None = None) -> object:
    """Invoke the function denoted by ``term`` on ``value`` (``f ! x``)."""
    op = term.op
    args = term.args

    # -- primitives ---------------------------------------------------------
    if op == "id":
        return value
    if op == "pi1":
        return as_pair(value, "pi1").fst
    if op == "pi2":
        return as_pair(value, "pi2").snd
    if op == "prim":
        if db is None:
            raise EvalError(f"primitive {term.label!r} needs a database")
        return db.apply_prim(term.label, value)
    if op == "setop":
        pair_value = as_pair(value, term.label)
        return _SETOPS[term.label](as_set(pair_value.fst, term.label),
                                   as_set(pair_value.snd, term.label))

    # -- function formers (Table 1) ------------------------------------------
    if op == "compose":
        return apply_fn(args[0], apply_fn(args[1], value, db), db)
    if op == "pair":
        return KPair(apply_fn(args[0], value, db),
                     apply_fn(args[1], value, db))
    if op == "cross":
        pair_value = as_pair(value, "cross")
        return KPair(apply_fn(args[0], pair_value.fst, db),
                     apply_fn(args[1], pair_value.snd, db))
    if op == "const_f":
        return eval_obj(args[0], db)
    if op == "curry_f":
        return apply_fn(args[0], KPair(eval_obj(args[1], db), value), db)
    if op == "cond":
        if test_pred(args[0], value, db):
            return apply_fn(args[1], value, db)
        return apply_fn(args[2], value, db)

    # -- query formers (Table 2) -----------------------------------------------
    if op == "flat":
        outer = as_set(value, "flat")
        result: set = set()
        for inner in outer:
            result.update(as_set(inner, "flat element"))
        return kset(result)
    if op == "iterate":
        items = as_set(value, "iterate")
        pred, fn = args
        return kset(apply_fn(fn, x, db) for x in items
                    if test_pred(pred, x, db))
    if op == "iter":
        pair_value = as_pair(value, "iter")
        env, items = pair_value.fst, as_set(pair_value.snd, "iter")
        pred, fn = args
        return kset(apply_fn(fn, KPair(env, y), db) for y in items
                    if test_pred(pred, KPair(env, y), db))
    if op == "join":
        pair_value = as_pair(value, "join")
        left = as_set(pair_value.fst, "join")
        right = as_set(pair_value.snd, "join")
        pred, fn = args
        return kset(apply_fn(fn, KPair(x, y), db)
                    for x in left for y in right
                    if test_pred(pred, KPair(x, y), db))
    if op == "nest":
        pair_value = as_pair(value, "nest")
        source = as_set(pair_value.fst, "nest")
        keys = as_set(pair_value.snd, "nest")
        key_fn, val_fn = args
        groups: dict[object, set] = {key: set() for key in keys}
        for x in source:
            key = apply_fn(key_fn, x, db)
            if key in groups:
                groups[key].add(apply_fn(val_fn, x, db))
        return kset(KPair(key, kset(members))
                    for key, members in groups.items())
    if op == "unnest":
        items = as_set(value, "unnest")
        key_fn, set_fn = args
        result = set()
        for x in items:
            key = apply_fn(key_fn, x, db)
            for y in as_set(apply_fn(set_fn, x, db), "unnest inner"):
                result.add(KPair(key, y))
        return kset(result)

    # -- bag formers (Section 6 extension) -------------------------------------
    if op == "tobag":
        from repro.core.bags import KBag
        return KBag.of(as_set(value, "tobag"))
    if op == "distinct":
        from repro.core.bags import as_bag
        return as_bag(value, "distinct").support()
    if op == "bag_iterate":
        from repro.core.bags import as_bag
        bag = as_bag(value, "bag_iterate")
        pred, fn = args
        return (bag.filter(lambda x: test_pred(pred, x, db))
                .map(lambda x: apply_fn(fn, x, db)))
    if op == "bag_flat":
        from repro.core.bags import as_bag
        return as_bag(value, "bag_flat").flatten()
    if op == "bag_union":
        from repro.core.bags import as_bag
        pair_value = as_pair(value, "bag_union")
        return as_bag(pair_value.fst, "bag_union").additive_union(
            as_bag(pair_value.snd, "bag_union"))
    if op == "bag_join":
        from repro.core.bags import KBag, as_bag
        pair_value = as_pair(value, "bag_join")
        left = as_bag(pair_value.fst, "bag_join")
        right = as_bag(pair_value.snd, "bag_join")
        pred, fn = args
        counts: dict[object, int] = {}
        for x, x_count in left.counts().items():
            for y, y_count in right.counts().items():
                if test_pred(pred, KPair(x, y), db):
                    image = apply_fn(fn, KPair(x, y), db)
                    counts[image] = counts.get(image, 0) + x_count * y_count
        return KBag(counts)

    # -- aggregates and arithmetic ------------------------------------------------
    if op == "count":
        return len(as_set(value, "count"))
    if op == "bag_count":
        from repro.core.bags import as_bag
        return len(as_bag(value, "bag_count"))
    if op == "ssum":
        total = 0
        for item in as_set(value, "ssum"):
            if not isinstance(item, (int, float)):
                raise EvalError(f"ssum over non-number {item!r}")
            total += item
        return total
    if op == "bag_sum":
        from repro.core.bags import as_bag
        total = 0
        for item, multiplicity in as_bag(value, "bag_sum").counts().items():
            if not isinstance(item, (int, float)):
                raise EvalError(f"bag_sum over non-number {item!r}")
            total += item * multiplicity
        return total
    if op == "plus":
        pair_value = as_pair(value, "plus")
        if not isinstance(pair_value.fst, (int, float)) or not isinstance(
                pair_value.snd, (int, float)):
            raise EvalError(f"plus over non-numbers {pair_value!r}")
        return pair_value.fst + pair_value.snd

    # -- list formers (Section 6 extension) --------------------------------------
    if op == "listify":
        from repro.core.lists import KList, stable_sort_key
        items = as_set(value, "listify")
        key_fn = args[0]
        return KList(sorted(
            items,
            key=lambda x: stable_sort_key(apply_fn(key_fn, x, db), x)))
    if op == "list_iterate":
        from repro.core.lists import as_list
        sequence = as_list(value, "list_iterate")
        pred, fn = args
        return (sequence.filter(lambda x: test_pred(pred, x, db))
                .map(lambda x: apply_fn(fn, x, db)))
    if op == "list_flat":
        from repro.core.lists import as_list
        return as_list(value, "list_flat").flatten()
    if op == "list_cat":
        from repro.core.lists import as_list
        pair_value = as_pair(value, "list_cat")
        return as_list(pair_value.fst, "list_cat").concat(
            as_list(pair_value.snd, "list_cat"))
    if op == "to_set":
        from repro.core.lists import as_list
        return as_list(value, "to_set").support()

    if op == "meta":
        raise EvalError(
            f"cannot invoke pattern metavariable {term.label[0]!r}")
    raise EvalError(f"term of operator {op!r} is not a function")


def test_pred(term: Term, value: object, db: Database | None = None) -> bool:
    """Test the predicate denoted by ``term`` on ``value`` (``p ? x``)."""
    op = term.op
    args = term.args

    # -- primitives -----------------------------------------------------------
    if op in _COMPARISONS:
        pair_value = as_pair(value, op)
        return compare(op, pair_value.fst, pair_value.snd)
    if op == "isin":
        pair_value = as_pair(value, "in")
        return pair_value.fst in as_set(pair_value.snd, "in")
    if op == "subset":
        pair_value = as_pair(value, "subset")
        return as_set(pair_value.fst, "subset") <= as_set(
            pair_value.snd, "subset")
    if op == "pprim":
        if db is None:
            raise EvalError(f"primitive predicate {term.label!r} needs a database")
        return db.test_pprim(term.label, value)

    # -- predicate formers (Table 1) ---------------------------------------------
    if op == "oplus":
        return test_pred(args[0], apply_fn(args[1], value, db), db)
    if op == "conj":
        return (test_pred(args[0], value, db)
                and test_pred(args[1], value, db))
    if op == "disj":
        return (test_pred(args[0], value, db)
                or test_pred(args[1], value, db))
    if op == "inv":
        pair_value = as_pair(value, "inv")
        return test_pred(args[0], KPair(pair_value.snd, pair_value.fst), db)
    if op == "neg":
        return not test_pred(args[0], value, db)
    if op == "const_p":
        return as_bool(eval_obj(args[0], db), "Kp")
    if op == "curry_p":
        return test_pred(args[0], KPair(eval_obj(args[1], db), value), db)

    if op == "meta":
        raise EvalError(
            f"cannot test pattern metavariable {term.label[0]!r}")
    raise EvalError(f"term of operator {op!r} is not a predicate")


def run_query(query: Term, db: Database | None = None) -> object:
    """Evaluate a whole query (an ``invoke``/``test`` object expression).

    Thin alias of :func:`eval_obj` with a name that reads well at call
    sites; the paper's ``iterate(...) ! P`` is ``run_query(invoke(...))``.
    """
    return eval_obj(query, db)
