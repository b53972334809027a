"""Executable physical plans.

Two plan families live here (index scans are in
:mod:`repro.optimizer.indexes`):

* :class:`InterpretPlan` — run the query with the operational-semantics
  evaluator.  For a nested (hidden-join) form this *is* the
  nested-loops strategy: the inner query re-runs for every outer
  element.

* :class:`JoinNestPlan` — the specialized implementation that untangling
  unlocks (the paper's Section 4.1 motivation).  It recognizes the
  untangled shape

  .. code-block:: text

     nest(pi1, pi2) o (unnest(pi1, pi2) >< id)^k o
         <join(p, f), pi1> ! [A, B]

  and executes it with a single pass over ``B`` when the join predicate
  has the *membership* shape ``in @ (id >< g)`` (for each ``b`` in
  ``B``, each element of ``g(b)`` joins a hash-indexed ``A``) — cost
  ``O(|A| + |B| * fanout)`` instead of the interpreter's
  ``O(|A| * |B|)``.  Other predicates fall back to nested-loops for the
  join itself, still evaluated once rather than per-outer-element.

:func:`recognize_join_nest` performs the (purely structural) plan match.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import constructors as C
from repro.core.eval import apply_fn, eval_obj, test_pred
from repro.core.pretty import pretty
from repro.core.terms import Term
from repro.core.values import KPair, as_set, kset
from repro.exec.lower import equality_shape, membership_shape
from repro.optimizer.cost import CostModel
from repro.rewrite.pattern import flatten_compose
from repro.schema.adt import Database


class PhysicalPlan:
    """Interface: executable, explainable, costable."""

    def execute(self, db: Database) -> object:
        raise NotImplementedError

    def explain(self) -> str:
        raise NotImplementedError

    def cost_estimate(self, db: Database,
                      model: CostModel | None = None) -> float:
        raise NotImplementedError


@dataclass
class InterpretPlan(PhysicalPlan):
    """Evaluate the query term directly (nested-loops semantics)."""

    query: Term

    def execute(self, db: Database) -> object:
        return eval_obj(self.query, db)

    def explain(self) -> str:
        return f"Interpret[{pretty(self.query)}]"

    def cost_estimate(self, db: Database,
                      model: CostModel | None = None) -> float:
        return (model or CostModel()).estimate(self.query, db)


@dataclass
class JoinNestPlan(PhysicalPlan):
    """Specialized execution of the untangled nest-of-join shape."""

    query: Term              # the whole untangled query (for reference)
    outer: Term              # A — object term for the nest key side
    inner: Term              # B — object term for the join's other input
    join_pred: Term
    join_fn: Term
    unnest_count: int
    membership_fn: Term | None  # g when the predicate is in @ (id >< g)
    eq_keys: tuple[Term, Term] | None = None  # (left, right) for equi-joins

    def execute(self, db: Database) -> object:
        outer_set = as_set(eval_obj(self.outer, db), "join outer")
        inner_set = as_set(eval_obj(self.inner, db), "join inner")

        # 1. The join, specialized when the predicate shape allows.
        if self.membership_fn is not None:
            outer_index = set(outer_set)
            joined = set()
            for b in inner_set:
                members = as_set(
                    apply_fn(self.membership_fn, b, db), "membership set")
                for a in members:
                    if a in outer_index:
                        joined.add(apply_fn(self.join_fn, KPair(a, b), db))
        elif self.eq_keys is not None:
            left_key, right_key = self.eq_keys
            buckets: dict[object, list] = {}
            for a in outer_set:
                buckets.setdefault(apply_fn(left_key, a, db), []).append(a)
            joined = set()
            for b in inner_set:
                for a in buckets.get(apply_fn(right_key, b, db), ()):
                    joined.add(apply_fn(self.join_fn, KPair(a, b), db))
        else:
            joined = {apply_fn(self.join_fn, KPair(a, b), db)
                      for a in outer_set for b in inner_set
                      if test_pred(self.join_pred, KPair(a, b), db)}

        # 2. The unnest pyramid (left side of the pair).
        result = kset(joined)
        for _ in range(self.unnest_count):
            result = apply_fn(C.unnest(C.pi1(), C.pi2()), result, db)

        # 3. The final nest relative to the outer set (NULL-free).
        return apply_fn(C.nest(C.pi1(), C.pi2()),
                        KPair(result, outer_set), db)

    def explain(self) -> str:
        if self.membership_fn is not None:
            join_kind = "MembershipHashJoin"
        elif self.eq_keys is not None:
            join_kind = "HashEquiJoin"
        else:
            join_kind = "NestedLoopJoin"
        return (f"Nest(pi1, pi2)\n"
                + "".join("  Unnest(pi1, pi2)\n"
                          for _ in range(self.unnest_count))
                + f"    {join_kind}[pred={pretty(self.join_pred)}, "
                  f"fn={pretty(self.join_fn)}]\n"
                + f"      outer={pretty(self.outer)}, "
                  f"inner={pretty(self.inner)}")

    def cost_estimate(self, db: Database,
                      model: CostModel | None = None) -> float:
        model = model or CostModel()
        outer_card = _cardinality(self.outer, db, model)
        inner_card = _cardinality(self.inner, db, model)
        if self.membership_fn is not None:
            join_cost = outer_card + inner_card * model.fanout
        elif self.eq_keys is not None:
            join_cost = outer_card + inner_card
        else:
            join_cost = outer_card * inner_card
        output = join_cost * model.selectivity
        unnest_cost = output * model.fanout * max(1, self.unnest_count)
        return join_cost + unnest_cost + outer_card


def _cardinality(term: Term, db: Database, model: CostModel) -> float:
    if term.op == "setname":
        return model.collection_size(db, term.label)
    if term.op == "lit" and isinstance(term.label, frozenset):
        return float(len(term.label))
    return 100.0


def recognize_join_nest(query: Term) -> JoinNestPlan | None:
    """Structurally match the untangled shape and build its plan.

    Expects the canonical form produced by the hidden-join pipeline::

        nest(pi1, pi2) o (unnest(pi1, pi2) >< id)^k o
            <join(p, f), pi1> ! [A, B]
    """
    if query.op != "invoke":
        return None
    fn, arg = query.args
    if arg.op != "pairobj":
        return None
    outer, inner = arg.args

    factors = flatten_compose(fn)
    if len(factors) < 2 or factors[0] != C.nest(C.pi1(), C.pi2()):
        return None

    unnest_stage = C.cross(C.unnest(C.pi1(), C.pi2()), C.id_())
    unnest_count = 0
    index = 1
    while index < len(factors) and factors[index] == unnest_stage:
        unnest_count += 1
        index += 1
    if index != len(factors) - 1:
        return None

    last = factors[index]
    if last.op != "pair" or last.args[1] != C.pi1():
        return None
    join_term = last.args[0]
    if join_term.op != "join":
        return None
    join_pred, join_fn = join_term.args

    membership_fn = _membership_shape(join_pred)
    eq_keys = None if membership_fn is not None else _equality_shape(
        join_pred)
    return JoinNestPlan(query=query, outer=outer, inner=inner,
                        join_pred=join_pred, join_fn=join_fn,
                        unnest_count=unnest_count,
                        membership_fn=membership_fn, eq_keys=eq_keys)


# The predicate shape recognizers are shared with the loop IR's
# lowering pass — one structural definition of "equi-join" and
# "membership join" for both plan families (repro.exec.lower).
_equality_shape = equality_shape
_membership_shape = membership_shape
