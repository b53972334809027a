"""Lowering: optimized KOLA terms -> the loop IR.

``lower_query`` is *total*: every ground query the evaluator accepts
lowers to *something* — the loop-pipeline fragment (``iterate`` /
``flat`` / ``join`` / ``nest`` / ``unnest`` / ``iter`` / the bag and
list formers / the aggregates) becomes scans, probes and element ops;
anything outside it falls back to closure evaluation, either as an
opaque :class:`~repro.exec.ir.Compute` source or as a ``post`` residue
applied to the pipeline's value.

Lowering is deliberately naive about materialization: it inserts a
:class:`~repro.exec.ir.Dedup` after **every** set-producing combinator,
mirroring exactly where the tree-walking evaluator would materialize an
intermediate set.  Deciding which of those boundaries can be deleted is
the fusion pass's job (:mod:`repro.exec.fuse`) — keeping the two
concerns separate is what makes each independently testable.

The recognizers for hash-join-able predicate shapes
(:func:`equality_shape`, :func:`membership_shape`) live here and are
shared with the physical planner (:mod:`repro.optimizer.physical`) —
one structural definition of "equi-join" for both the cost-based plan
and the compiled kernels.
"""

from __future__ import annotations

from repro.core import constructors as C
from repro.core.terms import Term
from repro.exec.ir import (Compute, Dedup, Filter, Flatten, JoinProbe,
                           LoweredQuery, Map, NestGroup, Pipeline, Scan,
                           Sort, UnnestFlatten, WrapEnv)
from repro.exec.scalar import is_const_true, is_identity
from repro.rewrite.pattern import build_chain, flatten_compose

#: Combinators consuming a set stream, with their lowering.
_SET_KIND = frozenset({"iterate", "flat", "unnest", "count", "ssum",
                       "tobag", "listify"})
_BAG_KIND = frozenset({"distinct", "bag_iterate", "bag_flat",
                       "bag_count", "bag_sum"})
_LIST_KIND = frozenset({"list_iterate", "list_flat", "to_set"})


def required_kind(op: str) -> str | None:
    """The stream kind a combinator consumes, or ``None`` if it is not
    a loop-lowerable unary combinator."""
    if op in _SET_KIND:
        return "set"
    if op in _BAG_KIND:
        return "bag"
    if op in _LIST_KIND:
        return "list"
    return None


# -- predicate shape recognizers (shared with optimizer.physical) ------------

def projected_side(component: Term) -> tuple[str, Term] | None:
    """Decompose a pair-consuming function that reads exactly one side:
    ``pi1``/``pi2`` -> (side, id); ``f o pi1`` -> ("pi1", f); &c."""
    if component.op in ("pi1", "pi2"):
        return component.op, C.id_()
    factors = flatten_compose(component)
    if len(factors) >= 2 and factors[-1].op in ("pi1", "pi2"):
        return factors[-1].op, build_chain(factors[:-1])
    return None


def equality_shape(pred: Term) -> tuple[Term, Term] | None:
    """``eq @ (f >< g)`` / ``eq @ <u, v>`` with each side projecting one
    input  -->  ``(left_key, right_key)`` for a hash equi-join."""
    if pred.op != "oplus" or pred.args[0].op != "eq":
        return None
    mapper = pred.args[1]
    if mapper.op == "cross":
        return mapper.args[0], mapper.args[1]
    if mapper.op != "pair":
        return None
    first = projected_side(mapper.args[0])
    second = projected_side(mapper.args[1])
    if first is None or second is None:
        return None
    if {first[0], second[0]} != {"pi1", "pi2"}:
        return None  # both sides read the same input: not an equi-join
    left_key = first[1] if first[0] == "pi1" else second[1]
    right_key = first[1] if first[0] == "pi2" else second[1]
    return left_key, right_key


def membership_shape(pred: Term) -> Term | None:
    """``in @ (id >< g)`` or ``in @ <pi1, g o pi2>``  -->  ``g``."""
    if pred.op != "oplus" or pred.args[0].op != "isin":
        return None
    mapper = pred.args[1]
    if mapper.op == "cross" and mapper.args[0] == C.id_():
        return mapper.args[1]
    if (mapper.op == "pair" and mapper.args[0] == C.pi1()
            and mapper.args[1].op == "compose"
            and mapper.args[1].args[1] == C.pi2()):
        return mapper.args[1].args[0]
    return None


# -- entry points -------------------------------------------------------------

def lower_query(term: Term) -> LoweredQuery:
    """Lower a whole query term (``invoke``/``test``/object expr)."""
    if term.op == "test":
        pipeline, post = _lower_value(term.args[1])
        return LoweredQuery(term, pipeline, post=post,
                            post_pred=term.args[0])
    pipeline, post = _lower_value(term)
    return LoweredQuery(term, pipeline, post=post)


def _lower_value(term: Term) -> tuple[Pipeline, Term | None]:
    """A pipeline (plus unlowerable ``post`` residue) for one object
    expression."""
    if term.op == "invoke":
        return lower_invoke(term)
    return Pipeline(Compute(term), (), "value"), None


def _fallback(term: Term) -> tuple[Pipeline, Term | None]:
    return Pipeline(Compute(term), (), "value"), None


def _stream_of(term: Term, kind: str) -> Pipeline:
    """A ``stream``-sinked pipeline producing the elements of object
    expression ``term`` with ``kind`` semantics.

    When ``term`` is itself a lowerable query of the same kind, its
    pipeline is inlined — this is producer–consumer fusion across
    ``invoke`` boundaries.  Otherwise the term is scanned whole (closure
    evaluation + runtime coercion, exactly the evaluator's behavior).
    """
    if term.op == "invoke":
        pipeline, post = lower_invoke(term)
        if (post is None and pipeline.sink == kind
                and not isinstance(pipeline.source, Compute)):
            return pipeline.with_sink("stream")
    return Pipeline(Scan(term, kind), (), "stream")


def lower_invoke(term: Term) -> tuple[Pipeline, Term | None]:
    """Lower ``invoke(fn, arg)`` by folding the composition chain of
    ``fn`` (rightmost factor first) into pipeline ops."""
    joinnest = _lower_joinnest(term)
    if joinnest is not None:
        return joinnest, None

    fn, arg = term.args
    factors = flatten_compose(fn)
    index = len(factors) - 1

    established = _establish_source(factors[index], arg)
    if established is None:
        return _fallback(term)
    source, ops, kind, consumed = established
    if consumed:
        index -= 1

    sink: str | None = None
    while index >= 0 and sink is None:
        factor = factors[index]
        step = _lower_factor(factor, kind)
        if step is None:
            break
        new_ops, kind, sink = step
        ops.extend(new_ops)
        index -= 1

    post = build_chain(factors[:index + 1]) if index >= 0 else None
    return Pipeline(source, tuple(ops), sink if sink else kind), post


def _establish_source(last_factor: Term, arg: Term):
    """The pipeline source for ``last_factor ! arg``.

    Returns ``(source, initial_ops, kind, consumed_last_factor)`` or
    ``None`` when the shape is not loop-lowerable at all.
    """
    op = last_factor.op
    if arg.op == "pairobj":
        left_term, right_term = arg.args
        if op == "join":
            pred, fn = last_factor.args
            member_fn = membership_shape(pred)
            eq_keys = None if member_fn is not None else equality_shape(pred)
            probe = JoinProbe(_stream_of(left_term, "set"),
                              _stream_of(right_term, "set"),
                              pred, fn, eq_keys=eq_keys,
                              membership_fn=member_fn)
            return probe, [Dedup()], "set", True
        if op == "nest":
            key_fn, val_fn = last_factor.args
            group = NestGroup(_stream_of(left_term, "set"),
                              _stream_of(right_term, "set"),
                              key_fn, val_fn)
            return group, [], "set", True
        if op == "iter":
            pred, fn = last_factor.args
            ops: list = [WrapEnv(left_term)]
            if not is_const_true(pred):
                ops.append(Filter(pred))
            if not is_identity(fn):
                ops.append(Map(fn))
            ops.append(Dedup())
            inner = _stream_of(right_term, "set")
            return inner.source, list(inner.ops) + ops, "set", True
        # fall through: a pairobj argument consumed by a unary
        # combinator (``flat ! [..]`` &c.) is a runtime domain error —
        # the Scan coercion raises it exactly where eval would.
    kind = required_kind(op)
    if kind is None:
        return None
    inner = _stream_of(arg, kind)
    return inner.source, list(inner.ops), kind, False


def _lower_factor(factor: Term, kind: str):
    """Ops for one composition factor consuming a ``kind`` stream.

    Returns ``(ops, new_kind, sink)`` — ``sink`` non-None terminates the
    pipeline (aggregates) — or ``None`` when the factor is not
    lowerable against the current stream kind (it becomes ``post``
    residue).
    """
    op = factor.op
    if required_kind(op) != kind:
        return None

    if kind == "set":
        if op == "iterate":
            pred, fn = factor.args
            ops = []
            if not is_const_true(pred):
                ops.append(Filter(pred))
            if not is_identity(fn):
                ops.append(Map(fn))
            ops.append(Dedup())
            return ops, "set", None
        if op == "flat":
            return [Flatten("set"), Dedup()], "set", None
        if op == "unnest":
            key_fn, set_fn = factor.args
            return [UnnestFlatten(key_fn, set_fn), Dedup()], "set", None
        if op == "count":
            return [], "set", "count"
        if op == "ssum":
            return [], "set", "ssum"
        if op == "tobag":
            return [Dedup()], "bag", None
        if op == "listify":
            return [Dedup(), Sort(factor.args[0])], "list", None
    elif kind == "bag":
        if op == "distinct":
            return [Dedup()], "set", None
        if op == "bag_iterate":
            pred, fn = factor.args
            ops = []
            if not is_const_true(pred):
                ops.append(Filter(pred))
            if not is_identity(fn):
                ops.append(Map(fn))
            return ops, "bag", None
        if op == "bag_flat":
            return [Flatten("bag")], "bag", None
        if op == "bag_count":
            return [], "bag", "bag_count"
        if op == "bag_sum":
            return [], "bag", "bag_sum"
    elif kind == "list":
        if op == "list_iterate":
            pred, fn = factor.args
            ops = []
            if not is_const_true(pred):
                ops.append(Filter(pred))
            if not is_identity(fn):
                ops.append(Map(fn))
            return ops, "list", None
        if op == "list_flat":
            return [Flatten("list")], "list", None
        if op == "to_set":
            return [Dedup()], "set", None
    return None


def _lower_joinnest(term: Term) -> Pipeline | None:
    """The untangled hidden-join shape as one fused pipeline::

        nest(pi1, pi2) o (unnest(pi1, pi2) >< id)^k o
            <join(p, f), pi1> ! [A, B]

    becomes ``NestGroup(JoinProbe(A, B) -> k UnnestFlattens, keys=A)``
    — the join runs once, each unnest streams, and the final grouping is
    one pass, instead of the evaluator's per-combinator materializing.
    """
    if term.op != "invoke":
        return None
    fn, arg = term.args
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

    member_fn = membership_shape(join_pred)
    eq_keys = None if member_fn is not None else equality_shape(join_pred)
    probe = JoinProbe(_stream_of(outer, "set"), _stream_of(inner, "set"),
                      join_pred, join_fn, eq_keys=eq_keys,
                      membership_fn=member_fn)
    ops: list = [Dedup()]
    for _ in range(unnest_count):
        ops += [UnnestFlatten(C.pi1(), C.pi2()), Dedup()]
    joined = Pipeline(probe, tuple(ops), "stream")
    group = NestGroup(joined, _stream_of(outer, "set"), C.pi1(), C.pi2())
    return Pipeline(group, (), "set")
