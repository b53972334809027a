"""The loop IR: what a KOLA query looks like between lowering and
emission.

A query becomes a tree of **pipelines**.  Each pipeline is a *source*
(scan, join probe, nest group, or an opaque computed term), a sequence
of **element operations** applied to the stream the source produces,
and a **sink** describing how the stream becomes a value:

========================  ===================================================
``Scan(term, kind)``       evaluate ``term`` to a collection, stream it
``JoinProbe(l, r, ...)``   stream the join of two sub-pipelines (hash
                           equi-join / membership probe / nested loops)
``NestGroup(src, keys)``   one grouping pass over ``src`` against ``keys``
``Compute(term)``          fallback: closure-evaluate ``term`` whole
``Map(fn)``                apply a compiled function per element
``Filter(pred)``           keep elements passing a compiled predicate
``WrapEnv(env)``           pair a once-per-run environment onto elements
``Flatten(kind)``          stream the members of collection elements
``UnnestFlatten(kf, sf)``  per element ``x``: yield ``[kf!x, y]`` for
                           ``y`` in ``sf!x``
``Dedup``                  a set-semantics boundary (streamed, not
                           materialized; the fusion pass deletes the
                           provably unnecessary ones)
``Sort(kf)``               materialize and stably sort (``listify``)
========================  ===================================================

Sinks carry explicit **bag-vs-set semantics**: a ``set`` sink
deduplicates extensionally, ``bag``/``bag_count``/``bag_sum`` sinks
count stream multiplicity, ``list`` preserves order, ``count``/``ssum``
are duplicate-*sensitive* (they aggregate the deduplicated stream — the
fusion pass therefore never deletes the ``Dedup`` guarding them).

Every ``Dedup`` marks a combinator boundary where the tree-walking
evaluator would materialize a full intermediate set.  Lowering inserts
one after every set-producing combinator; fusion
(:mod:`repro.exec.fuse`) removes those that cannot change the result,
which is exactly how ``iterate``/``join``/``nest``/``unnest`` chains
collapse into single loops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.terms import Term

# -- element kinds / sink kinds ----------------------------------------------

#: Collection semantics a stream can carry.
KINDS = ("set", "bag", "list")

#: How a pipeline's stream becomes a value.  ``stream`` is internal —
#: the pipeline feeds a parent node and never materializes.
SINKS = ("set", "bag", "list", "count", "ssum", "bag_count", "bag_sum",
         "stream")

#: Sinks whose value changes if duplicates reach them.
DUP_SENSITIVE_SINKS = frozenset(
    {"count", "ssum", "bag", "bag_count", "bag_sum", "list", "stream"})


# -- element operations -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Map:
    fn: Term


@dataclass(frozen=True, slots=True)
class Filter:
    pred: Term


@dataclass(frozen=True, slots=True)
class WrapEnv:
    """``iter``'s environment pairing: ``y -> [env, y]`` with ``env``
    evaluated once per run, not once per element."""

    env: Term


@dataclass(frozen=True, slots=True)
class Flatten:
    """Stream the members of each (collection-valued) element."""

    kind: str    # the member collection kind: "set" | "bag" | "list"


@dataclass(frozen=True, slots=True)
class UnnestFlatten:
    key_fn: Term
    set_fn: Term


@dataclass(frozen=True, slots=True)
class Dedup:
    """A set-materialization boundary, executed as a streaming
    seen-filter when it survives fusion."""


@dataclass(frozen=True, slots=True)
class Sort:
    key_fn: Term


#: Ops that neither create nor observe duplicates on their own — the
#: alphabet the Dedup-elimination analysis reasons over.
ELEMENTWISE = (Map, Filter, WrapEnv)


# -- sources ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Scan:
    """Evaluate an object term to a collection and stream its elements,
    coercing with the semantics of ``kind``."""

    source: Term
    kind: str = "set"


@dataclass(frozen=True, slots=True)
class Compute:
    """Opaque fallback: the term is closure-evaluated whole.  Only ever
    a *query* source (never streamed) — pipelines over a Compute have no
    ops."""

    term: Term


@dataclass(frozen=True, slots=True)
class JoinProbe:
    """``join(p, f) ! [A, B]`` as a probe loop.

    ``eq_keys`` set: hash equi-join (bucket A by left key, probe with
    right key).  ``membership_fn`` set: the predicate is
    ``in @ (id >< g)`` — index A, enumerate ``g(b)``.  Neither: nested
    loops with the compiled predicate.  The output stream is the bag of
    ``f ! [a, b]`` images; the surrounding pipeline carries the
    ``Dedup`` that makes it a set.
    """

    left: "Pipeline"
    right: "Pipeline"
    pred: Term
    fn: Term
    eq_keys: tuple[Term, Term] | None = None
    membership_fn: Term | None = None

    @property
    def strategy(self) -> str:
        if self.membership_fn is not None:
            return "membership-probe"
        if self.eq_keys is not None:
            return "hash-equi"
        return "nested-loop"


@dataclass(frozen=True, slots=True)
class NestGroup:
    """``nest(kf, vf) ! [src, keys]``: one pass over ``src`` filling
    per-key groups; yields ``[key, group]`` pairs (distinct by
    construction — no Dedup needed downstream)."""

    source: "Pipeline"
    keys: "Pipeline"
    key_fn: Term
    val_fn: Term


Source = object  # Scan | Compute | JoinProbe | NestGroup
Op = object      # Map | Filter | WrapEnv | Flatten | UnnestFlatten | Dedup | Sort


# -- the pipeline -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Pipeline:
    source: Source
    ops: tuple = ()
    sink: str = "set"

    def with_sink(self, sink: str) -> "Pipeline":
        return Pipeline(self.source, self.ops, sink)


@dataclass(frozen=True, slots=True)
class LoweredQuery:
    """A whole query: a pipeline plus the residue lowering could not
    express as loops.

    ``post`` is a function term applied to the pipeline's value (the
    unrecognized prefix of an ``invoke`` chain); ``post_pred`` is the
    predicate of a top-level ``test`` query.  ``fallback_ratio`` is a
    coverage statistic: 0.0 means fully loop-lowered, 1.0 means the
    whole query runs on the closure fallback.
    """

    term: Term
    pipeline: Pipeline
    post: Term | None = None
    post_pred: Term | None = None

    @property
    def fully_lowered(self) -> bool:
        return self.post is None and not isinstance(self.pipeline.source,
                                                    Compute)


# -- rendering ----------------------------------------------------------------

def render(node: object, indent: int = 0) -> str:
    """A stable, human-oriented rendering of the IR (used by
    ``CompiledKernel.explain`` and the ``repro.cli run`` output)."""
    from repro.core.pretty import pretty
    pad = "  " * indent
    if isinstance(node, LoweredQuery):
        lines = []
        if node.post_pred is not None:
            lines.append(f"{pad}Test[{pretty(node.post_pred)}]")
            indent += 1
            pad = "  " * indent
        if node.post is not None:
            lines.append(f"{pad}Apply[{pretty(node.post)}]")
            indent += 1
        lines.append(render(node.pipeline, indent))
        return "\n".join(lines)
    if isinstance(node, Pipeline):
        lines = [f"{pad}Sink[{node.sink}]"]
        for op in reversed(node.ops):
            lines.append(render(op, indent + 1))
        lines.append(render(node.source, indent + 1))
        return "\n".join(lines)
    if isinstance(node, Scan):
        return f"{pad}Scan[{pretty(node.source)} : {node.kind}]"
    if isinstance(node, Compute):
        return f"{pad}Compute[{pretty(node.term)}]"
    if isinstance(node, JoinProbe):
        lines = [f"{pad}JoinProbe[{node.strategy}, "
                 f"fn={pretty(node.fn)}]"]
        lines.append(render(node.left, indent + 1))
        lines.append(render(node.right, indent + 1))
        return "\n".join(lines)
    if isinstance(node, NestGroup):
        lines = [f"{pad}NestGroup[key={pretty(node.key_fn)}, "
                 f"val={pretty(node.val_fn)}]"]
        lines.append(render(node.source, indent + 1))
        lines.append(render(node.keys, indent + 1))
        return "\n".join(lines)
    if isinstance(node, Map):
        return f"{pad}Map[{pretty(node.fn)}]"
    if isinstance(node, Filter):
        return f"{pad}Filter[{pretty(node.pred)}]"
    if isinstance(node, WrapEnv):
        return f"{pad}WrapEnv[{pretty(node.env)}]"
    if isinstance(node, Flatten):
        return f"{pad}Flatten[{node.kind}]"
    if isinstance(node, UnnestFlatten):
        return (f"{pad}UnnestFlatten[key={pretty(node.key_fn)}, "
                f"set={pretty(node.set_fn)}]")
    if isinstance(node, Dedup):
        return f"{pad}Dedup"
    if isinstance(node, Sort):
        return f"{pad}Sort[{pretty(node.key_fn)}]"
    return f"{pad}{node!r}"
