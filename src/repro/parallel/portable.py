"""Wire codecs for batch tasks and results.

Queries ship to workers as portable term payloads
(:meth:`repro.core.terms.Term.to_portable`) — the serving pool ships
each one split into its constant-abstracted skeleton's payload and the
constant values; results ship back as plain dicts of scalars, node
indices and payloads.  Nothing on the wire holds a live
:class:`~repro.core.terms.Term`, :class:`~repro.rewrite.rule.Rule` or
plan object, so the protocol is spawn-safe and independent of either
side's intern tables.

An encoded result carries **one node table**
(:class:`~repro.core.terms.NodeTable`, the portable form's post-order
``(op, child_indices, label)`` entries) holding every distinct node of
the initial and simplified forms, the plan's terms and each derivation
step's before and after, once each; those fields are indices into it.
``untangled`` and ``chosen`` stay standalone portable payloads, and
each step is ``(rule name, before, after, path)``, so a client can read
the best form and the rule sequence without decoding the table.

The parent rehydrates with :func:`decode_result`: the table re-interns
once through :func:`~repro.core.terms.decode_table` (every ``mk``
check, child references pointing backwards only), derivation steps
resolve their rules by name against the parent's rulebase, and plans
rebuild from a tagged payload (``interpret`` / ``joinnest``; anything
else is tagged ``replan`` and the caller re-derives it from the decoded
terms — plan choice is deterministic, so that reproduces the worker's
plan).  Any other tag, a missing field or a node index outside the
table is a :class:`~repro.core.errors.PortableTermError`.  Compiled
kernels never cross the wire: the receiver compiles one from the
decoded best form when it executes the result.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.errors import PortableTermError
from repro.core.terms import NodeTable, Term, decode_table, from_portable
from repro.optimizer.optimizer import OptimizedQuery
from repro.optimizer.physical import (InterpretPlan, JoinNestPlan,
                                      PhysicalPlan)
from repro.rewrite.rulebase import RuleBase
from repro.rewrite.trace import Derivation
from repro.saturate.driver import SaturationReport


def _maybe(term: Term | None):
    return None if term is None else term.to_portable()


def _maybe_term(payload):
    return None if payload is None else from_portable(payload)


def encode_plan(plan: PhysicalPlan, term=Term.to_portable) -> tuple:
    """A tagged, picklable payload for ``plan``; ``term`` encodes each
    of its terms (by default as a standalone portable payload)."""
    if isinstance(plan, InterpretPlan):
        return ("interpret", term(plan.query))
    if isinstance(plan, JoinNestPlan):
        eq_keys = (None if plan.eq_keys is None
                   else (term(plan.eq_keys[0]), term(plan.eq_keys[1])))
        return ("joinnest", {
            "query": term(plan.query),
            "outer": term(plan.outer),
            "inner": term(plan.inner),
            "join_pred": term(plan.join_pred),
            "join_fn": term(plan.join_fn),
            "unnest_count": plan.unnest_count,
            "membership_fn": (None if plan.membership_fn is None
                              else term(plan.membership_fn)),
            "eq_keys": eq_keys,
        })
    return ("replan", type(plan).__name__)


def decode_plan(payload: tuple, term=from_portable) -> PhysicalPlan | None:
    """Rebuild a plan from :func:`encode_plan` output (``term`` decodes
    what :func:`encode_plan`'s ``term`` encoded); ``None`` for the
    ``replan`` tag (caller re-derives from the decoded terms)."""
    tag, body = payload
    if tag == "interpret":
        return InterpretPlan(term(body))
    if tag == "joinnest":
        eq_keys = (None if body["eq_keys"] is None
                   else (term(body["eq_keys"][0]),
                         term(body["eq_keys"][1])))
        return JoinNestPlan(
            query=term(body["query"]),
            outer=term(body["outer"]),
            inner=term(body["inner"]),
            join_pred=term(body["join_pred"]),
            join_fn=term(body["join_fn"]),
            unnest_count=body["unnest_count"],
            membership_fn=(None if body["membership_fn"] is None
                           else term(body["membership_fn"])),
            eq_keys=eq_keys)
    if tag == "replan":
        return None
    raise PortableTermError(f"unknown plan payload tag {tag!r}")


#: The fields of an encoded result.
_RESULT_FIELDS = ("table", "initial", "simplified", "untangled",
                  "chosen", "plan", "estimated_cost", "search",
                  "derivation_title", "steps", "saturation")


def encode_result(result: OptimizedQuery) -> dict:
    """The worker-side encoding of one optimize result: one node table
    for all its terms (see the module docstring)."""
    table = NodeTable()
    add = table.add
    initial = add(result.initial)
    simplified = add(result.simplified)
    plan = encode_plan(result.plan, add)
    steps = [(step.rule.name, add(step.before), add(step.after),
              tuple(step.path))
             for step in result.derivation]
    return {
        "table": tuple(table.nodes),
        "initial": initial,
        "simplified": simplified,
        "untangled": result.untangled.to_portable(),
        "chosen": _maybe(result.chosen),
        "plan": plan,
        "estimated_cost": result.estimated_cost,
        "search": result.search,
        "derivation_title": result.derivation.title,
        "steps": steps,
        "saturation": (None if result.saturation is None
                       else asdict(result.saturation)),
    }


def decode_result(encoded: dict, rulebase: RuleBase,
                  source: object = None) -> OptimizedQuery:
    """Rehydrate a worker result into an :class:`OptimizedQuery`.

    ``rulebase`` resolves derivation-step rule names; ``source`` is the
    caller's original query object (the wire form does not carry it).
    A ``replan``-tagged plan decodes to a plain
    :class:`InterpretPlan` placeholder — the batch layer replaces it
    via the optimizer's deterministic plan choice.

    Raises:
        PortableTermError: a field is missing, the node table is
            malformed, or a node index is not an entry of the table.
    """
    if not isinstance(encoded, dict):
        raise PortableTermError(
            f"encoded result must be a dict, got {type(encoded).__name__}")
    missing = [key for key in _RESULT_FIELDS if key not in encoded]
    if missing:
        raise PortableTermError(
            f"encoded result lacks {', '.join(map(repr, missing))}")
    nodes = decode_table(encoded["table"])

    def node(index) -> Term:
        if type(index) is not int or not 0 <= index < len(nodes):
            raise PortableTermError(
                f"result node index {index!r} is not an entry of the "
                f"{len(nodes)}-node table")
        return nodes[index]

    derivation = Derivation(encoded["derivation_title"])
    for rule_name, before, after, path in encoded["steps"]:
        derivation.record(rulebase.get(rule_name), node(before),
                          node(after), tuple(path))
    initial = node(encoded["initial"])
    untangled = from_portable(encoded["untangled"])
    plan = decode_plan(encoded["plan"], node)
    saturation = (None if encoded["saturation"] is None
                  else SaturationReport(**encoded["saturation"]))
    return OptimizedQuery(
        source=source if source is not None else initial,
        aqua=None,
        initial=initial,
        simplified=node(encoded["simplified"]),
        untangled=untangled,
        plan=plan if plan is not None else InterpretPlan(untangled),
        derivation=derivation,
        estimated_cost=encoded["estimated_cost"],
        search=encoded["search"],
        chosen=_maybe_term(encoded["chosen"]),
        saturation=saturation)
