"""Wire codecs for batch tasks and results.

Queries ship to workers as portable term payloads
(:meth:`repro.core.terms.Term.to_portable`); results ship back as plain
dicts of payloads and scalars.  Nothing on the wire holds a live
:class:`~repro.core.terms.Term`, :class:`~repro.rewrite.rule.Rule` or
plan object, so the protocol is spawn-safe and independent of either
side's intern tables.  The parent rehydrates with
:func:`decode_result`: terms re-intern through
:func:`~repro.core.terms.from_portable`, derivation steps resolve their
rules by name against the parent's rulebase, and plans rebuild from a
tagged payload (``interpret`` / ``joinnest``; anything else is tagged
``replan`` and the caller re-derives it from the decoded terms — plan
choice is deterministic, so that reproduces the worker's plan).  Any
other tag is a :class:`~repro.core.errors.PortableTermError`.  Compiled
kernels never cross the wire: the receiver compiles one from the
decoded best form when it executes the result.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.errors import PortableTermError
from repro.core.terms import Term, from_portable
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


def encode_plan(plan: PhysicalPlan) -> tuple:
    """A tagged, picklable payload for ``plan``."""
    if isinstance(plan, InterpretPlan):
        return ("interpret", plan.query.to_portable())
    if isinstance(plan, JoinNestPlan):
        eq_keys = (None if plan.eq_keys is None
                   else (plan.eq_keys[0].to_portable(),
                         plan.eq_keys[1].to_portable()))
        return ("joinnest", {
            "query": plan.query.to_portable(),
            "outer": plan.outer.to_portable(),
            "inner": plan.inner.to_portable(),
            "join_pred": plan.join_pred.to_portable(),
            "join_fn": plan.join_fn.to_portable(),
            "unnest_count": plan.unnest_count,
            "membership_fn": _maybe(plan.membership_fn),
            "eq_keys": eq_keys,
        })
    return ("replan", type(plan).__name__)


def decode_plan(payload: tuple) -> PhysicalPlan | None:
    """Rebuild a plan from :func:`encode_plan` output; ``None`` for the
    ``replan`` tag (caller re-derives from the decoded terms)."""
    tag, body = payload
    if tag == "interpret":
        return InterpretPlan(from_portable(body))
    if tag == "joinnest":
        eq_keys = (None if body["eq_keys"] is None
                   else (from_portable(body["eq_keys"][0]),
                         from_portable(body["eq_keys"][1])))
        return JoinNestPlan(
            query=from_portable(body["query"]),
            outer=from_portable(body["outer"]),
            inner=from_portable(body["inner"]),
            join_pred=from_portable(body["join_pred"]),
            join_fn=from_portable(body["join_fn"]),
            unnest_count=body["unnest_count"],
            membership_fn=_maybe_term(body["membership_fn"]),
            eq_keys=eq_keys)
    if tag == "replan":
        return None
    raise PortableTermError(f"unknown plan payload tag {tag!r}")


def encode_result(result: OptimizedQuery) -> dict:
    """The worker-side encoding of one optimize result."""
    steps = [(step.rule.name, step.before.to_portable(),
              step.after.to_portable(), tuple(step.path))
             for step in result.derivation]
    return {
        "initial": result.initial.to_portable(),
        "simplified": result.simplified.to_portable(),
        "untangled": result.untangled.to_portable(),
        "chosen": _maybe(result.chosen),
        "plan": encode_plan(result.plan),
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
    """
    derivation = Derivation(encoded["derivation_title"])
    for rule_name, before, after, path in encoded["steps"]:
        derivation.record(rulebase.get(rule_name), from_portable(before),
                          from_portable(after), tuple(path))
    initial = from_portable(encoded["initial"])
    untangled = from_portable(encoded["untangled"])
    plan = decode_plan(encoded["plan"])
    saturation = (None if encoded["saturation"] is None
                  else SaturationReport(**encoded["saturation"]))
    return OptimizedQuery(
        source=source if source is not None else initial,
        aqua=None,
        initial=initial,
        simplified=from_portable(encoded["simplified"]),
        untangled=untangled,
        plan=plan if plan is not None else InterpretPlan(untangled),
        derivation=derivation,
        estimated_cost=encoded["estimated_cost"],
        search=encoded["search"],
        chosen=_maybe_term(encoded["chosen"]),
        saturation=saturation)
