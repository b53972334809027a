"""Strategy combinators: how a rule block fires its rules.

A :class:`Strategy` maps a term to a term inside a :class:`Context`
(engine + rule base + optional derivation).  Combinators:

* :class:`Once` — apply one rule (by name; ``"r12-rev"`` selects the
  right-to-left reading) at the first matching position; optionally
  *required* (raise if it does not fire).
* :class:`Exhaust` — normalize with a list of rules/groups until no rule
  applies.
* :class:`Seq` — run strategies in order.
* :class:`Repeat` — run a strategy until it stops changing the term.
* :class:`Try` — run a strategy, keeping the input on no-op/failure.

Rule references are strings: a rule name, ``<name>-rev``, or
``group:<group-name>`` which expands to the group's rules in
registration order.  The rule base resolves them
(:meth:`~repro.rewrite.rulebase.RuleBase.resolve`) and caches each
reference tuple's compiled dispatch per rule-base generation, so a
strategy run many times compiles its rules once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import RewriteError
from repro.core.terms import Term
from repro.rewrite.engine import Engine
from repro.rewrite.rulebase import RuleBase
from repro.rewrite.trace import Derivation


@dataclass
class Context:
    """Execution context shared by the strategies of one run."""

    engine: Engine
    rulebase: RuleBase
    derivation: Derivation | None = None

    def dispatch(self, refs: tuple[str, ...]):
        """``refs`` in the dispatch structure this context's engine
        uses: the rule base's cached compiled discrimination tree
        (:meth:`~repro.rewrite.rulebase.RuleBase.resolve_compiled`), or
        — for the linear reference engine — the bare rule list."""
        if self.engine.indexed:
            return self.rulebase.resolve_compiled(refs)
        return self.rulebase.resolve(refs)


class Strategy:
    """Base class; subclasses implement :meth:`run`."""

    def run(self, term: Term, ctx: Context) -> Term:
        raise NotImplementedError


@dataclass
class Once(Strategy):
    """Apply one rule at the first matching position, once."""

    ref: str
    required: bool = False

    def run(self, term: Term, ctx: Context) -> Term:
        (rule,) = ctx.rulebase.resolve((self.ref,))
        result = ctx.engine.rewrite_once(term, [rule])
        if result is None:
            if self.required:
                raise RewriteError(
                    f"required rule {self.ref!r} did not fire")
            return term
        if ctx.derivation is not None:
            ctx.derivation.record(result.rule, term, result.term,
                                  result.path)
        return result.term


@dataclass
class Exhaust(Strategy):
    """Normalize with the referenced rules until fixpoint.

    ``traversal`` selects outermost-first (``"topdown"``, default) or
    innermost-first (``"bottomup"``) positions — the follow-on COKO
    language's ``TD``/``BU`` firing algorithms.
    """

    refs: tuple[str, ...]
    max_steps: int = 500
    traversal: str = "topdown"

    def __init__(self, *refs: str, max_steps: int = 500,
                 traversal: str = "topdown") -> None:
        self.refs = refs
        self.max_steps = max_steps
        self.traversal = traversal

    def run(self, term: Term, ctx: Context) -> Term:
        rules = ctx.dispatch(self.refs)
        return ctx.engine.normalize(term, rules, max_steps=self.max_steps,
                                    strategy=self.traversal,
                                    derivation=ctx.derivation)


@dataclass
class IfFires(Strategy):
    """Conditional strategy: if ``ref`` fires once, continue with
    ``then_branch`` on the rewritten term; otherwise run
    ``else_branch`` (if any) on the original — COKO's ``GIVEN ... DO``."""

    ref: str
    then_branch: Strategy
    else_branch: Strategy | None = None

    def run(self, term: Term, ctx: Context) -> Term:
        (rule,) = ctx.rulebase.resolve((self.ref,))
        result = ctx.engine.rewrite_once(term, [rule])
        if result is not None:
            if ctx.derivation is not None:
                ctx.derivation.record(result.rule, term, result.term,
                                      result.path)
            return self.then_branch.run(result.term, ctx)
        if self.else_branch is not None:
            return self.else_branch.run(term, ctx)
        return term


@dataclass
class Seq(Strategy):
    """Run strategies left to right."""

    parts: tuple[Strategy, ...]

    def __init__(self, *parts: Strategy) -> None:
        self.parts = parts

    def run(self, term: Term, ctx: Context) -> Term:
        for part in self.parts:
            term = part.run(term, ctx)
        return term


@dataclass
class Repeat(Strategy):
    """Run ``body`` until the term stops changing."""

    body: Strategy
    max_rounds: int = 100

    def run(self, term: Term, ctx: Context) -> Term:
        for _ in range(self.max_rounds):
            new_term = self.body.run(term, ctx)
            if new_term == term:
                return term
            term = new_term
        return term


@dataclass
class Try(Strategy):
    """Run ``body``; on :class:`RewriteError` keep the input term."""

    body: Strategy

    def run(self, term: Term, ctx: Context) -> Term:
        try:
            return self.body.run(term, ctx)
        except RewriteError:
            return term


class Ranked(Strategy):
    """Hill-climb with sound rules toward a lower objective value.

    At each round, every single-step rewrite by the referenced rules is
    enumerated and the successor with the smallest objective is taken —
    but only when it strictly improves on the current term.  Because
    every step is an ordinary verified rule application, the strategy
    stays inside the rules' equational theory; because improvement is
    strict, it terminates even with *structural* (non-terminating) rules
    like commutativity — which is exactly what predicate ordering needs
    (`conj-comm`/`conj-assoc` guided by a selectivity objective).
    """

    def __init__(self, *refs: str, objective, max_rounds: int = 60) -> None:
        self.refs = refs
        self.objective = objective
        self.max_rounds = max_rounds

    def run(self, term: Term, ctx: Context) -> Term:
        rules = ctx.rulebase.resolve(self.refs)
        current = term
        current_cost = self.objective(current)
        for _ in range(self.max_rounds):
            best, best_cost = None, current_cost
            for one_rule in rules:
                result = ctx.engine.rewrite_once(current, [one_rule])
                seen: set[Term] = set()
                # enumerate successive positions by rewriting the first
                # match; deeper matches are reached on later rounds once
                # the first improves or does not
                while result is not None and result.term not in seen:
                    seen.add(result.term)
                    cost = self.objective(result.term)
                    if cost < best_cost:
                        best, best_cost = result, cost
                    # try the next distinct outcome of this rule by
                    # rewriting the previous outcome (cheap exploration)
                    result = ctx.engine.rewrite_once(result.term,
                                                     [one_rule])
            if best is None:
                return current
            if ctx.derivation is not None:
                ctx.derivation.record(best.rule, current, best.term,
                                      best.path)
            current, current_cost = best.term, best_cost
        return current
