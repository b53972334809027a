"""An equational prover over the rule pool.

The authors' 500-rule pool was *proved* rule by rule in the Larch
Prover.  Beyond the model-checking substitute
(:mod:`repro.larch.checker`), this module provides the other half of
that workflow: **deriving new equations from already-trusted ones**.

:class:`EquationalProver` proves ``lhs == rhs`` by bounded bidirectional
search: it explores rewrites of both sides using the pool's equations
(each bidirectional rule in both directions) and succeeds when the two
search frontiers meet.  A returned :class:`Proof` carries the two
derivations and renders as an equational chain — e.g. the paper's rule
12 is derivable from rule 11 plus the Figure 4 identities::

    iterate(p, id) o iterate(Kp(T), f)
      = [11]   iterate(Kp(T) & (p @ f), id o f)
      = [2]    iterate(Kp(T) & (p @ f), f)
      = [5]    iterate(p @ f, f)

Soundness is inherited: every step is one of the pool's verified rules,
so a found proof certifies the goal to the same level as the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import RewriteError
from repro.core.pretty import pretty
from repro.core.terms import Term
from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.rewrite.rule import Rule
from repro.rewrite.ruleindex import rule_index


@dataclass(frozen=True)
class ProofStep:
    """One equational step: ``before == after`` by ``rule_label``."""

    rule_label: str
    before: Term
    after: Term


@dataclass
class Proof:
    """A successful derivation ``lhs ->* meeting <-* rhs``."""

    lhs: Term
    rhs: Term
    meeting: Term
    lhs_steps: tuple[ProofStep, ...]
    rhs_steps: tuple[ProofStep, ...]

    def render(self) -> str:
        lines = [pretty(self.lhs)]
        for step in self.lhs_steps:
            lines.append(f"  = {step.rule_label}")
            lines.append(pretty(step.after))
        for step in reversed(self.rhs_steps):
            lines.append(f"  = {_invert_label(step.rule_label)}")
            lines.append(pretty(step.before))
        return "\n".join(lines)

    @property
    def length(self) -> int:
        return len(self.lhs_steps) + len(self.rhs_steps)


def _invert_label(label: str) -> str:
    """``[X]`` <-> ``[X^-1]`` — steps found from the RHS frontier read
    in the opposite direction in the rendered chain."""
    if label.endswith("^-1]"):
        return label[:-4] + "]"
    return label[:-1] + "^-1]"


class EquationalProver:
    """Bounded bidirectional search for equational proofs."""

    def __init__(self, rules: list[Rule], max_depth: int = 4,
                 max_frontier: int = 400,
                 engine: Engine | None = None) -> None:
        self.rules = self._expand(rules)
        self.max_depth = max_depth
        self.max_frontier = max_frontier
        self.engine = engine if engine is not None else Engine()
        # The expanded pool as one dispatchable index (compiled once by
        # the engine) plus the label of each rule object for rendering.
        # rule_index memoizes by tuple *equality*, so the index may hold
        # equal-but-distinct Rule objects from an earlier identical
        # pool; labels are therefore keyed on the index's own objects —
        # the ones dispatch results will reference.
        self._pool = rule_index(tuple(one_rule
                                      for _, one_rule in self.rules))
        self._labels: dict[int, str] = {}
        for (label, _), one_rule in zip(self.rules, self._pool.rules):
            self._labels.setdefault(id(one_rule), label)

    @staticmethod
    def _expand(rules: list[Rule]) -> list[tuple[str, Rule]]:
        expanded: list[tuple[str, Rule]] = []
        for rule in rules:
            expanded.append((f"[{rule.number or rule.name}]", rule))
            if rule.bidirectional:
                try:
                    expanded.append(
                        (f"[{rule.number or rule.name}^-1]",
                         rule.reversed()))
                except RewriteError:
                    # The reverse drops variables or could narrow the
                    # type: only the forward reading is usable.
                    pass
        return expanded

    def _successors(self, term: Term):
        """Every single-step rewrite of ``term`` under the expanded
        rules, at every position (one result per rule/position pair).

        Delegates to :meth:`~repro.rewrite.engine.Engine.successors`:
        with compiled dispatch the whole pool is matched in one
        traversal of ``term`` (instead of one ``rewrite_everywhere``
        walk per rule), in the same rule-major order — so frontier
        insertion order, and therefore the found proofs, are unchanged.
        """
        for result in self.engine.successors(term, self._pool):
            if result.term is not term:
                yield self._labels[id(result.rule)], result.term

    def prove(self, lhs: Term, rhs: Term) -> Proof | None:
        """Search for an equational proof of ``lhs == rhs``."""
        lhs, rhs = canon(lhs), canon(rhs)
        if lhs == rhs:
            return Proof(lhs, rhs, lhs, (), ())

        # breadth-first frontiers with back-pointers
        lhs_parents: dict[Term, tuple[Term, str] | None] = {lhs: None}
        rhs_parents: dict[Term, tuple[Term, str] | None] = {rhs: None}
        lhs_frontier, rhs_frontier = [lhs], [rhs]

        for _ in range(self.max_depth):
            meeting = self._meet(lhs_parents, rhs_parents)
            if meeting is not None:
                return self._build(lhs, rhs, meeting, lhs_parents,
                                   rhs_parents)
            lhs_frontier = self._advance(lhs_frontier, lhs_parents)
            meeting = self._meet(lhs_parents, rhs_parents)
            if meeting is not None:
                return self._build(lhs, rhs, meeting, lhs_parents,
                                   rhs_parents)
            rhs_frontier = self._advance(rhs_frontier, rhs_parents)
            if not lhs_frontier and not rhs_frontier:
                break
        meeting = self._meet(lhs_parents, rhs_parents)
        if meeting is not None:
            return self._build(lhs, rhs, meeting, lhs_parents, rhs_parents)
        return None

    def _advance(self, frontier: list[Term],
                 parents: dict) -> list[Term]:
        next_frontier: list[Term] = []
        for term in frontier:
            for label, successor in self._successors(term):
                if successor in parents:
                    continue
                parents[successor] = (term, label)
                next_frontier.append(successor)
                if len(parents) > self.max_frontier:
                    return next_frontier
        return next_frontier

    @staticmethod
    def _meet(lhs_parents: dict, rhs_parents: dict) -> Term | None:
        common = lhs_parents.keys() & rhs_parents.keys()
        if common:
            return min(common, key=lambda t: t.size())
        return None

    @staticmethod
    def _trace(parents: dict, node: Term) -> tuple[ProofStep, ...]:
        steps: list[ProofStep] = []
        while parents[node] is not None:
            previous, label = parents[node]
            steps.append(ProofStep(label, previous, node))
            node = previous
        steps.reverse()
        return tuple(steps)

    def _build(self, lhs: Term, rhs: Term, meeting: Term,
               lhs_parents: dict, rhs_parents: dict) -> Proof:
        return Proof(lhs, rhs, meeting,
                     self._trace(lhs_parents, meeting),
                     self._trace(rhs_parents, meeting))


def prove_rule(goal: Rule, base_rules: list[Rule],
               max_depth: int = 4) -> Proof | None:
    """Derive ``goal`` (as a pattern equation) from ``base_rules``.

    The goal's metavariables are treated as fresh constants — we prove
    the *schema*, not one instance — by proving the pattern terms
    themselves (matching binds the goal's metavariables like constants
    because they never occur in the base rules' bindings).
    """
    prover = EquationalProver(base_rules, max_depth=max_depth)
    return prover.prove(goal.lhs, goal.rhs)
