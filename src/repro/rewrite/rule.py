"""Rule objects: declarative rewrite rules with optional preconditions.

A rule is a pair of same-sorted patterns ``lhs => rhs`` plus metadata:
the paper's rule number (1-24 for the figures), a free-form name,
citation, whether the rule is *bidirectional* (the paper applies rules 2,
12 and 14 right-to-left, writing ``i^-1``), and a tuple of
*preconditions*.

Preconditions are the paper's declarative alternative to head routines
(Section 4.2): named properties of bound subterms, e.g.
``injective($f)``, discharged not by code but by annotations and
inference rules (:mod:`repro.rules.preconditions`).  A rule with
preconditions only fires when every goal is established by the active
:class:`PropertyOracle`.

Construction validates the rule:

* both sides parse/are terms of the same sort;
* every RHS metavariable appears in the LHS (so instantiation is total);
* the two sides admit a common type (:func:`check_rule_types`) — a
  static guard that catches most authoring mistakes;
* precondition goals refer only to LHS metavariables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.core.errors import PreconditionError, RewriteError
from repro.core.parser import parse
from repro.core.terms import Sort, Term, sort_of
from repro.core.types import (Inferencer, alpha_equivalent,
                              check_rule_types)
from repro.rewrite.pattern import canon, metavar_names


@dataclass(frozen=True)
class Goal:
    """A precondition goal: ``property`` must hold of the term bound to
    metavariable ``var`` (e.g. ``Goal("injective", "f")``)."""

    property: str
    var: str

    def __repr__(self) -> str:
        return f"{self.property}(${self.var})"


class PropertyOracle(Protocol):
    """Anything that can decide precondition goals on bound terms.

    An oracle may also list the facts it decides from, as a ``facts()``
    method returning objects with a ``term`` (as
    :meth:`~repro.rules.preconditions.AnnotationOracle.facts` does).
    The optimizer serves parameterized (constant-abstracted) plans only
    under an oracle that does: for any other, a precondition could turn
    on any constant, so every query is keyed exactly.
    """

    def holds(self, property_name: str, term: Term) -> bool:
        """True when ``property_name`` is established for ``term``."""
        ...


class _NoOracle:
    """Default oracle: no property is ever established, so conditional
    rules never fire unless the caller supplies a real oracle."""

    def holds(self, property_name: str, term: Term) -> bool:
        return False

    def facts(self) -> tuple:
        return ()


NO_ORACLE = _NoOracle()


@dataclass(frozen=True)
class Rule:
    """One declarative rewrite rule.

    Attributes:
        name: short unique identifier (``"r11"``, ``"pair-eta"``...).
        lhs/rhs: canonical pattern terms of equal sort.
        number: the paper's rule number when the rule comes from
            Figures 4/5/8, else ``None``.
        bidirectional: whether the reversed rule is also sound and
            usable (true for all pure equations; false for rules whose
            reverse loses information or loops a normalizer).
        preconditions: goals that must hold for the rule to fire.
        citation: where the rule comes from (figure, or "extended pool").
        note: free-form remark (fidelity caveats etc.).
        allow_type_narrowing: opt out of the forward type-safety guard.
            Only for deliberately-unsound negative-example rules that
            exist to exercise the verifier; never for shipped rules.
    """

    name: str
    lhs: Term
    rhs: Term
    number: int | None = None
    bidirectional: bool = True
    preconditions: tuple[Goal, ...] = ()
    citation: str = ""
    note: str = ""
    allow_type_narrowing: bool = False

    def __post_init__(self) -> None:
        lhs_sort = sort_of(self.lhs)
        rhs_sort = sort_of(self.rhs)
        if Sort.ANY not in (lhs_sort, rhs_sort) and lhs_sort != rhs_sort:
            raise RewriteError(
                f"rule {self.name}: sides have different sorts "
                f"({lhs_sort.value} vs {rhs_sort.value})")
        missing = metavar_names(self.rhs) - metavar_names(self.lhs)
        if missing:
            raise RewriteError(
                f"rule {self.name}: RHS metavariables {sorted(missing)} "
                "do not appear in the LHS")
        lhs_vars = metavar_names(self.lhs)
        for goal in self.preconditions:
            if goal.var not in lhs_vars:
                raise PreconditionError(
                    f"rule {self.name}: precondition {goal!r} refers to "
                    "a variable absent from the LHS")
        joint = check_rule_types(self.lhs, self.rhs)

        # Type-safety of untyped application (found by derivation
        # fuzzing): a rewrite may not *narrow* the type at its position.
        # Forward application is safe when the LHS's principal type
        # alone already equals the joint rule type; likewise for the
        # reverse with the RHS.  (Matching on the more-specific side
        # guarantees the context fits; matching on a more-general side
        # — e.g. rewriting a polymorphic `id` into `<pi1, pi2>` via the
        # reverse of rule 4 — can produce ill-typed terms.)
        def _alone(term: Term):
            inferencer = Inferencer()
            return inferencer.resolve(inferencer.infer(term))

        object.__setattr__(self, "forward_type_safe",
                           alpha_equivalent(_alone(self.lhs), joint))
        object.__setattr__(self, "reverse_type_safe",
                           alpha_equivalent(_alone(self.rhs), joint))
        object.__setattr__(self, "needs_typed_apply", False)
        if not self.forward_type_safe and not self.allow_type_narrowing:
            if self.lhs.is_ground():
                # No metavariables to blame: any occurrence the LHS
                # matches can be type-narrowed by the rewrite (e.g. the
                # reverse of rule 4 turning `id` into `<pi1, pi2>`).
                raise RewriteError(
                    f"rule {self.name}: the LHS is more polymorphic "
                    "than the rule's joint type; untyped application "
                    "could narrow the type at the rewrite position")
            # The narrowing flows through metavariable bindings (e.g.
            # rule 19's $B must be set-valued).  The rule stays usable;
            # the engine type-checks each instantiation before applying
            # (the typed-matching discipline the paper gets implicitly
            # from its typed algebra).
            object.__setattr__(self, "needs_typed_apply", True)

    def reversed(self) -> "Rule":
        """The right-to-left reading of this rule (the paper's ``i^-1``).

        Raises:
            RewriteError: the rule is marked unidirectional, or the LHS
                mentions variables the RHS lacks.
        """
        if not self.bidirectional:
            raise RewriteError(f"rule {self.name} is not bidirectional")
        missing = metavar_names(self.lhs) - metavar_names(self.rhs)
        if missing:
            raise RewriteError(
                f"rule {self.name} cannot be reversed: variables "
                f"{sorted(missing)} appear only in the LHS")
        if not self.reverse_type_safe:
            raise RewriteError(
                f"rule {self.name} cannot be reversed: its RHS is more "
                "polymorphic than the rule's type, so the reversed "
                "rewrite could narrow the type at its position (e.g. "
                "rewriting id at a non-pair type into <pi1, pi2>)")
        return Rule(name=f"{self.name}-rev", lhs=self.rhs, rhs=self.lhs,
                    number=self.number, bidirectional=True,
                    preconditions=self.preconditions,
                    citation=self.citation,
                    note=f"reverse of {self.name}")

    def check_preconditions(self, bindings: dict[str, Term],
                            oracle: PropertyOracle) -> bool:
        """Decide whether every precondition goal holds under ``bindings``."""
        for goal in self.preconditions:
            bound = bindings.get(goal.var)
            if bound is None or not oracle.holds(goal.property, bound):
                return False
        return True

    @property
    def display_name(self) -> str:
        if self.number is not None:
            return f"rule {self.number} ({self.name})"
        return self.name

    def __repr__(self) -> str:
        from repro.core.pretty import pretty
        arrow = "<=>" if self.bidirectional else "=>"
        conditions = ""
        if self.preconditions:
            conditions = " :: " + ", ".join(map(repr, self.preconditions))
        return (f"Rule[{self.name}]{conditions} "
                f"{pretty(self.lhs)} {arrow} {pretty(self.rhs)}")


def rule(name: str, lhs: str | Term, rhs: str | Term, *,
         sort: Sort = Sort.FUN, number: int | None = None,
         bidirectional: bool = True,
         preconditions: tuple[Goal, ...] = (),
         citation: str = "", note: str = "",
         allow_type_narrowing: bool = False) -> Rule:
    """Build a rule, parsing string sides in the KOLA text syntax.

    ``sort`` selects the parser production for string inputs (most rules
    relate functions; predicate rules pass ``Sort.PRED``; invocation
    rules like the paper's rule 19 pass ``Sort.OBJ``).
    """
    lhs_term = parse(lhs, sort) if isinstance(lhs, str) else lhs
    rhs_term = parse(rhs, sort) if isinstance(rhs, str) else rhs
    return Rule(name=name, lhs=canon(lhs_term), rhs=canon(rhs_term),
                number=number, bidirectional=bidirectional,
                preconditions=preconditions, citation=citation, note=note,
                allow_type_narrowing=allow_type_narrowing)
