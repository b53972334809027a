"""Declarative preconditions: properties of functions and predicates.

Section 4.2 ("Expressibility") explains how KOLA avoids head routines
even for *conditional* transformations: rules may carry preconditions
such as ``injective(f)``, whose values "are determined not with code,
but with annotations and additional rules".  The example inference rule
from the paper:

    injective(f) /\\ injective(g)  ==>  injective(f o g)

This module implements that design literally:

* **annotations** — a deployment declares base facts, e.g. that the
  schema primitive ``oid`` is injective (a key);
* **inference rules** — a *data table* (not code) mapping each operator
  to how a property propagates through it: ``ALL`` children must have
  the property, ``ANY`` child suffices, the operator ``ALWAYS`` or
  ``NEVER`` has it.

The resulting :class:`AnnotationOracle` satisfies the engine's
``PropertyOracle`` protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import PreconditionError
from repro.core.terms import Term


class Propagation(enum.Enum):
    """How a property propagates through one operator."""

    ALWAYS = "always"    # the operator has the property unconditionally
    NEVER = "never"      # the operator never has it (absent annotation)
    ALL = "all"          # holds iff it holds of all function children
    ANY = "any"          # holds iff it holds of some function child


#: Property inference tables.  Keyed by property name, then operator.
#: Operators absent from a property's table default to NEVER (the safe
#: direction: a conditional rule silently not firing is sound; firing
#: wrongly is not).
INFERENCE_TABLES: dict[str, dict[str, Propagation]] = {
    # f is injective: f!x = f!y implies x = y.
    "injective": {
        "id": Propagation.ALWAYS,
        "compose": Propagation.ALL,
        "cross": Propagation.ALL,     # (f x g) injective iff both are
        "pair": Propagation.ANY,      # <f, g> injective if either side is
        "inv": Propagation.ALWAYS,    # converse of a predicate — n/a, kept NEVER by sort
    },
    # f is total on its declared domain (never raises).  Schema attribute
    # reads are total by construction; formers preserve totality.
    "total": {
        "id": Propagation.ALWAYS,
        "pi1": Propagation.ALWAYS,
        "pi2": Propagation.ALWAYS,
        "prim": Propagation.ALWAYS,
        "const_f": Propagation.ALWAYS,
        "compose": Propagation.ALL,
        "pair": Propagation.ALL,
        "cross": Propagation.ALL,
        "flat": Propagation.ALWAYS,
    },
    # f is constant: returns the same value for every input.
    "constant": {
        "const_f": Propagation.ALWAYS,
        "compose": Propagation.ANY,   # constant o anything / anything o constant
        "pair": Propagation.ALL,
        "cross": Propagation.ALL,
    },
}

#: Which child positions count as "function children" per operator, for
#: the ALL/ANY modes (predicate children do not carry function
#: properties).
_FUNCTION_CHILDREN: dict[str, tuple[int, ...]] = {
    "compose": (0, 1),
    "pair": (0, 1),
    "cross": (0, 1),
    "cond": (1, 2),
    "curry_f": (0,),
    "iterate": (1,),
    "iter": (1,),
    "join": (1,),
    "nest": (0, 1),
    "unnest": (0, 1),
    "oplus": (1,),
    "inv": (),
    "neg": (),
    "conj": (),
    "disj": (),
}


@dataclass(frozen=True)
class Annotation:
    """A declared base fact: ``property`` holds of ``term``."""

    property: str
    term: Term


class AnnotationOracle:
    """Decides precondition goals from annotations + inference tables.

    Example::

        oracle = AnnotationOracle()
        oracle.declare("injective", prim("oid"))
        oracle.holds("injective", compose(prim("oid"), id_()))  # True
    """

    def __init__(self) -> None:
        self._facts: dict[str, set[Term]] = {}

    def declare(self, property_name: str, term: Term) -> None:
        """Record a base annotation (e.g. "``ssn`` is a key")."""
        if property_name not in INFERENCE_TABLES:
            raise PreconditionError(
                f"unknown property {property_name!r}; known: "
                f"{sorted(INFERENCE_TABLES)}")
        self._facts.setdefault(property_name, set()).add(term)

    def annotations(self, property_name: str) -> frozenset[Term]:
        return frozenset(self._facts.get(property_name, ()))

    def facts(self) -> tuple[Annotation, ...]:
        """Every declared annotation.  The optimizer reads this to keep
        queries whose constants appear in a fact out of its
        parameterized plan cache."""
        return tuple(Annotation(name, term) for name in sorted(self._facts)
                     for term in self.annotations(name))

    def holds(self, property_name: str, term: Term) -> bool:
        """True when the property is established for ``term`` by an
        annotation or by the inference table (recursively)."""
        table = INFERENCE_TABLES.get(property_name)
        if table is None:
            raise PreconditionError(f"unknown property {property_name!r}")
        if term in self._facts.get(property_name, ()):
            return True
        mode = table.get(term.op, Propagation.NEVER)
        if mode is Propagation.ALWAYS:
            return True
        if mode is Propagation.NEVER:
            return False
        children = [term.args[i]
                    for i in _FUNCTION_CHILDREN.get(term.op, ())]
        if not children:
            return False
        if mode is Propagation.ALL:
            return all(self.holds(property_name, child)
                       for child in children)
        return any(self.holds(property_name, child) for child in children)
