"""The five-step hidden-join untangling strategy (Section 4.1) as COKO
rule blocks.

    1. **Break up** complex ``iterate`` into a chain of smaller ones
       (rules 17/17b, cleanup 18, 2, 4).
    2. **Bottom out** the parse tree with a nest of a join (rule 19).
    3. **Pull up nest** to the top of the query tree (rules 20, 21).
    4. **Pull up unnest** below the nest (rules 22, 23).
    5. **Absorb into join** the iterate stages above it (rule 24), then
       normalize pair spellings to the paper's cross form.

Applied to the Garage Query KG1 this pipeline produces exactly the
paper's intermediate forms KG1a/KG1b/KG1c and the final KG2 of Figure 3
(asserted in the integration tests).  On queries that are *not* hidden
joins, the early blocks still simplify the query — the paper's argument
for gradual rules over monolithic ones — and the later blocks are
no-ops.
"""

from __future__ import annotations

from functools import cache

from repro.core.terms import Term
from repro.coko.blocks import RuleBlock, run_blocks
from repro.coko.strategy import Exhaust, Seq
from repro.rewrite.engine import Engine
from repro.rewrite.rulebase import RuleBase
from repro.rewrite.trace import Derivation

_CLEANUP = "group:cleanup"


@cache
def hidden_join_blocks() -> tuple[RuleBlock, ...]:
    """The five rule blocks of the untangling strategy, in order.

    Built once per process and shared, so treat them as read-only; the
    rule base caches each block's compiled dispatch per generation."""
    return (
        RuleBlock(
            name="break-up",
            uses=("r17", "r17b", _CLEANUP),
            strategy=Exhaust("r17", "r17b", _CLEANUP),
            description="Step 1: break the monolithic iterate into a "
                        "composition chain of single-level iterates"),
        RuleBlock(
            name="bottom-out",
            uses=("r19", _CLEANUP),
            strategy=Exhaust("r19", _CLEANUP),
            description="Step 2: replace the bottom iterate(Kp(T), "
                        "<id, Kf(B)>) ! A with a nest of a join over "
                        "[A, B]"),
        RuleBlock(
            name="pull-up-nest",
            uses=("r20", "r21", _CLEANUP),
            strategy=Exhaust("r20", "r21", _CLEANUP),
            description="Step 3: commute nest upward past every iterate "
                        "and flatten level"),
        RuleBlock(
            name="pull-up-unnest",
            uses=("r22", "r22b", "r23", _CLEANUP),
            strategy=Exhaust("r22", "r22b", "r23", _CLEANUP),
            description="Step 4: float unnest stages up to just below "
                        "the nest"),
        RuleBlock(
            name="absorb-join",
            uses=("r24", _CLEANUP, "group:pair-to-cross"),
            strategy=Seq(Exhaust("r24", _CLEANUP),
                         Exhaust(_CLEANUP, "group:pair-to-cross")),
            description="Step 5: fold the remaining iterate stages into "
                        "the join's predicate and function"),
    )


def untangle(query: Term, rulebase: RuleBase,
             engine: Engine | None = None,
             title: str = "hidden-join untangling"
             ) -> tuple[Term, Derivation]:
    """Run the whole five-step strategy; return the result + derivation."""
    derivation = Derivation(title)
    result = run_blocks(hidden_join_blocks(), query, rulebase,
                        engine or Engine(), derivation)
    return result, derivation
