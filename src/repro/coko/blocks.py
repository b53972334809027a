"""Rule blocks: named conceptual transformations.

The paper: rule blocks are "transformations that are small enough to be
thought of as individual transformations, but too complex to be
expressed with a single rule" — e.g. "push selects past joins", "convert
predicates to CNF", or each step of the hidden-join strategy.

A :class:`RuleBlock` bundles a strategy with the names of the rules it
uses (for documentation and auditing: every rule a block can fire is
declared up front, so a block's correctness reduces to its rules').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.terms import Term
from repro.coko.strategy import Context, Strategy
from repro.rewrite.engine import Engine
from repro.rewrite.rulebase import RuleBase
from repro.rewrite.trace import Derivation


@dataclass(frozen=True)
class RuleBlock:
    """A named transformation: rules + firing strategy."""

    name: str
    uses: tuple[str, ...]
    strategy: Strategy
    description: str = ""

    def transform(self, term: Term, rulebase: RuleBase,
                  engine: Engine | None = None,
                  derivation: Derivation | None = None) -> Term:
        """Run the block's strategy on ``term``."""
        ctx = Context(engine or Engine(), rulebase, derivation)
        return self.strategy.run(term, ctx)

    def rules(self, rulebase: RuleBase):
        """The Rule objects this block declares (expanding groups)."""
        return rulebase.resolve(self.uses)


def run_blocks(blocks: Sequence[RuleBlock], term: Term, rulebase: RuleBase,
               engine: Engine | None = None,
               derivation: Derivation | None = None) -> Term:
    """Run a pipeline of blocks in order."""
    engine = engine or Engine()
    for block in blocks:
        term = block.transform(term, rulebase, engine, derivation)
    return term
