"""Equivalence property: the default engine is observationally
identical to the reference linear engine.

The optimizations in :mod:`repro.rewrite.engine` — compiled rule
dispatch, subtree pruning by contained-operator sets, incremental
resume after each rewrite and the normal-form cache — are pure
dispatch/traversal shortcuts.  They must never change *which*
rule fires *where*: for every input term, rule group, and strategy the
two engines must produce the same normal form, the same derivation step
sequence (rules, forms, and paths), and the same per-rule fire counts.

The corpus is shared with :mod:`tests.test_fuzz_derivations`: the
paper's example queries plus the hidden-join family at several depths —
exactly the terms the optimizer pipeline sees.
"""

from __future__ import annotations

import pytest

from repro.rewrite.engine import Engine
from repro.rewrite.trace import Derivation

from tests.test_fuzz_derivations import _QUERIES

# Groups that loop (structural rules) are capped by max_steps; the
# equivalence must hold on capped runs too, so a modest cap keeps the
# product corpus x groups x strategies fast.
_MAX_STEPS = 40

_GROUPS = ["simplify", "fig4", "fig5", "fig8", "companions", "structural"]


def _run(engine: Engine, term, rules, strategy):
    derivation = Derivation("equiv")
    engine.stats.reset()
    result = engine.normalize_result(term, rules, max_steps=_MAX_STEPS,
                                     strategy=strategy,
                                     derivation=derivation)
    steps = [(step.rule.name, step.before, step.after, step.path)
             for step in derivation.steps]
    return result, steps, dict(engine.stats.per_rule)


@pytest.mark.parametrize("strategy", ["topdown", "bottomup"])
@pytest.mark.parametrize("group", _GROUPS)
def test_indexed_engine_matches_linear_reference(group, strategy,
                                                 rulebase):
    """Same results, same derivations, same fire counts — per group,
    per strategy, across the whole fuzz corpus."""
    rules = rulebase.group(group)
    fast = Engine()                                  # compiled
    slow = Engine(indexed=False)                     # reference linear

    for query in _QUERIES:
        fast_result, fast_steps, fast_counts = _run(fast, query, rules,
                                                    strategy)
        slow_result, slow_steps, slow_counts = _run(slow, query, rules,
                                                    strategy)
        # interning makes "same term" an identity check
        assert fast_result.term is slow_result.term
        assert fast_result.steps_used == slow_result.steps_used
        assert fast_result.reached_fixpoint == slow_result.reached_fixpoint
        assert fast_steps == slow_steps
        assert fast_counts == slow_counts


def test_indexed_engine_never_attempts_more_matches(rulebase):
    """The index only ever *removes* match attempts."""
    rules = rulebase.group("simplify")
    fast = Engine()
    slow = Engine(indexed=False)
    fast.stats.reset()
    slow.stats.reset()
    for query in _QUERIES:
        fast.normalize(query, rules, max_steps=_MAX_STEPS)
        slow.normalize(query, rules, max_steps=_MAX_STEPS)
    assert fast.stats.match_attempts <= slow.stats.match_attempts
    assert fast.stats.rewrites == slow.stats.rewrites

