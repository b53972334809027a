"""Properties of ``Engine.successors``: the one-step rewrite frontier.

The saturation driver and the equational prover both consume
``successors`` as "every (rule, position) rewrite, exactly once, in
rule-major order".  These tests pin that contract down — and pin it
down *identically* across both dispatch tiers (linear scan, compiled
discrimination tree), so a dispatch optimization can never silently
drop, duplicate, or reorder a rewrite.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.translate.aqua_to_kola import translate_query
from repro.workloads.hidden_join import HiddenJoinSpec, hidden_join_family
from repro.workloads.queries import paper_queries


def _query_pool():
    queries = paper_queries()
    pool = [queries.kg1, queries.kg2, queries.k3, queries.k4,
            queries.t1k_source, queries.t2k_source]
    for depth in (1, 2):
        pool.append(translate_query(hidden_join_family(
            HiddenJoinSpec(depth=depth))))
    return [canon(term) for term in pool]


_QUERIES = _query_pool()

#: The two dispatch tiers, reference first.  Fresh engines per call
#: would also work; the tiers hold no per-term state beyond the
#: normal-form cache, which ``successors`` does not consult.
_TIERS = {
    "linear": Engine(indexed=False),
    "compiled": Engine(),
}


def _rule_pool(rulebase):
    pool = (rulebase.group("simplify") + rulebase.group("fig8")
            + rulebase.group("fig4") + rulebase.group("fig5"))
    unique = {one_rule.name: one_rule for one_rule in pool}
    return list(unique.values())


def _signature(results):
    """The comparable footprint of a successor list: rule firings in
    order, with their positions and produced terms."""
    return [(res.rule.name, res.path, res.term) for res in results]


@given(seed=st.integers(0, 50_000))
@settings(max_examples=30, deadline=None)
def test_each_rule_position_rewrite_exactly_once(seed, rulebase):
    """No (rule, position) pair may appear twice: ``successors`` is a
    set of distinct single-step rewrites, not a multiset."""
    rng = random.Random(seed)
    term = rng.choice(_QUERIES)
    rules = rng.sample(_rule_pool(rulebase),
                       k=rng.randint(1, 20))
    results = _TIERS["compiled"].successors(term, rules)
    keys = [(res.rule.name, res.path) for res in results]
    assert len(keys) == len(set(keys))


@given(seed=st.integers(0, 50_000))
@settings(max_examples=30, deadline=None)
def test_rule_major_order(seed, rulebase):
    """Results arrive grouped by rule, in the pool's priority order:
    every rewrite of rule *i* precedes every rewrite of rule *j > i*."""
    rng = random.Random(seed)
    term = rng.choice(_QUERIES)
    rules = rng.sample(_rule_pool(rulebase), k=rng.randint(2, 20))
    position = {one_rule.name: i for i, one_rule in enumerate(rules)}
    for tier in _TIERS.values():
        results = tier.successors(term, rules)
        order = [position[res.rule.name] for res in results]
        assert order == sorted(order), \
            f"not rule-major: {[res.rule.name for res in results]}"


@given(seed=st.integers(0, 50_000))
@settings(max_examples=30, deadline=None)
def test_dispatch_tiers_agree(seed, rulebase):
    """Linear scan and compiled dispatch must return the *same*
    rewrites — same rules, same positions, same produced terms, same
    order."""
    rng = random.Random(seed)
    term = rng.choice(_QUERIES)
    rules = rng.sample(_rule_pool(rulebase), k=rng.randint(1, 20))
    footprints = {name: _signature(tier.successors(term, rules))
                  for name, tier in _TIERS.items()}
    assert footprints["linear"] == footprints["compiled"]


def test_successors_results_are_canonical(rulebase):
    """Every produced term is already in canonical form — callers feed
    them straight back into matching without re-canonicalizing."""
    for term in _QUERIES[:3]:
        for res in _TIERS["compiled"].successors(
                term, rulebase.group_compiled("saturate")):
            assert res.term == canon(res.term)


def test_successors_of_whole_group_nonempty(rulebase):
    """Sanity: the saturate pool rewrites the garage query somewhere."""
    queries = paper_queries()
    results = _TIERS["compiled"].successors(
        canon(queries.kg1), rulebase.group_compiled("saturate"))
    assert results
