"""The differential oracle: every optimizer configuration must agree
with direct evaluation on generated queries, and — just as important —
the oracle must actually *catch* a broken optimizer.  The mutation
tests strip the precondition guard off ``count-map-inj`` and assert the
resulting unsound rewrite is detected, shrunk to a minimal term, and
reported with a replay seed."""

from __future__ import annotations

import pytest

from repro.core import constructors as C
from repro.core.parser import parse_query
from repro.core.pretty import pretty
from repro.core.terms import Term
from repro.core.types import well_typed
from repro.fuzz.generator import FuzzConfig, QueryGenerator
from repro.fuzz.oracle import (ENGINE_TIERS, DifferentialOracle,
                               bag_equal, default_matrix,
                               sequential_matrix, unguarded_rulebase)
from repro.fuzz.shrink import _positions, _replace, shrink, sort_of
from repro.schema.paper_schema import paper_schema

#: Weights that steer generation toward ``count o iterate(...)`` shapes
#: — the territory where an unguarded ``count-map-inj`` is unsound.
#: Seed 1405 under these weights produces a natural divergence.
MUTANT_WEIGHTS = {"iterate": 8.0, "count": 8.0, "const_p": 6.0,
                  "const": 3.0, "compose": 3.0, "chain": 0.5,
                  "cond": 0.3, "oplus": 0.3}
MUTANT_SEED = 1405


def test_default_matrix_covers_engines_and_searches():
    configs = default_matrix(batch_workers=2)
    names = {c.name for c in configs}
    assert len(names) == len(configs) == 7
    assert len(sequential_matrix()) == 5
    engines = {c.engine for c in configs}
    searches = {c.search for c in configs}
    assert engines == set(ENGINE_TIERS) == {"linear", "compiled"}
    assert searches == {"greedy", "saturate"}
    assert any(c.batch for c in configs)
    assert {c.name for c in sequential_matrix()} <= names


def test_bag_equal_is_type_sensitive():
    from repro.core.bags import KBag
    from repro.core.lists import KList
    assert bag_equal(frozenset({1, 2}), frozenset({2, 1}))
    assert bag_equal(KBag.of([1, 1, 2]), KBag.of([2, 1, 1]))
    assert not bag_equal(KBag.of([1, 2]), frozenset({1, 2}))
    assert not bag_equal(KBag.of([1, 1]), KBag.of([1]))
    assert not bag_equal(KList([1, 2]), KList([2, 1]))


def test_matrix_agrees_on_generated_queries():
    """The acceptance property in miniature: a seeded slice of the
    generator stream through the full matrix, zero divergences.  (CI
    runs the 200-query version via ``repro.cli fuzz``.)"""
    with DifferentialOracle() as oracle:
        report = oracle.run(count=12, seed=42)
    assert report.ok, report.summary()
    assert report.queries == 12
    assert len(report.configs) >= 6
    for stats in report.per_config.values():
        assert stats.queries == 12


def test_oracle_records_per_config_stats():
    with DifferentialOracle(configs=sequential_matrix()) as oracle:
        report = oracle.run(count=5, seed=3)
    assert report.ok
    for name, stats in report.per_config.items():
        summary = stats.summary()
        assert stats.queries == 5, name
        assert stats.elapsed >= 0.0
        assert "cost" in summary


def test_oracle_time_budget_stops_early():
    with DifferentialOracle(configs=sequential_matrix()[:1]) as oracle:
        report = oracle.run(count=10_000, seed=0, seconds=0.0)
    assert report.queries <= 1


# ---------------------------------------------------------------------------
# shrinker unit tests


def test_positions_and_replace_roundtrip():
    query = parse_query("count o iterate(Kp(T), Kf(1)) ! P")
    positions = list(_positions(query))
    assert ((), query) in positions
    for path, sub in positions:
        walked = query
        for index in path:
            walked = walked.args[index]
        assert walked == sub
        assert _replace(query, path, sub) == query
    last_path, _ = positions[-1]
    assert _replace(query, last_path, C.lit(0)) != query


def test_shrink_preserves_sort_and_well_typedness():
    """Shrinking an artificial 'divergence' (query mentions join)
    yields a strictly smaller query that is still well-typed and still
    satisfies the predicate."""
    schema = paper_schema()

    def mentions_join(term: Term) -> bool:
        if term.op == "join":
            return True
        return any(mentions_join(a) for a in term.args)

    # find a join-bearing generated query to shrink
    query = None
    for seed in range(200):
        candidate = QueryGenerator(FuzzConfig(seed=seed)).query()
        if mentions_join(candidate) and candidate.size() > 10:
            query = candidate
            break
    assert query is not None
    small = shrink(query, mentions_join, schema)
    assert mentions_join(small)
    assert well_typed(small, schema)
    assert small.size() < query.size()
    assert sort_of(small) == sort_of(query)


def test_shrink_returns_input_when_not_diverging():
    query = parse_query("id ! P")
    assert shrink(query, lambda t: False, paper_schema()) == query


# ---------------------------------------------------------------------------
# mutation tests: the oracle must catch a deliberately broken rulebase


def test_unguarded_rulebase_strips_guard_and_regroups():
    from repro.rules.registry import standard_rulebase
    base = standard_rulebase()
    mutated = unguarded_rulebase("count-map-inj", base)
    [original] = [r for r in base.all_rules()
                  if r.name == "count-map-inj"]
    [mutant] = [r for r in mutated.all_rules()
                if r.name == "count-map-inj"]
    assert original.preconditions and not mutant.preconditions
    simplify = {r.name for r in mutated.group("simplify")}
    assert "count-map-inj" in simplify
    with pytest.raises(ValueError):
        unguarded_rulebase("no-such-rule")


def test_mutation_is_caught_and_shrunk_to_minimal_term():
    """Disable the injectivity guard on ``count-map-inj`` and feed the
    oracle a bloated query whose count is NOT preserved by the mapped
    function.  Every sequential config must diverge, and the shrinker
    must reduce the reproducer to the minimal guard-violating core."""
    bloated = parse_query(
        "id o count o iterate(Kp(T), Kf(1)) o iterate(Kp(T), id) ! P")
    minimal = parse_query("count o iterate(Kp(T), Kf(1)) ! P")
    with DifferentialOracle(configs=sequential_matrix(),
                            rulebase=unguarded_rulebase("count-map-inj"),
                            ) as oracle:
        divergences = oracle.check(bloated)
    assert len(divergences) == len(sequential_matrix())
    for div in divergences:
        assert not bag_equal(div.expected, div.actual)
        assert div.minimal == minimal, pretty(div.minimal)
        assert pretty(minimal) in div.report()


def test_mutation_is_found_by_generation_with_replay_seed():
    """The full loop: type-directed generation (steered weights) finds
    the unsound rewrite on its own, and the divergence carries the
    replay seed the CLI prints for reproduction."""
    fuzz_config = FuzzConfig(seed=MUTANT_SEED, weights=MUTANT_WEIGHTS)
    with DifferentialOracle(configs=sequential_matrix(),
                            rulebase=unguarded_rulebase("count-map-inj"),
                            ) as oracle:
        report = oracle.run(count=1, seed=MUTANT_SEED,
                            fuzz_config=fuzz_config)
    assert not report.ok
    div = report.divergences[0]
    assert div.seed == MUTANT_SEED
    assert f"--seed {MUTANT_SEED}" in div.replay()
    assert div.shrunk is not None
    assert well_typed(div.minimal, paper_schema())
    assert div.minimal.size() <= div.query.size()


def test_healthy_rulebase_has_no_divergence_on_mutant_seed():
    """The same steered seed is clean when the guard is in place — the
    divergence above is caused by the mutation, not the query."""
    fuzz_config = FuzzConfig(seed=MUTANT_SEED, weights=MUTANT_WEIGHTS)
    with DifferentialOracle(configs=sequential_matrix()) as oracle:
        report = oracle.run(count=1, seed=MUTANT_SEED,
                            fuzz_config=fuzz_config)
    assert report.ok, report.summary()
