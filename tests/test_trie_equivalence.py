"""Equivalence property: compiled (discrimination-tree) dispatch is
observationally identical to the linear reference engine.

The compiled matcher (:mod:`repro.rewrite.discrimination`) must be a
pure dispatch shortcut: for every input term, rule group and strategy
it produces the same normal forms, the same derivation step sequences,
the same per-rule fire counts — and only ever *removes* match attempts
without reordering the survivors.  The per-group, per-strategy
comparison of results, derivations and fire counts over the fuzz
corpus is :mod:`tests.test_engine_equivalence`'s; this module checks
the attempt order over that corpus and the Figure 4/5/8 derivation
pipelines (the T1K/T2K blocks and the hidden-join untangler).

A retrieval-level oracle additionally checks the trie against
:func:`repro.rewrite.match.match` rule by rule over every subterm of
the corpus: complete trie hits must carry exactly the bindings
``match`` computes, and every direct match must be retrieved.
"""

from __future__ import annotations

from repro.coko.hidden_join import hidden_join_blocks
from repro.coko.stdblocks import block_t1k, block_t2k
from repro.rewrite.discrimination import compiled_ruleset
from repro.rewrite.engine import Engine
from repro.rewrite.match import match
from repro.rewrite.pattern import canon
from repro.rewrite.ruleindex import rule_index
from repro.rewrite.trace import Derivation
from repro.workloads.queries import paper_queries

from tests.test_fuzz_derivations import _QUERIES

_MAX_STEPS = 40

_GROUPS = ["simplify", "fig4", "fig5", "fig8", "companions", "structural"]


def _is_subsequence(shorter: list, longer: list) -> bool:
    it = iter(longer)
    return all(item in it for item in shorter)


def _subterms(term):
    seen = set()
    stack = [canon(term)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.args)
    return seen


def test_compiled_attempt_order_is_a_subsequence(rulebase):
    """Compiled dispatch only *removes* match attempts; the attempts it
    does make happen in exactly the linear reference engine's order."""
    for group in _GROUPS:
        rules = rulebase.group(group)
        compiled = Engine()
        linear = Engine(indexed=False)
        compiled.stats.attempt_log = []
        linear.stats.attempt_log = []
        for query in _QUERIES:
            compiled.stats.reset()
            linear.stats.reset()
            compiled.normalize_result(query, rules, max_steps=_MAX_STEPS)
            linear.normalize_result(query, rules, max_steps=_MAX_STEPS)
            assert len(compiled.stats.attempt_log) \
                <= len(linear.stats.attempt_log)
            assert _is_subsequence(compiled.stats.attempt_log,
                                   linear.stats.attempt_log), (
                f"attempt order diverged on group {group!r}")


def _run_figure_pipeline(engine, rulebase):
    """The Figure 4 blocks (T1K, T2K) and the Figure 8 hidden-join
    untangler, all through one engine, recording every step."""
    queries = paper_queries()
    derivation = Derivation("figures")
    outputs = [
        block_t1k().transform(queries.t1k_source, rulebase, engine,
                              derivation),
        block_t2k().transform(queries.t2k_source, rulebase, engine,
                              derivation),
    ]
    for query in (queries.kg1, queries.k4):
        term = engine.normalize(query, rulebase.group("simplify"),
                                derivation=derivation)
        for block in hidden_join_blocks():
            term = block.transform(term, rulebase, engine, derivation)
        outputs.append(term)
    steps = [(step.rule.name, step.before, step.after, step.path)
             for step in derivation.steps]
    return outputs, steps


def test_figure_derivations_identical(rulebase):
    """The paper's derivation pipelines replay step-for-step identically
    under compiled and linear dispatch."""
    compiled_out, compiled_steps = _run_figure_pipeline(Engine(),
                                                       rulebase)
    linear_out, linear_steps = _run_figure_pipeline(
        Engine(indexed=False), rulebase)
    for fast, slow in zip(compiled_out, linear_out):
        assert fast is slow
    assert compiled_steps == linear_steps


def test_trie_retrieval_matches_match_oracle(rulebase):
    """Retrieval-level oracle: over every subterm of the corpus and
    every rule of the full pool, the trie's complete hits carry exactly
    the bindings ``match`` computes, and no direct match is missed."""
    rules = tuple(rulebase.all_rules())
    compiled = compiled_ruleset(rule_index(rules))
    nodes = set()
    engine = Engine()
    for query in _QUERIES:
        nodes |= _subterms(query)
        # every intermediate form of the derivations too — the terms
        # dispatch actually sees mid-rewrite
        for group in ("simplify", "fig4", "fig8"):
            derivation = Derivation("oracle")
            engine.normalize_result(query, rulebase.group(group),
                                    max_steps=_MAX_STEPS,
                                    derivation=derivation)
            for step in derivation.steps:
                nodes |= _subterms(step.after)
    checked = 0
    for node in nodes:
        hits = {position: bindings
                for position, _, bindings in compiled.retrieve(node)}
        for position, one_rule in enumerate(compiled.rules):
            expected = match(one_rule.lhs, node)
            if expected is not None:
                assert position in hits, (
                    f"trie missed rule {one_rule.name} on {node!r}")
                got = hits[position]
                # None marks an incomplete candidate the engine
                # completes via match() — any bindings are acceptable.
                assert got is None or got == expected
                checked += 1
            elif position in hits:
                # A retrieval the oracle rejects must be incomplete
                # (the match() fallback then rejects it too).
                assert hits[position] is None
    assert checked > 50  # the corpus genuinely exercises the trie


def test_nf_cache_is_transparent(rulebase):
    """A normal-form cache hit replays the same result, derivation and
    fire counts as the original run."""
    rules = rulebase.group_compiled("simplify")
    engine = Engine()
    for query in _QUERIES:
        engine.stats.reset()
        first_derivation = Derivation("first")
        first = engine.normalize_result(query, rules,
                                        max_steps=_MAX_STEPS,
                                        derivation=first_derivation)
        first_counts = dict(engine.stats.per_rule)

        engine.stats.reset()
        second_derivation = Derivation("second")
        second = engine.normalize_result(query, rules,
                                         max_steps=_MAX_STEPS,
                                         derivation=second_derivation)
        if first.reached_fixpoint:
            assert engine.stats.nf_cache_hits == 1
        assert second.term is first.term
        assert second.steps_used == first.steps_used
        assert second.reached_fixpoint == first.reached_fixpoint
        assert dict(engine.stats.per_rule) == first_counts
        assert [(s.rule.name, s.before, s.after, s.path)
                for s in second_derivation.steps] \
            == [(s.rule.name, s.before, s.after, s.path)
                for s in first_derivation.steps]


def test_nf_cache_invalidated_by_group_generation(rulebase):
    """Mutating a group recompiles it under a fresh generation, so
    cached normal forms keyed on the old generation can never be
    served for the new pool."""
    from repro.rewrite.rulebase import RuleBase

    base = RuleBase()
    for one_rule in rulebase.group("simplify"):
        base.add(one_rule, ["g"])
    before = base.group_compiled("g")
    generation_before = base.group_generation("g")

    engine = Engine()
    query = _QUERIES[0]
    engine.normalize_result(query, base.group_compiled("g"),
                            max_steps=_MAX_STEPS)
    assert engine.stats.nf_cache_misses == 1

    extra = rulebase.group("structural")[0]
    base.add(extra, ["g"])
    after = base.group_compiled("g")
    assert base.group_generation("g") > generation_before
    assert after is not before
    assert after.generation != before.generation

    engine.normalize_result(query, base.group_compiled("g"),
                            max_steps=_MAX_STEPS)
    # the second run keyed on the new generation: miss, not stale hit
    assert engine.stats.nf_cache_hits == 0
    assert engine.stats.nf_cache_misses == 2


def test_prover_successors_order_preserved(rulebase):
    """The engine's pooled successor enumeration returns exactly the
    per-rule ``rewrite_everywhere`` results, in rule-major order."""
    rules = rulebase.group("fig4")
    compiled = Engine()
    reference = Engine(indexed=False)
    for query in _QUERIES:
        pooled = compiled.successors(query, tuple(rules))
        per_rule = []
        for one_rule in rules:
            per_rule.extend(reference.rewrite_everywhere(query, one_rule))
        assert [(r.rule.name, r.term, r.path) for r in pooled] \
            == [(r.rule.name, r.term, r.path) for r in per_rule]
