"""Experiment C3 — Section 1.2's verified rule pool.

The authors proved 500+ rules with the Larch Prover.  This benchmark
regenerates the reproducible counterpart: every shipped rule checked by
the Larch-substitute model checker, with throughput measured, plus the
refutation of the paper's literal rule 7 (the checker earning its keep).
"""

from __future__ import annotations

import pytest

from repro.larch.checker import RuleChecker
from repro.larch.report import pool_report, render_report
from repro.rules.refutable import PAPER_LITERAL_RULE_7
from benchmarks.conftest import banner


def test_c3_report(benchmark, rulebase):
    banner("C3 — the verified rule pool (Larch-prover substitute)")
    reports = pool_report(rulebase, trials=30)
    text = render_report(reports)
    print(text)
    failures = [r for r in reports if not r.passed]
    assert not failures
    print()
    print(f"pool size: {len(rulebase)} rules "
          "(paper: 500+ LP-proved rules; our pool is smaller but every "
          "rule is machine-checked)")

    checker = RuleChecker(trials=30)
    benchmark(checker.check, rulebase.get("r11"))


def test_check_throughput_simple_rule(benchmark, rulebase):
    checker = RuleChecker(trials=50)
    report = benchmark(checker.check, rulebase.get("r1"))
    assert report.passed


def test_check_throughput_query_rule(benchmark, rulebase):
    checker = RuleChecker(trials=50)
    report = benchmark(checker.check, rulebase.get("r20"))
    assert report.passed


def test_check_throughput_conditional_rule(benchmark, rulebase):
    checker = RuleChecker(trials=50)
    report = benchmark(checker.check, rulebase.get("map-intersect-inj"))
    assert report.passed


def test_refutation_speed(benchmark, rulebase):
    """How quickly an unsound rule (the paper's literal rule 7) is
    refuted."""
    checker = RuleChecker(trials=500)

    def refute():
        report = checker.check(PAPER_LITERAL_RULE_7)
        assert not report.passed
        return report.trials

    trials_needed = benchmark(refute)
    print(f"\nliteral rule 7 refuted after {trials_needed} trial(s)")


def test_whole_pool_cost(benchmark, rulebase):
    """Wall-clock to check the entire pool at smoke trials."""
    def check_pool():
        reports = pool_report(rulebase, trials=5)
        assert all(r.passed for r in reports)
        return len(reports)

    count = benchmark.pedantic(check_pool, iterations=1, rounds=3)
    assert count == len(rulebase)


def _pool_workload():
    """Terms the optimizer pipeline actually normalizes."""
    from repro.translate.aqua_to_kola import translate_query
    from repro.workloads.hidden_join import HiddenJoinSpec, \
        hidden_join_family
    from repro.workloads.queries import paper_queries

    queries = paper_queries()
    return [queries.kg1, queries.k4, queries.t1k_source,
            translate_query(hidden_join_family(HiddenJoinSpec(depth=3)))]


def _normalize_all(engine, workload, rules):
    # normalize_result: the full pool contains structural (looping)
    # rules, so hitting max_steps is expected rather than warned about
    engine.stats.reset()
    results = [engine.normalize_result(query, rules, max_steps=200).term
               for query in workload]
    return results, engine.stats.match_attempts


def test_dispatch_scales_with_pool_size(rulebase):
    """Section 4.2's scaling concern: a usable rule system must stay
    fast as the proved pool grows toward 500 rules.  With linear
    dispatch, match attempts grow with pool size even though the extra
    rules never fire on this workload; the default engine's compiled
    discrimination-tree dispatch keeps the per-node candidate set
    near-constant.

    Acceptance: at the full pool, compiled ``match_attempts`` must be
    at least 3x below linear — with identical rewrite results.
    """
    from repro.rewrite.engine import Engine

    banner("C3b — dispatch cost vs rule-pool size (linear vs compiled)")
    workload = _pool_workload()
    simplify = rulebase.group("simplify")
    padding = [r for r in rulebase.all_rules() if r not in simplify]
    full_pool = simplify + padding

    print(f"{'pool size':>10} {'linear attempts':>16} "
          f"{'compiled attempts':>18} {'ratio':>7}")
    final_ratio = None
    for size in (len(simplify), len(simplify) + len(padding) // 2,
                 len(full_pool)):
        rules = full_pool[:size]
        linear = Engine(indexed=False)
        compiled = Engine()
        linear_results, linear_attempts = _normalize_all(
            linear, workload, rules)
        compiled_results, compiled_attempts = _normalize_all(
            compiled, workload, rules)
        # equivalence: interning makes identity the strongest check
        for fast, slow in zip(compiled_results, linear_results):
            assert fast is slow
        assert linear.stats.per_rule == compiled.stats.per_rule
        final_ratio = linear_attempts / max(1, compiled_attempts)
        print(f"{size:>10} {linear_attempts:>16} "
              f"{compiled_attempts:>18} {final_ratio:>6.1f}x")

    assert final_ratio >= 3.0, (
        f"compiled dispatch saved only {final_ratio:.1f}x at the full "
        f"pool (need >= 3x)")
