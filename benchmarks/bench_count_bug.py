"""Experiment C5 — the "count bug" (Section 1.2, Optimizer Correctness).

    "The famous 'count bug' of [24] illustrates how difficult it can be
    to formulate correct transformations."

This benchmark regenerates the bug as a *decidable* artifact: the buggy
COUNT unnesting and its NULL-free-nest fix are both KOLA rules, the
verifier refutes the former and passes the latter, and the two plans are
executed side by side so the missing count-0 rows are visible.
"""

from __future__ import annotations

from repro.core import constructors as C
from repro.core.eval import eval_obj
from repro.core.parser import parse_pred
from repro.larch.checker import RuleChecker
from repro.rewrite.pattern import instantiate
from repro.rules.refutable import COUNT_BUG
from repro.rules.registry import standard_rulebase
from benchmarks.conftest import banner, sized_db

COUNT_UNNEST = standard_rulebase().get("count-unnest")


def _bindings():
    return {"p": parse_pred("gt @ <age o pi2, age o pi1>"),
            "A": C.setname("P"), "B": C.setname("P")}


def test_count_bug_report(benchmark):
    banner("C5 — the count bug, stated as rules and decided by the "
           "verifier")
    checker = RuleChecker(trials=300)
    good = checker.check(COUNT_UNNEST)
    bad = checker.check(COUNT_BUG)
    assert good.passed and not bad.passed
    print(f"correct unnesting (NULL-free nest): PASS "
          f"({good.trials} trials)")
    print(f"Kim's unnesting (group the join)  : REFUTED after "
          f"{bad.trials} trials")
    print(bad.counterexample.render())
    print()

    database = sized_db(60)
    bindings = _bindings()
    nested = eval_obj(instantiate(COUNT_BUG.lhs, bindings), database)
    correct = eval_obj(instantiate(COUNT_UNNEST.rhs, bindings), database)
    buggy = eval_obj(instantiate(COUNT_BUG.rhs, bindings), database)
    missing = nested - buggy
    assert correct == nested and buggy != nested
    print(f"on |P| = 60: correct plan returns {len(correct)} rows, "
          f"buggy plan {len(buggy)} — the {len(missing)} zero-count "
          "row(s) silently vanish")
    benchmark(eval_obj, instantiate(COUNT_UNNEST.rhs, bindings), database)


def test_correct_plan_cost(benchmark):
    database = sized_db(60)
    query = instantiate(COUNT_UNNEST.rhs, _bindings())
    result = benchmark(eval_obj, query, database)
    assert len(result) == 60


def test_nested_form_cost(benchmark):
    database = sized_db(60)
    query = instantiate(COUNT_UNNEST.lhs, _bindings())
    result = benchmark(eval_obj, query, database)
    assert len(result) == 60


def test_refutation_cost(benchmark):
    checker = RuleChecker(trials=300)

    def refute():
        report = checker.check(COUNT_BUG)
        assert not report.passed
        return report.trials

    benchmark(refute)
