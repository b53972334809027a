"""Tests for aggregates and the count-bug study (paper Section 1.2)."""

import pytest

from repro.core import constructors as C
from repro.core.bags import KBag
from repro.core.errors import EvalError
from repro.core.eval import apply_fn, eval_obj
from repro.core.parser import parse_fun, parse_obj, parse_pred
from repro.core.types import INT, infer
from repro.core.values import KPair, kset
from repro.larch.checker import RuleChecker
from repro.rewrite.pattern import instantiate
from repro.rules.refutable import (COUNT_BUG, UNSOUND_COUNT_DISTINCT,
                                   UNSOUND_SUM_DISTINCT)
from repro.rules.registry import standard_rulebase

_RULEBASE = standard_rulebase()
COUNT_UNNEST = _RULEBASE.get("count-unnest")


class TestAggregateSemantics:
    def test_count(self):
        assert apply_fn(C.count(), kset([1, 2, 3])) == 3
        assert apply_fn(C.count(), kset([])) == 0

    def test_bag_count(self):
        assert apply_fn(C.bag_count(), KBag.of([1, 1, 2])) == 3

    def test_ssum(self):
        assert apply_fn(C.ssum(), kset([1, 2, 3])) == 6
        assert apply_fn(C.ssum(), kset([])) == 0

    def test_bag_sum_counts_duplicates(self):
        assert apply_fn(C.bag_sum(), KBag.of([3, 3])) == 6
        assert apply_fn(C.ssum(), kset([3, 3])) == 3  # set collapses

    def test_plus(self):
        assert apply_fn(C.plus(), KPair(2, 3)) == 5

    def test_domain_errors(self):
        with pytest.raises(EvalError):
            apply_fn(C.ssum(), kset(["a"]))
        with pytest.raises(EvalError):
            apply_fn(C.plus(), KPair(1, "b"))

    def test_types(self):
        assert infer(parse_fun("count o iterate(Kp(T), age)")).args[1] == INT
        assert infer(parse_fun("plus o (count >< count)")).args[1] == INT

    def test_parser_round_trip(self):
        from repro.core.pretty import pretty
        term = parse_fun("plus o (count >< bag_count)")
        assert parse_fun(pretty(term)) == term


class TestAggregateRules:
    @pytest.mark.parametrize(
        "name", [r.name for r in _RULEBASE.group("aggregates")])
    def test_rule_sound(self, name):
        report = RuleChecker(trials=60).check(_RULEBASE.get(name))
        assert report.passed, report.counterexample.render()

    def test_unsound_aggregate_rules_refuted(self):
        for bad in (UNSOUND_SUM_DISTINCT, UNSOUND_COUNT_DISTINCT):
            report = RuleChecker(trials=400).check(bad)
            assert not report.passed, bad.name


class TestCountBug:
    """The paper's Section 1.2 example of why rules must be provable."""

    def _correlated_count_query(self):
        """{ [p, |{q in P : q.age > p.age}|] | p in P } — 'how many
        people are older than each person'."""
        return parse_obj(
            "iterate(Kp(T), <id, count o iter(gt @ <age o pi2, age o pi1>,"
            " pi2) o <id, Kf(P)>>) ! P")

    def test_correct_unnesting_on_data(self, tiny_db):
        bindings = {
            "p": parse_pred("gt @ <age o pi2, age o pi1>"),
            "A": C.setname("P"), "B": C.setname("P"),
        }
        lhs = instantiate(COUNT_UNNEST.lhs, bindings)
        rhs = instantiate(COUNT_UNNEST.rhs, bindings)
        assert eval_obj(lhs, tiny_db) == eval_obj(rhs, tiny_db)

    def test_buggy_unnesting_loses_rows(self, tiny_db):
        """The oldest person has zero older people — the buggy plan
        drops their row entirely."""
        bindings = {"p": parse_pred("gt @ <age o pi2, age o pi1>"),
                    "A": C.setname("P"), "B": C.setname("P")}
        correct = eval_obj(instantiate(COUNT_BUG.lhs, bindings), tiny_db)
        buggy = eval_obj(instantiate(COUNT_BUG.rhs, bindings), tiny_db)
        assert buggy != correct
        assert len(buggy) < len(correct)
        # exactly the zero-count rows are missing
        missing = correct - buggy
        assert missing and all(row.snd == 0 for row in missing)

    def test_checker_refutes_count_bug(self):
        report = RuleChecker(trials=400).check(COUNT_BUG)
        assert not report.passed
        assert report.trials < 50  # found fast

    def test_checker_verifies_correct_rule(self):
        report = RuleChecker(trials=60).check(COUNT_UNNEST)
        assert report.passed

    def test_null_free_nest_is_the_fix(self, tiny_db):
        """Spell out *why* the correct version works: nest's second
        argument restores partnerless outer elements with empty groups
        (the paper's Section 3 design)."""
        persons = tiny_db.collection("P")
        join_term = C.join(parse_pred("gt @ <age o pi2, age o pi1>"),
                           C.id_())
        joined = apply_fn(join_term, KPair(persons, persons), tiny_db)
        grouped = apply_fn(C.nest(C.pi1(), C.pi2()),
                           KPair(joined, persons), tiny_db)
        assert {pair.fst for pair in grouped} == set(persons)
