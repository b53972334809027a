"""Tests for the bag extension (Section 6): values, semantics, typing,
rules, and the deferred-duplicate-elimination block."""

import pytest

from repro.core import constructors as C
from repro.core.bags import KBag, as_bag
from repro.core.errors import EvalError, TypeInferenceError
from repro.core.eval import apply_fn, eval_obj
from repro.core.parser import parse_fun, parse_obj
from repro.core.pretty import pretty
from repro.core.types import INT, bag_t, infer, fun_t, set_t
from repro.core.values import KPair, kset
from repro.coko.stdblocks import block_defer_dupelim
from repro.larch.checker import RuleChecker
from repro.rules.refutable import (UNSOUND_BAG_FLAT_TOBAG,
                                   UNSOUND_TOBAG_DISTINCT)
from repro.rules.registry import standard_rulebase

_RULEBASE = standard_rulebase()


class TestKBag:
    def test_counts(self):
        bag = KBag.of([1, 1, 2])
        assert bag.count(1) == 2
        assert bag.count(2) == 1
        assert bag.count(3) == 0
        assert len(bag) == 3

    def test_equality_by_multiplicity(self):
        assert KBag.of([1, 1]) != KBag.of([1])
        assert KBag.of([1, 2]) == KBag.of([2, 1])

    def test_hashable(self):
        assert KBag.of([1, 1]) in {KBag.of([1, 1])}

    def test_support(self):
        assert KBag.of([1, 1, 2]).support() == kset([1, 2])

    def test_zero_counts_normalized(self):
        assert KBag({1: 0, 2: 3}) == KBag({2: 3})

    def test_negative_count_rejected(self):
        with pytest.raises(EvalError):
            KBag({1: -1})

    def test_map_merges_counts(self):
        bag = KBag.of([1, -1, 2])
        assert bag.map(abs) == KBag({1: 2, 2: 1})

    def test_additive_union(self):
        assert (KBag.of([1]).additive_union(KBag.of([1, 2]))
                == KBag.of([1, 1, 2]))

    def test_flatten(self):
        nested = KBag.of([KBag.of([1]), KBag.of([1, 2])])
        assert nested.flatten() == KBag.of([1, 1, 2])

    def test_flatten_non_bag_member(self):
        with pytest.raises(EvalError):
            KBag.of([1]).flatten()

    def test_iteration_respects_multiplicity(self):
        assert sorted(KBag.of([1, 1, 2])) == [1, 1, 2]

    def test_as_bag(self):
        with pytest.raises(EvalError, match="expected a bag"):
            as_bag(kset([1]))


class TestBagSemantics:
    def test_tobag(self):
        assert apply_fn(C.tobag(), kset([1, 2])) == KBag.of([1, 2])

    def test_distinct(self):
        assert apply_fn(C.distinct(), KBag.of([1, 1, 2])) == kset([1, 2])

    def test_bag_iterate_preserves_counts(self):
        term = C.bag_iterate(C.curry_p(C.lt(), C.lit(0)), C.id_())
        bag = KBag.of([1, 1, 2, -1])
        assert apply_fn(term, bag) == KBag.of([1, 1, 2])

    def test_bag_iterate_merges_images(self):
        double = C.bag_iterate(C.const_p(C.true()),
                               C.const_f(C.lit("x")))
        assert apply_fn(double, KBag.of([1, 2, 3])) == KBag({"x": 3})

    def test_bag_flat(self):
        nested = KBag.of([KBag.of([1]), KBag.of([1])])
        assert apply_fn(C.bag_flat(), nested) == KBag.of([1, 1])

    def test_bag_union(self):
        value = KPair(KBag.of([1]), KBag.of([1, 2]))
        assert apply_fn(C.bag_union(), value) == KBag.of([1, 1, 2])

    def test_bag_join_multiplies(self):
        left = KBag.of(["a", "a"])
        right = KBag.of([1, 1, 1])
        term = C.bag_join(C.const_p(C.true()), C.pi1())
        assert apply_fn(term, KPair(left, right)) == KBag({"a": 6})

    def test_type_errors(self):
        with pytest.raises(EvalError):
            apply_fn(C.distinct(), kset([1]))
        with pytest.raises(EvalError):
            apply_fn(C.tobag(), KBag.of([1]))


class TestBagTyping:
    def test_tobag_type(self):
        t = infer(C.tobag())
        assert t.name == "Fun" and t.args[1].name == "Bag"

    def test_pipeline_type(self):
        term = parse_fun("distinct o bag_iterate(Kp(T), id) o tobag")
        t = infer(term)
        assert t.args[0].name == "Set" and t.args[1].name == "Set"

    def test_bag_set_confusion_rejected(self):
        from repro.core.types import well_typed
        assert not well_typed(parse_fun("distinct o distinct"))
        assert not well_typed(parse_fun("flat o tobag"))

    def test_bag_literal_typing(self):
        assert infer(C.lit(KBag.of([1, 2]))) == bag_t(INT)
        with pytest.raises(TypeInferenceError):
            infer(C.lit(KBag.of([1, "a"])))

    def test_parser_round_trip(self):
        text = "distinct o bag_iterate(Kp(T), city) o tobag"
        term = parse_fun(text)
        assert parse_fun(pretty(term)) == term


class TestBagRules:
    @pytest.mark.parametrize("name",
                             [r.name for r in _RULEBASE.group("bags")])
    def test_rule_sound(self, name):
        report = RuleChecker(trials=80).check(_RULEBASE.get(name))
        assert report.passed, report.counterexample.render()

    def test_unsound_rules_refuted(self):
        for bad in (UNSOUND_TOBAG_DISTINCT, UNSOUND_BAG_FLAT_TOBAG):
            report = RuleChecker(trials=400).check(bad)
            assert not report.passed, f"{bad.name} should be refuted"


class TestDeferDupelimBlock:
    def test_garage_style_pipeline(self, rulebase, tiny_db):
        query = parse_obj(
            "iterate(Kp(T), city) o flat o iterate(Kp(T), grgs) ! P")
        deferred = block_defer_dupelim().transform(query, rulebase)
        # exactly one distinct, at the head of the chain
        distinct_count = sum(1 for t in deferred.subterms()
                             if t.op == "distinct")
        assert distinct_count == 1
        from repro.rewrite.pattern import flatten_compose
        chain = flatten_compose(deferred.args[0])
        assert chain[0].op == "distinct"
        assert eval_obj(deferred, tiny_db) == eval_obj(query, tiny_db)

    def test_no_flat_no_change_needed(self, rulebase, tiny_db):
        query = parse_obj("iterate(Kp(T), age) ! P")
        result = block_defer_dupelim().transform(query, rulebase)
        assert eval_obj(result, tiny_db) == eval_obj(query, tiny_db)

    def test_filters_fused_into_bag_pipeline(self, rulebase, tiny_db):
        query = parse_obj(
            "iterate(Cp(lt, 21) @ age, id) o flat"
            " o iterate(Kp(T), child) ! P")
        deferred = block_defer_dupelim().transform(query, rulebase)
        assert sum(1 for t in deferred.subterms()
                   if t.op == "distinct") == 1
        assert eval_obj(deferred, tiny_db) == eval_obj(query, tiny_db)
