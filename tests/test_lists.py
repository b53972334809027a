"""Tests for the list extension (Section 6): values, semantics, typing,
rules, and ORDER BY behaviour."""

import pytest

from repro.core import constructors as C
from repro.core.errors import EvalError
from repro.core.eval import apply_fn
from repro.core.lists import KList, as_list, stable_sort_key
from repro.core.parser import parse_fun
from repro.core.pretty import pretty
from repro.core.types import INT, infer, list_t
from repro.core.values import KPair, kset
from repro.larch.checker import RuleChecker
from repro.rules.refutable import UNSOUND_MAP_LISTIFY
from repro.rules.registry import standard_rulebase

_RULEBASE = standard_rulebase()


class TestKList:
    def test_order_matters(self):
        assert KList([1, 2]) != KList([2, 1])
        assert KList([1, 2]) == KList([1, 2])

    def test_duplicates_kept(self):
        assert len(KList([1, 1])) == 2

    def test_hashable_and_indexable(self):
        sequence = KList(["a", "b"])
        assert sequence in {sequence}
        assert sequence[1] == "b"
        assert "a" in sequence

    def test_map_filter_concat(self):
        sequence = KList([1, 2, 3])
        assert sequence.map(lambda x: x * 2) == KList([2, 4, 6])
        assert sequence.filter(lambda x: x > 1) == KList([2, 3])
        assert sequence.concat(KList([9])) == KList([1, 2, 3, 9])

    def test_flatten(self):
        nested = KList([KList([1]), KList([2, 3])])
        assert nested.flatten() == KList([1, 2, 3])
        with pytest.raises(EvalError):
            KList([1]).flatten()

    def test_support(self):
        assert KList([1, 1, 2]).support() == kset([1, 2])

    def test_as_list(self):
        with pytest.raises(EvalError, match="expected a list"):
            as_list(kset([1]))


class TestListSemantics:
    def test_listify_orders_numerically(self):
        term = C.listify(C.id_())
        assert apply_fn(term, kset([3, 1, 2])) == KList([1, 2, 3])

    def test_listify_deterministic_ties(self):
        term = C.listify(C.const_f(C.lit(0)))  # all keys equal
        first = apply_fn(term, kset(["b", "a", "c"]))
        second = apply_fn(term, kset(["c", "a", "b"]))
        assert first == second

    def test_listify_mixed_key_types_total(self):
        # a constant-key order over pairs must not raise
        term = C.listify(C.pi1())
        value = kset([KPair(1, "x"), KPair(2, "y")])
        result = apply_fn(term, value)
        assert [p.fst for p in result] == [1, 2]

    def test_order_by_age(self, tiny_db):
        term = C.listify(C.prim("age"))
        ordered = apply_fn(term, tiny_db.collection("P"), tiny_db)
        ages = [person.get("age") for person in ordered]
        assert ages == sorted(ages)

    def test_list_iterate_preserves_order(self):
        term = C.list_iterate(C.curry_p(C.lt(), C.lit(1)),
                              C.pair(C.id_(), C.id_()))
        result = apply_fn(term, KList([3, 2, 5]))
        assert result == KList([KPair(3, 3), KPair(2, 2), KPair(5, 5)])

    def test_list_cat_and_flat(self):
        cat = apply_fn(C.list_cat(), KPair(KList([1]), KList([2])))
        assert cat == KList([1, 2])
        flat = apply_fn(C.list_flat(), KList([KList([1]), KList([2])]))
        assert flat == KList([1, 2])

    def test_to_set(self):
        assert apply_fn(C.to_set(), KList([1, 1, 2])) == kset([1, 2])

    def test_stable_sort_key_total(self):
        keys = [stable_sort_key(k, "e")
                for k in (1, 2.5, "a", True, KPair(1, 2))]
        sorted(keys)  # must not raise


class TestListTyping:
    def test_listify_type(self):
        t = infer(parse_fun("listify(age)"))
        assert t.args[1].name == "List"

    def test_order_by_pipeline(self):
        term = parse_fun("to_set o list_iterate(Kp(T), id) o listify(id)")
        t = infer(term)
        assert t.args[0].name == "Set" and t.args[1].name == "Set"

    def test_list_literal(self):
        assert infer(C.lit(KList([1, 2]))) == list_t(INT)

    def test_round_trip(self):
        text = "to_set o list_iterate(Cp(lt, 3), id) o listify(age)"
        term = parse_fun(text)
        assert parse_fun(pretty(term)) == term


class TestListRules:
    @pytest.mark.parametrize("name",
                             [r.name for r in _RULEBASE.group("lists")])
    def test_rule_sound(self, name):
        report = RuleChecker(trials=80).check(_RULEBASE.get(name))
        assert report.passed, report.counterexample.render()

    def test_unsound_map_listify_refuted(self):
        report = RuleChecker(trials=400).check(UNSOUND_MAP_LISTIFY)
        assert not report.passed

    def test_filter_pushed_below_sort(self, rulebase, tiny_db):
        """The ORDER-BY use case: selection moves below the sort."""
        from repro.rewrite.engine import Engine
        query = C.invoke(
            C.compose(C.list_iterate(C.oplus(C.curry_p(C.lt(), C.lit(40)),
                                             C.prim("age")),
                                     C.id_()),
                      C.listify(C.prim("age"))),
            C.setname("P"))
        # directly evaluate both the original and the rewritten form
        engine = Engine()
        rewritten = engine.normalize(query,
                                     [rulebase.get("filter-listify")])
        assert rewritten != query
        from repro.core.eval import eval_obj
        assert eval_obj(rewritten, tiny_db) == eval_obj(query, tiny_db)
