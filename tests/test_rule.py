"""Unit tests for Rule construction, reversal and preconditions."""

import pytest

from repro.core import constructors as C
from repro.core.errors import (PreconditionError, RewriteError)
from repro.core.terms import Sort
from repro.rewrite.rule import Goal, NO_ORACLE, Rule, rule
from repro.rules.preconditions import AnnotationOracle


class TestRuleValidation:
    def test_simple_rule(self):
        r = rule("test-id", "$f o id", "$f")
        assert r.lhs.op == "compose"
        assert r.rhs.op == "meta"

    def test_sort_mismatch_rejected(self):
        with pytest.raises(RewriteError, match="sorts"):
            Rule("bad", C.id_(), C.eq())

    def test_rhs_fresh_var_rejected(self):
        with pytest.raises(RewriteError, match="do not appear"):
            rule("bad", "$f", "$f o $g")

    def test_type_incompatible_rejected(self):
        from repro.core.errors import TypeInferenceError
        with pytest.raises(TypeInferenceError):
            rule("bad", "flat o $f", "$f")

    def test_precondition_unknown_var_rejected(self):
        with pytest.raises(PreconditionError):
            rule("bad", "$f o id", "$f",
                 preconditions=(Goal("injective", "g"),))

    def test_display_name(self, rulebase):
        r = rulebase.get("r1")
        assert r.display_name == "rule 1 (r1)"
        r2 = rule("pair-law", "pi1 o <$f, $g>", "$f")
        assert r2.display_name == "pair-law"

    def test_repr_readable(self):
        r = rule("r1x", "$f o id", "$f", number=1)
        assert "$f o id" in repr(r)


class TestReversal:
    def test_reverse(self):
        r = rule("test-rev", "iterate($p, id) o iterate(Kp(T), $f)",
                 "iterate($p @ $f, $f)")
        rev = r.reversed()
        assert rev.lhs == r.rhs
        assert rev.rhs == r.lhs
        assert rev.name == "test-rev-rev"

    def test_unidirectional_not_reversible(self):
        r = rule("one-way", "con($p, $f, $f)", "$f", bidirectional=False)
        with pytest.raises(RewriteError, match="not bidirectional"):
            r.reversed()

    def test_var_dropping_not_reversible(self):
        r = rule("drop", "pi1 o <$f, $g>", "$f")
        with pytest.raises(RewriteError, match="cannot be reversed"):
            r.reversed()


class TestPreconditions:
    def test_no_oracle_blocks_conditional(self):
        goal = Goal("injective", "f")
        r = rule("cond-rule", "eq @ ($f >< $f)", "eq", sort=Sort.PRED,
                 preconditions=(goal,), bidirectional=False)
        assert not r.check_preconditions({"f": C.id_()}, NO_ORACLE)

    def test_oracle_unblocks(self):
        goal = Goal("injective", "f")
        r = rule("cond-rule2", "eq @ ($f >< $f)", "eq", sort=Sort.PRED,
                 preconditions=(goal,), bidirectional=False)
        oracle = AnnotationOracle()
        assert r.check_preconditions({"f": C.id_()}, oracle)  # id injective
        assert not r.check_preconditions({"f": C.prim("age")}, oracle)
        oracle.declare("injective", C.prim("age"))
        assert r.check_preconditions({"f": C.prim("age")}, oracle)


class TestAnnotationOracle:
    def test_inference_compose(self):
        oracle = AnnotationOracle()
        oracle.declare("injective", C.prim("ssn"))
        term = C.compose(C.id_(), C.prim("ssn"))
        assert oracle.holds("injective", term)

    def test_paper_inference_rule(self):
        """injective(f) /\\ injective(g) ==> injective(f o g)."""
        oracle = AnnotationOracle()
        oracle.declare("injective", C.prim("f"))
        oracle.declare("injective", C.prim("g"))
        assert oracle.holds("injective",
                            C.compose(C.prim("f"), C.prim("g")))
        assert not oracle.holds("injective",
                                C.compose(C.prim("f"), C.prim("h")))

    def test_pair_any_side(self):
        oracle = AnnotationOracle()
        term = C.pair(C.id_(), C.prim("age"))
        assert oracle.holds("injective", term)  # <id, g> keeps the input

    def test_cross_needs_both(self):
        oracle = AnnotationOracle()
        assert oracle.holds("injective", C.cross(C.id_(), C.id_()))
        assert not oracle.holds("injective", C.cross(C.id_(), C.prim("age")))

    def test_constant_property(self):
        oracle = AnnotationOracle()
        assert oracle.holds("constant", C.const_f(C.lit(1)))
        assert oracle.holds("constant",
                            C.compose(C.prim("age"), C.const_f(C.lit(1))))
        assert not oracle.holds("constant", C.prim("age"))

    def test_total_property(self):
        oracle = AnnotationOracle()
        assert oracle.holds("total", C.compose(C.prim("age"), C.pi1()))

    def test_unknown_property(self):
        oracle = AnnotationOracle()
        with pytest.raises(PreconditionError):
            oracle.holds("bijective", C.id_())
        with pytest.raises(PreconditionError):
            oracle.declare("bijective", C.id_())
