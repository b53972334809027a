"""Unit tests for the KOLA term representation."""

import gc
import weakref

import pytest

from repro.core import constructors as C
from repro.core import terms
from repro.core.errors import TermError, UnknownOperatorError
from repro.core.terms import Sort, Term, fun_var, interned_count, meta, \
    mk, obj_var, pred_var, sort_of


class TestConstruction:
    def test_simple_leaf(self):
        term = C.id_()
        assert term.op == "id"
        assert term.args == ()
        assert term.is_leaf()

    def test_nested(self):
        term = C.compose(C.prim("city"), C.prim("addr"))
        assert term.op == "compose"
        assert term.args[0].label == "city"

    def test_unknown_operator_rejected(self):
        with pytest.raises(UnknownOperatorError):
            mk("frobnicate")

    def test_wrong_arity_rejected(self):
        with pytest.raises(TermError, match="expects 2"):
            mk("compose", C.id_())

    def test_wrong_sort_rejected(self):
        # compose takes functions, not predicates
        with pytest.raises(TermError, match="sort"):
            C.compose(C.eq(), C.id_())

    def test_pred_former_rejects_function(self):
        with pytest.raises(TermError):
            C.conj(C.id_(), C.eq())

    def test_label_required(self):
        with pytest.raises(TermError, match="label"):
            mk("prim")

    def test_label_forbidden(self):
        with pytest.raises(TermError, match="label"):
            mk("id", label="x")

    def test_non_term_argument_rejected(self):
        with pytest.raises(TermError, match="not a Term"):
            mk("compose", C.id_(), "id")  # type: ignore[arg-type]


class TestImmutabilityAndEquality:
    def test_immutable(self):
        term = C.id_()
        with pytest.raises(AttributeError):
            term.op = "pi1"  # type: ignore[misc]

    def test_structural_equality(self):
        a = C.compose(C.prim("city"), C.prim("addr"))
        b = C.compose(C.prim("city"), C.prim("addr"))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_by_label(self):
        assert C.prim("city") != C.prim("addr")

    def test_inequality_by_op(self):
        assert C.pi1() != C.pi2()

    def test_usable_as_dict_key(self):
        table = {C.id_(): 1, C.pi1(): 2}
        assert table[C.id_()] == 1

    def test_not_equal_to_other_types(self):
        assert C.id_() != "id"
        assert not (C.id_() == 42)


class TestSorts:
    def test_function_sort(self):
        assert sort_of(C.iterate(C.eq(), C.id_())) is Sort.FUN

    def test_predicate_sort(self):
        assert sort_of(C.oplus(C.eq(), C.id_())) is Sort.PRED

    def test_object_sort(self):
        assert sort_of(C.invoke(C.id_(), C.lit(3))) is Sort.OBJ

    def test_metavar_sorts(self):
        assert sort_of(fun_var("f")) is Sort.FUN
        assert sort_of(pred_var("p")) is Sort.PRED
        assert sort_of(obj_var("x")) is Sort.OBJ
        assert sort_of(meta("a")) is Sort.ANY

    def test_sort_property(self):
        assert C.flat().sort is Sort.FUN


class TestStructureHelpers:
    def test_size(self):
        term = C.compose(C.prim("city"), C.prim("addr"))
        assert term.size() == 3

    def test_depth(self):
        term = C.compose(C.compose(C.id_(), C.id_()), C.id_())
        assert term.depth() == 3
        assert C.id_().depth() == 1

    def test_subterms_preorder(self):
        term = C.pair(C.pi1(), C.pi2())
        ops = [t.op for t in term.subterms()]
        assert ops == ["pair", "pi1", "pi2"]

    def test_contains(self):
        term = C.compose(C.prim("city"), C.prim("addr"))
        assert term.contains(C.prim("addr"))
        assert not term.contains(C.prim("age"))

    def test_with_args_identity_shortcut(self):
        term = C.compose(C.id_(), C.id_())
        assert term.with_args(term.args) is term

    def test_metavars(self):
        term = C.compose(fun_var("f"), fun_var("g"))
        assert {name for name, _ in term.metavars()} == {"f", "g"}

    def test_is_ground(self):
        assert C.id_().is_ground()
        assert not fun_var("f").is_ground()

    def test_meta_requires_name(self):
        with pytest.raises(TermError):
            meta("")


class TestInterning:
    """Hash-consing: structural equality is pointer identity."""

    def test_equal_terms_are_identical(self):
        a = C.compose(C.prim("city"), C.prim("addr"))
        b = C.compose(C.prim("city"), C.prim("addr"))
        assert a is b

    def test_rebuilt_subterm_shares_structure(self):
        inner = C.compose(C.prim("city"), C.prim("addr"))
        outer = C.iterate(C.eq(), inner)
        assert outer.args[1] is inner
        assert outer.with_args(outer.args) is outer

    def test_cross_type_labels_not_conflated(self):
        assert C.lit(False) is not C.lit(0)
        assert C.lit(1) is not C.lit(1.0)
        assert C.lit(frozenset({True})) is not C.lit(frozenset({1}))
        assert C.lit(frozenset({True})).label == frozenset({True})

    def test_identity_equality_still_structural(self):
        # identity-first __eq__ must agree with structural equality
        assert C.prim("city") == C.prim("city")
        assert C.prim("city") != C.prim("addr")
        assert C.id_() != "id"

    def test_cached_structure_queries(self):
        term = C.compose(C.prim("city"), C.compose(C.prim("addr"),
                                                   C.id_()))
        assert term.size() == 5
        assert term.depth() == 3
        assert term.ops == {"compose", "prim", "id"}
        assert term.is_ground()
        assert not C.compose(fun_var("f"), C.id_()).is_ground()

    def test_dropped_term_leaves_the_table(self):
        """The cons table holds its terms weakly: a term nobody holds
        leaves it, and interning the same key again makes a fresh node
        that is interned in turn.  (Checked on the key itself: other
        tests' garbage makes the table's size move meanwhile.)"""
        key = ("prim", (), "a_name_no_other_test_uses")
        term = C.prim("a_name_no_other_test_uses")
        assert terms._CONS_TABLE[key]() is term
        assert interned_count() == len(terms._CONS_TABLE)
        probe = weakref.ref(term)
        del term
        gc.collect()
        assert probe() is None
        assert key not in terms._CONS_TABLE
        again = C.prim("a_name_no_other_test_uses")
        assert again is C.prim("a_name_no_other_test_uses")
        assert terms._CONS_TABLE[key]() is again


class TestDeepChains:
    """Regression: translator output for Figure 7 pipelines can nest
    thousands of compose levels; structure queries must not recurse."""

    def test_depth_on_5k_chain(self):
        from repro.rewrite.pattern import build_chain, flatten_compose
        factors = [C.prim(f"f{i}") for i in range(5000)]
        chain = build_chain(factors)
        assert chain.depth() == 5000
        assert chain.size() == 2 * 5000 - 1
        assert chain.is_ground()
        assert len(flatten_compose(chain)) == 5000

    def test_depth_on_5k_left_nested(self):
        left = C.prim("f0")
        for i in range(1, 5000):
            left = C.compose(left, C.prim(f"f{i}"))
        assert left.depth() == 5000
        assert left.ops == {"compose", "prim"}

    def test_canon_on_5k_left_nested(self):
        from repro.rewrite.pattern import canon, flatten_compose
        left = C.prim("g0")
        for i in range(1, 5000):
            left = C.compose(left, C.prim(f"g{i}"))
        chain = canon(left)
        assert canon(chain) is chain  # idempotent
        assert len(flatten_compose(chain)) == 5000
        assert chain.args[0] == C.prim("g0")  # right-associated

    def test_normalize_on_5k_chain(self):
        # A compose-headed rule would enumerate O(n^2) chain windows, so
        # use an iterate-headed one: the run exercises canon + dispatch
        # on the full 5k-deep term without quadratic window matching.
        from repro.core.terms import Sort
        from repro.rewrite.engine import Engine
        from repro.rewrite.rule import rule
        deep_rule = rule("deep-beta", "id ! $x", "$x", sort=Sort.OBJ,
                         bidirectional=False)
        chain = C.prim("h0")
        for i in range(1, 5000):
            chain = C.compose(chain, C.prim(f"h{i}"))
        result = Engine().normalize_result(chain, [deep_rule], max_steps=3)
        assert result.reached_fixpoint
