"""Tests for unification, overlap/critical-pair analysis, and the
equational prover."""

import pytest

from repro.core import constructors as C
from repro.core.parser import parse_fun, parse_pred
from repro.core.terms import Sort, fun_var, meta, pred_var
from repro.larch.prover import EquationalProver, prove_rule
from repro.rewrite.overlap import (Overlap, analyze_pool,
                                   check_joinability, find_overlaps)
from repro.rewrite.rule import Rule, rule
from repro.rewrite.unify import rename_apart, resolve, unify


class TestUnify:
    def test_identical_ground(self):
        assert unify(C.id_(), C.id_()) == {}

    def test_var_binds(self):
        subst = unify(fun_var("f"), C.prim("age"))
        assert subst == {"f": C.prim("age")}

    def test_symmetric(self):
        subst = unify(C.prim("age"), fun_var("f"))
        assert subst == {"f": C.prim("age")}

    def test_var_var(self):
        subst = unify(fun_var("f"), fun_var("g"))
        assert subst is not None
        assert resolve(fun_var("f"), subst) == resolve(fun_var("g"), subst)

    def test_structural(self):
        a = parse_fun("iterate($p, $f)")
        b = parse_fun("iterate(Kp(T), $g)")
        subst = unify(a, rename_apart(b, "_2"))
        assert subst is not None
        assert resolve(a, subst) == resolve(rename_apart(b, "_2"), subst)

    def test_clash(self):
        assert unify(C.pi1(), C.pi2()) is None

    def test_occurs_check(self):
        looped = C.compose(fun_var("f"), C.id_())
        assert unify(fun_var("f"), looped) is None

    def test_sort_respected(self):
        assert unify(fun_var("f"), C.eq()) is None
        assert unify(pred_var("p"), fun_var("f")) is None
        assert unify(meta("a"), C.eq()) is not None

    def test_rename_apart(self):
        term = parse_fun("iterate($p, $f)")
        renamed = rename_apart(term, "_x")
        names = {name for name, _ in renamed.metavars()}
        assert names == {"p_x", "f_x"}

    def test_two_sided_binding(self):
        a = C.conj(pred_var("p"), C.eq())
        b = C.conj(C.lt(), pred_var("q2"))
        subst = unify(a, b)
        assert subst == {"p": C.lt(), "q2": C.eq()}


class TestOverlap:
    def test_negneg_demorgan_overlap_joinable(self, rulebase):
        """~(~(p & q)) can be rewritten by neg-neg at the root or by
        de Morgan inside; the critical pair rejoins."""
        neg_neg = rulebase.get("neg-neg")
        de_morgan = rulebase.get("de-morgan-and")
        overlaps = find_overlaps(neg_neg, de_morgan)
        assert len(overlaps) == 1
        overlap = overlaps[0]
        assert overlap.path == (0,)
        report = check_joinability(
            overlap,
            [rulebase.get("de-morgan-or"), rulebase.get("neg-neg")])
        assert report.joinable
        assert "JOINABLE" in report.describe()

    def test_trivially_equal_pairs_filtered(self, rulebase):
        overlaps = find_overlaps(rulebase.get("r5"), rulebase.get("r5b"))
        assert overlaps == []  # both rewrite the peak to the same term

    def test_non_joinable_detected(self):
        """Two made-up rules that genuinely diverge."""
        to_a = rule("to-a", "con(Kp(T), $f, $g)", "$f",
                    bidirectional=False)
        drop_then = rule("drop-then", "con($p, $f, $g)",
                         "con($p, $f, $f)", bidirectional=False,
                         note="deliberately bogus for this test")
        overlaps = find_overlaps(drop_then, to_a)
        assert overlaps
        report = check_joinability(overlaps[0], [])
        assert not report.joinable

    def test_no_overlap_between_unrelated(self, rulebase):
        assert find_overlaps(rulebase.get("r9"), rulebase.get("r18")) == []

    def test_self_overlap_root_skipped(self, rulebase):
        r11 = rulebase.get("r11")
        overlaps = find_overlaps(r11, r11)
        assert all(o.path != () for o in overlaps)

    def test_analyze_pool_smoke(self, rulebase):
        sample = [rulebase.get(name) for name in
                  ("neg-neg", "de-morgan-and", "de-morgan-or", "r5",
                   "r5b", "conj-idem")]
        reports = analyze_pool(sample, rulebase.group("cleanup")
                               + [rulebase.get("neg-neg"),
                                  rulebase.get("de-morgan-or"),
                                  rulebase.get("de-morgan-and")],
                               max_pairs=50)
        assert all(isinstance(r.joinable, bool) for r in reports)


class TestProver:
    def test_rule12_from_rule11(self, rulebase):
        proof = prove_rule(rulebase.get("r12"),
                           [rulebase.get("r11"), rulebase.get("r2"),
                            rulebase.get("r5")])
        assert proof is not None
        rendered = proof.render()
        assert "[11]" in rendered
        assert proof.length >= 2

    def test_r5b_from_commutativity(self, rulebase):
        proof = prove_rule(rulebase.get("r5b"),
                           [rulebase.get("conj-comm"), rulebase.get("r5")])
        assert proof is not None

    def test_cross_id_from_pair_laws(self, rulebase):
        """(id >< id) == id via cross-intro reversed and rule 4... or any
        route the pool offers."""
        proof = prove_rule(
            rulebase.get("cross-id"),
            [rulebase.get("cross-intro"), rulebase.get("r1"),
             rulebase.get("r2"), rulebase.get("r4")])
        assert proof is not None

    def test_reflexive_goal(self, rulebase):
        prover = EquationalProver([rulebase.get("r1")])
        proof = prover.prove(C.id_(), C.id_())
        assert proof is not None and proof.length == 0

    def test_unprovable_within_depth(self, rulebase):
        prover = EquationalProver([rulebase.get("r1")], max_depth=2)
        assert prover.prove(parse_fun("age"), parse_fun("city")) is None

    def test_proof_is_sound(self, rulebase, tiny_db):
        """Spot-check: instantiate the proved equation and evaluate."""
        from repro.core.eval import apply_fn
        from repro.core.values import kset
        from repro.rewrite.pattern import instantiate
        proof = prove_rule(rulebase.get("r12"),
                           [rulebase.get("r11"), rulebase.get("r2"),
                            rulebase.get("r5")])
        bindings = {"p": C.curry_p(C.lt(), C.lit(20)), "f": C.prim("age")}
        lhs = instantiate(proof.lhs, bindings)
        rhs = instantiate(proof.rhs, bindings)
        persons = tiny_db.collection("P")
        assert (apply_fn(lhs, persons, tiny_db)
                == apply_fn(rhs, persons, tiny_db))

    def test_irreversible_rule_expanded_forward_only(self, rulebase):
        """Rule 6's RHS drops ``f``, so ``reversed()`` raises
        ``RewriteError`` and the prover keeps only the forward
        reading."""
        r6 = rulebase.get("r6")
        assert r6.bidirectional
        prover = EquationalProver([r6, rulebase.get("r1")])
        assert [label for label, _ in prover.rules] \
            == ["[6]", "[1]", "[1^-1]"]

    def test_unexpected_reversal_error_propagates(self, rulebase,
                                                  monkeypatch):
        """Only the documented ``RewriteError`` means "forward only";
        any other failure of ``reversed()`` is a defect and surfaces."""
        def broken(self):
            raise ValueError("broken reversal")

        monkeypatch.setattr(Rule, "reversed", broken)
        with pytest.raises(ValueError, match="broken reversal"):
            EquationalProver([rulebase.get("r1")])
