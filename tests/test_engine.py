"""Unit tests for the rewrite engine: traversal, windows, peels, stats."""

import pytest

from repro.core import constructors as C
from repro.core.eval import eval_obj
from repro.core.parser import parse_fun, parse_obj
from repro.core.terms import Sort
from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.rewrite.rule import rule
from repro.rewrite.rulebase import RuleBase
from repro.rewrite.trace import Derivation

R1 = rule("t-r1", "$f o id", "$f")
R2 = rule("t-r2", "id o $f", "$f")
R11 = rule("t-r11", "iterate($p, $f) o iterate($q, $g)",
           "iterate($q & ($p @ $g), $f o $g)")
R19 = rule("t-r19", "iterate(Kp(T), <id, Kf($B)>) ! $A",
           "nest(pi1, pi2) o <join(Kp(T), id), pi1> ! [$A, $B]",
           sort=Sort.OBJ, bidirectional=False)


class TestRewriteOnce:
    def test_root_rewrite(self, engine):
        term = canon(parse_fun("age o id"))
        result = engine.rewrite_once(term, [R1])
        assert result is not None
        assert result.term == C.prim("age")
        assert result.rule is R1

    def test_no_match_returns_none(self, engine):
        assert engine.rewrite_once(C.prim("age"), [R1]) is None

    def test_subterm_rewrite(self, engine):
        term = canon(parse_fun("iterate(Kp(T), age o id)"))
        result = engine.rewrite_once(term, [R1])
        assert result.term == parse_fun("iterate(Kp(T), age)")
        assert result.path == (1,)

    def test_rule_priority_order(self, engine):
        term = canon(parse_fun("id o age o id"))
        result = engine.rewrite_once(term, [R1, R2])
        # R1 tried first at the whole chain window
        assert result.rule is R1

    def test_bottomup_strategy(self, engine):
        inner_only = rule("inner", "iterate(Kp(T), id)", "id")
        term = canon(parse_fun(
            "iterate(Kp(T), id) o iterate(Kp(T), iterate(Kp(T), id))"))
        result = engine.rewrite_once(term, [inner_only],
                                     strategy="bottomup")
        # bottom-up finds the innermost occurrence first
        assert result.path != ()


class TestChainWindows:
    def test_window_inside_long_chain(self, engine):
        term = canon(parse_fun(
            "flat o iterate(Kp(T), city) o iterate(Kp(T), addr) o flat"))
        result = engine.rewrite_once(term, [R11])
        expected = canon(parse_fun(
            "flat o iterate(Kp(T) & (Kp(T) @ addr), city o addr) o flat"))
        assert result.term == expected

    def test_window_at_chain_start(self, engine):
        term = canon(parse_fun(
            "iterate(Kp(T), city) o iterate(Kp(T), addr) o flat"))
        result = engine.rewrite_once(term, [R11])
        assert result is not None
        factors_before = 3
        assert len(canon(result.term).args) == 2  # still a chain

    def test_rewrite_preserves_meaning(self, engine, tiny_db):
        query = parse_obj(
            "iterate(Kp(T), city) o iterate(Kp(T), addr) ! P")
        result = engine.rewrite_once(query, [R11])
        assert (eval_obj(query, tiny_db)
                == eval_obj(result.term, tiny_db))

    def test_each_window_retrieved_once_per_normalize(self, rulebase):
        """The scan of a 12-factor chain with no redex visits its 11
        compose suffixes, and every window of a suffix is a window of
        the whole chain: one ``normalize`` run retrieves each of the 65
        distinct windows once, plus the 11 direct views (286 when each
        suffix retrieved all of its own windows), and the work that
        decides rewrites is unchanged."""
        chain = canon(parse_fun(" o ".join(
            ["age", "name", "city", "addr", "child", "cars"] * 2)))
        engine = Engine()
        result = engine.normalize_result(
            chain, rulebase.group_compiled("simplify"))
        assert result.term is chain and result.reached_fixpoint
        stats = engine.stats
        assert stats.trie_retrievals <= 76
        assert (stats.rewrites, stats.match_attempts,
                stats.trie_candidates) == (0, 0, 374)


class TestInvokePeeling:
    def test_peel_last_factor(self, engine):
        query = canon(parse_obj(
            "iterate(Kp(T), <pi1, pi2>) o iterate(Kp(T), <id, Kf(B)>) ! A"))
        result = engine.rewrite_once(query, [R19])
        assert result is not None
        # the prefix stage is preserved and the argument became [A, B]
        assert result.term.op == "invoke"
        assert result.term.args[1] == C.pairobj(C.setname("A"),
                                                C.setname("B"))

    def test_direct_invoke_match(self, engine):
        query = canon(parse_obj("iterate(Kp(T), <id, Kf(B)>) ! A"))
        result = engine.rewrite_once(query, [R19])
        assert result is not None


class TestNormalize:
    def test_fixpoint(self, engine):
        term = canon(parse_fun("id o age o id o id"))
        result = engine.normalize(term, [R1, R2])
        assert result == C.prim("age")

    def test_derivation_recorded(self, engine):
        derivation = Derivation("test")
        term = canon(parse_fun("id o age o id"))
        engine.normalize(term, [R1, R2], derivation=derivation)
        assert len(derivation) == 2
        assert derivation.initial == term
        assert derivation.final == C.prim("age")
        assert derivation.forms()[0] == term

    def test_max_steps_caps_divergence(self, engine):
        looper = rule("loop", "$p & $q", "$q & $p", sort=Sort.PRED)
        from repro.core.parser import parse_pred
        from repro.rewrite.engine import MaxStepsExceededWarning
        term = parse_pred("eq & lt")
        with pytest.warns(MaxStepsExceededWarning):
            result = engine.normalize(term, [looper], max_steps=7)
        assert result is not None  # terminated despite the loop

    def test_normalize_result_reports_fixpoint(self, engine):
        term = canon(parse_fun("id o age o id o id"))
        result = engine.normalize_result(term, [R1, R2])
        assert result.reached_fixpoint
        assert result.steps_used == 3
        assert result.term == C.prim("age")

    def test_normalize_result_reports_cap_hit(self, engine):
        looper = rule("loop2", "$p & $q", "$q & $p", sort=Sort.PRED)
        from repro.core.parser import parse_pred
        term = parse_pred("eq & lt")
        result = engine.normalize_result(term, [looper], max_steps=7)
        assert not result.reached_fixpoint
        assert result.steps_used == 7
        # the fixpoint probe must not perturb the fire counts
        assert engine.stats.per_rule["loop2"] == 7

    def test_normalize_result_exact_cap_is_fixpoint(self, engine):
        term = canon(parse_fun("age o id"))
        result = engine.normalize_result(term, [R1], max_steps=1)
        assert result.reached_fixpoint
        assert result.steps_used == 1

    def test_no_warning_on_fixpoint(self, engine):
        import warnings
        term = canon(parse_fun("id o age o id"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert engine.normalize(term, [R1, R2]) == C.prim("age")

    def test_stats_counted(self, engine):
        engine.stats.reset()
        term = canon(parse_fun("id o age"))
        engine.normalize(term, [R1, R2])
        assert engine.stats.rewrites == 1
        assert engine.stats.match_attempts >= 1
        assert engine.stats.nodes_visited >= 1

    def test_apply_rule_helper(self, engine):
        term = canon(parse_fun("age o id"))
        assert engine.apply_rule(term, R1) == C.prim("age")
        assert engine.apply_rule(C.prim("age"), R1) is None


class TestDerivationRendering:
    def test_render_contains_rule_labels(self, engine):
        derivation = Derivation("demo")
        numbered = rule("rn", "$f o id", "$f", number=1)
        term = canon(parse_fun("age o id"))
        engine.normalize(term, [numbered], derivation=derivation)
        text = derivation.render()
        assert "demo" in text
        assert "[1]" in text
        assert "age o id" in text

    def test_render_empty(self):
        assert "(no steps)" in Derivation("t").render()

    def test_verify_catches_bad_step(self, tiny_db):
        bad = rule("bad-eta", "iterate(Kp(T), $f)",
                   "iterate(Kp(F), $f)", bidirectional=False)
        derivation = Derivation()
        engine = Engine()
        query = parse_obj("iterate(Kp(T), age) ! P")
        engine.normalize(query, [bad], derivation=derivation)
        with pytest.raises(AssertionError, match="changed the query"):
            derivation.verify([tiny_db])


class TestRuleBase:
    def test_registry_operations(self):
        base = RuleBase()
        base.add(R1, ["cleanup"])
        base.add(R11)
        assert base.get("t-r1") is R1
        assert len(base) == 2
        assert "t-r1" in base
        assert [r.name for r in base.group("cleanup")] == ["t-r1"]

    def test_rev_lookup(self):
        base = RuleBase()
        base.add(R11)
        rev = base.get("t-r11-rev")
        assert rev.lhs == R11.rhs

    def test_duplicate_rejected(self):
        from repro.core.errors import RewriteError
        base = RuleBase()
        base.add(R1)
        with pytest.raises(RewriteError, match="duplicate"):
            base.add(R1)

    def test_unknown_lookups(self):
        from repro.core.errors import RewriteError
        base = RuleBase()
        with pytest.raises(RewriteError):
            base.get("nope")
        with pytest.raises(RewriteError):
            base.group("nope")
        with pytest.raises(RewriteError):
            base.by_number(99)

    def test_by_number(self, rulebase):
        assert rulebase.by_number(11).name == "r11"

    def test_extend_group_validates(self, rulebase):
        from repro.core.errors import RewriteError
        with pytest.raises(RewriteError):
            rulebase.extend_group("x", ["does-not-exist"])
        # The failed call must not leave a stray group behind (the
        # session rulebase fixture is shared suite-wide).
        assert "x" not in rulebase.group_names()


class TestRewriteEverywhere:
    def test_all_positions_enumerated(self, engine):
        term = canon(parse_fun("(age o id) o iterate(Kp(T), city o id)"))
        results = engine.rewrite_everywhere(term, R1)
        # $f o id matches both the outer chain and the inner argument
        assert len(results) >= 2
        for result in results:
            assert result.term != term

    def test_whole_term_rebuilt(self, engine, tiny_db):
        from repro.core.eval import eval_obj
        query = parse_obj(
            "iterate(Kp(T), city o id) o iterate(Kp(T), addr o id) ! P")
        results = engine.rewrite_everywhere(query, R1)
        assert len(results) == 2
        reference = eval_obj(query, tiny_db)
        for result in results:
            assert eval_obj(result.term, tiny_db) == reference

    def test_no_matches_empty(self, engine):
        assert engine.rewrite_everywhere(C.prim("age"), R1) == []

    def test_per_rule_stats(self, engine):
        engine.stats.reset()
        term = canon(parse_fun("id o age o id"))
        engine.normalize(term, [R1, R2])
        assert engine.stats.per_rule.get("t-r1", 0) >= 1
        report = engine.stats.report()
        assert "t-r1" in report

    def test_stats_report_empty(self):
        from repro.rewrite.engine import EngineStats
        assert EngineStats().report() == "(no rewrites)"


class TestRuleIndex:
    def test_buckets_by_head_and_keeps_order(self):
        from repro.rewrite.ruleindex import RuleIndex
        index = RuleIndex([R1, R11, R2])
        assert index.candidates("compose") == (R1, R11, R2)
        assert index.candidates("iterate") == ()
        assert index.heads == {"compose"}
        assert len(index) == 3

    def test_invoke_bucket(self):
        from repro.rewrite.ruleindex import RuleIndex
        index = RuleIndex([R1, R19])
        assert index.candidates("invoke") == (R19,)
        assert index.candidates("compose") == (R1,)

    def test_rule_index_memoized(self):
        from repro.rewrite.ruleindex import rule_index
        assert rule_index((R1, R2)) is rule_index((R1, R2))

    def test_engine_accepts_prebuilt_index(self, engine):
        from repro.rewrite.ruleindex import rule_index
        term = canon(parse_fun("id o age o id o id"))
        assert engine.normalize(term, rule_index((R1, R2))) == C.prim("age")

    def test_index_skips_attempts(self):
        engine = Engine()
        term = canon(parse_fun("iterate(Kp(T), age o id)"))
        engine.normalize(term, [R19, R1])  # R19 heads invoke: never tried
        assert engine.stats.attempts_skipped_by_index > 0
        assert engine.stats.per_rule == {"t-r1": 1}

    def test_linear_engine_matches_indexed(self):
        term = canon(parse_fun(
            "flat o iterate(Kp(T), city) o iterate(Kp(T), addr) o id"))
        rules = [R1, R2, R11]
        fast, slow = Engine(), Engine(indexed=False, incremental=False)
        assert (fast.normalize(term, rules)
                is slow.normalize(term, rules))
        assert fast.stats.per_rule == slow.stats.per_rule
        assert fast.stats.match_attempts < slow.stats.match_attempts
