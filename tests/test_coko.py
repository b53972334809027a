"""Tests for COKO: strategies, rule blocks, the DSL, and the standard
blocks (Figure 6 code motion, CNF, select pushdown)."""

import pytest

from repro.core.errors import ParseError, RewriteError
from repro.core.eval import eval_obj
from repro.core.parser import parse_fun, parse_obj, parse_pred
from repro.core.pretty import pretty
from repro.coko.blocks import RuleBlock, run_blocks
from repro.coko.parser import parse_coko
from repro.coko.stdblocks import (block_cnf, block_code_motion,
                                  block_env_free_select,
                                  block_push_select_past_join,
                                  standard_blocks)
from repro.coko.strategy import Context, Exhaust, Once, Repeat, Seq, Try
from repro.rewrite.engine import Engine
from repro.rewrite.trace import Derivation


class TestStrategies:
    def test_once_optional(self, rulebase, engine):
        ctx = Context(engine, rulebase)
        term = parse_fun("age")
        assert Once("r1").run(term, ctx) == term  # no match, no error

    def test_once_required_raises(self, rulebase, engine):
        ctx = Context(engine, rulebase)
        with pytest.raises(RewriteError, match="did not fire"):
            Once("r1", required=True).run(parse_fun("age"), ctx)

    def test_try_swallows(self, rulebase, engine):
        ctx = Context(engine, rulebase)
        term = parse_fun("age")
        assert Try(Once("r1", required=True)).run(term, ctx) == term

    def test_seq_and_exhaust(self, rulebase, engine):
        ctx = Context(engine, rulebase)
        term = parse_fun("id o age o id")
        strategy = Seq(Exhaust("r1"), Exhaust("r2"))
        assert strategy.run(term, ctx) == parse_fun("age")

    def test_repeat_reaches_fixpoint(self, rulebase, engine):
        ctx = Context(engine, rulebase)
        term = parse_fun("id o id o age")
        result = Repeat(Once("r2")).run(term, ctx)
        assert result == parse_fun("age")

    def test_group_reference(self, rulebase):
        rules = rulebase.resolve(("group:fig4",))
        assert len(rules) == 12

    def test_rev_reference(self, rulebase):
        (rev,) = rulebase.resolve(("r12-rev",))
        assert rev.name == "r12-rev"


class TestRuleBlocks:
    def test_block_declares_rules(self, rulebase):
        block = standard_blocks()["T1K"]
        rules = block.rules(rulebase)
        assert {r.name for r in rules} >= {"r11", "r6", "r5"}

    def test_run_blocks_pipeline(self, rulebase, queries):
        from repro.coko.hidden_join import hidden_join_blocks
        result = run_blocks(hidden_join_blocks(), queries.kg1, rulebase)
        assert result == queries.kg2

    def test_derivation_threaded_through(self, rulebase, queries):
        derivation = Derivation()
        block = standard_blocks()["T1K"]
        block.transform(queries.t1k_source, rulebase, derivation=derivation)
        assert len(derivation) == 3


class TestCodeMotionBlock:
    def test_k4_reaches_conditional(self, rulebase, queries):
        result = block_code_motion().transform(queries.k4, rulebase)
        assert result == queries.k4_code_moved

    def test_k4_derivation_rules(self, rulebase, queries):
        derivation = Derivation()
        block_code_motion().transform(queries.k4, rulebase,
                                      derivation=derivation)
        labels = derivation.rules_used()
        for expected in ("[13]", "[7]", "[14]", "[15]", "[16]"):
            assert expected in labels

    def test_k3_blocked_at_rule_15(self, rulebase, queries):
        """K3's predicate projects pi2, so rule 15 cannot fire: no 'con'
        appears.  Structure decides — no environmental analysis."""
        result = block_code_motion().transform(queries.k3, rulebase)
        assert not any(node.op == "cond" for node in result.subterms())
        assert any(node.op == "iter" for node in result.subterms())

    def test_k3_k4_meanings_preserved(self, rulebase, queries, tiny_db):
        for query in (queries.k3, queries.k4):
            result = block_code_motion().transform(query, rulebase)
            assert eval_obj(result, tiny_db) == eval_obj(query, tiny_db)

    def test_k3_alternative_strategy(self, rulebase, queries, tiny_db):
        """Section 4.2: after the shared prefix simplifies the query, an
        alternative strategy (selection pushdown into the inner set)
        applies to K3."""
        mid = block_code_motion().transform(queries.k3, rulebase)
        final = block_env_free_select().transform(mid, rulebase)
        assert not any(node.op == "iter" for node in final.subterms())
        assert eval_obj(final, tiny_db) == eval_obj(queries.k3, tiny_db)


class TestCnfBlock:
    def test_cnf_shape(self, rulebase):
        pred = parse_pred("~((lt @ age) & (gt @ age))")
        result = block_cnf().transform(pred, rulebase)
        # negation pushed to leaves: no ~ over & remains
        for node in result.subterms():
            if node.op == "neg":
                assert node.args[0].op not in ("conj", "disj")

    def test_cnf_distributes(self, rulebase):
        pred = parse_pred("eq | (lt & gt)")
        result = block_cnf().transform(pred, rulebase)
        assert result == parse_pred("(eq | lt) & (eq | gt)")

    def test_cnf_is_equivalent(self, rulebase):
        from repro.larch.gen import TermGenerator
        from repro.core.eval import test_pred as check_pred
        from repro.core.types import INT, pair_t
        pred = parse_pred("~((lt & gt) | ~(leq | geq))")
        result = block_cnf().transform(pred, rulebase)
        generator = TermGenerator(seed=11)
        for _ in range(50):
            value = generator.value(pair_t(INT, INT))
            assert check_pred(pred, value) == check_pred(result, value)


class TestPushSelectBlock:
    def test_select_above_join_absorbed(self, rulebase, tiny_db):
        query = parse_obj(
            "iterate(lt @ <age o pi1, age o pi2>, id)"
            " o join(Kp(T), id) ! [P, P]")
        result = block_push_select_past_join().transform(query, rulebase)
        assert result == parse_obj(
            "join(lt @ <age o pi1, age o pi2>, id) ! [P, P]")
        assert eval_obj(result, tiny_db) == eval_obj(query, tiny_db)

    def test_selects_below_join_absorbed(self, rulebase, tiny_db):
        query = parse_obj(
            "join(Kp(T), id) o (iterate(Cp(lt, 30) @ age, id) >< id)"
            " ! [P, P]")
        result = block_push_select_past_join().transform(query, rulebase)
        assert result.args[0].op == "join"
        assert eval_obj(result, tiny_db) == eval_obj(query, tiny_db)


class TestCokoDsl:
    def test_parse_single_block(self):
        [block] = parse_coko("""
            TRANSFORMATION T1K
            USES r11, r6, r5
            BEGIN
              once! r11 ; exhaust { r6 r5 }
            END
        """)
        assert block.name == "T1K"
        assert block.uses == ("r11", "r6", "r5")

    def test_parsed_block_runs(self, rulebase, queries):
        [block] = parse_coko("""
            TRANSFORMATION T1K
            USES r11, r6, r5, r5b
            BEGIN
              once! r11 ; exhaust { r6 } ; exhaust { r5 r5b }
            END
        """)
        assert (block.transform(queries.t1k_source, rulebase)
                == queries.t1k_target)

    def test_parse_multiple_blocks(self):
        blocks = parse_coko("""
            TRANSFORMATION A
            USES r1
            BEGIN once r1 END
            TRANSFORMATION B
            USES r2
            BEGIN repeat { once r2 } ; try { once! r1 } END
        """)
        assert [b.name for b in blocks] == ["A", "B"]

    def test_group_refs_in_dsl(self, rulebase, queries):
        [block] = parse_coko("""
            TRANSFORMATION Clean
            USES group:cleanup
            BEGIN exhaust { group:cleanup } END
        """)
        term = parse_fun("id o age o id")
        assert block.transform(term, rulebase) == parse_fun("age")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_coko("TRANSFORMATION X BEGIN once r1 END")  # missing USES
        with pytest.raises(ParseError):
            parse_coko("""
                TRANSFORMATION X
                USES r1
                BEGIN exhaust { } END
            """)
        with pytest.raises(ParseError):
            parse_coko("""
                TRANSFORMATION X
                USES r1
                BEGIN frobnicate r1 END
            """)
