"""Verification of the whole rule pool with the Larch substitute.

Every shipped rule is checked on randomized well-typed instantiations
(one test per rule, so failures name the rule).  The paper's literal
rule 7 must be *refuted* — the checker is only trustworthy if it can
reject unsound rules, so deliberately wrong rules are included too
(failure injection)."""

import pytest

from repro.core.errors import VerificationError
from repro.core.terms import Sort
from repro.larch.checker import RuleChecker, check_rule
from repro.rewrite.rule import rule
from repro.rules.refutable import PAPER_LITERAL_RULE_7
from repro.rules.registry import standard_rulebase

_RULEBASE = standard_rulebase()
_CHECKER = RuleChecker(trials=60)

_ALL_RULE_NAMES = [r.name for r in _RULEBASE.all_rules()]


@pytest.mark.parametrize("name", _ALL_RULE_NAMES)
def test_rule_is_sound(name):
    report = _CHECKER.check(_RULEBASE.get(name))
    if not report.passed:
        pytest.fail(f"rule {name} refuted:\n"
                    + report.counterexample.render())


_BIDIRECTIONAL = [r.name for r in _RULEBASE.all_rules()
                  if r.bidirectional
                  and not (r.lhs.metavars() - r.rhs.metavars())
                  and r.reverse_type_safe]


@pytest.mark.parametrize("name", _BIDIRECTIONAL)
def test_reversed_rule_is_sound(name):
    """Bidirectional rules must be sound right-to-left too (the paper
    uses rules 2, 12 and 14 that way)."""
    report = _CHECKER.check(_RULEBASE.get(name).reversed())
    assert report.passed, f"reverse of {name} refuted"


class TestFailureInjection:
    def test_paper_literal_rule7_refuted(self):
        """inv(gt) == leq is unsound under the converse reading: take
        x = y (2 > 2 is false but 2 <= 2 is true)."""
        with pytest.raises(VerificationError) as excinfo:
            check_rule(PAPER_LITERAL_RULE_7, trials=300)
        assert excinfo.value.counterexample is not None

    def test_wrong_projection_refuted(self):
        bad = rule("bad-proj", "pi1 o <$f, $g>", "$g", bidirectional=False)
        with pytest.raises(VerificationError):
            check_rule(bad, trials=300)

    def test_wrong_fusion_refuted(self):
        # iterate fusion with the predicates swapped
        bad = rule("bad-fuse", "iterate($p, $f) o iterate($q, $g)",
                   "iterate($p & ($q @ $g), $f o $g)", bidirectional=False)
        with pytest.raises(VerificationError):
            check_rule(bad, trials=300)

    def test_wrong_demorgan_refuted(self):
        bad = rule("bad-dm", "~($p & $q)", "~$p & ~$q", sort=Sort.PRED,
                   bidirectional=False)
        with pytest.raises(VerificationError):
            check_rule(bad, trials=300)

    def test_nest_misprint_refuted(self):
        """Rule 19 as literally printed (nest(pi1, pi1)) is ill-typed or
        unsound; our checker rejects the closest well-typed reading."""
        bad = rule("bad-nest19",
                   "iterate(Kp(T), <id, Kf($B)>) ! $A",
                   "nest(pi1, pi1) o <join(Kp(T), id), pi1> ! [$A, $B]",
                   sort=Sort.OBJ, bidirectional=False)
        with pytest.raises(VerificationError):
            check_rule(bad, trials=300)

    def test_report_rendering(self):
        from repro.larch.report import pool_report, render_report
        reports = pool_report([_RULEBASE.get("r1"), _RULEBASE.get("r11")],
                              trials=20)
        text = render_report(reports)
        assert "r1" in text and "2/2 rules verified" in text


class TestPoolShape:
    def test_paper_rules_all_present(self):
        for number in range(1, 25):
            assert _RULEBASE.by_number(number) is not None

    def test_pool_size_reported(self):
        """The paper's pool had 500+ proved rules; ours is smaller but
        must stay substantial (EXPERIMENTS.md records the count)."""
        assert len(_RULEBASE) >= 100

    def test_groups_nonempty(self):
        for group in ("fig4", "fig5", "fig8", "cleanup", "simplify",
                      "pool", "conditional", "pair-to-cross"):
            assert _RULEBASE.group(group)

    def test_simplify_group_terminates_quickly(self, rulebase, tiny_db):
        """The simplify group must be terminating (no expansionary or
        structural rules)."""
        from repro.core.parser import parse_obj
        from repro.rewrite.engine import Engine
        query = parse_obj(
            "iterate(Kp(T), id o city o id) o iterate(Kp(T) & Kp(T), "
            "addr o id) ! P")
        engine = Engine()
        result = engine.normalize(query, rulebase.group("simplify"),
                                  max_steps=200)
        again = engine.normalize(result, rulebase.group("simplify"),
                                 max_steps=5)
        assert result == again  # a true fixpoint, not a step cap
