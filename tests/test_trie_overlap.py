"""Overlapping rules under compiled dispatch: list order stays
priority order.

:mod:`repro.rewrite.overlap` surfaces positions where two rules apply
to the same term (critical pairs); at such a *peak* the engine's
contract is that the rule earlier in the list fires, whatever the
dispatch tier.  The discrimination tree stores all patterns in one
trie — including patterns sharing a ``compose`` head with different
arities, which reach the same subject by different mechanisms (direct
chain edges vs chain windows) — so these tests pin the priority
contract at exactly the places it could silently break.
"""

from __future__ import annotations

from repro.core import constructors as C
from repro.core.terms import Term
from repro.rewrite.discrimination import compiled_ruleset
from repro.rewrite.engine import Engine
from repro.rewrite.overlap import find_overlaps
from repro.rewrite.pattern import canon
from repro.rewrite.rule import rule
from repro.rewrite.ruleindex import rule_index


def _lit(value) -> Term:
    return Term("lit", (), value)


def _fire(term, rules):
    """rewrite_once under both dispatch paths; assert they agree on
    rule and result, then return (rule name, result term)."""
    outcomes = []
    for engine in (Engine(),                                 # compiled
                   Engine(indexed=False)):                   # linear
        result = engine.rewrite_once(term, list(rules))
        outcomes.append(None if result is None
                        else (result.rule.name, result.term, result.path))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_same_arity_compose_overlap_keeps_list_order(rulebase):
    """r1 ($f o id) and r8 (Kf($k) o $f) both match ``Kf(k) o id``
    directly; whichever is listed first fires — under every tier."""
    r1, r8 = rulebase.get("r1"), rulebase.get("r8")
    peak = canon(C.compose(C.const_f(_lit("k")), C.id_()))

    first = _fire(peak, [r1, r8])
    assert first is not None and first[0] == "r1"
    second = _fire(peak, [r8, r1])
    assert second is not None and second[0] == "r8"
    # both fire *at the root*, so this is a genuine priority race
    assert first[2] == second[2] == ()


def test_different_arity_shared_compose_head_keeps_list_order():
    """Two rules share the ``compose`` head with different arities: the
    3-factor rule matches a 3-chain directly, the 2-factor rule only
    via a chain window.  Rule-major order must still decide."""
    two = rule("ov-two", "Kf($k) o $f", "Kf($k)")
    three = rule("ov-three", "Kf($k) o id o $f", "$f")
    subject = canon(C.compose_chain(C.const_f(_lit("k")), C.id_(),
                                    C.prim("payload")))

    listed_first = _fire(subject, [two, three])
    assert listed_first is not None and listed_first[0] == "ov-two"
    swapped = _fire(subject, [three, two])
    assert swapped is not None and swapped[0] == "ov-three"


def test_window_vs_direct_same_rule_order():
    """A 2-factor rule listed before a direct 3-factor match still wins
    via its window — the compiled window phase must not defer to a
    later rule's direct hit."""
    windowed = rule("ov-win", "$f o id", "$f")
    direct = rule("ov-direct", "Kf($k) o id o $g", "Kf($k) o $g")
    subject = canon(C.compose_chain(C.const_f(_lit("v")), C.id_(),
                                    C.prim("tail")))

    outcome = _fire(subject, [windowed, direct])
    assert outcome is not None and outcome[0] == "ov-win"
    outcome = _fire(subject, [direct, windowed])
    assert outcome is not None and outcome[0] == "ov-direct"


def test_trie_hits_sorted_by_rule_position():
    """Retrieval returns candidates in ascending list position — the
    invariant the engine's priority loop rests on."""
    pool = [rule("ov-a", "$f o id", "$f"),
            rule("ov-b", "Kf($k) o $f", "Kf($k)"),
            rule("ov-c", "$f", "$f o id"),
            rule("ov-d", "Kf($k) o id", "Kf($k)")]
    compiled = compiled_ruleset(rule_index(tuple(pool)))
    subject = canon(C.compose(C.const_f(_lit("v")), C.id_()))
    hits = compiled.retrieve(subject)
    positions = [position for position, _, _ in hits]
    assert positions == sorted(positions)
    # every rule matches this subject: 0,1,3 directly, 2 as wildcard
    assert positions == [0, 1, 2, 3]


def test_pool_overlap_peaks_fire_identically(rulebase):
    """For every overlap among the Figure 4/5 rules, the peak term
    rewrites identically (same rule, same result) under compiled and
    uncompiled dispatch, in both list orders."""
    rules = rulebase.group("fig4") + rulebase.group("fig5")
    peaks = 0
    for outer in rules:
        for inner in rules:
            for overlap in find_overlaps(outer, inner):
                if overlap.peak.metavars():
                    continue  # peaks with free metavariables are not
                    # engine subjects
                _fire(overlap.peak, [outer, inner])
                _fire(overlap.peak, [inner, outer])
                peaks += 1
    assert peaks > 0
