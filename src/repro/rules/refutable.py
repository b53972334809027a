"""Deliberately unsound rules: the verifier's negative fixtures.

Every rule here is *refutable* — the Larch-substitute checker must find
a counterexample for each — so none belongs to a rule pack or to any
group of :func:`~repro.rules.registry.standard_rulebase`.  They exist so
tests and benchmarks can show that the checker rejects plausible-looking
mistakes (a checker that never refutes anything is not evidence).
:data:`UNSOUND_MAP_LISTIFY` also needs ``allow_type_narrowing``, which
the ``.kpack`` format cannot express.

The count bug (Kim [24], via the paper's Section 1.2): unnesting a
correlated COUNT subquery into a join-then-group plan **loses the zero
groups** — outer elements with no join partners silently disappear, so
their count should be 0 but the row is gone.  The correct unnesting is
the pool's ``count-unnest`` rule: KOLA's ``nest`` takes the outer set as
its second argument (the paper's NULL-free design, Section 3), so
elements with no partners are paired with the empty set, whose count is
0.  :data:`COUNT_BUG` is Kim's version, which draws the grouping keys
from the join result itself; it type-checks and looks plausible, and the
checker refutes it with an outer element that has no partners.
"""

from __future__ import annotations

from repro.core.terms import Sort
from repro.rewrite.rule import Rule, rule

#: The paper's rule 7 *as printed* — unsound under the converse reading
#: (DESIGN.md, fidelity note on rule 7; EXPERIMENTS.md).
PAPER_LITERAL_RULE_7: Rule = rule(
    "r7-paper-literal", "inv(gt)", "leq", sort=Sort.PRED,
    citation="Figure 4", bidirectional=False,
    note="as printed in the paper; refutable (take x = y)")

#: Kim's buggy unnesting: group the join by its own first components.
#: Outer elements with no partners are lost (their count-0 rows vanish).
COUNT_BUG: Rule = rule(
    "count-bug",
    "iterate(Kp(T), <id, count o iter($p, pi2) o <id, Kf($B)>>) ! $A",
    "iterate(Kp(T), (id >< count)) o nest(pi1, pi2)"
    " o <join($p, id), iterate(Kp(T), pi1) o join($p, id)> ! [$A, $B]",
    sort=Sort.OBJ, bidirectional=False,
    citation="aggregates / count-bug study",
    note="REFUTABLE: grouping keys come from the join result, so "
         "partnerless elements of A disappear — the count bug")

#: The classic set/bag SUM distinction: summing the support forgets
#: multiplicities.
UNSOUND_SUM_DISTINCT: Rule = rule(
    "sum-distinct-unsound", "ssum o distinct", "bag_sum",
    citation="aggregates / count-bug study", bidirectional=False,
    note="false: SUM over a bag counts duplicates, SUM over its support "
         "does not (counterexample: the bag {3, 3})")

#: Count over distinct vs bag count: same shape of mistake.
UNSOUND_COUNT_DISTINCT: Rule = rule(
    "count-distinct-unsound", "count o distinct", "bag_count",
    citation="aggregates / count-bug study", bidirectional=False,
    note="false: COUNT DISTINCT is not COUNT")

#: ``tobag o distinct == id`` forgets multiplicities.
UNSOUND_TOBAG_DISTINCT: Rule = rule(
    "tobag-distinct-unsound", "tobag o distinct", "id",
    citation="bag extension (Section 6)", bidirectional=False,
    note="false: collapses multiplicities (counterexample: any bag with "
         "a repeated element)")

#: A plausible flattening rule refuted while developing the bag
#: extension: flattening via bags counts how many member sets contain an
#: element; flattening via sets cannot.
UNSOUND_BAG_FLAT_TOBAG: Rule = rule(
    "bag-flat-tobag-unsound",
    "bag_flat o tobag o iterate(Kp(T), tobag)",
    "tobag o flat",
    citation="bag extension (Section 6)", bidirectional=False,
    note="false when an element occurs in two different member sets")

#: Why the list pool has no map/listify commutation: mapping before
#: ordering sorts by the *image*'s keys, not the source's.
UNSOUND_MAP_LISTIFY: Rule = rule(
    "map-listify-unsound",
    "list_iterate(Kp(T), $f) o listify($g)",
    "listify($g) o iterate(Kp(T), $f)",
    citation="list extension (Section 6)", bidirectional=False,
    allow_type_narrowing=True,
    note="false: the RHS orders images by g-of-image, the LHS by "
         "g-of-source; also the RHS deduplicates images.  This rule is "
         "doubly broken — it also narrows the type (the forward guard "
         "flags it; opted out here to let the semantic checker refute "
         "it too)")
