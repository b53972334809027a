"""The equality-saturation driver.

Each round runs two complementary match passes over the e-graph:

1. **E-matching** (:mod:`repro.saturate.ematch`) — every rule's LHS is
   matched against every e-class, metavariables binding to whole
   classes, and the RHS is instantiated directly as e-nodes.  This is
   the complete pass: it sees spellings that exist only as e-node
   recombinations, which is what lets saturation retrace derivations
   that grow a term before paying off (the hidden-join untangling).
2. **Representative rewriting** — a bounded set of member terms per
   class (:meth:`~repro.saturate.egraph.EGraph.sample_terms`) is pushed
   through :meth:`~repro.rewrite.engine.Engine.rewrites_at`, covering
   the engine's special application phases (typed-apply checks,
   precondition oracles, invocation peeling) that the structural
   e-matcher does not model.

Rewrites inside subterms need no positional bookkeeping in either pass:
every subterm is the root of its own e-class, and congruence closure
(:meth:`~repro.saturate.egraph.EGraph.rebuild`) propagates child merges
into every enclosing context — exactly the duplicated work that naive
``Engine.successors`` BFS pays once per context.

Budgets make the search total: the pool contains expansionary rules
(rule 17 and friends grow terms without bound), so the driver stops at
``max_iterations`` rounds or ``max_enodes`` allocated e-nodes,
whichever comes first.  The e-graph is valid at every point, so hitting
a budget degrades to "best plan found so far" rather than failure — the
optimizer additionally keeps the greedy pipeline's result as a seed, so
budget exhaustion can never produce a worse plan than greedy.

A round redoes only the work whose inputs changed.

* **Kept walks.**  The e-matcher returns a (rule, class) walk's matches
  without walking while none of the classes it read has changed
  (:mod:`repro.saturate.ematch`), so an unchanged region of the graph
  costs one stamp check per walk.
* **Kept samples.**  A class whose representatives were sampled and
  every firing applied is not sampled again while its members, its
  e-nodes and its children's best terms stand
  (:meth:`~repro.saturate.egraph.EGraph.view_unchanged_since`): its
  firings would only re-add terms already merged into it.  A firing a
  ban dropped keeps the class unrecorded until it is applied.
* **One retrieval table per run.**  Every representative round's
  direct, window and peel trie retrievals go through one table keyed
  by (compiled rule set, interned term)
  (:meth:`~repro.rewrite.engine.Engine.retrieval_memo`), and each
  representative's ``rewrites_at`` outcome is memoized; both depend
  only on the term and the pool.
* **Best terms** are an incremental e-class analysis the e-graph keeps
  (:mod:`repro.saturate.egraph`); no round recomputes them whole.

The run also keeps the key of every e-match it instantiated — the
rule, the root class and the bindings and framing, ids as the pass
enumerated them — and a match found again in a later round is skipped
before its typed-apply check.  Ids are canonical when a match is
enumerated, so a key whose ids have merged since can only miss (one
harmless re-instantiation), never skip a match the run has not
applied.  A typed-apply rejection
is not recorded (best terms change, so it is judged again), nor is a
match the e-node budget cut off.  Re-instantiating a known match is
worse than its own cost: merges earlier in the round leave ids
non-canonical, so it allocates duplicate e-nodes that the next
``rebuild`` merges away, which the driver would count as progress.

A **backoff scheduler** (after egg's ``BackoffScheduler``) keeps
unproductive rules from dominating rounds: a rule that yields no new
e-nodes for ``backoff_threshold`` consecutive rounds is banned for a
cooldown that doubles on every repeat offense, and banned rules are
skipped during matching.  A fixpoint is only declared *saturated* when
a round with **no** rules banned makes no progress — an idle round
with bans outstanding lifts the bans and retries instead, so backoff
never changes what saturation can reach, only how fast it gets there.
An idle round whose e-match pass ran out of visit credits is no
fixpoint either: matches it never reached may still add e-nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.terms import Term
from repro.rewrite.engine import Engine, _typed_apply_ok
from repro.saturate.egraph import EGraph
from repro.saturate.ematch import EMatcher


@dataclass(frozen=True)
class SaturationBudget:
    """Resource limits for one saturation run.

    Attributes:
        max_iterations: saturation rounds (each round e-matches every
            rule against every e-class once).
        max_enodes: stop once this many e-nodes have been allocated.
        reps_per_class: representative terms rewritten per class per
            round by the engine-based pass (0 disables it).
        backoff_threshold: consecutive rounds a rule may run without
            producing a new e-node before it is banned (0 disables
            backoff entirely).
        backoff_cooldown: rounds of the first ban; each later ban of
            the same rule lasts twice as long as its previous one.
        max_match_visits: pattern-walk steps the e-matcher may spend
            per round.  ``max_enodes`` bounds what a round *adds* but
            not what it *explores* — chain-heavy classes admit
            exponentially many failed decompositions, so exploration
            needs its own deterministic cap.  Exhaustion truncates the
            round (recorded as ``match_truncations``), never aborts
            the run.
        incremental_match: keep e-match walks and representative
            samples across rounds and reuse them while their inputs
            are unchanged (see the module docstring).  Exact: a kept
            walk is what a fresh walk would find, and a skipped sample
            would only re-add terms already merged into its class, so
            every report field is the same either way.  ``False``
            walks and samples every class afresh each round (the
            escape hatch).
    """

    max_iterations: int = 8
    max_enodes: int = 20_000
    reps_per_class: int = 2
    backoff_threshold: int = 2
    backoff_cooldown: int = 1
    max_match_visits: int = 1_000_000
    incremental_match: bool = True


@dataclass
class SaturationReport:
    """What a saturation run did (attached to the optimizer output)."""

    iterations: int = 0
    enodes: int = 0
    classes: int = 0
    rewrites_applied: int = 0
    merges: int = 0
    saturated: bool = False
    budget_hit: str | None = None
    #: Backoff-scheduler ban events (a rule entering cooldown).
    rule_bans: int = 0
    #: Rule-rounds skipped because the rule was banned.
    banned_skips: int = 0
    #: Rounds whose e-match pass ran out of pattern-walk credits.
    match_truncations: int = 0
    #: Whether the run reused an already-saturated e-graph.
    warm_start: bool = False
    #: E-nodes allocated *by this run* (equals ``enodes`` for cold
    #: runs; warm runs start from a non-empty graph).
    enodes_added: int = 0

    def summary(self) -> str:
        state = ("saturated" if self.saturated
                 else f"budget hit ({self.budget_hit})"
                 if self.budget_hit else "iteration cap")
        backoff = (f", {self.rule_bans} rule ban(s) "
                   f"({self.banned_skips} rule-rounds skipped)"
                   if self.rule_bans else "")
        truncated = (f", {self.match_truncations} truncated "
                     f"e-match round(s)" if self.match_truncations else "")
        return (f"{self.iterations} iteration(s), {self.enodes} e-nodes, "
                f"{self.classes} classes, "
                f"{self.rewrites_applied} rewrites applied{backoff}"
                f"{truncated} — {state}")


@dataclass
class SaturationRun:
    """A finished run: the e-graph, the root class, and the report."""

    egraph: EGraph
    root: int
    report: SaturationReport
    seeds: tuple[Term, ...] = field(default=())

    @property
    def root_class(self) -> int:
        return self.egraph.find(self.root)


class Saturator:
    """Applies a rule pool to an e-graph until fixpoint or budget."""

    def __init__(self, engine: Engine, rules,
                 budget: SaturationBudget | None = None) -> None:
        self.engine = engine
        self.rules = rules
        self.budget = budget or SaturationBudget()

    def run(self, seeds: list[Term] | tuple[Term, ...],
            egraph: EGraph | None = None) -> SaturationRun:
        """Saturate starting from ``seeds``.

        All seeds are asserted equal (they must be rule-derivable from
        one another — the optimizer seeds the initial query plus the
        greedy pipeline's forms) and merged into one root class.

        Passing an ``egraph`` warm-starts the run on an existing
        (typically already-saturated) graph: the seeds are added and
        merged into one *new* root, and the enode budget counts only
        nodes allocated past the graph's starting size.  The seeds are
        never merged with pre-existing classes directly — any equality
        between this query and earlier occupants must be (re)derived by
        rules and congruence, which keeps sharing sound.
        """
        if not seeds:
            raise ValueError("saturation needs at least one seed term")
        budget = self.budget
        report = SaturationReport()
        if egraph is None:
            egraph = EGraph()
        else:
            report.warm_start = True
        baseline = egraph.enodes_allocated
        root = egraph.add(seeds[0])
        for seed in seeds[1:]:
            root = egraph.merge(root, egraph.add(seed))
        egraph.rebuild()
        matcher = EMatcher(egraph, self.rules,
                           max_visits=budget.max_match_visits)
        with self.engine.retrieval_memo():
            self._rounds(egraph, matcher, report, baseline)
        root = egraph.find(root)
        report.enodes = egraph.enodes_allocated
        report.enodes_added = egraph.enodes_allocated - baseline
        report.classes = egraph.class_count()
        report.merges = egraph.merges
        return SaturationRun(egraph=egraph, root=root, report=report,
                             seeds=tuple(seeds))

    def _rounds(self, egraph: EGraph, matcher: EMatcher,
                report: SaturationReport, baseline: int) -> None:
        """Run saturation rounds until a fixpoint or a budget."""
        budget = self.budget
        incremental = budget.incremental_match
        # Backoff-scheduler state, all keyed by rule name: rounds of
        # consecutive unproductivity, the round index a ban ends at,
        # and the length the rule's *next* ban will have.
        streak: dict[str, int] = {}
        banned_until: dict[str, int] = {}
        next_cooldown: dict[str, int] = {}
        # Run-scoped memos of pure per-term results: a representative's
        # ``rewrites_at`` outcomes and a ground pair's typed-apply
        # verdict depend only on the term(s), the rule pool and the
        # engine's oracle, none of which change during a run.
        outcomes: dict[Term, list] = {}
        verdicts: dict[tuple[Term, Term], bool] = {}
        # Keys (``EMatch.key``) of the e-matches instantiated so far:
        # a match found again in a later round is skipped.
        applied: set[tuple] = set()
        # Class -> the clock its representatives were sampled at, for
        # the classes whose every firing was then applied.
        sampled: dict[int, int] | None = {} if incremental else None

        for iteration in range(budget.max_iterations):
            if egraph.enodes_allocated - baseline >= budget.max_enodes:
                report.budget_hit = "enodes"
                break
            report.iterations = iteration + 1
            matcher.refresh()
            if not incremental:
                matcher.forget_walks()
            active = [rule for rule in matcher.rules
                      if banned_until.get(rule.name, 0) <= iteration]
            banned = {rule.name for rule in matcher.rules} \
                - {rule.name for rule in active}
            report.banned_skips += len(banned)
            produced: set[str] = set()
            progressed = self._ematch_round(egraph, matcher, report,
                                            budget, active, produced,
                                            baseline, verdicts, applied)
            if not report.budget_hit and budget.reps_per_class:
                progressed |= self._representative_round(
                    egraph, report, budget, banned, produced,
                    baseline, outcomes, sampled)
            egraph.rebuild()
            if report.budget_hit:
                break
            if not progressed and not banned and not matcher.truncated:
                # A full round with every rule active and every match
                # seen changed nothing: that is a genuine fixpoint.
                report.saturated = True
                break
            if not progressed:
                # An idle round proves nothing while rules were
                # skipped: lift every ban and run a full round before
                # declaring a fixpoint.
                banned_until.clear()
                continue
            if budget.backoff_threshold > 0:
                for rule in active:
                    name = rule.name
                    if name in produced:
                        streak[name] = 0
                        continue
                    streak[name] = streak.get(name, 0) + 1
                    if streak[name] >= budget.backoff_threshold:
                        length = next_cooldown.get(
                            name, max(1, budget.backoff_cooldown))
                        banned_until[name] = iteration + 1 + length
                        next_cooldown[name] = length * 2
                        streak[name] = 0
                        report.rule_bans += 1

    # -- the two passes -----------------------------------------------------

    def _ematch_round(self, egraph: EGraph, matcher: EMatcher,
                      report: SaturationReport,
                      budget: SaturationBudget, rules: list,
                      produced: set[str],
                      baseline: int,
                      verdicts: dict[tuple[Term, Term], bool],
                      applied: set[tuple]) -> bool:
        """Match the active ``rules`` against every class, instantiate
        each RHS as e-nodes, merge.  Rule names that created anything
        new land in ``produced`` (the backoff scheduler's productivity
        signal).  ``verdicts`` memoizes the typed-apply guard per
        ground pair.  ``applied`` holds the run's instantiated match
        keys: a match already in it is skipped, and a match joins it
        once instantiated (a typed-apply rejection is judged again in a
        later round, as best terms change).  Returns whether anything
        changed."""
        progressed = False
        for match in matcher.match_all(rules):
            if match.key in applied:
                continue
            if match.rule.needs_typed_apply:
                pair = matcher.ground_pair(match)
                verdict = verdicts.get(pair)
                if verdict is None:
                    verdict = verdicts[pair] = _typed_apply_ok(*pair)
                if not verdict:
                    continue
            new_cid = matcher.instantiate(match)
            applied.add(match.key)
            if egraph.find(new_cid) != egraph.find(match.cid):
                progressed = True
                produced.add(match.rule.name)
                report.rewrites_applied += 1
            egraph.merge(match.cid, new_cid)
            if egraph.enodes_allocated - baseline >= budget.max_enodes:
                report.budget_hit = "enodes"
                break
        if matcher.truncated:
            report.match_truncations += 1
        return progressed

    def _representative_round(self, egraph: EGraph,
                              report: SaturationReport,
                              budget: SaturationBudget,
                              banned: set[str],
                              produced: set[str],
                              baseline: int,
                              outcomes: dict[Term, list],
                              sampled: dict[int, int] | None) -> bool:
        """Rewrite sampled member terms through the engine (covers
        oracle preconditions, typed application and peeling — the
        phases the structural e-matcher does not model).  Firings of
        ``banned`` rules are dropped; productive rule names land in
        ``produced``.  ``outcomes`` memoizes ``rewrites_at`` per
        representative; a hit replays its fire counts, as the engine's
        normal-form cache does.  ``sampled`` (``None``: sample every
        class) records the classes whose every firing was applied, and
        such a class is skipped while its view of the graph stands."""
        engine = self.engine
        matches: list[tuple[int, str, Term]] = []
        complete: list[int] = []
        for cid in egraph.class_ids():
            if sampled is not None:
                clock = sampled.get(cid)
                if (clock is not None
                        and egraph.view_unchanged_since(cid, clock)):
                    continue
            dropped = False
            for rep in egraph.sample_terms(cid, budget.reps_per_class):
                fired = outcomes.get(rep)
                if fired is None:
                    fired = outcomes[rep] = engine.rewrites_at(
                        rep, self.rules)
                else:
                    for rule, _, _ in fired:
                        engine.stats.count_rule(rule.name)
                for rule, new_term, _ in fired:
                    if rule.name in banned:
                        dropped = True
                        continue
                    matches.append((cid, rule.name, new_term))
            if not dropped:
                complete.append(cid)
        clock = egraph.clock  # every view sampled above is at or before it
        progressed = False
        for cid, rule_name, new_term in matches:
            new_id = egraph.add(new_term)
            if egraph.find(new_id) != egraph.find(cid):
                progressed = True
                produced.add(rule_name)
                report.rewrites_applied += 1
            egraph.merge(cid, new_id)
            if egraph.enodes_allocated - baseline >= budget.max_enodes:
                report.budget_hit = "enodes"
                return progressed
        if sampled is not None:
            for cid in complete:
                sampled[cid] = clock
        return progressed
