"""Equality-saturation search: the driver, cost-based extraction, the
optimizer's ``search="saturate"`` mode, the cross-query plan cache, the
cost-model memo, and the uncosted-plan (no-db) regression."""

from collections import Counter
from copy import deepcopy

import pytest

from repro.core.eval import eval_obj
from repro.core.parser import parse_fun
from repro.optimizer.cost import CostModel, cost_cache_stats
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.physical import JoinNestPlan
from repro.rewrite.discrimination import CompiledRuleSet
from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.rewrite.rule import rule
from repro.saturate import (Extractor, SaturationBudget, Saturator,
                            driver, extract_best)
from repro.saturate.egraph import EGraph, StaleEGraphError
from repro.saturate.ematch import EMatcher
from repro.schema.generator import (GeneratorConfig, generate_database,
                                    tiny_database)
from repro.translate.aqua_to_kola import translate_query
from repro.workloads.hidden_join import HiddenJoinSpec, hidden_join_family
from tests.regen_golden_saturation import (DATABASE, differences, load,
                                           outcomes, tier1_queries)

_DB = tiny_database(seed=17)


@pytest.fixture(scope="module")
def saturated_garage(rulebase, queries):
    engine = Engine()
    saturator = Saturator(engine, rulebase.group_compiled("saturate"))
    return saturator.run([queries.kg1])


class TestSaturator:
    def test_reaches_untangled_form(self, saturated_garage, queries):
        """Saturation from KG1 alone must discover KG2 (the greedy
        pipeline's five-block product) as an equal form."""
        run = saturated_garage
        # The e-matcher merges through e-node recombinations, so KG2 may
        # be represented without ever being inserted whole — probe
        # structurally rather than via the insertion map.
        assert run.egraph.lookup(queries.kg2) == run.root_class

    def test_terminates_with_report(self, saturated_garage):
        report = saturated_garage.report
        assert report.iterations >= 1
        assert report.enodes > 0
        assert report.rewrites_applied > 0
        assert report.saturated or report.budget_hit or \
            report.iterations == SaturationBudget().max_iterations

    def test_all_forms_in_root_class_are_equal(self, saturated_garage,
                                               queries):
        """Every representative of the root class evaluates to the
        garage query's result — saturation only ever merged equals."""
        run = saturated_garage
        reference = eval_obj(queries.kg1, _DB)
        for rep in run.egraph.sample_terms(run.root, 6):
            assert eval_obj(rep, _DB) == reference

    def test_enode_budget_respected(self, rulebase, queries):
        budget = SaturationBudget(max_iterations=50, max_enodes=40)
        saturator = Saturator(Engine(),
                              rulebase.group_compiled("saturate"), budget)
        run = saturator.run([queries.kg1])
        assert run.report.budget_hit == "enodes"
        # one overshoot round at most: growth stops right after the check
        assert run.egraph.enodes_allocated < 40 + 200

    def test_iteration_budget_respected(self, rulebase, queries):
        budget = SaturationBudget(max_iterations=1)
        saturator = Saturator(Engine(),
                              rulebase.group_compiled("saturate"), budget)
        run = saturator.run([queries.kg1])
        assert run.report.iterations == 1

    def test_seeds_merged_into_one_class(self, rulebase, queries):
        saturator = Saturator(Engine(),
                              rulebase.group_compiled("saturate"),
                              SaturationBudget(max_iterations=1))
        run = saturator.run([queries.kg1, queries.kg2])
        assert run.egraph.class_of(queries.kg1) == run.root_class
        assert run.egraph.class_of(queries.kg2) == run.root_class

    def test_no_seeds_rejected(self, rulebase):
        saturator = Saturator(Engine(),
                              rulebase.group_compiled("saturate"))
        with pytest.raises(ValueError):
            saturator.run([])


@pytest.fixture(scope="module")
def kg1_match_work(rulebase, queries):
    """One bare default-budget KG1 saturation, instrumented: ``find``
    calls and e-node reads (per pass and class) inside ``match_all``,
    and every ``rewrites_at`` representative and typed-apply pair."""
    work = {"finds": 0, "reads": Counter(), "passes": 0,
            "reps": [], "pairs": []}
    inside = [False]
    find, match_all = EGraph.find, EMatcher.match_all
    rewrites_at, typed_apply_ok = Engine.rewrites_at, driver._typed_apply_ok

    def counting_find(egraph, cid):
        if inside[0]:
            work["finds"] += 1
        return find(egraph, cid)

    def counting_read(accessor):
        def read(egraph, cid):
            if inside[0]:
                work["reads"][work["passes"], cid] += 1
            return accessor(egraph, cid)
        return read

    def pass_marking(matcher, *args, **kwargs):
        work["passes"] += 1
        inside[0] = True
        try:
            return match_all(matcher, *args, **kwargs)
        finally:
            inside[0] = False

    def recording_rewrites_at(engine, node, rules):
        work["reps"].append(node)
        return rewrites_at(engine, node, rules)

    def recording_typed_apply_ok(before, after):
        work["pairs"].append((before, after))
        return typed_apply_ok(before, after)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EGraph, "find", counting_find)
        for name in ("enodes_of", "rebuilt_enodes"):
            patch.setattr(EGraph, name,
                          counting_read(getattr(EGraph, name)))
        patch.setattr(EMatcher, "match_all", pass_marking)
        patch.setattr(Engine, "rewrites_at", recording_rewrites_at)
        patch.setattr(driver, "_typed_apply_ok", recording_typed_apply_ok)
        engine = Engine()
        run = Saturator(engine, rulebase.group_compiled("saturate")).run(
            [queries.kg1])
    return run, engine, work


class TestSharing:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_egraph_shares_ten_times_more_than_bfs(self, rulebase,
                                                   queries, depth):
        """The e-graph's reason to exist, as a count: ``depth`` rounds
        from KG1 represent at least 10x more distinct terms per
        allocated e-node than ``depth`` levels of breadth-first
        rewriting store per hash-consed term node.  BFS stops at 4,000
        terms, which can only undercount its reach."""
        rules = rulebase.group_compiled("saturate")
        engine = Engine()
        run = Saturator(engine, rules, SaturationBudget(
            max_iterations=depth)).run([queries.kg1])
        per_enode = (run.egraph.represented_total(cap=10 ** 9)
                     / run.egraph.enodes_allocated)
        seen = {canon(queries.kg1)}
        frontier = list(seen)
        for _ in range(depth):
            if len(seen) >= 4_000:
                break
            reached = []
            for term in frontier:
                for result in engine.successors(term, rules):
                    if result.term not in seen:
                        seen.add(result.term)
                        reached.append(result.term)
                if len(seen) >= 4_000:
                    break
            frontier = reached
        nodes = set()
        stack = list(seen)
        while stack:
            node = stack.pop()
            if node not in nodes:
                nodes.add(node)
                stack.extend(node.args)
        assert per_enode >= 10 * len(seen) / len(nodes)


class TestMatchWork:
    """Deterministic work counts of the e-matcher and the driver;
    nothing is timed."""

    def test_match_pass_calls_no_find(self, kg1_match_work):
        """Right after ``rebuild()`` every stored id is canonical, so
        the read-only match pass never re-canonicalizes one."""
        _, _, work = kg1_match_work
        assert work["passes"] == 8
        assert work["finds"] == 0

    def test_match_pass_reads_each_class_once(self, kg1_match_work):
        _, _, work = kg1_match_work
        assert work["reads"]
        assert max(work["reads"].values()) == 1

    def test_rewrites_at_once_per_representative(self, kg1_match_work):
        """A representative sampled again in a later round takes its
        outcomes from the run's memo."""
        _, _, work = kg1_match_work
        assert len(work["reps"]) == len(set(work["reps"]))

    def test_typed_apply_once_per_pair(self, kg1_match_work):
        _, _, work = kg1_match_work
        assert work["pairs"]
        assert len(work["pairs"]) == len(set(work["pairs"]))

    def test_memo_hits_keep_fire_counts_and_report(self, kg1_match_work):
        """Memo hits replay their fire counts, and skipped work changes
        nothing the run decides.  A class whose representatives need no
        new sample is not sampled, so it replays nothing."""
        run, engine, _ = kg1_match_work
        assert engine.stats.rewrites == 356
        report = run.report
        assert (report.iterations, report.enodes, report.classes,
                report.rewrites_applied, report.merges,
                report.match_truncations) == (8, 443, 80, 233, 363, 0)

    def test_match_all_needs_a_rebuilt_graph(self):
        """A merge since the last ``rebuild()`` leaves non-canonical
        ids behind, which the find-free pass would misread."""
        egraph = EGraph()
        chain = egraph.add(canon(parse_fun("age o id")))
        age = egraph.add(canon(parse_fun("age")))
        egraph.rebuild()
        matcher = EMatcher(egraph, [rule("drop-id", "$f o id", "$f")])
        assert [match.cid for match in matcher.match_all()] == [chain]
        egraph.merge(chain, age)
        with pytest.raises(StaleEGraphError):
            matcher.match_all()
        egraph.rebuild()
        matcher.refresh()
        assert [match.cid for match in matcher.match_all()] \
            == [egraph.find(age)]

    def test_pass_cut_between_walks_is_truncated(self):
        """Credits that run out exactly at the end of one walk still
        cut the pass: the next rule's walk never runs, so the pass
        reports itself truncated."""
        egraph = EGraph()
        egraph.add(canon(parse_fun("age o id")))
        egraph.rebuild()
        first = rule("drop-id", "$f o id", "$f")
        again = rule("drop-id-again", "$f o id", "$f")
        matcher = EMatcher(egraph, [first])
        assert len(matcher.match_all()) == 1 and not matcher.truncated
        cost = matcher.max_visits - matcher._visits
        cut = EMatcher(egraph, [first, again], max_visits=cost)
        assert [match.rule for match in cut.match_all()] == [first]
        assert cut.truncated

    def test_compose_memo_cuts_cyclic_respelling(self, monkeypatch):
        """``id``'s class holds ``id o id``, so respelling ``id o age``
        as ``id o (id o age)`` meets ``id o age`` again: the memo ends
        the recursion there instead of at the chain bound."""
        egraph = EGraph()
        ident = egraph.add(canon(parse_fun("id")))
        age = egraph.add(canon(parse_fun("age")))
        egraph.merge(ident, egraph.add(canon(parse_fun("id o id"))))
        egraph.rebuild()
        matcher = EMatcher(egraph, [])
        calls = []
        add_enode = egraph.add_enode

        def counting(*args):
            calls.append(args)
            return add_enode(*args)

        monkeypatch.setattr(egraph, "add_enode", counting)
        allocated = egraph.enodes_allocated
        cid = matcher._chain_class((ident, age))
        assert len(calls) <= 2
        assert egraph.enodes_allocated - allocated == 2
        assert egraph.find_enode("compose", None, (ident, age)) \
            == egraph.find(cid)

    def test_kg1_saturation_add_enode_calls(self, rulebase, queries,
                                            monkeypatch):
        """One default-budget KG1 saturation needs about 2.5k
        ``add_enode`` calls; many more means chain respellings are
        being re-derived within a round, or matches already
        instantiated in an earlier round are instantiated again."""
        calls = 0
        add_enode = EGraph.add_enode

        def counting(egraph, *args):
            nonlocal calls
            calls += 1
            return add_enode(egraph, *args)

        monkeypatch.setattr(EGraph, "add_enode", counting)
        Saturator(Engine(), rulebase.group_compiled("saturate")).run(
            [queries.kg1])
        assert calls <= 4_000

    def test_truncated_rounds_are_deterministic_and_sound(
            self, rulebase, queries, tiny_db):
        """A pattern-walk budget small enough to cut most rounds of K4
        still gives the same outcome on every run, and a correct plan.
        Kept walks spend no credits, so each cut pass gets further."""
        budget = SaturationBudget(max_match_visits=300)
        first, second = (
            Optimizer(rulebase, saturation_budget=budget).optimize(
                queries.k4, tiny_db, search="saturate")
            for _ in range(2))
        report = first.saturation
        assert (report.iterations, report.enodes, report.classes,
                report.rewrites_applied, report.merges, report.rule_bans,
                report.match_truncations) == (8, 98, 29, 35, 69, 206, 7)
        # An idle round whose pass was cut never saw every match.
        assert report.saturated is False
        assert first.saturation == second.saturation
        assert first.best_term is second.best_term
        assert first.execute(tiny_db) == eval_obj(queries.k4, tiny_db)


class TestKnownWork:
    """The premises of skipping work whose answer is known, as counts:
    the reachable-operator filter drops no match, and a match the
    applied set skips joins no classes."""

    def test_operator_filter_drops_no_match(self, rulebase, monkeypatch):
        """Every e-match pass of the tier-1 golden queries returns the
        same matches, in the same order, as the same pass with every
        class reaching every operator."""
        match_all = EMatcher.match_all
        passes = []

        def compared(matcher, rules=None):
            matcher._reachable_ops = lambda: dict.fromkeys(
                matcher.egraph.class_ids(), -1)
            try:
                everything = match_all(matcher, rules)
                assert not matcher.truncated
            finally:
                del matcher._reachable_ops
            found = match_all(matcher, rules)
            assert not matcher.truncated
            assert [match.key for match in found] \
                == [match.key for match in everything]
            passes.append(len(found))
            return found

        monkeypatch.setattr(EMatcher, "match_all", compared)
        queries = tier1_queries()
        outcomes(queries, rulebase)
        assert len(passes) >= len(queries) and sum(passes) > 1000

    def test_skipped_matches_join_nothing(self, rulebase, monkeypatch):
        """Instantiating every match a round skipped, on a copy of the
        graph as the round left it, joins no two of its classes."""
        names = {"KG2", "K3", "K4", "hidden-join-1-gt",
                 "hidden-join-1-gt-inapplicable", "hidden-join-1-eq",
                 "hidden-join-1-eq-inapplicable"}
        run, ematch_round = Saturator.run, Saturator._ematch_round
        match_all = EMatcher.match_all
        found: list = []
        skipped: list = []
        checked = [0]

        def check(egraph):
            if not skipped:
                return
            copy = deepcopy(egraph)
            matcher = EMatcher(copy, [])
            for match in skipped:
                copy.merge(match.cid, matcher.instantiate(match))
            copy.rebuild()
            apart = egraph.class_ids()
            assert len({copy.find(cid) for cid in apart}) == len(apart)
            checked[0] += len(skipped)
            skipped.clear()

        def recording_match_all(matcher, *args, **kwargs):
            found[:] = match_all(matcher, *args, **kwargs)
            return found

        def recording_round(saturator, egraph, *args):
            check(egraph)      # the graph as the previous round left it
            known = set(args[-1])
            progressed = ematch_round(saturator, egraph, *args)
            skipped.extend(m for m in found if m.key in known)
            return progressed

        def checked_run(saturator, *args, **kwargs):
            finished = run(saturator, *args, **kwargs)
            check(finished.egraph)
            return finished

        monkeypatch.setattr(EMatcher, "match_all", recording_match_all)
        monkeypatch.setattr(Saturator, "_ematch_round", recording_round)
        monkeypatch.setattr(Saturator, "run", checked_run)
        db = generate_database(GeneratorConfig(**DATABASE))
        for name, term in tier1_queries():
            if name in names:
                Optimizer(rulebase, search="saturate").optimize(term, db)
        assert checked[0] > 1000


def fixpoint_sizes(egraph: EGraph) -> dict[int, int]:
    """Every class's smallest term size by the whole-graph iteration
    the incremental analysis replaces: members seed, e-nodes improve."""
    sizes = {cid: egraph.members_of(cid)[0].size()
             for cid in egraph.class_ids() if egraph.members_of(cid)}
    changed = True
    while changed:
        changed = False
        for cid in egraph.class_ids():
            for _, _, child_ids in egraph.enodes_of(cid):
                kids = [egraph.find(child) for child in child_ids]
                if any(kid not in sizes for kid in kids):
                    continue
                size = 1 + sum(sizes[kid] for kid in kids)
                if size < sizes.get(cid, size + 1):
                    sizes[cid] = size
                    changed = True
    return sizes


class TestIncrementalWork:
    """Each piece of work a round skips is exactly what redoing it
    would give, checked over every round of the tier-1 golden
    queries."""

    def test_kept_walks_equal_fresh_walks(self, rulebase, monkeypatch):
        """Every (rule, class) walk a pass returns without walking has
        the keys, in the same order, of a fresh walk of that pass."""
        holds, match_all = EMatcher._holds, EMatcher.match_all
        served: list = []
        compared = [0]

        def recording_holds(matcher, entry):
            kept = holds(matcher, entry)
            if kept:
                served.append(entry)
            return kept

        def checked(matcher, *args, **kwargs):
            found = match_all(matcher, *args, **kwargs)
            keys = {id(entry): key for key, entry in matcher._kept.items()}
            rules = {one.name: one for one in matcher.rules}
            fresh = EMatcher(matcher.egraph, [])
            for entry in served:
                name, cid = keys[id(entry)]
                again = fresh._match_class(rules[name], cid)
                assert not fresh.truncated
                assert [match.key for match in again] \
                    == [match.key for match in entry[3]]
            compared[0] += len(served)
            served.clear()
            return found

        monkeypatch.setattr(EMatcher, "_holds", recording_holds)
        monkeypatch.setattr(EMatcher, "match_all", checked)
        outcomes(tier1_queries(), rulebase)
        assert compared[0] > 1000

    def test_kept_walk_rebinds_a_merged_class(self):
        """A walk that bound a class without reading its e-nodes or sort
        (an unsorted metavariable) is not kept once that class is
        merged away."""
        egraph = EGraph()
        egraph.add(canon(parse_fun("age o id")))
        wide = egraph.merge(egraph.add(canon(parse_fun("city"))),
                            egraph.add(canon(parse_fun("addr"))))
        egraph.rebuild()
        drop = rule("drop-id-any", "$f:any o id", "$f")
        matcher = EMatcher(egraph, [drop])
        matcher.match_all()
        egraph.merge(egraph.class_of(canon(parse_fun("age"))), wide)
        egraph.rebuild()
        kept = [match.key for match in matcher.match_all()]
        assert kept == [match.key
                        for match in EMatcher(egraph, [drop]).match_all()]

    def test_best_sizes_equal_the_fixpoint(self, rulebase, monkeypatch):
        """After every rebuild each class's best term has the size the
        whole-graph fixpoint finds."""
        rebuild = EGraph.rebuild
        checked = [0]

        def compared(egraph):
            rebuild(egraph)
            sizes = fixpoint_sizes(egraph)
            assert sorted(sizes) == egraph.class_ids()
            copy = deepcopy(egraph)  # building terms must not steer the run
            for cid, size in sizes.items():
                assert copy.best_term(cid).size() == size
            checked[0] += len(sizes)

        monkeypatch.setattr(EGraph, "rebuild", compared)
        outcomes(tier1_queries(), rulebase)
        assert checked[0] > 2000

    def test_one_retrieval_per_term_per_run(self, rulebase, monkeypatch):
        """Within one saturation run no (rule set, term) pair is
        retrieved from the trie twice."""
        retrieve, run = CompiledRuleSet.retrieve, Saturator.run
        seen: list = []
        inside = [False]
        total = [0]

        def recording(compiled, subject, stats=None):
            if inside[0]:
                seen.append((compiled.generation, subject))
            return retrieve(compiled, subject, stats)

        def one_run(saturator, *args, **kwargs):
            inside[0] = True
            try:
                return run(saturator, *args, **kwargs)
            finally:
                inside[0] = False
                assert len(seen) == len(set(seen))
                total[0] += len(seen)
                seen.clear()

        monkeypatch.setattr(CompiledRuleSet, "retrieve", recording)
        monkeypatch.setattr(Saturator, "run", one_run)
        outcomes(tier1_queries(), rulebase)
        assert total[0] > 500


class TestExtraction:
    def test_extracted_term_is_equal(self, saturated_garage, queries):
        best = extract_best(saturated_garage.egraph,
                            saturated_garage.root)
        assert eval_obj(best.term, _DB) == eval_obj(queries.kg1, _DB)

    def test_extraction_prefers_untangled_shape(self, saturated_garage):
        """The extraction weights price the correlated ``iter`` far
        above ``join``, so the best term of the garage class is the
        join/nest form, not the nested original."""
        best = extract_best(saturated_garage.egraph,
                            saturated_garage.root)
        assert "join" in best.term.ops
        assert "iter" not in best.term.ops

    def test_candidates_sorted_and_unique(self, saturated_garage):
        extractor = Extractor(saturated_garage.egraph)
        frontier = extractor.candidates(saturated_garage.root)
        assert frontier
        costs = [candidate.cost for candidate in frontier]
        assert costs == sorted(costs)
        terms = [candidate.term for candidate in frontier]
        assert len(terms) == len(set(terms))

    def test_costs_monotone_with_children(self, saturated_garage):
        """A class's cost strictly exceeds each child's in its chosen
        e-node (positivity — the acyclicity argument)."""
        extractor = Extractor(saturated_garage.egraph)
        egraph = saturated_garage.egraph
        for cid in egraph.class_ids():
            cost = extractor.cost_of(cid)
            _, (_, _, child_ids) = extractor._costs[egraph.find(cid)]
            for child in child_ids:
                assert cost > extractor.cost_of(child)

    def test_cyclic_class_extraction_terminates(self, rulebase):
        """Identity rules create x = id o x classes; extraction must
        still return a finite term."""
        from repro.saturate.egraph import EGraph
        from repro.core.parser import parse_fun
        from repro.rewrite.pattern import canon
        egraph = EGraph()
        x = egraph.add(canon(parse_fun("age")))
        wrapped = egraph.add(canon(parse_fun("id o age")))
        egraph.merge(x, wrapped)
        egraph.rebuild()
        best = extract_best(egraph, x)
        assert best.term == canon(parse_fun("age"))


class TestOptimizerSaturate:
    def test_never_worse_than_greedy_on_garage(self, rulebase, db,
                                               queries):
        """The C4 workload (this query and the depth family below)
        saturates well inside the default e-node budget."""
        opt = Optimizer(rulebase)
        greedy = opt.optimize(queries.kg1, db)
        saturate = opt.optimize(queries.kg1, db, search="saturate")
        assert saturate.estimated_cost <= greedy.estimated_cost
        assert isinstance(saturate.plan, JoinNestPlan)
        assert saturate.saturation.budget_hit != "enodes"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_never_worse_on_depth_family(self, rulebase, db, depth):
        opt = Optimizer(rulebase)
        query = translate_query(hidden_join_family(
            HiddenJoinSpec(depth=depth)))
        greedy = opt.optimize(query, db)
        saturate = opt.optimize(query, db, search="saturate")
        assert saturate.estimated_cost <= greedy.estimated_cost
        assert saturate.saturation.budget_hit != "enodes"

    def test_saturate_result_executes_correctly(self, rulebase, queries):
        opt = Optimizer(rulebase)
        result = opt.optimize(queries.kg1, _DB, search="saturate")
        assert result.execute(_DB) == eval_obj(queries.kg1, _DB)

    def test_report_attached(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        result = opt.optimize(queries.kg1, db, search="saturate")
        assert result.search == "saturate"
        assert result.saturation is not None
        assert "e-nodes" in result.saturation.summary()
        assert "saturation:" in result.explain()

    def test_greedy_mode_has_no_report(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        result = opt.optimize(queries.kg1, db)
        assert result.search == "greedy"
        assert result.saturation is None

    def test_default_mode_configurable(self, rulebase, db, queries):
        opt = Optimizer(rulebase, search="saturate")
        result = opt.optimize(queries.kg1, db)
        assert result.search == "saturate"

    def test_unknown_mode_rejected(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        with pytest.raises(ValueError):
            opt.optimize(queries.kg1, db, search="bfs")
        with pytest.raises(ValueError):
            Optimizer(rulebase, search="bfs")

    def test_tight_budget_degrades_to_greedy(self, rulebase, db, queries):
        """An immediately exhausted budget still yields the greedy plan
        (its forms are seeds), never something worse."""
        opt = Optimizer(rulebase, saturation_budget=SaturationBudget(
            max_iterations=1, max_enodes=1))
        greedy = opt.optimize(queries.kg1, db)
        saturate = opt.optimize(queries.kg1, db, search="saturate")
        assert saturate.estimated_cost <= greedy.estimated_cost
        assert saturate.saturation.budget_hit == "enodes"


class TestGoldenOutcomes:
    def test_saturation_outcomes_match_golden(self, rulebase):
        """The paper's KOLA queries, KG1 and the depth-1 hidden-join
        family keep their chosen term, plan, cost, extraction frontier
        and report.  After an intentional change, regenerate with
        ``PYTHONPATH=src python -m tests.regen_golden_saturation``."""
        fresh = outcomes(tier1_queries(), rulebase)
        pinned = load()["queries"]
        assert differences(fresh, pinned) == []
        assert fresh == pinned


class TestPlanCache:
    def test_repeat_query_hits(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        first = opt.optimize(queries.kg1, db)
        second = opt.optimize(queries.kg1, db)
        assert second is first
        info = opt.plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_equivalent_spellings_share_entry(self, rulebase, db,
                                              queries):
        """The key is the *canonical interned* term: the AQUA garage
        query and its translated KOLA term are one cache entry."""
        opt = Optimizer(rulebase)
        opt.optimize(queries.kg1, db)
        again = opt.optimize(queries.garage_aqua, db)
        assert again.untangled == queries.kg2
        assert opt.plan_cache_info()["hits"] == 1

    def test_search_modes_cached_separately(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        greedy = opt.optimize(queries.kg1, db)
        saturate = opt.optimize(queries.kg1, db, search="saturate")
        assert saturate is not greedy
        assert opt.plan_cache_info()["misses"] == 2
        assert opt.optimize(queries.kg1, db, search="saturate") is saturate
        assert opt.plan_cache_info()["hits"] == 1

    def test_db_stats_change_invalidates(self, rulebase, queries):
        opt = Optimizer(rulebase)
        small = tiny_database(seed=17)
        opt.optimize(queries.kg1, small)
        bigger = generate_database(GeneratorConfig(
            n_persons=20, n_vehicles=5, n_addresses=4, seed=17))
        result = opt.optimize(queries.kg1, bigger)
        info = opt.plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2
        assert result.estimated_cost is not None

    def test_same_stats_different_db_object_hits(self, rulebase, queries):
        """Two databases with identical cardinalities share the entry —
        the key is the stats fingerprint, not object identity."""
        opt = Optimizer(rulebase)
        opt.optimize(queries.kg1, tiny_database(seed=17))
        opt.optimize(queries.kg1, tiny_database(seed=17))
        assert opt.plan_cache_info()["hits"] == 1

    def test_rulebase_change_invalidates(self, db, queries):
        from repro.rules.registry import standard_rulebase
        base = standard_rulebase()
        opt = Optimizer(base)
        opt.optimize(queries.kg1, db)
        base.extend_group("scratch-group", ["r18"])  # bumps generation
        opt.optimize(queries.kg1, db)
        info = opt.plan_cache_info()
        assert info["hits"] == 0 and info["misses"] == 2

    def test_clear_plan_cache(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        opt.optimize(queries.kg1, db)
        opt.clear_plan_cache()
        assert opt.plan_cache_info()["size"] == 0
        opt.optimize(queries.kg1, db)
        assert opt.plan_cache_info()["misses"] == 2

    def test_cache_bounded(self, rulebase, db, queries):
        opt = Optimizer(rulebase)
        opt.PLAN_CACHE_MAX = 1
        opt.optimize(queries.kg1, db)
        opt.optimize(queries.t1k_source, db)
        assert opt.plan_cache_info()["size"] == 1


class TestUncostedPlans:
    """Regression: without a database the optimizer used to report
    ``float("nan")`` for recognized join plans — which compares False
    against everything and printed as ``nan`` in explain()."""

    def test_cost_is_none_without_db(self, rulebase, queries):
        opt = Optimizer(rulebase)
        result = opt.optimize(queries.kg1)
        assert result.estimated_cost is None
        assert isinstance(result.plan, JoinNestPlan)

    def test_explain_never_prints_nan(self, rulebase, queries):
        opt = Optimizer(rulebase)
        text = opt.optimize(queries.kg1).explain()
        assert "nan" not in text
        assert "not costed" in text
        assert "est. cost" in text

    def test_saturate_without_db(self, rulebase, queries):
        result = Optimizer(rulebase).optimize(queries.kg1,
                                              search="saturate")
        assert result.estimated_cost is None
        assert isinstance(result.plan, JoinNestPlan)
        assert eval_obj(result.chosen, _DB) == eval_obj(queries.kg1, _DB)

    def test_costed_path_unaffected(self, rulebase, db, queries):
        result = Optimizer(rulebase).optimize(queries.kg1, db)
        assert result.estimated_cost == pytest.approx(
            result.plan.cost_estimate(db, CostModel()))


class TestCostMemo:
    def test_repeat_estimate_hits(self, db, queries):
        model = CostModel()
        before = cost_cache_stats()
        first = model.estimate(queries.kg1, db)
        second = model.estimate(queries.kg1, db)
        after = cost_cache_stats()
        assert first == second
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1

    def test_stats_fingerprint_shared_across_dbs(self, queries):
        """Same cardinalities, different Database objects: one memo
        entry (the key is the fingerprint)."""
        model = CostModel()
        first = model.estimate(queries.kg1, tiny_database(seed=17))
        before = cost_cache_stats()
        second = model.estimate(queries.kg1, tiny_database(seed=17))
        assert first == second
        assert cost_cache_stats().hits == before.hits + 1

    def test_different_stats_miss(self, queries):
        model = CostModel()
        model.estimate(queries.kg1, tiny_database(seed=17))
        before = cost_cache_stats()
        model.estimate(queries.kg1, generate_database(GeneratorConfig(
            n_persons=30, n_vehicles=5, n_addresses=4, seed=17)))
        assert cost_cache_stats().misses == before.misses + 1

    def test_tuning_params_part_of_key(self, db, queries):
        loose = CostModel(selectivity=0.9)
        tight = CostModel(selectivity=0.1)
        assert loose.estimate(queries.kg1, db) != \
            tight.estimate(queries.kg1, db)

    def test_cache_bounded(self, db, queries):
        model = CostModel()
        model.ESTIMATE_CACHE_MAX = 2
        for query in (queries.kg1, queries.kg2, queries.k3, queries.k4):
            model.estimate(query, db)
        assert model.estimate_cache_info()["size"] <= 2
