"""Constant abstraction and the two-level plan cache.

Covers the abstraction primitives (skeleton/bindings round trip, slot
numbering, the scalar-only policy), the parameterized plan-cache level
(family hits, invalidation by rulebase generation and db fingerprint,
the blocked-constant fallback to exact keying, the escape hatch),
incremental e-matching parity, warm e-graph reuse, and the batch
layer's skeleton-affinity routing.
"""

import pickle

import pytest

from repro.core.errors import TermError
from repro.core.parser import parse_fun, parse_obj
from repro.core.terms import (PARAM_TAG, Sort, Term, abstract_constants,
                              abstract_with, from_portable,
                              instantiate_abstraction,
                              instantiate_constants, is_param_slot)
from repro.fuzz.generator import generate_queries
from repro.optimizer.optimizer import Optimizer
from repro.parallel.batch import BatchOptimizer, optimize_many
from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.rewrite.rule import rule
from repro.rules.preconditions import AnnotationOracle
from repro.rules.registry import standard_rulebase
from repro.saturate.driver import SaturationBudget, Saturator
from repro.schema.generator import (GeneratorConfig, generate_database,
                                    tiny_database)
from repro.serve.pool import ServingPool, route_of
from repro.workloads.corpus import _TEMPLATES


def _q(text):
    return canon(parse_obj(text))


def _family(template="iterate(gt @ <age, Kf({c})>, id) ! P", n=3,
            start=5):
    return [_q(template.format(c=start + i)) for i in range(n)]


def _forget_split(term):
    object.__setattr__(term, "_abstract", None)


def _fresh_split(term):
    """``abstract_constants(term)`` computed anew, memo restored."""
    memo = term._abstract
    _forget_split(term)
    fresh = abstract_constants(term)
    object.__setattr__(term, "_abstract", memo)
    return fresh


# -- abstraction primitives ---------------------------------------------------


class TestAbstractConstants:
    def test_round_trip_is_identity(self):
        for _, template in _TEMPLATES:
            term = _q(template.format(c=37))
            skeleton, values = abstract_constants(term)
            assert instantiate_constants(skeleton, values) is term

    def test_family_shares_skeleton(self):
        a, b, c = _family(n=3)
        sa, va = abstract_constants(a)
        sb, vb = abstract_constants(b)
        sc, _ = abstract_constants(c)
        assert sa is sb is sc
        assert va != vb

    def test_slot_numbering_left_to_right(self):
        term = _q("iterate(gt @ <age, Kf(5)>, Kf(7)) ! P")
        _, values = abstract_constants(term)
        assert values == (5, 7)

    def test_equal_constants_share_a_slot(self):
        """f(5,5) and f(5,7) must abstract to *different* skeletons —
        literal-equality patterns are structure, not parameters."""
        same = _q("iterate(gt @ <Kf(5), Kf(5)>, id) ! P")
        diff = _q("iterate(gt @ <Kf(5), Kf(7)>, id) ! P")
        s_same, v_same = abstract_constants(same)
        s_diff, v_diff = abstract_constants(diff)
        assert s_same is not s_diff
        assert v_same == (5,) and v_diff == (5, 7)

    def test_booleans_are_not_abstracted(self):
        """``true()``/``false()`` are ``lit(True)``/``lit(False)``:
        abstracting them would parameterize rule applicability."""
        term = _q("iterate(Kp(T), id) ! P")
        skeleton, values = abstract_constants(term)
        assert skeleton is term and values == ()

    def test_typed_slots_distinguish_int_float(self):
        int_q = _q("iterate(gt @ <age, Kf(5)>, id) ! P")
        float_q = _q("iterate(gt @ <age, Kf(5.0)>, id) ! P")
        s_int, _ = abstract_constants(int_q)
        s_float, _ = abstract_constants(float_q)
        assert s_int is not s_float

    def test_memoized_on_interned_term(self):
        term = _q(_TEMPLATES[0][1].format(c=11))
        first = abstract_constants(term)
        second = abstract_constants(term)
        assert first[0] is second[0] and first[1] == second[1]

    def test_slot_term_is_opaque(self):
        """A term already carrying slot labels refuses re-abstraction
        (returns itself with no bindings) — double abstraction would
        make re-instantiation ambiguous."""
        skeleton, values = abstract_constants(
            _q("iterate(gt @ <age, Kf(5)>, id) ! P"))
        assert values
        again, nothing = abstract_constants(skeleton)
        assert again is skeleton and nothing == ()

    def test_skeleton_is_portable(self):
        skeleton, _ = abstract_constants(
            _q("iterate(gt @ <age, Kf(5)>, id) ! P"))
        assert from_portable(skeleton.to_portable()) is skeleton
        slots = [node for node in skeleton.subterms()
                 if is_param_slot(node)]
        assert slots and all(node.label[0] == PARAM_TAG
                             for node in slots)

    def test_instantiate_rejects_bad_bindings(self):
        skeleton, values = abstract_constants(
            _q("iterate(gt @ <age, Kf(5)>, Kf(7)) ! P"))
        assert len(values) == 2
        with pytest.raises(TermError):
            instantiate_constants(skeleton, (5,))     # index out of range
        with pytest.raises(TermError):
            instantiate_constants(skeleton, ("x", "y"))  # type mismatch

    def test_split_helper_records_exactly_abstract_constants(self):
        """Over fuzz queries: the term ``instantiate_abstraction``
        rebuilds from a shipped split, and the split it records, equal
        a fresh ``abstract_constants``."""
        recorded = 0
        for query in generate_queries(80, seed=2302):
            term = canon(query)
            skeleton, values = abstract_constants(term)
            payload = pickle.loads(pickle.dumps(skeleton.to_portable()))
            _forget_split(term)
            rebuilt = instantiate_abstraction(from_portable(payload),
                                              values)
            assert rebuilt is term
            if values:
                assert term._abstract == (skeleton, values)
                recorded += 1
            assert _fresh_split(term) == abstract_constants(term)
        assert recorded >= 40

    @pytest.mark.parametrize("text, skeleton_values, values", [
        # two slots bound to equal values: a fresh split shares one
        ("iterate(gt @ <age, Kf(5)>, Kf(7)) ! P", None, (5, 5)),
        # NaN is never abstracted
        ("iterate(gt @ <age, Kf(5.5)>, id) ! P", None, (float("nan"),)),
        # a value no slot uses
        ("iterate(gt @ <age, Kf(5)>, id) ! P", None, (5, 9)),
        # the skeleton keeps a constant the values repeat
        ("iterate(gt @ <age, Kf(5)>, Kf(7)) ! P", (5,), (7,)),
        # slots numbered out of first-occurrence order
        ("iterate(gt @ <age, Kf(5)>, Kf(7)) ! P", "swap", (7, 5)),
    ], ids=["equal-values", "nan", "unused-value", "kept-constant",
            "slot-order"])
    def test_split_helper_refuses_other_splits(self, text, skeleton_values,
                                               values):
        """A pair that is not ``abstract_constants``' own split is only
        instantiated: whatever memo the term ends up with is a fresh
        split's."""
        term = _q(text)
        if skeleton_values is None:
            skeleton = abstract_constants(term)[0]
        elif skeleton_values == "swap":
            skeleton = abstract_with(term, (7, 5))
        else:
            skeleton = abstract_with(term, skeleton_values)
        rebuilt = instantiate_constants(skeleton, values)
        _forget_split(rebuilt)
        assert instantiate_abstraction(skeleton, values) is rebuilt
        assert rebuilt._abstract is None
        assert abstract_constants(rebuilt) == _fresh_split(rebuilt)

    def test_abstract_with_maps_only_listed_values(self):
        term = _q("iterate(gt @ <age, Kf(5)>, Kf(7)) ! P")
        rebuilt = abstract_with(term, (5,))
        slots = [n for n in rebuilt.subterms() if is_param_slot(n)]
        kept = [n for n in rebuilt.subterms()
                if n.op == "lit" and n.label == 7]
        assert len(slots) == 1 and kept
        assert instantiate_constants(rebuilt, (5,)) is term


# -- the parameterized plan-cache level ---------------------------------------


def _mismatch(a, b):
    out = []
    if a.best_term is not b.best_term:
        out.append("best_term")
    if type(a.plan) is not type(b.plan):
        out.append("plan_class")
    if a.estimated_cost != b.estimated_cost:
        out.append("cost")
    if a.derivation.rules_used() != b.derivation.rules_used():
        out.append("derivation")
    return out


class TestParamCache:
    @pytest.mark.parametrize("mode", ["greedy", "saturate"])
    def test_family_hits_with_exact_parity(self, db, mode):
        warm = Optimizer(search=mode)
        for term in _family(n=4):
            served = warm.optimize(term, db)
            cold = Optimizer(search=mode,
                             abstract_cache=False).optimize(term, db)
            assert _mismatch(served, cold) == []
        param = warm.plan_cache_info()["param"]
        assert param["misses"] == 1 and param["hits"] == 3

    def test_template_stream_in_saturate_mode(self):
        """Every corpus template at 12 constants, interleaved so that
        no query repeats: each distinct skeleton is saturated cold
        once, every other query is a parameterized hit with the cold
        path's plan, and no corpus constant is blocked."""
        db = generate_database(GeneratorConfig(
            n_persons=100, n_vehicles=60, n_addresses=25, seed=2026))
        stream = [_q(template.format(c=constant))
                  for constant in range(1, 13)
                  for _, template in _TEMPLATES]
        skeletons = {abstract_constants(term)[0] for term in stream}
        warm = Optimizer(search="saturate")
        cold = Optimizer(search="saturate", abstract_cache=False)
        for term in stream:
            assert _mismatch(warm.optimize(term, db),
                             cold.optimize(term, db)) == [], term
        param = warm.plan_cache_info()["param"]
        assert param["hits"] == len(stream) - len(skeletons)
        assert param["blocked"] == 0

    def test_served_result_promoted_to_exact_cache(self, db):
        opt = Optimizer()
        a, b = _family(n=2)
        opt.optimize(a, db)
        first = opt.optimize(b, db)   # param hit, promoted
        second = opt.optimize(b, db)  # exact hit
        assert second is first
        info = opt.plan_cache_info()
        assert info["hits"] == 1
        assert info["param"]["hits"] == 1

    def test_generation_bump_misses_both_levels(self, db):
        base = standard_rulebase()
        opt = Optimizer(base)
        a, b = _family(n=2)
        opt.optimize(a, db)
        opt.optimize(b, db)
        assert opt.plan_cache_info()["param"]["hits"] == 1
        base.extend_group("scratch-abstract", ["r18"])  # bumps generation
        opt.optimize(a, db)
        info = opt.plan_cache_info()
        assert info["hits"] == 0                   # exact miss
        assert info["param"]["hits"] == 1          # no new param hit
        assert info["param"]["misses"] == 2

    def test_fingerprint_change_misses_both_levels(self):
        opt = Optimizer()
        a, b = _family(n=2)
        small = tiny_database(seed=17)
        opt.optimize(a, small)
        opt.optimize(b, small)
        assert opt.plan_cache_info()["param"]["hits"] == 1
        bigger = generate_database(GeneratorConfig(
            n_persons=20, n_vehicles=5, n_addresses=4, seed=17))
        opt.optimize(a, bigger)
        info = opt.plan_cache_info()
        assert info["hits"] == 0
        assert info["param"]["hits"] == 1
        assert info["param"]["misses"] == 2

    def test_blocked_constant_falls_back_to_exact(self, db):
        """A rule pinning a scalar literal makes queries *binding that
        value* non-abstractable: they are keyed exactly (both the store
        and the serve path refuse the parameterized level), while other
        values still share skeleton entries."""
        base = standard_rulebase()
        base.add(rule("pin-25", "gt @ <age, Kf(25)>", "Kp(T)",
                      sort=Sort.PRED, bidirectional=False),
                 groups=["scratch-pin"])
        opt = Optimizer(base)
        free_a, free_b = _family(n=2, start=40)
        pinned = _family(n=1, start=25)[0]
        opt.optimize(free_a, db)
        opt.optimize(free_b, db)
        opt.optimize(pinned, db)
        info = opt.plan_cache_info()["param"]
        assert info["hits"] == 1          # free_b only
        assert info["blocked"] == 1       # the pinned query
        # The pinned query must not have created a skeleton entry: a
        # second blocked query is blocked again, never param-served.
        opt.optimize(pinned, db)          # exact hit
        opt.clear_plan_cache()
        opt.optimize(pinned, db)
        assert opt.plan_cache_info()["param"]["blocked"] == 2

    def test_oracle_fact_constants_block(self, db):
        engine = Engine(oracle=AnnotationOracle())
        opt = Optimizer(engine=engine)
        fact = canon(parse_fun("Kf(33)"))
        engine.oracle.declare("constant", fact)
        member = _family(n=1, start=33)[0]
        opt.optimize(member, db)
        assert opt.plan_cache_info()["param"]["blocked"] == 1

    def test_oracle_facts_accessor(self):
        oracle = AnnotationOracle()
        assert oracle.facts() == () and Engine().oracle.facts() == ()
        fact = canon(parse_fun("Kf(33)"))
        oracle.declare("constant", fact)
        assert [(one.property, one.term) for one in oracle.facts()] \
            == [("constant", fact)]

    def test_oracle_without_facts_keys_exactly(self, db):
        """An oracle that does not list its facts might decide a
        precondition on any constant, so no query is served a skeleton
        plan: every family member is optimized on its own."""

        class HoldsOnly:
            def holds(self, property_name, term):
                return False

        opt = Optimizer(engine=Engine(oracle=HoldsOnly()))
        family = _family(n=3)
        for term in family:
            served = opt.optimize(term, db)
            cold = Optimizer(abstract_cache=False).optimize(term, db)
            assert _mismatch(served, cold) == []
        info = opt.plan_cache_info()
        assert info["misses"] == len(family)
        assert info["param"]["hits"] == 0
        assert info["param"]["blocked"] == len(family)

    def test_escape_hatch_disables_param_level(self, db):
        opt = Optimizer(abstract_cache=False)
        for term in _family(n=3):
            opt.optimize(term, db)
        info = opt.plan_cache_info()
        assert info["param"]["hits"] == 0
        assert info["param"]["misses"] == 0
        assert info["misses"] == 3

    def test_constant_free_queries_skip_param_level(self, db, queries):
        opt = Optimizer()
        opt.optimize(queries.kg1, db)
        info = opt.plan_cache_info()["param"]
        assert info["hits"] == 0 and info["misses"] == 0


# -- cache soundness over a generated stream ---------------------------------


def _int_variants(term):
    """``term`` followed by its skeleton re-instantiated with three
    more int vectors (distinct ints per vector, string slots kept, so a
    query with string slots only repeats and hits the exact level); the
    first vector starts at 0, the literal the standard pool pins."""
    skeleton, values = abstract_constants(term)
    variants = [term]
    if values:
        for base in (0, 41, 1000):
            ints = iter(range(base, base + len(values)))
            vector = tuple(next(ints) if type(value) is int else value
                           for value in values)
            variants.append(instantiate_constants(skeleton, vector))
    return variants


class TestCacheSoundness:
    def test_cached_stream_matches_uncached(self, rulebase):
        """One long-lived optimizer with both cache levels on serves
        every query of a constant-varying fuzz stream exactly as a
        fresh optimizer without the parameterized level plans it:
        same best term, plan, estimate and rules — blocked constants
        included."""
        db = tiny_database()
        warm = Optimizer(rulebase=rulebase)
        assert (int, 0) in warm._blocked_values()
        for query in generate_queries(120, seed=2026):
            for term in _int_variants(query):
                served = warm.optimize(term, db)
                cold = Optimizer(rulebase=rulebase,
                                 abstract_cache=False).optimize(term, db)
                assert served.best_term is cold.best_term, term
                assert served.plan.explain() == cold.plan.explain(), term
                assert served.estimated_cost == cold.estimated_cost, term
                assert (served.derivation.rules_used()
                        == cold.derivation.rules_used()), term
        param = warm.plan_cache_info()["param"]
        assert param["hits"] > 0 and param["blocked"] > 0


# -- incremental e-matching and warm e-graph reuse ----------------------------


class TestIncrementalMatching:
    @pytest.fixture(scope="class")
    def pool(self, rulebase):
        return rulebase.group_compiled("saturate")

    @pytest.mark.parametrize("seed_query", ["kg1", "t1k_source",
                                            "t2k_source"])
    def test_bit_identical_to_full_matching(self, rulebase, pool,
                                            queries, seed_query):
        """Scoped matching must change nothing observable: same
        iteration count, e-nodes, classes, rewrites, merges, bans and
        saturation verdict as the match-everything passes."""
        seed = getattr(queries, seed_query)
        runs = {}
        for inc in (False, True):
            saturator = Saturator(
                Engine(), pool,
                SaturationBudget(incremental_match=inc))
            runs[inc] = saturator.run([seed])
        full, scoped = runs[False].report, runs[True].report
        for field in ("iterations", "enodes", "classes",
                      "rewrites_applied", "merges", "saturated",
                      "budget_hit", "rule_bans", "banned_skips",
                      "match_truncations"):
            assert getattr(scoped, field) == getattr(full, field), field
        full_best = runs[False].egraph.best_terms()[
            runs[False].root_class]
        scoped_best = runs[True].egraph.best_terms()[
            runs[True].root_class]
        assert full_best is scoped_best

    def test_ban_lift_on_idle_round_still_works(self, pool, queries):
        """The backoff scheduler's idle-round ban lift must survive
        incremental matching: a run that reports saturated did so on a
        fully active round, and bans must still be recorded before."""
        saturator = Saturator(Engine(), pool,
                              SaturationBudget(max_iterations=12,
                                               backoff_threshold=1))
        run = saturator.run([queries.t1k_source])
        assert run.report.rule_bans > 0
        assert run.report.saturated

    def test_backoff_outcome_matches_no_backoff(self, pool, queries):
        budget_a = SaturationBudget(max_iterations=12)
        budget_b = SaturationBudget(max_iterations=12,
                                    backoff_threshold=0)
        run_a = Saturator(Engine(), pool, budget_a).run(
            [queries.t1k_source])
        run_b = Saturator(Engine(), pool, budget_b).run(
            [queries.t1k_source])
        assert run_a.report.saturated == run_b.report.saturated
        best_a = run_a.egraph.best_terms()[run_a.root_class]
        best_b = run_b.egraph.best_terms()[run_b.root_class]
        assert best_a is best_b


class TestWarmEGraphReuse:
    @pytest.fixture(scope="class")
    def pool(self, rulebase):
        return rulebase.group_compiled("saturate")

    def test_warm_run_reports_and_budgets_delta(self, pool):
        a, b = _family(n=2)
        saturator = Saturator(Engine(), pool, SaturationBudget())
        cold = saturator.run([a])
        assert not cold.report.warm_start
        assert cold.report.enodes_added == cold.report.enodes
        warm = saturator.run([b], egraph=cold.egraph)
        assert warm.report.warm_start
        assert warm.report.enodes_added < warm.report.enodes
        assert warm.egraph is cold.egraph

    def test_warm_run_finds_same_best_form(self, pool):
        a, b = _family(n=2)
        saturator = Saturator(Engine(), pool, SaturationBudget())
        cold_b = saturator.run([b])
        warm_b = saturator.run([b], egraph=saturator.run([a]).egraph)
        cold_best = cold_b.egraph.best_terms()[cold_b.root_class]
        warm_best = warm_b.egraph.best_terms()[warm_b.root_class]
        assert cold_best is warm_best

    def test_optimizer_pools_and_reuses_by_family(self):
        """A param-cache miss with a pooled family (here: a changed db
        fingerprint) re-saturates warm instead of cold."""
        opt = Optimizer(search="saturate")
        a, b = _family(n=2)
        small = tiny_database(seed=17)
        opt.optimize(a, small)
        param = opt.plan_cache_info()["param"]
        assert param["warm_pool_size"] == 1
        bigger = generate_database(GeneratorConfig(
            n_persons=20, n_vehicles=5, n_addresses=4, seed=17))
        result = opt.optimize(b, bigger)
        param = opt.plan_cache_info()["param"]
        assert param["warm_hits"] == 1
        cold = Optimizer(search="saturate",
                         abstract_cache=False).optimize(b, bigger)
        assert _mismatch(result, cold) == []


# -- batch layer --------------------------------------------------------------


class TestBatchSkeletonRouting:
    def test_family_members_share_a_worker(self):
        routes = {route_of(abstract_constants(term)[0].to_portable(), 4)
                  for term in _family(n=6)}
        assert len(routes) == 1

    @pytest.mark.parametrize("abstract_cache", [True, False])
    def test_slot_for_is_the_route_of_the_split(self, abstract_cache):
        """``ServingPool.slot_for`` routes every query of a fixed corpus
        to ``route_of`` of its skeleton's payload (of the exact term
        with the parameterized level off), for 1-4 workers, on first
        sight and from the pool's route map alike."""
        corpus = [canon(query) for query in generate_queries(60,
                                                             seed=2303)]
        corpus += [_q(template.format(c=c)) for _, template in _TEMPLATES
                   for c in (3, 40)]
        for workers in range(1, 5):
            pool = ServingPool(workers=workers,
                               abstract_cache=abstract_cache)
            for term in corpus * 2:
                shipped = (abstract_constants(term)[0] if abstract_cache
                           else term)
                assert pool.slot_for(term) == route_of(
                    shipped.to_portable(), workers)

    def test_exact_payload_routing_spreads_family(self):
        routes = {route_of(term.to_portable(), 4)
                  for term in _family(n=6)}
        assert len(routes) > 1

    def test_fallback_gets_aggregate_capacity(self):
        batch = BatchOptimizer(workers=4)
        assert (batch._fallback.plan_cache_max
                == Optimizer.PLAN_CACHE_MAX * 4)

    def test_fallback_honors_escape_hatch(self):
        batch = BatchOptimizer(workers=2, abstract_cache=False)
        assert batch._fallback.abstract_cache is False

    def test_in_process_batch_parity(self, db):
        family = _family(n=4)
        with_cache = optimize_many(family, db, workers=1)
        without = optimize_many(family, db, workers=1,
                                abstract_cache=False)
        for one, other in zip(with_cache.results, without.results):
            assert _mismatch(one.result, other.result) == []
        assert with_cache.plan_cache["size"] == without.plan_cache["size"]
