"""Tests for the parallel batch layer: LRU caches, corpus generation,
the backoff scheduler, result codecs, and pool-vs-sequential parity."""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading

import pytest

from repro.core.errors import PortableTermError
from repro.fuzz.generator import generate_queries
from repro.optimizer.optimizer import Optimizer
from repro.parallel.batch import (BatchOptimizer, optimize_many,
                                  _initial_term)
from repro.parallel.cache import LRUCache, merge_cache_info
from repro.parallel.portable import (decode_plan, decode_result,
                                     encode_plan, encode_result)
from repro.optimizer.physical import InterpretPlan, JoinNestPlan
from repro.saturate.driver import SaturationBudget, Saturator
from repro.serve.pool import route_of
from repro.workloads.corpus import (CorpusConfig, corpus_stream,
                                    generate_corpus)
from repro.workloads.queries import paper_queries


# -- LRU caches --------------------------------------------------------------


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh a
        cache.put("c", 3)               # evicts b, not a
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_fifo_would_evict_differently(self):
        # The scenario where LRU beats FIFO: the oldest entry is hot.
        cache = LRUCache(max_size=3)
        for key in ("hot", "x", "y"):
            cache.put(key, key)
        for _ in range(5):
            assert cache.get("hot") == "hot"
        cache.put("z", "z")
        assert "hot" in cache and "x" not in cache

    def test_counters_and_info(self):
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        info = cache.info()
        assert info == {"size": 1, "max_size": 4, "hits": 1,
                        "misses": 1, "evictions": 0}

    def test_peek_does_not_refresh(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        cache.put("c", 3)               # a is still LRU: evicted
        assert "a" not in cache

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)              # refresh + overwrite
        cache.put("c", 3)
        assert cache.get("a") == 10 and "b" not in cache

    def test_per_call_bound_override(self):
        cache = LRUCache(max_size=100)
        cache.put("a", 1)
        cache.put("b", 2, max_size=1)
        assert len(cache) == 1 and "b" in cache

    def test_clear_keeps_counters(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_merge_cache_info_sums(self):
        merged = merge_cache_info([
            {"size": 2, "max_size": 4, "hits": 1, "misses": 0,
             "evictions": 0},
            {"size": 3, "max_size": 4, "hits": 2, "misses": 5,
             "evictions": 1, "extra": 9},
        ])
        assert merged == {"size": 5, "max_size": 8, "hits": 3,
                          "misses": 5, "evictions": 1}


# -- backoff scheduler -------------------------------------------------------


class TestBackoffScheduler:
    @pytest.fixture(scope="class")
    def pool(self, rulebase):
        return rulebase.group_compiled("saturate")

    def test_bans_recorded_and_skipped(self, engine, pool):
        queries = paper_queries()
        saturator = Saturator(engine, pool,
                              SaturationBudget(max_iterations=6))
        run = saturator.run([queries.kg1])
        assert run.report.rule_bans > 0
        assert run.report.banned_skips > 0
        assert "rule ban(s)" in run.report.summary()

    def test_disabled_backoff_reports_no_bans(self, engine, pool):
        queries = paper_queries()
        saturator = Saturator(
            engine, pool,
            SaturationBudget(max_iterations=4, backoff_threshold=0))
        run = saturator.run([queries.t2k_source])
        assert run.report.rule_bans == 0
        assert run.report.banned_skips == 0
        assert "rule ban(s)" not in run.report.summary()

    def test_backoff_preserves_saturation_outcome(self, engine, pool):
        # A small query whose search saturates: backoff must not change
        # the final e-graph's root-class membership.
        queries = paper_queries()
        budget = SaturationBudget(max_iterations=12)
        run_with = Saturator(engine, pool, budget).run(
            [queries.t1k_source])
        run_without = Saturator(
            engine, pool,
            SaturationBudget(max_iterations=12,
                             backoff_threshold=0)).run(
            [queries.t1k_source])
        assert run_with.report.saturated == run_without.report.saturated
        with_best = run_with.egraph.best_terms()[run_with.root_class]
        without_best = run_without.egraph.best_terms()[
            run_without.root_class]
        assert with_best is without_best

    def test_never_saturated_while_banned(self, engine, pool):
        # If the report says saturated, a full unbanned round made no
        # progress — exercised implicitly: saturated runs must report
        # at least one more iteration than the last ban round could
        # explain.  Cheap proxy: saturated implies no outstanding-ban
        # early exit, which would have shown as saturated=False.
        queries = paper_queries()
        run = Saturator(engine, pool,
                        SaturationBudget(max_iterations=20)).run(
            [queries.t1k_target])
        if run.report.saturated:
            assert run.report.iterations <= 20


# -- corpus ------------------------------------------------------------------


class TestCorpus:
    def test_distinct_and_deterministic(self):
        config = CorpusConfig(distinct=60)
        first = generate_corpus(config)
        second = generate_corpus(config)
        assert len(first) == 60
        assert len(set(first)) == 60
        assert all(a is b for a, b in zip(first, second))

    def test_stream_covers_corpus_per_pass(self):
        corpus = generate_corpus(CorpusConfig(distinct=10))
        stream = corpus_stream(corpus, 25, seed=5)
        assert len(stream) == 25
        assert set(stream[:10]) == set(corpus)
        assert set(stream[10:20]) == set(corpus)

    def test_stream_deterministic(self):
        corpus = generate_corpus(CorpusConfig(distinct=10))
        first = corpus_stream(corpus, 30, seed=9)
        second = corpus_stream(corpus, 30, seed=9)
        assert all(a is b for a, b in zip(first, second))

    def test_stream_validates_inputs(self):
        with pytest.raises(ValueError):
            corpus_stream([], 5)


# -- portable plan / result codecs -------------------------------------------


class TestResultCodec:
    def test_interpret_plan_roundtrip(self):
        queries = paper_queries()
        plan = InterpretPlan(queries.t2k_source)
        decoded = decode_plan(encode_plan(plan))
        assert isinstance(decoded, InterpretPlan)
        assert decoded.query is plan.query

    def test_joinnest_plan_roundtrip(self, db):
        queries = paper_queries()
        result = Optimizer().optimize(queries.kg1, db)
        assert isinstance(result.plan, JoinNestPlan)
        decoded = decode_plan(encode_plan(result.plan))
        assert isinstance(decoded, JoinNestPlan)
        assert decoded.query is result.plan.query
        assert decoded.join_pred is result.plan.join_pred
        assert decoded.unnest_count == result.plan.unnest_count
        assert decoded.execute(db) == result.plan.execute(db)

    def test_result_roundtrip_preserves_everything(self, db, rulebase):
        queries = paper_queries()
        result = Optimizer().optimize(queries.kg1, db)
        # Simulate the wire: the payload must survive pickling.
        payload = pickle.loads(pickle.dumps(encode_result(result)))
        decoded = decode_result(payload, rulebase, source=queries.kg1)
        assert decoded.initial is result.initial
        assert decoded.simplified is result.simplified
        assert decoded.untangled is result.untangled
        assert decoded.estimated_cost == result.estimated_cost
        assert type(decoded.plan) is type(result.plan)
        assert (decoded.derivation.rules_used()
                == result.derivation.rules_used())

    @pytest.mark.parametrize("tag", ["fused", "codegen"])
    def test_retired_plan_tags_are_rejected(self, tag):
        """The fused and codegen plan payloads are retired: a payload
        carrying either tag is refused like any unknown tag."""
        query = paper_queries().t2k_source.to_portable()
        with pytest.raises(PortableTermError,
                           match=f"unknown plan payload tag '{tag}'"):
            decode_plan((tag, {"query": query, "columnar": False}))

    def test_decoded_result_executes_without_an_optimizer(self, db,
                                                          rulebase):
        """A result decoded from the wire has no optimizer behind it:
        it compiles its own kernel and runs it, agreeing with the
        optimizer's kernel and with the plan."""
        queries = paper_queries()
        optimizer = Optimizer()
        result = optimizer.optimize(queries.kg1, db)
        decoded = decode_result(encode_result(result), rulebase,
                                source=queries.kg1)
        expected = optimizer.execute(queries.kg1, db)
        assert decoded.execute(db) == expected
        assert decoded.execute(db, backend="plan") == expected
        assert optimizer.plan_cache_info()["kernel"]["kernel_misses"] == 1

    @pytest.mark.parametrize("mutate, reason", [
        (lambda enc: enc["table"].insert(0, ("compose", (1, 2), None)),
         "earlier node"),
        (lambda enc: enc.__setitem__("initial", len(enc["table"])),
         "not an entry"),
        (lambda enc: enc.pop("table"), "lacks 'table'"),
    ], ids=["forward-child", "root-past-end", "missing-table"])
    def test_malformed_result_tables_rejected(self, db, rulebase, mutate,
                                              reason):
        """A child index pointing forward, a root index past the end of
        the table and a missing table are PortableTermErrors, never a
        KeyError or IndexError."""
        result = Optimizer().optimize(paper_queries().kg1, db)
        encoded = json.loads(json.dumps(encode_result(result)))
        mutate(encoded)
        with pytest.raises(PortableTermError, match=reason):
            decode_result(encoded, rulebase)

    def test_result_table_holds_each_node_once(self, db):
        result = Optimizer().optimize(paper_queries().kg1, db)
        encoded = encode_result(result)
        assert len(set(encoded["table"])) == len(encoded["table"])
        steps = encoded["steps"]
        assert steps and all(isinstance(step[1], int) for step in steps)
        assert [step[0] for step in steps] \
            == [step.rule.name for step in result.derivation]
        assert encoded["untangled"] == result.untangled.to_portable()

    @pytest.mark.parametrize("search", ["greedy", "saturate"])
    def test_json_round_trip_preserves_everything(self, db, rulebase,
                                                  search):
        """Paper queries plus a fixed-seed fuzz stream: encode, JSON
        round trip, decode — the same interned terms, plan, cost and
        derivation steps."""
        queries = paper_queries()
        stream = [queries.kg1, queries.kg2, queries.t1k_source,
                  queries.t2k_source, queries.k4,
                  *generate_queries(24, seed=2301)]
        optimizer = Optimizer(search=search)
        plans = set()
        for query in stream:
            result = optimizer.optimize(query, db)
            wire = json.loads(json.dumps(encode_result(result)))
            decoded = decode_result(wire, rulebase, source=query)
            assert decoded.initial is result.initial
            assert decoded.simplified is result.simplified
            assert decoded.untangled is result.untangled
            assert decoded.chosen is result.chosen
            assert type(decoded.plan) is type(result.plan)
            assert encode_plan(decoded.plan) == encode_plan(result.plan)
            assert decoded.estimated_cost == result.estimated_cost
            assert decoded.search == result.search
            assert decoded.saturation == result.saturation
            assert ([(step.rule, step.before, step.after, step.path)
                     for step in decoded.derivation]
                    == [(step.rule, step.before, step.after, step.path)
                        for step in result.derivation])
            plans.add(type(result.plan))
        assert JoinNestPlan in plans and InterpretPlan in plans

    def test_route_is_stable(self):
        queries = paper_queries()
        payload = queries.kg1.to_portable()
        assert route_of(payload, 4) == route_of(payload, 4)
        rebuilt = pickle.loads(pickle.dumps(payload))
        assert route_of(rebuilt, 4) == route_of(payload, 4)


# -- batch runs --------------------------------------------------------------


def _results_match(a, b) -> bool:
    return (type(a.plan) is type(b.plan)
            and a.estimated_cost == b.estimated_cost
            and a.initial is b.initial
            and a.untangled is b.untangled
            and a.derivation.rules_used() == b.derivation.rules_used())


class TestBatchInProcess:
    def test_matches_sequential(self, tiny_db):
        corpus = generate_corpus(CorpusConfig(distinct=12))
        stream = corpus_stream(corpus, 24)
        sequential = Optimizer()
        expected = [sequential.optimize(q, tiny_db) for q in stream]
        report = optimize_many(stream, tiny_db, workers=1)
        assert report.mode == "in-process"
        assert len(report) == 24
        assert all(_results_match(e, r.result)
                   for e, r in zip(expected, report.results))

    def test_accepts_oql(self, tiny_db):
        oql = "select p.age from p in P where p.age > 25"
        report = optimize_many([oql], tiny_db, workers=1)
        expected = Optimizer().optimize(oql, tiny_db)
        assert _results_match(expected, report.results[0].result)

    def test_plan_cache_hits_on_repeats(self, tiny_db):
        corpus = generate_corpus(CorpusConfig(distinct=6))
        report = optimize_many(corpus_stream(corpus, 18), tiny_db,
                               workers=1)
        assert report.plan_cache["hits"] == 12

    def test_rejects_bad_inputs(self, tiny_db):
        with pytest.raises(TypeError):
            optimize_many([object()], tiny_db, workers=1)
        with pytest.raises(ValueError):
            optimize_many([], tiny_db, workers=1, search="nope")

    def test_empty_batch(self, tiny_db):
        report = optimize_many([], tiny_db, workers=1)
        assert len(report) == 0

    def test_normalize_helper(self):
        queries = paper_queries()
        assert _initial_term(queries.kg1) is queries.kg1


@pytest.mark.slow
class TestBatchPool:
    @pytest.fixture(scope="class")
    def pool_db(self):
        # A private database: other suites may decorate the shared
        # session fixtures with unpicklable callables, which (by
        # design) downgrades the pool to in-process mode — these tests
        # assert on pool mode itself, so they need a clean instance.
        from repro.schema.generator import tiny_database
        return tiny_database()

    @pytest.fixture(scope="class")
    def pool_report_and_expected(self, pool_db):
        corpus = generate_corpus(CorpusConfig(distinct=16))
        stream = corpus_stream(corpus, 32)
        sequential = Optimizer()
        expected = [sequential.optimize(q, pool_db) for q in stream]
        report = optimize_many(stream, pool_db, workers=2)
        return report, expected

    def test_pool_mode_used(self, pool_report_and_expected):
        report, _ = pool_report_and_expected
        assert report.mode == "pool"
        assert report.errors == []
        workers_used = {r.worker for r in report.results}
        assert workers_used <= {0, 1} and len(workers_used) == 2

    def test_results_bit_identical_to_sequential(
            self, pool_report_and_expected):
        report, expected = pool_report_and_expected
        assert all(_results_match(e, r.result)
                   for e, r in zip(expected, report.results))

    def test_shard_affinity_gives_cache_hits(
            self, pool_report_and_expected):
        report, _ = pool_report_and_expected
        # Every second occurrence hits the worker-resident cache.
        assert report.plan_cache["hits"] == 16
        assert sum(info["processed"]
                   for info in report.per_worker) == 32

    def test_warm_across_batches(self, pool_db):
        corpus = generate_corpus(CorpusConfig(distinct=8))
        with BatchOptimizer(pool_db, workers=2) as batch:
            first = batch.optimize_many(corpus)
            second = batch.optimize_many(corpus)
        assert (second.plan_cache["hits"]
                - first.plan_cache["hits"]) == len(corpus)

    def test_warmup_blocks_until_workers_serve(self, pool_db):
        corpus = generate_corpus(CorpusConfig(distinct=6))
        with BatchOptimizer(pool_db, workers=2) as batch:
            assert batch.warmup() is True
            assert batch.mode == "pool"
            report = batch.optimize_many(corpus)
        assert report.mode == "pool"
        assert report.errors == []

    def test_warmup_in_process_is_noop(self, pool_db):
        with BatchOptimizer(pool_db, workers=1) as batch:
            assert batch.warmup() is False
            assert batch.mode == "in-process"

    def test_every_reply_counted_under_thread_churn(self, pool_db):
        """The pool's pump thread hands replies to the caller's thread:
        with more workers than cores and a tiny switch interval, a lost
        update would hang the batch or leave a result missing."""
        stream = corpus_stream(generate_corpus(CorpusConfig(distinct=40)),
                               200)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with BatchOptimizer(pool_db,
                                workers=(os.cpu_count() or 1) + 1) as batch:
                runner = threading.Thread(
                    target=lambda: reports.append(
                        batch.optimize_many(stream)), daemon=True)
                runner.start()
                runner.join(timeout=120)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        [report] = reports
        assert report.mode == "pool" and report.errors == []
        assert all(result is not None for result in report.results)
        assert sum(info["processed"] for info in report.per_worker) == 200
        assert report.plan_cache["hits"] == 160
