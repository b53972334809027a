"""Edge cases in the parallel serving layer: degenerate cache
capacities, empty stat merges, and the worker pool's dead-worker paths
(respawn and resubmit, crash-loop abandonment, and the batch layer's
in-process rerun)."""

from __future__ import annotations

import copy
import itertools
import os
import signal
import threading
import time

import pytest

from repro.core.parser import parse_query
from repro.fuzz.generator import generate_queries
from repro.optimizer.optimizer import Optimizer
from repro.parallel.batch import optimize_many
from repro.parallel.cache import LRUCache, merge_cache_info
from repro.parallel.portable import decode_result
from repro.rewrite.pattern import canon
from repro.rules.registry import standard_rulebase
from repro.schema.adt import Database
from repro.schema.generator import tiny_database
from repro.serve import pool as pool_module
from repro.serve.pool import MAX_RESPAWNS, PoolClosedError, ServingPool
from repro.serve.protocol import ServeError

# ---------------------------------------------------------------------------
# LRUCache


def test_lru_capacity_one_keeps_only_most_recent():
    cache = LRUCache(max_size=1)
    cache.put("a", 1)
    cache.put("b", 2)
    assert len(cache) == 1
    assert cache.evictions == 1
    assert cache.get("a") is None
    assert cache.get("b") == 2
    assert (cache.hits, cache.misses) == (1, 1)


def test_lru_get_refreshes_recency_put_refreshes_too():
    cache = LRUCache(max_size=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # "a" is now most recent
    cache.put("c", 3)                   # evicts "b", not "a"
    assert cache.keys() == ["a", "c"]
    cache.put("a", 10)                  # refresh via put
    assert cache.keys() == ["c", "a"]
    assert cache.get("a") == 10


def test_lru_peek_and_evict_edges():
    cache = LRUCache(max_size=2)
    cache.evict_lru()                   # no-op on empty cache
    assert cache.evictions == 0
    cache.put("a", 1)
    assert cache.peek("a") == 1
    assert cache.peek("missing", "dflt") == "dflt"
    assert (cache.hits, cache.misses) == (0, 0)  # peek never counts
    cache.clear()
    assert len(cache) == 0
    with pytest.raises(ValueError):
        LRUCache(max_size=0)


def test_lru_put_with_override_bound():
    cache = LRUCache(max_size=10)
    for key in range(5):
        cache.put(key, key)
    cache.put("last", 99, max_size=2)   # tighter per-call bound
    assert len(cache) == 2
    assert cache.keys() == [4, "last"]


# ---------------------------------------------------------------------------
# merge_cache_info


def test_merge_cache_info_empty_is_all_zero():
    merged = merge_cache_info([])
    assert merged == {"size": 0, "max_size": 0, "hits": 0, "misses": 0,
                      "evictions": 0}


def test_merge_cache_info_sums_and_ignores_unknown_keys():
    merged = merge_cache_info([
        {"size": 1, "max_size": 8, "hits": 3, "misses": 1,
         "evictions": 0, "worker": 7, "shards": 2},
        {"size": 2, "hits": 1},
    ])
    assert merged == {"size": 3, "max_size": 8, "hits": 4, "misses": 1,
                      "evictions": 0}


# ---------------------------------------------------------------------------
# dead workers


QUERIES = ["count ! P", "iterate(Kp(T), id) ! V", "id ! A",
           "iterate(Kp(T), age) ! P", "iterate(gt @ <age, Kf(30)>, id) ! P",
           "iterate(Kp(T), name) ! P"]


def _same_result(got, expected, db) -> bool:
    return (got.chosen is expected.chosen
            and type(got.plan) is type(expected.plan)
            and got.estimated_cost == expected.estimated_cost
            and (got.derivation.rules_used()
                 == expected.derivation.rules_used())
            and got.execute(db) == expected.execute(db))


@pytest.mark.slow
def test_killed_worker_requests_go_to_its_respawn():
    """A process worker SIGKILLed with requests in flight is replaced
    in its slot, and the replacement answers every one of them with
    the sequential optimizer's result."""
    db = tiny_database(seed=17)
    terms = [canon(parse_query(query)) for query in QUERIES]
    replies = {}
    answered = threading.Event()

    def on_reply(serial, worker_id, outcome):
        replies[serial] = (worker_id, outcome)
        if len(replies) == len(terms):
            answered.set()

    with ServingPool(db, workers=1, backend="process",
                     on_reply=on_reply) as pool:
        assert pool.warmup()
        [victim] = pool.worker_ids()
        pid = pool._slots[0].runner.pid
        # Stop the worker, hand it the requests (so every one is in
        # flight), then kill it.
        time.sleep(0.2)
        os.kill(pid, signal.SIGSTOP)
        try:
            for serial, term in enumerate(terms):
                pool.submit(serial, term)
        finally:
            os.kill(pid, signal.SIGKILL)
        assert answered.wait(timeout=120)
        [replacement] = pool.worker_ids()
    assert replacement != victim
    assert {worker_id for worker_id, _ in replies.values()} \
        == {replacement}
    rulebase = standard_rulebase()
    sequential = Optimizer()
    for serial, term in enumerate(terms):
        outcome = replies[serial][1]
        assert outcome[0] == "ok", outcome
        got = decode_result(outcome[1], rulebase, source=term)
        assert _same_result(got, sequential.optimize(term, db), db)


@pytest.mark.slow
def test_pump_drops_a_killed_workers_pipe_and_serves_the_rest():
    """Two process workers, one SIGKILLed while the other has requests
    in flight.  The pump closes the dead worker's reply pipe and stops
    waiting on it (its thread idles afterwards rather than spinning on
    end of file); the survivor answers its own requests, the victim's
    respawn answers the victim's, and every answer equals sequential
    ``optimize``."""
    db = tiny_database(seed=17)
    terms = [canon(parse_query(query)) for query in QUERIES]
    terms += [canon(query) for query in generate_queries(18, seed=2304)]
    replies = {}
    answered = threading.Event()

    def on_reply(serial, worker_id, outcome):
        replies[serial] = (worker_id, outcome)
        if len(replies) == len(terms):
            answered.set()

    with ServingPool(db, workers=2, backend="process",
                     on_reply=on_reply) as pool:
        assert pool.warmup()
        victim, survivor = pool._slots
        [victim_pipe] = [pipe for pipe, worker in pool._readers.items()
                         if worker is victim]
        slots = [pool.slot_for(term) for term in terms]
        assert set(slots) == {victim.slot, survivor.slot}
        for worker in (victim, survivor):
            os.kill(worker.runner.pid, signal.SIGSTOP)
        try:
            for serial, term in enumerate(terms):
                pool.submit(serial, term)
            assert victim.pending and survivor.pending
        finally:
            os.kill(victim.runner.pid, signal.SIGKILL)
            os.kill(survivor.runner.pid, signal.SIGCONT)
        assert answered.wait(timeout=120)
        respawn, same = pool.worker_ids()
        assert same == survivor.id
        assert respawn not in (victim.id, survivor.id)
        assert victim_pipe.closed
        assert victim_pipe not in pool._readers
        pump_clock = time.pthread_getcpuclockid(pool._pump.ident)
        idle_from = time.clock_gettime(pump_clock)
        time.sleep(0.5)
        assert time.clock_gettime(pump_clock) - idle_from < 0.1
    sequential = Optimizer()
    rulebase = standard_rulebase()
    for serial, term in enumerate(terms):
        worker_id, outcome = replies[serial]
        assert worker_id == (survivor.id if slots[serial] == survivor.slot
                             else respawn)
        assert outcome[0] == "ok", outcome
        got = decode_result(outcome[1], rulebase, source=term)
        assert _same_result(got, sequential.optimize(term, db), db)


def test_crash_looping_slot_fails_its_requests(monkeypatch):
    """A slot whose worker exits at once is respawned
    ``MAX_RESPAWNS`` times; after the next crash the pool gives up on
    it: the orphaned request gets an ``("err", ...)`` reply and a new
    submit to the slot raises PoolClosedError."""
    starts = []
    monkeypatch.setattr(pool_module, "worker_main",
                        lambda worker_id, *args: starts.append(worker_id))
    replies = {}
    failed = threading.Event()

    def on_reply(serial, worker_id, outcome):
        replies[serial] = outcome
        failed.set()

    term = canon(parse_query("count ! P"))
    pool = ServingPool(workers=1, backend="thread", on_reply=on_reply)
    pool.start()
    try:
        pool.submit(0, term, slot=0)
        assert failed.wait(timeout=30)
        assert len(starts) == MAX_RESPAWNS + 1
        assert replies[0][0] == "err"
        assert f"crashed {MAX_RESPAWNS + 1} times" in replies[0][1]
        with pytest.raises(PoolClosedError):
            pool.submit(1, term, slot=0)
        assert pool.worker_ids() == []
    finally:
        pool.close()


def test_failed_respawn_abandons_the_slot(monkeypatch):
    """A dead worker whose replacement cannot be started costs its
    slot, not the pool: the orphaned request gets an ``("err", ...)``
    reply naming the start failure (the pump thread survives), and a
    new submit to the slot raises PoolClosedError."""
    monkeypatch.setattr(pool_module, "worker_main", lambda *args: None)
    replies = {}
    failed = threading.Event()

    def on_reply(serial, worker_id, outcome):
        replies[serial] = outcome
        failed.set()

    def refuse(slot):
        raise ServeError(f"could not start worker for slot {slot}")

    term = canon(parse_query("count ! P"))
    pool = ServingPool(workers=1, backend="thread", on_reply=on_reply)
    pool.start()
    pool._spawn = refuse
    try:
        pool.submit(0, term, slot=0)
        assert failed.wait(timeout=30)
        assert replies[0] == ("err", "could not start worker for slot 0",
                              "")
        with pytest.raises(PoolClosedError):
            pool.submit(1, term, slot=0)
        assert pool._pump.is_alive()
    finally:
        pool.close()


def _db_that_kills_later_workers() -> Database:
    """A database the first spawned worker receives intact; every
    later worker process exits while unpickling it, so every slot but
    the first crash-loops."""
    db = tiny_database(seed=17)
    pickles = itertools.count()

    class KillsLaterWorkers(Database):
        def __reduce_ex__(self, protocol):
            if next(pickles):
                return (os._exit, (1,))
            plain = Database.__new__(Database)
            plain.__dict__.update(self.__dict__)
            return (copy.copy, (plain,))

    killer = KillsLaterWorkers.__new__(KillsLaterWorkers)
    killer.__dict__.update(db.__dict__)
    return killer


@pytest.mark.slow
def test_dead_worker_tasks_are_reclaimed_in_process():
    """A batch whose worker dies still returns every result, equal to
    sequential optimization: the queries of the slot the pool
    abandoned are rerun in-process (worker ``-1``) and reported as
    errors; the rest come from the live worker."""
    db = _db_that_kills_later_workers()
    terms = [canon(parse_query(query)) for query in QUERIES]
    slots = [ServingPool(workers=2).slot_for(term) for term in terms]
    assert set(slots) == {0, 1}

    report = optimize_many(terms, db, workers=2)

    assert report.mode == "pool"
    assert len(report.results) == len(QUERIES)
    sequential = Optimizer()
    for index, term in enumerate(terms):
        outcome = report.results[index]
        assert outcome.query is term
        assert outcome.worker == (0 if slots[index] == 0 else -1)
        assert _same_result(outcome.result,
                            sequential.optimize(term, db), db)
    assert ({index for index, _ in report.errors}
            == {index for index, slot in enumerate(slots) if slot == 1})
    # the rerun's in-process stats are reported as pseudo-worker -1
    assert [info["worker"] for info in report.per_worker] == [0, -1]
