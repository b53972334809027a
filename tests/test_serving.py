"""Tests for the plan-serving daemon: framing, the serving pool,
stats aggregation, wire parity with the sequential optimizer,
admission control, and graceful worker recycling."""

from __future__ import annotations

import asyncio
import gc
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings

import pytest

import repro

from repro.core.parser import parse_obj
from repro.core.terms import abstract_constants
from repro.fuzz.generator import generate_queries
from repro.optimizer.optimizer import Optimizer
from repro.parallel.batch import BatchOptimizer
from repro.rewrite.pattern import canon
from repro.schema.generator import (GeneratorConfig, generate_database,
                                    tiny_database)
from repro.serve import (AsyncServeClient, PlanServer, ServeClient,
                         ServeError, ServingPool, PoolClosedError)
from repro.serve.protocol import (FrameError, MAX_FRAME, encode_frame,
                                  query_body, read_frame,
                                  read_frame_sock, resolve_query)
from repro.serve.stats import snapshot_summary, stats_snapshot
from repro.workloads.corpus import corpus_stream

OQL = "select p.age from p in P where p.age > {c}"
KOLA = "iterate(gt @ <age, Kf({c})>, id) ! P"


def _results_match(a, b) -> bool:
    return (a.chosen is b.chosen
            and type(a.plan) is type(b.plan)
            and a.estimated_cost == b.estimated_cost
            and a.derivation.rules_used() == b.derivation.rules_used())


# -- framing -----------------------------------------------------------------


class TestProtocol:
    def _roundtrip(self, message):
        frame = encode_frame(message)
        server, client = socket.socketpair()
        try:
            server.sendall(frame)
            server.shutdown(socket.SHUT_WR)
            return read_frame_sock(client)
        finally:
            server.close()
            client.close()

    def test_frame_roundtrip(self):
        message = {"op": "optimize", "id": 7, "oql": "select ..."}
        assert self._roundtrip(message) == message

    def test_clean_eof_is_none(self):
        server, client = socket.socketpair()
        server.close()
        try:
            assert read_frame_sock(client) is None
        finally:
            client.close()

    def test_truncated_frame_raises(self):
        server, client = socket.socketpair()
        try:
            server.sendall(encode_frame({"id": 1})[:-2])
            server.close()
            with pytest.raises(FrameError):
                read_frame_sock(client)
        finally:
            client.close()

    def test_oversize_frame_rejected(self):
        server, client = socket.socketpair()
        try:
            server.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(FrameError):
                read_frame_sock(client)
        finally:
            server.close()
            client.close()

    def test_bad_json_raises(self):
        server, client = socket.socketpair()
        try:
            server.sendall(struct.pack(">I", 3) + b"{{{")
            with pytest.raises(FrameError):
                read_frame_sock(client)
        finally:
            server.close()
            client.close()

    def test_oversize_outgoing_rejected(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_query_body_forms(self):
        term = canon(parse_obj(KOLA.format(c=30)))
        assert query_body("select ...") == {"oql": "select ..."}
        body = query_body(term)
        assert body == {"term": term.to_portable()}
        assert resolve_query(body) is term
        assert resolve_query({"oql": OQL.format(c=30)}) is not None
        assert resolve_query({"kola": KOLA.format(c=30)}) is term

    def test_resolve_query_rejects_bad_requests(self):
        with pytest.raises(ServeError):
            resolve_query({})                      # no query at all
        with pytest.raises(ServeError):
            resolve_query({"oql": "x", "kola": "y"})   # ambiguous
        with pytest.raises(ServeError):
            resolve_query({"oql": "not oql at all ((("})
        with pytest.raises(ServeError):
            resolve_query({"term": ["nope"]})


# -- stats aggregation -------------------------------------------------------


class TestStatsSnapshot:
    def _info(self, worker, hits, processed=5):
        return {
            "worker": worker, "processed": processed,
            "plan_cache": {
                "size": 2, "max_size": 8, "hits": hits, "misses": 1,
                "evictions": 0,
                "param": {"size": 1, "max_size": 4, "hits": hits,
                          "misses": 0, "evictions": 0, "blocked": 2,
                          "warm_hits": 3, "warm_pool_size": 1},
                "kernel": {"size": 1, "max_size": 4, "hits": 0,
                           "misses": 0, "evictions": 0,
                           "kernel_hits": 4, "kernel_misses": 1},
            },
            "nf_cache": {"size": 1, "max_size": 2, "hits": 1,
                         "misses": 0, "evictions": 0},
            "cost_cache": {"size": 0, "max_size": 2, "hits": 0,
                           "misses": 0, "evictions": 0},
        }

    def test_merges_lists_and_dicts_identically(self):
        infos = [self._info(0, 2), self._info(1, 3)]
        by_id = {0: infos[0], 1: infos[1]}
        assert stats_snapshot(infos) == stats_snapshot(by_id)

    def test_aggregates_every_level(self):
        snapshot = stats_snapshot([self._info(0, 2), self._info(1, 3)])
        assert snapshot["workers"] == 2
        assert snapshot["processed"] == 10
        assert snapshot["plan_cache"]["hits"] == 5
        assert snapshot["plan_cache"]["param"]["warm_hits"] == 6
        assert snapshot["plan_cache"]["param"]["blocked"] == 4
        assert snapshot["plan_cache"]["kernel"]["kernel_hits"] == 8
        assert snapshot["nf_cache"]["hits"] == 2
        assert len(snapshot["per_worker"]) == 2

    def test_summary_mentions_each_level(self):
        line = snapshot_summary(
            stats_snapshot([self._info(0, 2, processed=7)]))
        assert "7 served" in line
        assert "warm e-graph" in line
        assert "kernels" in line

    def test_tolerates_flat_blobs(self):
        flat = {"processed": 1,
                "plan_cache": {"size": 0, "max_size": 1, "hits": 0,
                               "misses": 0, "evictions": 0}}
        snapshot = stats_snapshot([flat])
        assert "param" not in snapshot["plan_cache"]
        assert snapshot["processed"] == 1


# -- the serving pool (no daemon) --------------------------------------------


class TestServingPool:
    def test_family_affinity_routing(self):
        pool = ServingPool(workers=4, backend="thread")
        slots = {pool.slot_for(canon(parse_obj(KOLA.format(c=c))))
                 for c in range(40)}
        # Every constant of one template is one skeleton family.
        assert len(slots) == 1

    def test_exact_routing_spreads_constants(self):
        pool = ServingPool(workers=4, backend="thread",
                           abstract_cache=False)
        slots = {pool.slot_for(canon(parse_obj(KOLA.format(c=c))))
                 for c in range(40)}
        assert len(slots) > 1

    def test_submit_reply_and_close(self, tiny_db):
        replies = {}
        done = threading.Event()

        def on_reply(serial, worker_id, outcome):
            replies[serial] = outcome
            if len(replies) == 4:
                done.set()

        pool = ServingPool(tiny_db, workers=2, backend="thread",
                           on_reply=on_reply)
        with pool:
            assert pool.warmup()
            for serial in range(4):
                term = canon(parse_obj(KOLA.format(c=serial)))
                pool.submit(serial, term)
            assert done.wait(timeout=60)
        assert sorted(replies) == [0, 1, 2, 3]
        assert all(outcome[0] == "ok" for outcome in replies.values())
        with pytest.raises(PoolClosedError):
            pool.submit(9, term, slot=0)

    def test_concurrent_submits_and_recycles_answer_once(self, tiny_db):
        """More workers than cores, four submitting threads, two
        recycles mid-stream and a tiny switch interval: every request
        is answered exactly once and the pool's books end empty."""
        terms = [canon(query) for query in generate_queries(30, seed=2305)]
        counts: dict[int, int] = {}
        outcomes = set()
        guard = threading.Lock()
        done = threading.Event()
        total = 4 * len(terms)

        def on_reply(serial, worker_id, outcome):
            with guard:
                counts[serial] = counts.get(serial, 0) + 1
                outcomes.add(outcome[0])
                if len(counts) == total:
                    done.set()

        def submit_all(offset):
            for index, term in enumerate(terms):
                pool.submit(offset + index, term)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingPool(tiny_db, workers=4, backend="thread",
                             queue_depth=None, on_reply=on_reply) as pool:
                assert pool.warmup()
                submitters = [threading.Thread(target=submit_all,
                                               args=(k * len(terms),))
                              for k in range(4)]
                for thread in submitters:
                    thread.start()
                pool.recycle(0)
                pool.recycle(1)
                for thread in submitters:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert done.wait(timeout=60)
                assert pool.inflight() == 0
                assert not any(worker.pending for worker in pool._slots)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(counts) == list(range(total))
        assert set(counts.values()) == {1}
        assert outcomes == {"ok"}

    def test_close_drains_inflight(self, tiny_db):
        replies = {}
        pool = ServingPool(
            tiny_db, workers=1, backend="thread",
            on_reply=lambda s, w, o: replies.setdefault(s, o))
        pool.start()
        assert pool.warmup()
        term = canon(parse_obj(KOLA.format(c=99)))
        pool.submit(0, term)
        pool.close()          # must not race the in-flight reply away
        assert replies and replies[0][0] == "ok"

    def test_failed_spawn_is_a_serve_error(self, monkeypatch):
        """A worker that cannot be started is never registered:
        ``start`` raises ServeError and ``close`` has nothing of it to
        join."""
        from multiprocessing.context import SpawnProcess

        def refuse(process):
            raise OSError("cannot fork")

        monkeypatch.setattr(SpawnProcess, "start", refuse)
        pool = ServingPool(workers=1, backend="process")
        with pytest.raises(ServeError, match="could not start worker"):
            pool.start()
        pool.close()
        assert pool.worker_ids() == []

    def test_unpicklable_db_is_a_serve_error(self):
        """A database spawn cannot pickle (here, one carrying a lock)
        makes ``start`` raise ServeError with nothing registered; the
        batch layer then records why and runs in-process."""
        db = tiny_database()
        db.lock = threading.Lock()
        pool = ServingPool(db, workers=1, backend="process")
        with pytest.raises(ServeError, match="cannot pickle"):
            pool.start()
        pool.close()
        assert pool.worker_ids() == []

        queries = ([OQL.format(c=c) for c in (20, 40)]
                   + [canon(parse_obj(KOLA.format(c=7)))])
        with BatchOptimizer(db, workers=2) as batch:
            report = batch.optimize_many(queries)
            assert batch.mode == "in-process"
            assert "TypeError: cannot pickle" in batch.start_error
        assert report.mode == "in-process"
        sequential = Optimizer()
        for query, outcome in zip(queries, report.results):
            assert outcome.worker == -1
            assert _results_match(outcome.result,
                                  sequential.optimize(query, db))

    def test_db_with_nested_function_is_a_serve_error(self):
        """Spawn cannot pickle a nested function either, and says so
        with an AttributeError rather than a PicklingError: ``start``
        still raises ServeError with nothing registered, and the batch
        layer falls back in-process."""
        def make_hook():
            def hook(value):
                return value
            return hook

        db = tiny_database()
        db.hook = make_hook()
        pool = ServingPool(db, workers=1, backend="process")
        with pytest.raises(ServeError, match="Can't pickle local object"):
            pool.start()
        pool.close()
        assert pool.worker_ids() == []

        queries = [OQL.format(c=c) for c in (20, 40)]
        with BatchOptimizer(db, workers=2) as batch:
            report = batch.optimize_many(queries)
            assert batch.mode == "in-process"
            assert "AttributeError" in batch.start_error
        sequential = Optimizer()
        for query, outcome in zip(queries, report.results):
            assert outcome.worker == -1
            assert _results_match(outcome.result,
                                  sequential.optimize(query, db))

    def test_attribute_error_in_a_thread_worker_surfaces(self,
                                                         monkeypatch):
        """Only a process start maps AttributeError: a thread worker
        pickles nothing, so one raised there is a program error and
        propagates unchanged."""
        start = threading.Thread.start

        def broken(thread):
            if thread.name.startswith("serve-worker-"):
                raise AttributeError("not a spawn failure")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", broken)
        pool = ServingPool(workers=1, backend="thread")
        with pytest.raises(AttributeError, match="not a spawn failure"):
            pool.start()
        monkeypatch.undo()
        pool.close()

    def test_a_failing_query_is_answered_and_the_worker_serves_on(
            self, tiny_db, monkeypatch):
        """The worker's catch-all is its boundary: a query whose
        optimize raises gets an ``("err", ...)`` reply carrying the
        exception and its traceback, and the next query is served."""
        marked = canon(parse_obj(KOLA.format(c=13)))
        optimize = Optimizer.optimize

        def failing(optimizer, term, *args, **kwargs):
            if term is marked:
                raise RuntimeError("marked query")
            return optimize(optimizer, term, *args, **kwargs)

        monkeypatch.setattr(Optimizer, "optimize", failing)
        replies = {}
        done = threading.Event()

        def on_reply(serial, worker_id, outcome):
            replies[serial] = outcome
            if len(replies) == 2:
                done.set()

        with ServingPool(tiny_db, workers=1, backend="thread",
                         on_reply=on_reply) as pool:
            pool.submit(0, marked)
            pool.submit(1, canon(parse_obj(KOLA.format(c=14))))
            assert done.wait(timeout=60)
        status, message, trace = replies[0]
        assert (status, message) == ("err", "RuntimeError: marked query")
        assert "Traceback" in trace and "marked query" in trace
        assert replies[1][0] == "ok"


class TestServeClient:
    def test_failed_unix_connect_closes_its_socket(self, tmp_path,
                                                   monkeypatch):
        """A ping at a socket path nobody listens on raises, and the
        socket it opened is closed then, not left to the collector."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        client = ServeClient(unix_path=str(tmp_path / "missing.sock"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(OSError):
                client.ping()
            gc.collect()
        assert unraisable == []


# -- a live daemon (thread backend) ------------------------------------------


class _ServerThread:
    """A PlanServer running on its own loop in a daemon thread, so
    blocking clients (and per-test asyncio loops) can talk to it."""

    def __init__(self, **kwargs) -> None:
        self.server: PlanServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.error: str | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        kwargs=kwargs, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=120)
        if self.error is not None:
            raise RuntimeError(self.error)

    def _run(self, **kwargs) -> None:
        async def main():
            self.loop = asyncio.get_running_loop()
            self.server = PlanServer(**kwargs)
            try:
                await self.server.start()
            except Exception as error:
                self.error = f"{type(error).__name__}: {error}"
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    @property
    def port(self) -> int:
        return self.server.tcp_port

    def call(self, coroutine, timeout: float = 120.0):
        """Run a coroutine on the server's loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop).result(timeout)

    def stop(self) -> None:
        if self.server is not None and self.loop is not None:
            self.call(self.server.stop())
        self._thread.join(timeout=30)


@pytest.fixture(scope="module")
def serve_db():
    return tiny_database()


@pytest.fixture(scope="module")
def daemon(serve_db):
    st = _ServerThread(db=serve_db, workers=2, backend="thread",
                       host="127.0.0.1", port=0)
    yield st
    st.stop()


class TestDaemon:
    def test_ping(self, daemon):
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            assert client.ping() < 5.0

    def test_oql_parity_with_direct_optimize(self, daemon, serve_db):
        oql = OQL.format(c=31)
        direct = Optimizer().optimize(oql, serve_db)
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            served = client.optimize(oql)
        assert _results_match(served.result, direct)
        assert served.worker >= 0
        assert served.elapsed_ms >= 0.0

    def test_kola_and_term_parity(self, daemon, serve_db):
        term = canon(parse_obj(KOLA.format(c=55)))
        direct = Optimizer().optimize(term, serve_db)
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            by_text = client.optimize(KOLA.format(c=55), kola=True)
            by_term = client.optimize(term)
        assert _results_match(by_text.result, direct)
        assert _results_match(by_term.result, direct)

    def test_stats_endpoint(self, daemon):
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            client.optimize(OQL.format(c=42))
            stats = client.stats()
        assert stats["workers"] == 2
        assert stats["processed"] >= 1
        assert "param" in stats["plan_cache"]
        assert stats["server"]["served"] >= 1
        assert stats["server"]["backend"] == "thread"

    def test_search_mismatch_is_an_error(self, daemon):
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            with pytest.raises(ServeError, match="search"):
                client.optimize(OQL.format(c=30), search="saturate")

    def test_unknown_op_keeps_connection_open(self, daemon):
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            response = client.request({"op": "frobnicate"})
            assert response["ok"] is False
            assert "unknown op" in response["error"]
            assert client.ping() < 5.0   # same connection still works

    def test_non_dict_request_keeps_connection_open(self, daemon):
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            client._sock.sendall(encode_frame([1, 2, 3]))
            response = read_frame_sock(client._sock)
            assert response["ok"] is False
            assert client.ping() < 5.0

    def test_bad_query_is_an_error_response(self, daemon):
        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            with pytest.raises(ServeError):
                client.optimize("definitely not oql (((")
            assert client.ping() < 5.0

    def test_handler_failure_answers_and_keeps_serving(self, daemon,
                                                       monkeypatch):
        """A handler that raises anything (here ``pool.submit``) is
        answered with ``Type: message`` and counted as an error; the
        same connection serves its next request."""
        server = daemon.server

        def broken(serial, term):
            raise RuntimeError("submit broke")

        with ServeClient(host="127.0.0.1", port=daemon.port) as client:
            errors = client.stats()["server"]["errors"]
            pending = len(server._futures)
            monkeypatch.setattr(server.pool, "submit", broken)
            response = client.request({"id": 7, "op": "optimize",
                                       **query_body(OQL.format(c=33))})
            monkeypatch.undo()
            assert response == {"id": 7, "ok": False,
                                "error": "RuntimeError: submit broke"}
            assert client.stats()["server"]["errors"] == errors + 1
            assert len(server._futures) == pending
            served = client.optimize(OQL.format(c=33))
            assert served.worker >= 0

    def test_malformed_frame_closes_connection(self, daemon):
        sock = socket.create_connection(("127.0.0.1", daemon.port))
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME + 99))
            response = read_frame_sock(sock)
            assert response["ok"] is False
            assert "protocol error" in response["error"]
            assert read_frame_sock(sock) is None   # server hung up
        finally:
            sock.close()

    def test_bad_json_closes_connection(self, daemon):
        sock = socket.create_connection(("127.0.0.1", daemon.port))
        try:
            sock.sendall(struct.pack(">I", 4) + b"\xff\xfe{{")
            response = read_frame_sock(sock)
            assert response["ok"] is False
            assert read_frame_sock(sock) is None
        finally:
            sock.close()

    def test_concurrent_clients_pipeline_out_of_order(self, daemon,
                                                      serve_db):
        queries = [OQL.format(c=c) for c in range(20, 36)]
        direct = [Optimizer().optimize(q, serve_db) for q in queries]

        async def one_client():
            async with AsyncServeClient(host="127.0.0.1",
                                        port=daemon.port) as client:
                return await asyncio.gather(
                    *[client.optimize(q) for q in queries])

        async def run():
            return await asyncio.gather(one_client(), one_client())

        for batch in asyncio.run(run()):
            assert len(batch) == len(queries)
            assert all(_results_match(s.result, d)
                       for s, d in zip(batch, direct))

    def test_recycle_under_load_drops_nothing(self, daemon, serve_db):
        """The acceptance bar: a worker recycle during sustained
        traffic completes with zero dropped or errored requests.

        All 80 requests share one skeleton, so affinity routing puts
        them on one slot, and its fresh replacement may reach the
        per-worker in-flight bound and shed (the documented contract).
        The client honours ``retry_after``, as a well-behaved client
        of a shedding daemon does."""
        queries = [OQL.format(c=c) for c in range(10, 90)]
        before = set(daemon.server.pool.worker_ids())
        recycles_before = daemon.server.counters["recycles"]

        async def run():
            async with AsyncServeClient(host="127.0.0.1",
                                        port=daemon.port) as client:
                tasks = [asyncio.create_task(
                    client.optimize(q, shed_retries=100))
                    for q in queries]
                # Recycle both slots while those requests are in flight.
                await daemon.server.recycle_worker(0)
                await daemon.server.recycle_worker(1)
                return await asyncio.gather(*tasks)

        results = daemon.call(run())
        assert len(results) == len(queries)
        assert all(r.raw["ok"] for r in results)      # zero errored
        direct = [Optimizer().optimize(q, serve_db) for q in queries]
        assert all(_results_match(s.result, d)
                   for s, d in zip(results, direct))
        after = set(daemon.server.pool.worker_ids())
        assert after.isdisjoint(before)               # both replaced
        assert (daemon.server.counters["recycles"]
                == recycles_before + 2)


class TestAdmissionControl:
    @pytest.fixture(scope="class")
    def tight_daemon(self, serve_db):
        st = _ServerThread(db=serve_db, workers=1, backend="thread",
                           host="127.0.0.1", port=0, max_inflight=2,
                           queue_depth=2, shed_retry_after=0.01)
        yield st
        st.stop()

    def test_burst_sheds_with_retry_after_then_recovers(
            self, tight_daemon, serve_db):
        queries = [OQL.format(c=c) for c in range(30)]

        async def run():
            async with AsyncServeClient(
                    host="127.0.0.1", port=tight_daemon.port) as client:
                responses = await asyncio.gather(
                    *[client.request({"op": "optimize", "oql": q})
                      for q in queries])
                after = await client.optimize(OQL.format(c=77))
                return responses, after

        responses, after = asyncio.run(run())
        shed = [r for r in responses if r.get("shed")]
        served = [r for r in responses if r.get("ok")]
        assert shed, "a 30-deep burst against max_inflight=2 must shed"
        assert served, "admitted requests must still be served"
        assert all(r["retry_after"] > 0 for r in shed)
        assert all("overloaded" in r["error"] for r in shed)
        # After the burst drains, the daemon serves normally again.
        assert after.raw["ok"]
        assert (tight_daemon.server.counters["shed"] >= len(shed))

    def test_blocking_client_retries_after_shed(self, tight_daemon):
        # With generous retries a blocking client always gets through.
        with ServeClient(host="127.0.0.1",
                         port=tight_daemon.port) as client:
            served = client.optimize(OQL.format(c=88), shed_retries=50)
        assert served.raw["ok"]

    def test_async_client_retries_after_shed(self, tight_daemon,
                                             serve_db):
        """A burst the tight daemon must shed is served in full when
        the async client retries: each shed request awaits the
        response's ``retry_after`` and tries again."""
        queries = [OQL.format(c=c) for c in range(40, 70)]
        shed_before = tight_daemon.server.counters["shed"]

        async def run():
            async with AsyncServeClient(
                    host="127.0.0.1", port=tight_daemon.port) as client:
                return await asyncio.gather(
                    *[client.optimize(q, shed_retries=500)
                      for q in queries])

        results = asyncio.run(run())
        assert tight_daemon.server.counters["shed"] > shed_before
        assert all(r.raw["ok"] for r in results)
        direct = [Optimizer().optimize(q, serve_db) for q in queries]
        assert all(_results_match(s.result, d)
                   for s, d in zip(results, direct))


class TestAsyncClientReadLoop:
    def test_non_object_frame_fails_pending_requests(self, tmp_path):
        """A well-framed response that is not a JSON object fails the
        pending request with a protocol error (not "daemon closed the
        connection"), and the connection refuses later requests instead
        of leaving them waiting."""
        path = str(tmp_path / "stub.sock")

        async def answer_with_a_list(reader, writer):
            await read_frame(reader)
            writer.write(encode_frame([1, 2, 3]))
            await writer.drain()
            await reader.read()       # until the client hangs up
            writer.close()

        async def run():
            server = await asyncio.start_unix_server(answer_with_a_list,
                                                     path=path)
            try:
                async with AsyncServeClient(unix_path=path) as client:
                    with pytest.raises(ServeError, match=(
                            "protocol error: response frame must be a "
                            "JSON object, got list")):
                        await client.optimize(OQL.format(c=30))
                    with pytest.raises(ServeError, match="read loop"):
                        await client.ping()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(asyncio.wait_for(run(), timeout=30))


@pytest.mark.slow
class TestProcessBackend:
    def test_daemon_over_unix_socket(self, tmp_path):
        db = tiny_database()
        path = str(tmp_path / "serve.sock")
        st = _ServerThread(db=db, workers=2, backend="process",
                           unix_path=path)
        try:
            oql = OQL.format(c=33)
            direct = Optimizer().optimize(oql, db)
            with ServeClient(unix_path=path) as client:
                served = client.optimize(oql)
                stats = client.stats()
            assert _results_match(served.result, direct)
            assert stats["workers"] == 2
        finally:
            st.stop()


def _families(count: int, seed: int = 2026) -> list:
    """``count`` fuzz queries with ``count`` distinct skeletons."""
    corpus, seen = [], set()
    for query in generate_queries(4 * count, seed=seed):
        term = canon(query)
        skeleton = abstract_constants(term)[0]
        if skeleton not in seen:
            seen.add(skeleton)
            corpus.append(term)
            if len(corpus) == count:
                return corpus
    raise AssertionError(f"fewer than {count} skeleton families")


@pytest.mark.slow
class TestManyFamilies:
    """The daemon on two workers serving many skeleton families (the
    other daemon tests vary only constants, so they serve one family):
    families spread over both slots, every served plan is the
    sequential optimizer's, and a pipelined replay that repeats them
    gets no error."""

    @pytest.mark.parametrize("backend,families",
                             [("thread", 40), ("process", 200)])
    def test_replay_parity_and_health(self, tmp_path, backend, families):
        db = generate_database(GeneratorConfig(
            n_persons=30, n_vehicles=20, n_addresses=10, seed=2026))
        corpus = _families(families)
        sequential = Optimizer()
        expected = [sequential.optimize(query, db) for query in corpus]
        replay = corpus_stream(corpus, 2 * len(corpus))
        path = str(tmp_path / "serve.sock")
        st = _ServerThread(db=db, workers=2, backend=backend,
                           unix_path=path)

        async def run():
            async with AsyncServeClient(unix_path=path) as client:
                # One at a time, so each family's first request is a
                # cold optimize on its worker.
                fill = [await client.optimize(query) for query in corpus]
                gate = asyncio.Semaphore(32)

                async def one(query):
                    async with gate:
                        return await client.optimize(query, decode=False)

                served = await asyncio.gather(*[one(q) for q in replay])
                return fill, served

        try:
            fill, served = asyncio.run(asyncio.wait_for(run(), timeout=300))
        finally:
            st.stop()
        assert len({reply.worker for reply in fill}) == 2
        assert [index for index, (reply, want)
                in enumerate(zip(fill, expected))
                if not _results_match(reply.result, want)] == []
        assert len(served) == len(replay)
        assert all(reply.raw["ok"] for reply in served)


def _children(pid: int) -> list[int]:
    found = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        found += [int(one) for one in task.read_text().split()]
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies have)."""
    try:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status and "\nState:\tX" not in status


@pytest.mark.slow
@pytest.mark.skipif(
    not pathlib.Path(f"/proc/self/task/{os.getpid()}/children").exists(),
    reason="reads process children from procfs")
class TestServeCommandSignals:
    def test_sigterm_stops_cleanly(self, tmp_path):
        """SIGTERM takes Ctrl-C's shutdown path: the command exits 0,
        and neither a process it started nor its socket file outlives
        it."""
        path = tmp_path / "serve.sock"
        log = tmp_path / "serve.log"
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        with open(log, "wb") as sink:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--workers", "1", "--backend", "process",
                 "--unix-socket", str(path), "--persons", "8",
                 "--vehicles", "5"],
                stdout=sink, stderr=subprocess.STDOUT, env=env)
        try:
            deadline = time.monotonic() + 120
            while True:
                assert process.poll() is None, log.read_text()
                try:
                    with ServeClient(unix_path=str(path)) as client:
                        client.ping()
                    break
                except OSError:
                    assert time.monotonic() < deadline, log.read_text()
                    time.sleep(0.05)
            started = _children(process.pid)
            assert started, "the daemon started no worker"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0, log.read_text()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        deadline = time.monotonic() + 10
        while (any(_running(pid) for pid in started)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not [pid for pid in started if _running(pid)]
        assert not path.exists()
        assert "shutting down" in log.read_text()
