"""The asyncio plan-serving daemon.

:class:`PlanServer` promotes the batch optimizer into a long-lived
streaming service: an asyncio front-end (TCP and/or a unix socket,
length-prefixed JSON frames — :mod:`repro.serve.protocol`) feeding a
persistent :class:`~repro.serve.pool.ServingPool` of optimizer
workers.  The moving parts:

* **Pipelined dispatch.**  Every request is routed immediately on
  arrival (skeleton shard-affinity) and its response streams back the
  moment its worker replies — responses on one connection are
  **out of order** by design, correlated by request id.  A connection
  that half-closes after its last request still receives every
  outstanding response before the server closes it.

* **Admission control.**  Two bounds shed load instead of queueing it
  unboundedly: a global in-flight cap (``max_inflight``) and the
  pool's per-worker ``queue_depth``.  A shed response carries
  ``retry_after``; the request was never queued, so shedding is
  side-effect-free.

* **Graceful recycling.**  :meth:`recycle_worker` (or the automatic
  ``recycle_after`` request-count trigger) spawns and warms a
  replacement before the old worker stops taking traffic, then drains
  and retires it — zero in-flight requests dropped (see
  :meth:`ServingPool.recycle`).

* **Stats.**  A ``stats`` request aggregates the per-worker
  plan-cache/kernel/saturation/engine counters through
  :func:`repro.serve.stats_snapshot` and adds the server-level
  counters (served/shed/errors/recycles/in-flight).

The daemon serves one search mode and one database (like one
:class:`~repro.parallel.batch.BatchOptimizer`); plan choice stays
deterministic, so anything served is bit-identical to a sequential
``Optimizer.optimize`` of the same query.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time

from repro.optimizer.optimizer import SEARCH_MODES
from repro.serve.pool import (DEFAULT_QUEUE_DEPTH, DEFAULT_WORKERS,
                              PoolClosedError, ServingPool,
                              WorkerSaturatedError)
from repro.serve.protocol import (FrameError, ServeError, encode_frame,
                                  read_frame, resolve_query)
from repro.serve.stats import snapshot_summary, stats_snapshot

#: Default TCP port for the CLI daemon and client.
DEFAULT_PORT = 9321

#: Default suggested client backoff on a shed response, seconds.
DEFAULT_RETRY_AFTER = 0.05


class PlanServer:
    """A long-lived plan-serving daemon over a worker pool.

    Args:
        db: database for cost-based plan choice (shipped to workers).
        workers: pool slot count.
        search: ``"greedy"`` or ``"saturate"`` (fixed for the daemon).
        budget: saturation budget for saturate-mode workers.
        abstract_cache: parameterized plan-cache level + skeleton
            routing on the workers.
        backend: worker backend, ``"process"`` or ``"thread"``.
        host/port: TCP listen address (``port=0`` picks a free port,
            exposed as :attr:`tcp_port` after :meth:`start`).  ``None``
            disables TCP.
        unix_path: unix-socket listen path (``None`` disables).
        max_inflight: global admission bound; requests beyond it are
            shed.  Defaults to ``workers * queue_depth``.
        queue_depth: per-worker in-flight bound (affinity means an
            overloaded worker sheds rather than spills).
        recycle_after: recycle a worker after it served this many
            requests (``None`` = only explicit :meth:`recycle_worker`).
        shed_retry_after: ``retry_after`` hint on shed responses.
    """

    def __init__(self, db=None, *, workers: int | None = None,
                 search: str = "greedy", budget=None,
                 abstract_cache: bool = True, backend: str = "process",
                 host: str | None = None, port: int | None = None,
                 unix_path: str | None = None,
                 max_inflight: int | None = None,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 recycle_after: int | None = None,
                 shed_retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        if search not in SEARCH_MODES:
            raise ValueError(f"unknown search mode {search!r}; "
                             f"expected one of {SEARCH_MODES}")
        if host is None and unix_path is None:
            raise ValueError("PlanServer needs a TCP host/port or a "
                             "unix socket path to listen on")
        if workers is None:
            workers = min(DEFAULT_WORKERS, os.cpu_count() or 1)
        self.search = search
        self.host, self.port = host, port
        self.unix_path = unix_path
        self.queue_depth = queue_depth
        self.max_inflight = (max_inflight if max_inflight is not None
                             else workers * queue_depth)
        self.recycle_after = recycle_after
        self.shed_retry_after = shed_retry_after
        self.pool = ServingPool(db, workers=workers, search=search,
                                budget=budget,
                                abstract_cache=abstract_cache,
                                backend=backend,
                                queue_depth=queue_depth,
                                on_reply=self._pool_reply)
        self.tcp_port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._serials = itertools.count()
        self._futures: dict[int, asyncio.Future] = {}
        self._inflight = 0
        self._started_at: float | None = None
        self._stopping = asyncio.Event()
        self._recycling: set[int] = set()
        self._served_by_worker: dict[int, int] = {}
        self.counters = {"served": 0, "shed": 0, "errors": 0,
                         "recycles": 0, "connections": 0}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Start the pool and listeners; returns once serving."""
        self._loop = asyncio.get_running_loop()
        await asyncio.to_thread(self.pool.start)
        warmed = await asyncio.to_thread(self.pool.warmup)
        if not warmed:
            await asyncio.to_thread(self.pool.close)
            raise ServeError(
                "worker pool failed to warm up (workers did not answer "
                "a stats round-trip; with backend='process' the daemon "
                "must be started from an importable __main__)")
        if self.host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host,
                port=self.port or 0)
            self.tcp_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        if self.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path)
            self._servers.append(server)
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (for CLI use)."""
        await self._stopping.wait()

    async def stop(self) -> None:
        """Stop accepting, drain in-flight work, shut the pool down."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # Pool close drains: every in-flight request is answered (its
        # future resolves through the normal reply path) before the
        # workers receive their shutdown sentinels.
        await asyncio.to_thread(self.pool.close)
        for future in self._futures.values():
            if not future.done():
                future.set_exception(
                    ServeError("daemon stopped before reply"))
        self._futures.clear()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        self._stopping.set()

    # -- pool reply plumbing ------------------------------------------------

    def _pool_reply(self, serial: int, worker_id: int, outcome) -> None:
        """Pump-thread callback: hop to the event loop."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._deliver, serial, worker_id,
                                      outcome)

    def _deliver(self, serial: int, worker_id: int, outcome) -> None:
        future = self._futures.pop(serial, None)
        if future is None:
            return
        self._inflight -= 1
        self.counters["served"] += 1
        if not future.done():
            future.set_result((worker_id, outcome))
        if self.recycle_after is not None:
            count = self._served_by_worker.get(worker_id, 0) + 1
            self._served_by_worker[worker_id] = count
            if count >= self.recycle_after:
                slot = self.pool.slot_of_worker(worker_id)
                if slot is not None and slot not in self._recycling:
                    asyncio.ensure_future(self.recycle_worker(slot))

    async def recycle_worker(self, slot: int) -> int | None:
        """Gracefully replace ``slot``'s worker (see
        :meth:`ServingPool.recycle`); returns the new worker id, or
        ``None`` if the slot is already being recycled."""
        if slot in self._recycling:
            return None
        self._recycling.add(slot)
        try:
            new_id = await asyncio.to_thread(self.pool.recycle, slot)
            self.counters["recycles"] += 1
            self._served_by_worker.pop(new_id, None)
            return new_id
        finally:
            self._recycling.discard(slot)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.counters["connections"] += 1
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameError as error:
                    # Framing errors are connection-fatal: the byte
                    # stream cannot be resynchronized.
                    await self._write(writer, write_lock, {
                        "id": None, "ok": False,
                        "error": f"protocol error: {error}"})
                    break
                if request is None:
                    break
                task = asyncio.create_task(
                    self._handle_request(request, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A client may half-close after its last request; finish
            # streaming every outstanding response before closing.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer, write_lock, message: dict) -> None:
        frame = encode_frame(message)
        async with write_lock:
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, request, writer, write_lock) -> None:
        if not isinstance(request, dict):
            await self._write(writer, write_lock, {
                "id": None, "ok": False,
                "error": "request must be a JSON object"})
            return
        request_id = request.get("id")
        op = request.get("op")
        try:
            if op == "ping":
                response = {"id": request_id, "ok": True, "pong": True}
            elif op == "stats":
                response = await self._stats_response(request_id)
            elif op == "optimize":
                response = await self._optimize_response(request_id,
                                                         request)
            else:
                response = {"id": request_id, "ok": False,
                            "error": f"unknown op {op!r}"}
        except ServeError as error:
            self.counters["errors"] += 1
            response = {"id": request_id, "ok": False,
                        "error": str(error)}
        except Exception as error:  # never kill the connection loop
            self.counters["errors"] += 1
            response = {"id": request_id, "ok": False,
                        "error": f"{type(error).__name__}: {error}"}
        await self._write(writer, write_lock, response)

    # -- request handlers ---------------------------------------------------

    async def _stats_response(self, request_id) -> dict:
        infos = await asyncio.to_thread(self.pool.request_stats)
        snapshot = stats_snapshot(infos)
        snapshot["server"] = self.server_stats()
        return {"id": request_id, "ok": True, "stats": snapshot}

    def server_stats(self) -> dict:
        """The daemon-level counter block of a stats snapshot."""
        uptime = (0.0 if self._started_at is None
                  else time.monotonic() - self._started_at)
        return {**self.counters, "inflight": self._inflight,
                "workers": self.pool.worker_ids(),
                "search": self.search, "backend": self.pool.backend,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "uptime_s": round(uptime, 3)}

    def _shed(self, request_id, reason: str) -> dict:
        self.counters["shed"] += 1
        return {"id": request_id, "ok": False, "shed": True,
                "error": f"overloaded: {reason}",
                "retry_after": self.shed_retry_after}

    async def _optimize_response(self, request_id, request) -> dict:
        wanted = request.get("search")
        if wanted is not None and wanted != self.search:
            raise ServeError(
                f"this daemon serves search={self.search!r}; "
                f"start one with search={wanted!r} for that mode")
        term = resolve_query(request)  # raises ServeError on bad input
        if self._inflight >= self.max_inflight:
            return self._shed(request_id,
                              f"{self._inflight} requests in flight "
                              f"(bound {self.max_inflight})")
        serial = next(self._serials)
        future = self._loop.create_future()
        self._futures[serial] = future
        started = time.perf_counter()
        try:
            self.pool.submit(serial, term)
        except WorkerSaturatedError as error:
            self._futures.pop(serial, None)
            return self._shed(request_id, str(error))
        except PoolClosedError as error:
            self._futures.pop(serial, None)
            raise ServeError(str(error)) from None
        self._inflight += 1
        worker_id, outcome = await future
        elapsed_ms = (time.perf_counter() - started) * 1000
        if outcome[0] != "ok":
            self.counters["errors"] += 1
            return {"id": request_id, "ok": False, "worker": worker_id,
                    "error": outcome[1]}
        return {"id": request_id, "ok": True, "worker": worker_id,
                "elapsed_ms": round(elapsed_ms, 3),
                "result": outcome[1]}

    # -- periodic stats logging (CLI --stats-interval) ----------------------

    async def log_stats_forever(self, interval: float,
                                emit=print) -> None:
        """Emit a one-line stats summary every ``interval`` seconds."""
        while not self._stopping.is_set():
            try:
                await asyncio.wait_for(self._stopping.wait(),
                                       timeout=interval)
                return
            except asyncio.TimeoutError:
                pass
            infos = await asyncio.to_thread(self.pool.request_stats)
            snapshot = stats_snapshot(infos)
            server = self.server_stats()
            emit(f"[serve] {snapshot_summary(snapshot)}; "
                 f"inflight {server['inflight']}, "
                 f"shed {server['shed']}, "
                 f"recycles {server['recycles']}")
