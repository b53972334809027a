"""The worker pool: per-request dispatch into optimizer workers.

:class:`ServingPool` is the one driver of the worker loop
(:func:`repro.parallel.worker.worker_main`): the only code that spawns,
routes, respawns, resubmits, drains and closes workers.  It has two
clients — the serving daemon (:class:`repro.serve.daemon.PlanServer`,
bounded per-worker queues) and the batch layer
(:class:`repro.parallel.batch.BatchOptimizer`, unbounded queues,
largest query first).  Each worker holds one persistent
:class:`~repro.optimizer.optimizer.Optimizer`:

* **Split once, ship the split.**  :meth:`ServingPool.submit` splits a
  query once into its constant-abstracted skeleton and constant values
  (:func:`~repro.core.terms.abstract_constants`; the exact term and no
  values when ``abstract_cache`` is off) and ships the skeleton's
  portable payload with the values.  The worker rebuilds the query
  from them and records the split on it, so nobody splits or
  re-encodes the whole term again.  A bounded map remembers each
  skeleton's payload and slot, so a repeated family skips the
  skeleton's encoding and routing hash.

* **Shard-affinity routing** (:func:`route_of` over the skeleton's
  payload) pins every member of a query family to one worker, so its
  traffic lands on the worker whose parameterized plan cache, warm
  e-graph and codegen kernels already hold the family, and the
  per-worker plan caches act as the shards of one pool-wide cache.

* **Direct dispatch, one reply pipe per worker.**  A submission goes
  straight onto its worker's task queue, whose ``put`` never blocks.
  Each worker answers on its own one-way pipe, and one pump thread
  waits on every reply pipe plus a wake-up fd
  (``multiprocessing.connection.wait``) and delivers replies through
  ``on_reply``.  Neither the submitter nor the pump ever writes to a
  pipe that can fill; only a worker blocks, on its own pipe.  End of
  file on a process worker's pipe means the worker is gone, and the
  pump reaps it at once.

* **Bounded per-worker queues.**  A submit that would push a worker's
  in-flight count past ``queue_depth`` raises
  :class:`WorkerSaturatedError`; the daemon turns that into a
  load-shed response.  Affinity means an overloaded worker's traffic
  cannot be rerouted without abandoning its warm caches, so the
  correct backpressure is *shed*, not *spill*.

* **Zero-drop lifecycle.**  Every in-flight request is tracked by
  serial with its message.  A worker that dies is replaced in its slot
  and its pending requests are resubmitted; a slot whose worker
  crash-loops (or cannot be respawned) is abandoned and its requests
  answered with an error.  :meth:`recycle` spawns and *warms* a
  replacement before the old worker stops receiving traffic, then
  drains and retires it — no request is dropped or errored by a
  recycle.  :meth:`close` drains all in-flight work before sending
  shutdown sentinels.

The pool is backend-agnostic: ``backend="process"`` spawns real worker
processes (the serving default — real parallelism and isolation);
``backend="thread"`` runs the identical worker loop, task queues and
reply pipes in daemon threads (no spawn cost; used by tests and
single-core deployments where the pool exists for cache sharding, not
CPU parallelism).
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import threading
import time
import zlib

from repro.core.errors import KolaError
from repro.core.terms import Term, abstract_constants
from repro.optimizer.optimizer import Optimizer
from repro.parallel.cache import LRUCache
from repro.parallel.worker import worker_main
from repro.serve.protocol import ServeError

#: Upper bound on the default worker count of the daemon and the batch
#: layer (an explicit ``workers=`` wins).
DEFAULT_WORKERS = 4

#: Default bound on one worker's in-flight requests.
DEFAULT_QUEUE_DEPTH = 64

#: Longest the pump waits for a reply (also the cadence at which it
#: polls for dead workers whose pipe gave no end-of-file).
POLL_INTERVAL = 0.2

#: How long :meth:`ServingPool.close`/:meth:`recycle` wait for
#: in-flight work to drain before giving up on a worker.
DRAIN_TIMEOUT = 30.0

#: Consecutive crash-respawns tolerated per slot before the pool stops
#: replacing that slot's worker (a worker that dies before ever
#: replying is crash-looping — e.g. an unimportable ``__main__`` under
#: the spawn start method — and respawning it forever helps nobody).
MAX_RESPAWNS = 3

BACKENDS = ("process", "thread")


def route_of(payload: tuple, workers: int) -> int:
    """The slot a portable payload routes to — a stable cross-process
    hash (``zlib.crc32`` of the payload's repr; builtin ``hash`` is
    per-process-randomized for strings, so it cannot shard a cache
    whose shards live in different processes)."""
    return zlib.crc32(repr(payload).encode("utf-8")) % workers


class PoolClosedError(KolaError):
    """Submit after :meth:`ServingPool.close` started."""


class WorkerSaturatedError(KolaError):
    """The routed worker's in-flight queue is full (backpressure)."""

    def __init__(self, message: str, worker_id: int, depth: int) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.depth = depth


class _Worker:
    """One live worker: its queue, runner, and in-flight bookkeeping
    (its reply pipe is the pump's, in ``ServingPool._readers``)."""

    __slots__ = ("id", "slot", "queue", "runner", "pending", "draining",
                 "retired", "processed")

    def __init__(self, worker_id: int, slot: int, task_queue,
                 runner) -> None:
        self.id = worker_id
        self.slot = slot
        self.queue = task_queue
        self.runner = runner            # Process or Thread
        self.pending: dict[int, tuple] = {}    # serial -> task message
        self.draining = False
        self.retired = False            # deliberate shutdown in progress
        self.processed = 0

    def is_alive(self) -> bool:
        return self.runner.is_alive()


class ServingPool:
    """A slot-addressed worker pool with request-level dispatch.

    Args:
        db: database shipped to each worker for cost-based planning.
        workers: slot count (each slot holds one live worker).
        search: ``"greedy"`` or ``"saturate"`` (fixed per pool — the
            workers' optimizers are built for one mode).
        budget: saturation budget for saturate-mode workers.
        abstract_cache: parameterized-cache level on workers, and
            skeleton (vs exact) routing.
        backend: ``"process"`` (spawn) or ``"thread"``.
        queue_depth: per-worker in-flight bound (``None`` = unbounded).
        on_reply: ``callback(serial, worker_id, outcome)`` invoked from
            the pump thread for every completed request; ``outcome`` is
            the worker protocol's ``("ok", encoded)`` or
            ``("err", message, traceback)``.
    """

    def __init__(self, db=None, *, workers: int = DEFAULT_WORKERS,
                 search: str = "greedy", budget=None,
                 abstract_cache: bool = True, backend: str = "process",
                 queue_depth: int | None = DEFAULT_QUEUE_DEPTH,
                 on_reply=None) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown pool backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if workers < 1:
            raise ValueError("ServingPool needs at least one worker")
        self.db = db
        self.workers = workers
        self.search = search
        self.budget = budget
        self.abstract_cache = abstract_cache
        self.backend = backend
        self.queue_depth = queue_depth
        self.on_reply = on_reply

        self._lock = threading.RLock()
        self._slots: list[_Worker | None] = [None] * workers
        self._slot_failures = [0] * workers    # consecutive respawns
        self._by_id: dict[int, _Worker] = {}
        self._next_id = 0
        self._pending: dict[int, _Worker] = {}     # serial -> worker
        # skeleton -> (payload, slot): one entry per family a worker's
        # parameterized cache can hold.
        self._routes = LRUCache(Optimizer.PARAM_CACHE_MAX * workers)
        self._readers: dict = {}        # reply pipe -> worker, pump-owned
        self._wake_fds: tuple[int, int] | None = None
        self._mp_context = None
        self._pump: threading.Thread | None = None
        self._pump_stop = False
        self._stats_waiters: dict[int, list] = {}  # worker id -> waiters
        self._closing = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ServingPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Spawn one worker per slot and start the pump."""
        with self._lock:
            if self._started:
                return
            if self.backend == "process":
                import multiprocessing
                self._mp_context = multiprocessing.get_context("spawn")
            wake_read, wake_write = os.pipe()
            os.set_blocking(wake_write, False)
            self._wake_fds = (wake_read, wake_write)
            self._pump_stop = False
            self._started = True
        for slot in range(self.workers):
            worker = self._spawn(slot)
            with self._lock:
                self._slots[slot] = worker
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="serve-pool-pump", daemon=True)
        self._pump.start()

    def _spawn(self, slot: int) -> _Worker:
        """Start a new worker for ``slot`` (registered, not routed).

        Raises:
            ServeError: the worker could not be started; nothing is
                registered, so :meth:`close` never waits on it.
        """
        from multiprocessing.connection import Pipe

        with self._lock:
            worker_id = self._next_id
            self._next_id += 1
        replies, reply_end = Pipe(duplex=False)
        if self.backend == "process":
            task_queue = self._mp_context.Queue()
            runner = self._mp_context.Process(
                target=worker_main,
                args=(worker_id, task_queue, reply_end, self.db,
                      self.search, self.budget, self.abstract_cache),
                daemon=True)
        else:
            task_queue = queue_module.Queue()
            runner = threading.Thread(
                target=worker_main,
                args=(worker_id, task_queue, reply_end, self.db,
                      self.search, self.budget, self.abstract_cache),
                name=f"serve-worker-{worker_id}", daemon=True)
        # Process/thread limits raise OSError or RuntimeError; a db that
        # spawn cannot pickle raises TypeError (a lock, say),
        # PicklingError (a lambda) or AttributeError (a nested function)
        # before any child process exists.  Only a process start
        # pickles, so only there is an AttributeError a spawn failure.
        failures = (OSError, RuntimeError, TypeError, pickle.PicklingError)
        if self.backend == "process":
            failures += (AttributeError,)
        try:
            runner.start()
        except failures as error:
            replies.close()
            reply_end.close()
            raise ServeError(f"could not start worker {worker_id} for "
                             f"slot {slot}: {type(error).__name__}: "
                             f"{error}") from error
        if self.backend == "process":
            # The child holds its own copy; with ours closed, end of
            # file on ``replies`` means the worker is gone.
            reply_end.close()
        worker = _Worker(worker_id, slot, task_queue, runner)
        with self._lock:
            self._by_id[worker_id] = worker
            self._readers[replies] = worker
        self._wake()
        return worker

    def _wake(self) -> None:
        """Make the pump re-read its pipe set (never blocks)."""
        with self._lock:  # close() closes the fds under the lock
            if self._wake_fds is not None:
                try:
                    os.write(self._wake_fds[1], b"\0")
                except BlockingIOError:  # full: the pump wakes anyway
                    pass

    def warmup(self, timeout: float = 60.0) -> bool:
        """Block until every slot's worker answers a stats round-trip
        (imports done, rulebase compiled).  ``True`` when all did."""
        infos = self.request_stats(timeout=timeout)
        return len(infos) == self.workers

    # -- routing and dispatch -----------------------------------------------

    def _split(self, term: Term) -> tuple[tuple, tuple, int]:
        """``term`` as shipped: its skeleton's portable payload, its
        constant values, and the slot the skeleton routes to."""
        if self.abstract_cache:
            skeleton, values = abstract_constants(term)
        else:
            skeleton, values = term, ()
        with self._lock:
            route = self._routes.get(skeleton)
        if route is None:
            payload = skeleton.to_portable()
            route = (payload, route_of(payload, self.workers))
            with self._lock:
                self._routes.put(skeleton, route)
        return route[0], values, route[1]

    def slot_for(self, term: Term) -> int:
        """The slot ``term`` routes to: its constant-abstracted
        skeleton's (family affinity) when the parameterized cache level
        is on, else the exact term's."""
        return self._split(term)[2]

    def submit(self, serial: int, term: Term, *,
               slot: int | None = None) -> int:
        """Queue one request; returns the worker id it was routed to.

        ``term`` ships split (see the module docstring); it routes to
        ``slot`` when given, else to :meth:`slot_for`'s slot.

        Raises:
            PoolClosedError: the pool is shutting down, or the routed
                slot's worker crash-looped past :data:`MAX_RESPAWNS`.
            WorkerSaturatedError: the routed worker is at
                ``queue_depth`` in-flight requests.
        """
        payload, values, routed = self._split(term)
        if slot is None:
            slot = routed
        message = ("optimize", serial, payload, values)
        with self._lock:
            if self._closing or not self._started:
                raise PoolClosedError("serving pool is not accepting work")
            worker = self._slots[slot]
            if worker is None:
                raise PoolClosedError(
                    f"worker slot {slot} is unavailable (its worker "
                    f"crashed {MAX_RESPAWNS + 1} times in a row)")
            if (self.queue_depth is not None
                    and len(worker.pending) >= self.queue_depth):
                raise WorkerSaturatedError(
                    f"worker {worker.id} has {len(worker.pending)} "
                    f"requests in flight (bound {self.queue_depth})",
                    worker.id, len(worker.pending))
            worker.pending[serial] = message
            self._pending[serial] = worker
        # Should the worker die first, the reaper resubmits ``message``
        # from ``pending``; a put to the dead worker's queue is inert.
        worker.queue.put(message)
        return worker.id

    def inflight(self) -> int:
        """Requests submitted but not yet replied."""
        with self._lock:
            return len(self._pending)

    def slot_of_worker(self, worker_id: int) -> int | None:
        """The slot ``worker_id`` currently owns (``None`` when it is
        draining or gone)."""
        with self._lock:
            worker = self._by_id.get(worker_id)
            if worker is None or worker.draining:
                return None
            return worker.slot

    def worker_ids(self) -> list[int]:
        """Current slot owners, by slot."""
        with self._lock:
            return [worker.id for worker in self._slots
                    if worker is not None]

    # -- the reply pump -----------------------------------------------------

    def _pump_loop(self) -> None:
        from multiprocessing.connection import wait

        wake = self._wake_fds[0]
        last_reap = time.monotonic()
        try:
            while not self._pump_stop:
                with self._lock:
                    readers = list(self._readers)
                ready = wait(readers + [wake], timeout=POLL_INTERVAL)
                gone = []
                for source in ready:
                    if source == wake:
                        os.read(wake, 4096)
                        continue
                    worker = self._readers[source]
                    try:
                        message = source.recv()
                    except (EOFError, OSError):
                        gone.append(worker)
                        with self._lock:
                            del self._readers[source]
                        source.close()
                        continue
                    self._dispatch(worker, message)
                # A busy pipe set must not starve dead-worker detection.
                if (gone or not ready
                        or time.monotonic() - last_reap > POLL_INTERVAL):
                    self._reap_dead_workers(gone)
                    last_reap = time.monotonic()
        finally:
            with self._lock:
                readers, self._readers = list(self._readers), {}
            for source in readers:
                source.close()

    def _dispatch(self, worker: _Worker, message: tuple) -> None:
        """Deliver one message read from ``worker``'s reply pipe."""
        with self._lock:
            if self._slots[worker.slot] is worker:
                # A reply proves the slot's worker is healthy.
                self._slot_failures[worker.slot] = 0
            if message[0] == "stats":
                waiters = self._stats_waiters.pop(worker.id, [])
            else:
                _, serial, outcome = message
                # The serial may by now be pending on a *replacement*
                # worker (resubmitted after its original was presumed
                # dead): clear the books on whichever worker owns it,
                # and drop the duplicate reply if one already landed.
                owner = self._pending.pop(serial, None)
                if owner is None:
                    return
                owner.pending.pop(serial, None)
                worker.processed += 1
        if message[0] == "stats":
            for event, holder in waiters:
                holder[worker.id] = message[1]
                event.set()
        elif self.on_reply is not None:
            self.on_reply(serial, worker.id, outcome)

    def _reap_dead_workers(self, gone=()) -> None:
        """Replace dead workers — those whose reply pipe reached end of
        file (``gone``) or whose runner stopped — and resubmit their
        in-flight requests (nothing is dropped; plan choice is
        deterministic, so a resubmitted request returns the same
        result).  A slot whose worker crash-loops past
        :data:`MAX_RESPAWNS`, or cannot be respawned, is abandoned and
        its orphans get an ``("err", ...)`` reply."""
        with self._lock:
            dead = [worker for worker in self._by_id.values()
                    if not worker.retired
                    and (worker in gone or not worker.is_alive())
                    and (worker.pending
                         or self._slots[worker.slot] is worker)]
        for worker in dead:
            with self._lock:
                if worker.retired:
                    continue
                worker.retired = True
                owns_slot = self._slots[worker.slot] is worker
                self._by_id.pop(worker.id, None)
                waiters = self._stats_waiters.pop(worker.id, [])
            if self.backend == "process" and worker.is_alive():
                # Its pipe is closed, so it can never answer again.
                worker.runner.kill()
                worker.runner.join(timeout=1)
            for event, _holder in waiters:
                event.set()  # waiter sees no entry for this worker
            reason = f"worker slot {worker.slot} is unavailable"
            replacement = None
            if owns_slot:
                with self._lock:
                    self._slot_failures[worker.slot] += 1
                    failures = self._slot_failures[worker.slot]
                if failures > MAX_RESPAWNS:
                    # Crash loop: stop replacing this slot rather than
                    # bouncing its orphans forever.
                    reason = (f"worker slot {worker.slot} crashed "
                              f"{failures} times in a row; giving up on "
                              f"this slot")
                else:
                    try:
                        replacement = self._spawn(worker.slot)
                    except ServeError as error:
                        reason = str(error)
            with self._lock:
                if owns_slot:
                    # ``None`` abandons the slot: new submits to it
                    # raise PoolClosedError.
                    self._slots[worker.slot] = replacement
                target = self._slots[worker.slot]
                # Taken only now, so a submit that reached the dead
                # worker before the slot changed hands is not lost.
                orphans = list(worker.pending.items())
                worker.pending.clear()
                if target is None:
                    # An abandoned slot: fail the orphans rather than
                    # drop them.
                    for serial, _message in orphans:
                        self._pending.pop(serial, None)
                else:
                    for serial, message in orphans:
                        target.pending[serial] = message
                        self._pending[serial] = target
            if target is None:
                if self.on_reply is not None:
                    for serial, _message in orphans:
                        self.on_reply(serial, worker.id,
                                      ("err", reason, ""))
            else:
                for _serial, message in orphans:
                    target.queue.put(message)

    # -- stats --------------------------------------------------------------

    def request_stats(self, timeout: float = 10.0) -> dict[int, dict]:
        """One stats round-trip per live slot owner.

        Returns ``{worker_id: info}`` for every worker that answered
        within ``timeout`` (a worker that died mid-request is simply
        absent).  The stats marker queues *behind* every request
        submitted before the call, so an answer also proves the worker
        drained them — the drain barrier recycling and shutdown are
        built on.
        """
        with self._lock:
            targets = [worker for worker in self._slots
                       if worker is not None and worker.is_alive()]
        event = threading.Event()
        holder: dict[int, dict] = {}
        expected = set()
        for worker in targets:
            with self._lock:
                self._stats_waiters.setdefault(worker.id, []).append(
                    (event, holder))
            expected.add(worker.id)
            worker.queue.put(("stats",))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(worker_id in holder or worker_id not in self._by_id
                   for worker_id in expected):
                break
            event.wait(timeout=0.05)
            event.clear()
        with self._lock:
            for worker_id in expected:
                waiters = self._stats_waiters.get(worker_id)
                if waiters:
                    self._stats_waiters[worker_id] = [
                        w for w in waiters if w[1] is not holder]
        return holder

    # -- recycling and shutdown ---------------------------------------------

    def recycle(self, slot: int, timeout: float = DRAIN_TIMEOUT) -> int:
        """Gracefully replace ``slot``'s worker; returns the new id.

        Spawns and **warms** the replacement first (one stats
        round-trip, so its interpreter/rulebase startup cost is paid
        before it takes traffic), then atomically reroutes the slot,
        drains the old worker's in-flight requests, and retires it.
        Zero requests are dropped: in-flight replies keep flowing
        through the pump during the drain, and if the old worker dies
        mid-drain its remainder is resubmitted to the replacement.
        """
        replacement = self._spawn(slot)
        self._await_stats(replacement, timeout)
        with self._lock:
            old = self._slots[slot]
            self._slots[slot] = replacement
            replacement.slot = slot
            old.draining = True
        self._retire(old, timeout)
        return replacement.id

    def _await_stats(self, worker: _Worker, timeout: float) -> None:
        event = threading.Event()
        holder: dict[int, dict] = {}
        with self._lock:
            self._stats_waiters.setdefault(worker.id, []).append(
                (event, holder))
        worker.queue.put(("stats",))
        deadline = time.monotonic() + timeout
        while worker.id not in holder and time.monotonic() < deadline:
            if not worker.is_alive():
                break
            event.wait(timeout=0.05)
            event.clear()

    def _retire(self, worker: _Worker, timeout: float) -> None:
        """Drain ``worker``'s in-flight work, then shut it down."""
        deadline = time.monotonic() + timeout
        while worker.pending and time.monotonic() < deadline:
            if not worker.is_alive():
                # The pump's reaper resubmits its remainder.
                break
            time.sleep(0.005)
        with self._lock:
            worker.retired = True
            self._by_id.pop(worker.id, None)
        worker.queue.put(None)
        worker.runner.join(timeout=5)
        if self.backend == "process" and worker.is_alive():
            worker.runner.terminate()
            worker.runner.join(timeout=1)

    def close(self, timeout: float = DRAIN_TIMEOUT) -> None:
        """Drain all in-flight requests, then shut every worker down.

        Idempotent.  Replies arriving during the drain are delivered
        through ``on_reply`` exactly like steady-state traffic, so a
        close racing late requests drops nothing."""
        with self._lock:
            if not self._started:
                return
            self._closing = True
        deadline = time.monotonic() + timeout
        while self._pending and time.monotonic() < deadline:
            time.sleep(0.01)
        with self._lock:
            workers = list(self._by_id.values())
        for worker in workers:
            self._retire(worker, timeout=max(
                0.0, deadline - time.monotonic()))
        pump = self._pump
        self._pump_stop = True
        self._wake()
        if pump is not None:
            pump.join(timeout=5)
        with self._lock:
            if pump is None or not pump.is_alive():
                # The pump closed the pipes it read; close the rest.
                for source in self._readers:
                    source.close()
                self._readers = {}
                for fd in self._wake_fds:
                    os.close(fd)
            self._wake_fds = None
            self._slots = [None] * self.workers
            self._by_id.clear()
            self._pending.clear()
            self._started = False
            self._pump = None
