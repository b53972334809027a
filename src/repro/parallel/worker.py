"""The optimizer worker loop.

Each worker owns one persistent :class:`~repro.optimizer.optimizer
.Optimizer` (and therefore one :class:`~repro.rewrite.engine.Engine`):
its plan cache, normal-form cache, canon cache and cost memo stay warm
across every task the worker processes.  :class:`repro.serve.pool
.ServingPool` is the one driver of this loop — for the serving daemon
and the batch layer alike — and routes each query to a fixed worker by
a stable hash of its skeleton (:func:`repro.serve.pool.route_of`), so
every member of a query family meets the one per-worker plan cache
that holds its skeleton, and the pool's aggregate plan-cache capacity
grows with its worker count.

Protocol (every message is picklable):

* task queue (per worker; ``put`` never blocks):
  ``("optimize", serial, skeleton, values)`` requests — the query split
  by :func:`~repro.core.terms.abstract_constants` into its skeleton's
  portable payload and its constant values — ``("stats",)`` markers,
  then ``None`` to shut down.
* reply pipe (per worker, one-way, written only by its worker):
  ``("result", serial, outcome)`` per request, where ``outcome`` is
  ``("ok", encoded)`` or ``("err", message, traceback)``, and
  ``("stats", info)`` answering each stats marker.  Both channels are
  FIFO, so a stats answer arrives after the results of every request
  queued before its marker.  The worker closes its pipe when it exits;
  end-of-file tells the pool the worker is gone.

The worker rebuilds each query with
:func:`~repro.core.terms.instantiate_abstraction`: the skeleton's
payload is a decode-memo hit for a repeated family, and the split is
recorded on the rebuilt term, so its optimizer does not split it
again.  A worker's plan cache returns the *same*
:class:`OptimizedQuery` object for a repeated query, so results are
encoded once per distinct object through a bounded memo; repeated
queries ship the already-built payload.

Failures are a deliberate boundary: the worker catches *every*
``Exception`` a request raises (rebuilding, optimizing or encoding it)
and ships it as ``("err", "Type: message", traceback)``, because a
worker must answer every serial it was given and keep serving the rest
of its queue; the client decides what an error means (the daemon
replies with it, the batch layer reruns the query in-process and
raises there).  Exceptions that are not ``Exception`` (``SystemExit``,
``KeyboardInterrupt``) still end the worker, which closes its pipe.

The module is import-light at the top level so ``spawn`` can load it
quickly; the optimizer stack is imported inside :func:`worker_main`
(which also sidesteps an import-order quirk in ``repro.schema``).
"""

from __future__ import annotations

import traceback

#: Encoded-result memo entries kept per worker (keyed by result object
#: identity; the memo holds the result, so an id is never reused while
#: its entry is live).
ENCODE_MEMO_MAX = 2048


def worker_main(worker_id: int, task_queue, reply_pipe,
                db, search: str, budget,
                abstract_cache: bool = True) -> None:
    """Run one worker: build the persistent optimizer, answer the task
    queue on ``reply_pipe`` until the shutdown sentinel, then close the
    pipe."""
    from repro.core.terms import from_portable, instantiate_abstraction
    from repro.optimizer.optimizer import Optimizer

    from repro.parallel.cache import LRUCache
    from repro.parallel.portable import encode_result

    try:
        optimizer = Optimizer(search=search, saturation_budget=budget,
                              abstract_cache=abstract_cache)
        encode_memo = LRUCache(ENCODE_MEMO_MAX)
        processed = 0
        while True:
            message = task_queue.get()
            if message is None:
                break
            if message[0] == "stats":
                reply_pipe.send(("stats",
                                 worker_stats(optimizer, processed)))
                continue
            _, serial, skeleton, values = message
            try:
                term = instantiate_abstraction(from_portable(skeleton),
                                               values)
                result = optimizer.optimize(term, db, search=search)
                memoed = encode_memo.get(id(result))
                if memoed is None:
                    memoed = (result, encode_result(result))
                    encode_memo.put(id(result), memoed)
                outcome = ("ok", memoed[1])
            except Exception as exc:  # ship the failure, keep serving
                outcome = ("err", f"{type(exc).__name__}: {exc}",
                           traceback.format_exc())
            processed += 1
            reply_pipe.send(("result", serial, outcome))
    finally:
        reply_pipe.close()


def worker_stats(optimizer, processed: int) -> dict:
    """The per-worker stats blob (merged into batch reports and the
    daemon's stats endpoint).

    ``plan_cache`` carries the nested ``"param"`` and ``"kernel"``
    dicts (skeleton-plan and codegen-kernel traffic) alongside the
    flat counters; the batch merge sums the flat counters and keeps
    the nested detail per worker."""
    return {
        "processed": processed,
        "plan_cache": optimizer.plan_cache_info(),
        "nf_cache": optimizer.engine.nf_cache_info(),
        "cost_cache": optimizer.cost_model.estimate_cache_info(),
    }
