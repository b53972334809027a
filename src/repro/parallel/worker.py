"""The optimizer worker loop.

Each worker owns one persistent :class:`~repro.optimizer.optimizer
.Optimizer` (and therefore one :class:`~repro.rewrite.engine.Engine`):
its plan cache, normal-form cache, canon cache and cost memo stay warm
across every task the worker processes.  :class:`repro.serve.pool
.ServingPool` is the one driver of this loop — for the serving daemon
and the batch layer alike — and routes each query to a fixed worker by
a stable hash of its skeleton (:func:`repro.serve.pool.route_of`), so
the per-worker plan caches behave as the shards of one pool-wide
:class:`~repro.parallel.cache.ShardedLRUCache` whose aggregate capacity
scales with the pool.

Protocol (all queue traffic is picklable):

* task queue (per worker): ``("chunk", [(serial, payload), ...])``
  messages, ``("stats", None)`` markers, then ``None`` to shut down.
* result queue (shared): one ``("results", worker, items)`` message
  per chunk, where each item is ``(serial, ("ok", encoded))`` or
  ``(serial, ("err", message, traceback))`` — one reply message per
  chunk amortizes queue IPC the same way the pool's coalesced chunks
  do for tasks — and a ``("stats", worker, info)`` message answering
  each stats marker (queue order guarantees it arrives after the
  results of every chunk queued before the marker).

A worker's plan cache returns the *same* :class:`OptimizedQuery`
object for a repeated query, so results are encoded once per distinct
object through a bounded memo; repeated queries ship the already-built
payload.

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


def worker_main(worker_id: int, task_queue, result_queue,
                db, search: str, budget,
                abstract_cache: bool = True) -> None:
    """Run one worker: build the persistent optimizer, drain the task
    queue, report stats, exit."""
    from repro.core.terms import from_portable
    from repro.optimizer.optimizer import Optimizer

    from repro.parallel.cache import LRUCache
    from repro.parallel.portable import encode_result

    optimizer = Optimizer(search=search, saturation_budget=budget,
                          abstract_cache=abstract_cache)
    encode_memo = LRUCache(ENCODE_MEMO_MAX)
    processed = 0
    while True:
        message = task_queue.get()
        if message is None:
            break
        kind, body = message
        if kind == "stats":
            result_queue.put(("stats", worker_id,
                              worker_stats(optimizer, processed)))
            continue
        if kind != "chunk":  # pragma: no cover - protocol guard
            continue
        items = []
        for serial, payload in body:
            try:
                term = from_portable(payload)
                result = optimizer.optimize(term, db, search=search)
                memoed = encode_memo.get(id(result))
                if memoed is None:
                    memoed = (result, encode_result(result))
                    encode_memo.put(id(result), memoed)
                items.append((serial, ("ok", memoed[1])))
            except Exception as exc:  # ship the failure, keep serving
                items.append((serial, ("err",
                                       f"{type(exc).__name__}: {exc}",
                                       traceback.format_exc())))
            processed += 1
        result_queue.put(("results", worker_id, items))


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
