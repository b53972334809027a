"""Parallel batch optimization over portable terms.

Public surface:

* :func:`~repro.parallel.batch.optimize_many` — optimize a query
  corpus over the spawn-safe worker pool
  (:class:`repro.serve.pool.ServingPool`), or in-process.
* :class:`~repro.parallel.batch.BatchOptimizer` — the reusable batch
  front-end behind it, for callers that want warm workers across
  batches.
* :class:`~repro.parallel.cache.LRUCache` /
  :class:`~repro.parallel.cache.ShardedLRUCache` — the bounded LRU
  caches the serving layers share.
"""

from repro.parallel.cache import (LRUCache, ShardedLRUCache,
                                  merge_cache_info)

__all__ = [
    "LRUCache", "ShardedLRUCache", "merge_cache_info",
    "optimize_many", "BatchOptimizer", "BatchReport", "BatchResult",
]


def __getattr__(name):  # lazy: batch pulls in the optimizer stack
    if name in ("optimize_many", "BatchOptimizer", "BatchReport",
                "BatchResult"):
        from repro.parallel import batch
        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
