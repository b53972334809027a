"""Bounded LRU caches.

The serving layers (plan cache, normal-form cache, cost memo) used
FIFO-bounded dicts: under skewed traffic FIFO evicts hot entries just
because they are *old*, so a popular query can be evicted while a
one-off survives.  :class:`LRUCache` fixes the policy — every hit
refreshes the entry — and keeps the same hit/miss/eviction counters
the old dicts exposed.  :func:`merge_cache_info` sums the stats of
several caches (one per pool worker) into one report.
"""

from __future__ import annotations


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` counts hits/misses and refreshes recency; ``put`` inserts
    (or refreshes) and evicts the least-recent entries past
    ``max_size``.  Backed by dict insertion order: the head of the dict
    is always the eviction victim.
    """

    __slots__ = ("max_size", "hits", "misses", "evictions", "_data")

    def __init__(self, max_size: int) -> None:
        if max_size < 1:
            raise ValueError("cache max_size must be >= 1")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: dict = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def keys(self):
        """Keys, least-recent first (diagnostics/tests)."""
        return list(self._data)

    def get(self, key, default=None):
        data = self._data
        if key in data:
            value = data.pop(key)
            data[key] = value  # refresh recency
            self.hits += 1
            return value
        self.misses += 1
        return default

    def peek(self, key, default=None):
        """Read without touching recency or counters."""
        return self._data.get(key, default)

    def put(self, key, value, max_size: int | None = None) -> None:
        """Insert or refresh ``key``.  ``max_size`` overrides the
        configured bound for this call (callers that expose a mutable
        cap — ``Optimizer.PLAN_CACHE_MAX`` — pass it through)."""
        bound = self.max_size if max_size is None else max(1, max_size)
        data = self._data
        if key in data:
            del data[key]
        data[key] = value
        while len(data) > bound:
            del data[next(iter(data))]
            self.evictions += 1

    def evict_lru(self) -> None:
        """Drop the least-recent entry (no-op when empty)."""
        data = self._data
        if data:
            del data[next(iter(data))]
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries; traffic counters are preserved."""
        self._data.clear()

    def info(self) -> dict:
        return {"size": len(self._data), "max_size": self.max_size,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


def merge_cache_info(infos: list[dict]) -> dict:
    """Merge per-worker cache stat dicts into one.

    Sizes, capacities and traffic counters add; unknown keys are
    ignored so callers can merge enriched dicts too.
    """
    merged = {"size": 0, "max_size": 0, "hits": 0, "misses": 0,
              "evictions": 0}
    for info in infos:
        for key in merged:
            merged[key] += info.get(key, 0)
    return merged
