"""Batch optimization: a query corpus over the serving worker pool.

:func:`optimize_many` fans a query corpus over a
:class:`~repro.serve.pool.ServingPool` of spawned worker processes,
each holding one persistent
:class:`~repro.optimizer.optimizer.Optimizer` whose caches stay warm
for the whole batch (and across batches when a :class:`BatchOptimizer`
is reused).  The pool is the only worker driver: it spawns the workers,
routes each query by its constant-abstracted skeleton
(:meth:`~repro.serve.pool.ServingPool.slot_for`), coalesces dispatch,
respawns dead workers and resubmits their requests, and drains on
close.  This module adds what is particular to a batch:

* **Largest-first submission.**  Queries are submitted in decreasing
  term size, so each worker starts its heaviest rewrites first
  (shorter makespan when sizes are skewed).  Skeleton affinity
  partitions the corpus over the per-worker plan caches: every member
  of a parameterized query family lands on the worker that cached its
  skeleton, and a corpus with more distinct queries than one cache
  holds can fit in the workers' caches combined.

* **Parent-side decoding.**  Results return as portable payload dicts
  (:mod:`repro.parallel.portable`) and re-intern here, so hash-consing
  invariants hold in every process; a plan the wire form cannot carry
  is re-chosen in the parent.

* **Graceful degradation.**  ``workers <= 1`` or a pool that cannot
  start (:class:`~repro.serve.protocol.ServeError`, recorded in
  :attr:`BatchOptimizer.start_error`) runs in-process.  A query that
  errored on its worker, or whose slot the pool abandoned after a
  crash loop, is rerun in-process, so the batch always completes and a
  genuine failure raises in the caller.  Results are identical either
  way because plan choice is deterministic.

The per-query results come back as full
:class:`~repro.optimizer.optimizer.OptimizedQuery` objects; the
:class:`BatchReport` adds merged per-worker cache statistics.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.aqua.terms import AquaExpr
from repro.core.terms import Term
from repro.optimizer.optimizer import (SEARCH_MODES, OptimizedQuery,
                                       Optimizer)
from repro.parallel.cache import merge_cache_info
from repro.parallel.portable import decode_result
from repro.parallel.worker import worker_stats
from repro.rewrite.pattern import canon
from repro.rules.registry import standard_rulebase
from repro.serve.pool import DEFAULT_WORKERS, PoolClosedError, ServingPool
from repro.serve.protocol import ServeError
from repro.translate.aqua_to_kola import translate_query
from repro.translate.oql import parse_oql


def _initial_term(query: object) -> Term:
    """Normalize a caller query (OQL text, AQUA, or KOLA term) to the
    canonical initial term — in the parent, so only terms ship."""
    if isinstance(query, str):
        return canon(translate_query(parse_oql(query)))
    if isinstance(query, AquaExpr):
        return canon(translate_query(query))
    if isinstance(query, Term):
        return canon(query)
    raise TypeError(f"cannot batch-optimize {query!r}")


@dataclass
class BatchResult:
    """One query's outcome within a batch."""

    index: int                  # position in the input corpus
    query: object               # the caller's original query object
    result: OptimizedQuery
    worker: int                 # worker id, or -1 for in-process


@dataclass
class BatchReport:
    """A finished batch: per-query results plus merged pool stats."""

    results: list[BatchResult]
    workers: int                # pool size (1 for in-process runs)
    mode: str                   # "pool" or "in-process"
    search: str
    elapsed: float              # wall-clock seconds for the batch
    plan_cache: dict            # merged across workers
    per_worker: list[dict] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def throughput(self) -> float:
        """Queries per second over the batch's wall clock."""
        return len(self.results) / self.elapsed if self.elapsed else 0.0

    def summary(self) -> str:
        cache = self.plan_cache
        probes = cache.get("hits", 0) + cache.get("misses", 0)
        return (f"{len(self.results)} queries, {self.workers} worker(s) "
                f"[{self.mode}], {self.elapsed:.2f}s "
                f"({self.throughput():.1f} q/s) — plan cache "
                f"{cache.get('hits', 0)}/{probes} hits, "
                f"size {cache.get('size', 0)}/{cache.get('max_size', 0)}")


class BatchOptimizer:
    """A reusable batch front-end: one pool, warm across batches.

    The pool starts lazily on the first :meth:`optimize_many` call and
    lives until :meth:`close` (or context-manager exit).  ``workers``
    defaults to ``min(DEFAULT_WORKERS, cpu count)``; ``workers <= 1``
    skips the pool entirely and runs in-process with one persistent
    optimizer (still warm across batches).
    """

    def __init__(self, db=None, *, workers: int | None = None,
                 search: str = "greedy", budget=None,
                 plan_cache_max: int | None = None,
                 abstract_cache: bool = True) -> None:
        if search not in SEARCH_MODES:
            raise ValueError(f"unknown search mode {search!r}; "
                             f"expected one of {SEARCH_MODES}")
        if workers is None:
            workers = min(DEFAULT_WORKERS, os.cpu_count() or 1)
        self.db = db
        self.workers = max(1, workers)
        self.search = search
        self.budget = budget
        self.plan_cache_max = plan_cache_max
        self.abstract_cache = abstract_cache
        self.mode = "in-process"
        self.start_error: str | None = None  # why the pool fell back
        self._pool: ServingPool | None = None
        self._local: Optimizer | None = None
        self._rulebase = standard_rulebase()
        # Serials stay unique over the pool's life, so a late duplicate
        # reply can never be taken for a later batch's query.
        self._next_serial = 0
        self._replied = threading.Condition()
        self._replies: dict[int, tuple[int, tuple]] = {}
        self._awaited = 0

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "BatchOptimizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def _fallback(self) -> Optimizer:
        """The in-process optimizer (fallback runs, replans, reruns).

        Its plan cache gets the *aggregate* capacity the pool's
        workers would have had (``PLAN_CACHE_MAX × workers`` unless the
        caller pinned ``plan_cache_max``): when a pool falls back
        in-process, a corpus sized for the workers' caches combined
        must not thrash one default-sized cache.
        """
        if self._local is None:
            capacity = (self.plan_cache_max
                        if self.plan_cache_max is not None
                        else Optimizer.PLAN_CACHE_MAX * self.workers)
            self._local = Optimizer(search=self.search,
                                    saturation_budget=self.budget,
                                    plan_cache_max=capacity,
                                    abstract_cache=self.abstract_cache)
        return self._local

    def start(self) -> bool:
        """Ensure the pool is up; ``False`` means in-process mode."""
        if self._pool is not None:
            return True
        if self.workers <= 1:
            return False
        pool = ServingPool(self.db, workers=self.workers,
                           search=self.search, budget=self.budget,
                           abstract_cache=self.abstract_cache,
                           backend="process", queue_depth=None,
                           on_reply=self._on_reply)
        try:
            pool.start()
        except ServeError as error:
            self.start_error = str(error)
            pool.close()
            return False
        self._pool = pool
        self.mode = "pool"
        return True

    def warmup(self) -> bool:
        """Start the pool and block until every worker is serving.

        A spawned worker pays its startup cost (interpreter boot,
        package imports, rulebase compilation) before it reads its
        first task; ``warmup`` performs one stats round-trip per worker
        so that cost is paid *now* rather than inside the first batch.
        Returns ``False`` when running in-process (nothing to warm).
        """
        if not self.start():
            return False
        self._pool.warmup()
        return True

    def close(self) -> None:
        """Shut the pool down (idempotent; in-process state is kept).

        The pool drains in-flight requests before it stops its
        workers, so a close racing a late reply drops nothing."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.mode = "in-process"

    def _on_reply(self, serial: int, worker_id: int, outcome) -> None:
        """The pool's reply callback (runs on its pump thread)."""
        with self._replied:
            self._replies[serial] = (worker_id, outcome)
            self._awaited -= 1
            if not self._awaited:
                self._replied.notify()

    # -- batch runs ---------------------------------------------------------

    def optimize_many(self, queries) -> BatchReport:
        """Optimize every query; results come back in input order."""
        started = time.perf_counter()
        queries = list(queries)
        terms = [_initial_term(query) for query in queries]
        if not queries:
            return BatchReport(results=[], workers=self.workers,
                               mode=self.mode, search=self.search,
                               elapsed=time.perf_counter() - started,
                               plan_cache=merge_cache_info([]))
        if self.start():
            return self._run_pool(queries, terms, started)
        return self._run_in_process(queries, terms, started)

    def _run_in_process(self, queries: list, terms: list[Term],
                        started: float) -> BatchReport:
        optimizer = self._fallback
        results = [BatchResult(index, query,
                               optimizer.optimize(term, self.db,
                                                  search=self.search),
                               worker=-1)
                   for index, (query, term)
                   in enumerate(zip(queries, terms))]
        stats = worker_stats(optimizer, len(queries))
        stats["worker"] = -1
        return BatchReport(results=results, workers=1, mode="in-process",
                           search=self.search,
                           elapsed=time.perf_counter() - started,
                           plan_cache=stats["plan_cache"],
                           per_worker=[stats])

    def _run_pool(self, queries: list, terms: list[Term],
                  started: float) -> BatchReport:
        base = self._next_serial
        self._next_serial += len(terms)
        errors: list[tuple[int, str]] = []
        rerun: set[int] = set()
        with self._replied:
            self._replies = {}
            self._awaited = len(terms)
        for index in sorted(range(len(terms)),
                            key=lambda i: terms[i].size(), reverse=True):
            try:
                self._pool.submit(base + index, terms[index].to_portable(),
                                  term=terms[index])
            except PoolClosedError as error:
                # The pool has abandoned the routed slot.
                errors.append((index, str(error)))
                rerun.add(index)
                with self._replied:
                    self._awaited -= 1
        with self._replied:
            self._replied.wait_for(lambda: self._awaited <= 0)
            replies, self._replies = self._replies, {}

        results: list[BatchResult | None] = [None] * len(queries)
        for serial, (worker_id, outcome) in replies.items():
            index = serial - base
            if outcome[0] != "ok":
                errors.append((index, outcome[1]))
                rerun.add(index)
                continue
            payload = outcome[1]
            result = decode_result(payload, self._rulebase,
                                   source=terms[index])
            if payload["plan"][0] == "replan":
                target = (result.chosen if result.chosen is not None
                          else result.untangled)
                plan, cost = self._fallback._choose_plan(target, self.db)
                result.plan, result.estimated_cost = plan, cost
            results[index] = BatchResult(index, queries[index], result,
                                         worker=worker_id)
        for index in sorted(rerun):
            # Deterministic rerun: a genuine failure raises here too.
            result = self._fallback.optimize(terms[index], self.db,
                                             search=self.search)
            results[index] = BatchResult(index, queries[index], result,
                                         worker=-1)

        stats = self._pool.request_stats()
        per_worker = []
        for worker_id in sorted(stats):
            stats[worker_id]["worker"] = worker_id
            per_worker.append(stats[worker_id])
        if rerun:
            local = worker_stats(self._fallback, len(rerun))
            local["worker"] = -1
            per_worker.append(local)
        plan_cache = merge_cache_info(
            [info["plan_cache"] for info in per_worker])
        return BatchReport(results=results, workers=self.workers,
                           mode="pool", search=self.search,
                           elapsed=time.perf_counter() - started,
                           plan_cache=plan_cache, per_worker=per_worker,
                           errors=sorted(errors))


def optimize_many(queries, db=None, *, workers: int | None = None,
                  search: str = "greedy", budget=None,
                  plan_cache_max: int | None = None,
                  abstract_cache: bool = True) -> BatchReport:
    """One-shot batch optimization (pool started and torn down inside).

    Args:
        queries: iterable of OQL strings, AQUA expressions or KOLA terms.
        db: database for cost-based plan choice (shipped to workers).
        workers: pool size; ``None`` means
            ``min(DEFAULT_WORKERS, cpu count)``; ``<= 1`` runs
            in-process.
        search: ``"greedy"`` or ``"saturate"``.
        budget: :class:`~repro.saturate.driver.SaturationBudget` for
            saturate-mode runs.
        plan_cache_max: exact-level plan-cache capacity of the
            in-process fallback optimizer (defaults to the pool's
            aggregate, ``PLAN_CACHE_MAX × workers``).
        abstract_cache: enable the parameterized plan-cache level,
            skeleton-affinity routing and warm e-graph reuse
            (``False`` = exact keying and exact-payload routing).
    """
    batch = BatchOptimizer(db, workers=workers, search=search,
                           budget=budget, plan_cache_max=plan_cache_max,
                           abstract_cache=abstract_cache)
    try:
        return batch.optimize_many(queries)
    finally:
        batch.close()
