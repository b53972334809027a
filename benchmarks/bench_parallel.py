"""Parallel batch-optimization benchmark: throughput and parity.

Two claims are measured:

1. **Batch throughput** — ``optimize_many`` at 4 workers must beat the
   single-process path by at least **2.5x** on a cyclic replay of a
   corpus with more distinct queries (1200) than one plan cache holds
   (``Optimizer.PLAN_CACHE_MAX`` = 1024).  Cyclic replay is the
   adversarial access pattern for an undersized LRU — every entry is
   evicted between its consecutive uses, so the single process pays a
   cold optimize for all traffic.  Shard-affinity routing sends each
   query to a fixed worker, so the pool's per-worker caches act as one
   sharded cache whose aggregate capacity (4 x 1024) holds the whole
   corpus: every pass after the first is served from cache.  The
   mechanism is cache *capacity*, not CPU parallelism — the bar holds
   even on a single-core host (the report records ``cpus``); on a
   multi-core host the cold pass parallelizes on top of it.  Pool
   startup (spawn + imports + rulebase compilation per worker) is paid
   once per pool, excluded via :meth:`BatchOptimizer.warmup` and
   reported separately.
2. **Parity** — the pool's results must be bit-identical to what the
   sequential path computes for every query in the stream: same chosen
   term (interned identity), same plan class, same estimated cost, and
   the same derivation rule sequence.  (``tests/test_parallel.py``
   additionally covers saturate-mode parity.)

A third, unbarred series reports the **steady-state wire path**: the
throughput of a fully warm pool pass, i.e. the per-query cost of
shipping a repeat query to its worker and its plan back.

Run directly for the JSON artifact (written to ``BENCH_parallel.json``
at the repo root)::

    PYTHONPATH=src python benchmarks/bench_parallel.py

``--quick`` runs the CI smoke variant: 2 workers over a 220-query
corpus, enforcing pool health and parity but not the throughput bar —
a corpus that fits one cache cannot show the capacity effect, and CI
hosts are too noisy for a timing bar.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.optimizer.optimizer import Optimizer
from repro.parallel.batch import BatchOptimizer
from repro.schema.generator import GeneratorConfig, generate_database
from repro.workloads.corpus import (CorpusConfig, corpus_stream,
                                    generate_corpus)

#: ISSUE acceptance bar: pool throughput over single-process throughput.
MIN_SPEEDUP = 2.5

#: Distinct queries — chosen to exceed one plan cache's capacity
#: (``Optimizer.PLAN_CACHE_MAX`` = 1024) while fitting the pool's
#: aggregate capacity with headroom.
CORPUS_DISTINCT = 1200

#: Whole cyclic passes over the distinct set (the first is cold
#: everywhere; the rest are cache-served only by the pool).
PASSES = 5

WORKERS = 4


def _bench_db():
    return generate_database(GeneratorConfig(
        n_persons=100, n_vehicles=60, n_addresses=25, seed=2026))


def _mismatches(single_results, pool_results) -> list[int]:
    """Indices where the pool result is not bit-identical to the
    single-process result."""
    bad = []
    for one, other in zip(single_results, pool_results):
        a, b = one.result, other.result
        same = (a.chosen is b.chosen
                and type(a.plan) is type(b.plan)
                and a.estimated_cost == b.estimated_cost
                and [s.rule.name for s in a.derivation.steps]
                == [s.rule.name for s in b.derivation.steps])
        if not same:
            bad.append(one.index)
    return bad


def measure_batch(db, *, distinct: int = CORPUS_DISTINCT,
                  passes: int = PASSES, workers: int = WORKERS) -> dict:
    corpus = generate_corpus(CorpusConfig(distinct=distinct))
    stream = corpus_stream(corpus, len(corpus) * passes, shuffle=False)

    started = time.perf_counter()
    with BatchOptimizer(db, workers=1) as single:
        single_report = single.optimize_many(stream)
    single_s = time.perf_counter() - started

    with BatchOptimizer(db, workers=workers) as pool:
        started = time.perf_counter()
        pool.warmup()
        warmup_s = time.perf_counter() - started
        started = time.perf_counter()
        pool_report = pool.optimize_many(stream)
        pool_s = time.perf_counter() - started
        # Steady state: one more pass, every query already cached.
        started = time.perf_counter()
        warm_report = pool.optimize_many(corpus)
        warm_s = time.perf_counter() - started

    mismatches = _mismatches(single_report.results, pool_report.results)
    traffic = len(stream)
    return {
        "config": {
            "distinct": distinct, "passes": passes, "traffic": traffic,
            "workers": workers, "cpus": os.cpu_count(),
            "plan_cache_max": Optimizer.PLAN_CACHE_MAX,
        },
        "single": {
            "elapsed_s": round(single_s, 2),
            "qps": round(traffic / single_s, 1),
            "plan_cache": single_report.plan_cache,
        },
        "pool": {
            "mode": pool_report.mode,
            "warmup_s": round(warmup_s, 2),
            "elapsed_s": round(pool_s, 2),
            "qps": round(traffic / pool_s, 1),
            "plan_cache": pool_report.plan_cache,
            "errors": len(pool_report.errors),
            "per_worker_processed": [info["processed"]
                                     for info in pool_report.per_worker],
        },
        "warm_pass": {
            "elapsed_s": round(warm_s, 3),
            "qps": round(len(corpus) / warm_s, 1),
            "ms_per_query": round(warm_s / len(corpus) * 1000, 3),
            "plan_cache": warm_report.plan_cache,
        },
        "speedup": round(single_s / pool_s, 2),
        "min_speedup": MIN_SPEEDUP,
        "parity": {
            "checked": traffic,
            "mismatches": len(mismatches),
            "ok": not mismatches,
        },
    }


def _print_report(report: dict) -> None:
    config = report["config"]
    single, pool = report["single"], report["pool"]
    print(f"corpus: {config['distinct']} distinct x {config['passes']} "
          f"passes = {config['traffic']} queries "
          f"(plan cache holds {config['plan_cache_max']}), "
          f"{config['cpus']} cpu(s)")
    print(f"  single process : {single['elapsed_s']:7.2f}s "
          f"({single['qps']:7.1f} q/s)  cache hits "
          f"{single['plan_cache']['hits']}/{config['traffic']}")
    print(f"  pool x{config['workers']} [{pool['mode']}]: "
          f"{pool['elapsed_s']:7.2f}s ({pool['qps']:7.1f} q/s)  "
          f"cache hits {pool['plan_cache']['hits']}/{config['traffic']}"
          f"  (warmup {pool['warmup_s']}s, {pool['errors']} errors)")
    warm = report["warm_pass"]
    print(f"  steady state   : {warm['ms_per_query']} ms/query "
          f"({warm['qps']:.0f} q/s) on a fully warm pass")
    print(f"  speedup: {report['speedup']}x "
          f"(bar: {report['min_speedup']}x)")
    parity = report["parity"]
    print(f"  parity: {parity['checked'] - parity['mismatches']}"
          f"/{parity['checked']} bit-identical to single-process")


def _failures(report: dict, enforce_speedup: bool) -> list[str]:
    problems = []
    if report["pool"]["mode"] != "pool":
        problems.append("worker pool failed to start "
                        "(ran in-process fallback)")
    if report["pool"]["errors"]:
        problems.append(f"{report['pool']['errors']} worker error(s)")
    if not report["parity"]["ok"]:
        problems.append(
            f"{report['parity']['mismatches']} pool result(s) differ "
            "from the single-process results")
    if enforce_speedup and report["speedup"] < report["min_speedup"]:
        problems.append(
            f"batch speedup {report['speedup']}x below the "
            f"{report['min_speedup']}x bar")
    return problems


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    db = _bench_db()
    if quick:
        report = measure_batch(db, distinct=220, passes=2, workers=2)
    else:
        report = measure_batch(db)
    _print_report(report)
    if not quick:
        out = Path(__file__).resolve().parent.parent \
            / "BENCH_parallel.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
    problems = _failures(report, enforce_speedup=not quick)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("OK: pool healthy, results bit-identical"
              + ("" if quick else ", throughput bar met"))
    return 1 if problems else 0


# -- pytest entry points -------------------------------------------------


def test_pool_parity_and_health():
    """Acceptance: pool mode runs, no worker errors, and every result
    is bit-identical to the single-process path (smoke scale)."""
    db = generate_database(GeneratorConfig(
        n_persons=30, n_vehicles=20, n_addresses=10, seed=2026))
    report = measure_batch(db, distinct=60, passes=2, workers=2)
    assert report["pool"]["mode"] == "pool", report["pool"]
    assert report["pool"]["errors"] == 0, report["pool"]
    assert report["parity"]["ok"], report["parity"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
