"""Incremental cross-query saturation benchmark: the parameterized
plan cache against per-query cold saturation.

The workload is the corpus's six constant-varying query shapes
(:data:`repro.workloads.corpus._TEMPLATES`) instantiated at many
distinct constants each — the serving pattern the parameterized cache
targets: every query is *distinct* (the exact-level cache never hits),
but each shape's members share one constant-abstracted skeleton.

Three claims are measured:

1. **Warm-family speedup** — optimizing the stream with the
   parameterized cache enabled must be at least **10x** faster than
   the per-query cold path (``abstract_cache=False``, every query a
   full saturation run) in ``search="saturate"`` mode.  After one cold
   member per family, every later member is served by instantiating
   the family's skeleton entry — no rewriting, no saturation.
2. **Parity** — every plan served from a skeleton entry must be
   bit-identical to what the cold path computes for the same query:
   same best term (interned identity), same plan class, same estimated
   cost, same derivation rule sequence.
3. **Incremental e-matching parity** — saturation that reuses the
   e-match walks and representative samples whose inputs are unchanged
   must leave every saturation report field identical to walking and
   sampling every class afresh each round, on the paper's Garage Query
   (the repo's heaviest saturation workload).

Run directly for the JSON artifact (written to
``BENCH_incremental.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_incremental.py

``--quick`` runs the CI smoke variant: fewer constants per shape, the
parity and cache-behavior checks enforced but not the timing bar (CI
hosts are too noisy for one).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.core.parser import parse_obj
from repro.core.terms import abstract_constants
from repro.optimizer.optimizer import Optimizer
from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.saturate.driver import SaturationBudget, Saturator
from repro.schema.generator import GeneratorConfig, generate_database
from repro.workloads.corpus import _TEMPLATES
from repro.workloads.queries import paper_queries

#: Acceptance bar: warm-family throughput over per-query cold
#: saturation (full runs only; ``--quick`` reports without enforcing).
MIN_SPEEDUP = 10.0

#: Distinct constants instantiated per query shape.
CONSTANTS = 200


def _bench_db():
    return generate_database(GeneratorConfig(
        n_persons=100, n_vehicles=60, n_addresses=25, seed=2026))


def _shape_stream(constants: int):
    """``len(_TEMPLATES) x constants`` distinct queries, interleaved
    shape-major per constant (the adversarial order for an exact-only
    cache: no query ever repeats)."""
    stream = []
    for constant in range(1, constants + 1):
        for _, template in _TEMPLATES:
            stream.append(canon(parse_obj(template.format(c=constant))))
    return stream


def _mismatches(warm_results, cold_results) -> list[int]:
    """Indices where the cache-served result is not bit-identical to
    the cold result (same fields as ``bench_parallel``)."""
    bad = []
    for index, (a, b) in enumerate(zip(warm_results, cold_results)):
        same = (a.best_term is b.best_term
                and type(a.plan) is type(b.plan)
                and a.estimated_cost == b.estimated_cost
                and [s.rule.name for s in a.derivation.steps]
                == [s.rule.name for s in b.derivation.steps])
        if not same:
            bad.append(index)
    return bad


def _incremental_match_parity() -> dict:
    """Saturate the Garage Query with and without reusing unchanged
    walks and samples; every report field must match."""
    from repro.rules.registry import standard_rulebase
    rulebase = standard_rulebase()
    pool = rulebase.group_compiled("saturate")
    kg1 = paper_queries().kg1
    reports = {}
    for incremental in (False, True):
        saturator = Saturator(
            Engine(), pool,
            SaturationBudget(incremental_match=incremental))
        reports[incremental] = saturator.run([kg1]).report
    full, scoped = reports[False], reports[True]
    fields = ("iterations", "enodes", "classes", "rewrites_applied",
              "merges", "saturated", "budget_hit", "rule_bans",
              "banned_skips", "match_truncations")
    diverged = [name for name in fields
                if getattr(full, name) != getattr(scoped, name)]
    return {
        "query": "kg1",
        "iterations": scoped.iterations,
        "enodes": scoped.enodes,
        "rewrites_applied": scoped.rewrites_applied,
        "diverged_fields": diverged,
        "ok": not diverged,
    }


def measure(db, *, constants: int = CONSTANTS,
            search: str = "saturate") -> dict:
    stream = _shape_stream(constants)
    traffic = len(stream)
    # One cold optimization per *distinct skeleton*, not per shape:
    # a shape with a fixed constant (deep-pipeline's ``Kf(90)``) forks
    # an extra skeleton at the constant that collides with it, because
    # equal constants share one slot (``f(90, 90)`` and ``f(90, c)``
    # are genuinely different equality patterns).
    skeletons = len({abstract_constants(term)[0] for term in stream})

    cold = Optimizer(search=search, abstract_cache=False)
    started = time.perf_counter()
    cold_results = [cold.optimize(term, db) for term in stream]
    cold_s = time.perf_counter() - started

    warm = Optimizer(search=search)
    started = time.perf_counter()
    warm_results = [warm.optimize(term, db) for term in stream]
    warm_s = time.perf_counter() - started

    mismatches = _mismatches(warm_results, cold_results)
    param = warm.plan_cache_info()["param"]
    shapes = len(_TEMPLATES)
    return {
        "config": {
            "shapes": shapes, "constants": constants,
            "traffic": traffic, "skeletons": skeletons,
            "search": search, "cpus": os.cpu_count(),
        },
        "cold": {
            "elapsed_s": round(cold_s, 2),
            "qps": round(traffic / cold_s, 1),
        },
        "warm": {
            "elapsed_s": round(warm_s, 2),
            "qps": round(traffic / warm_s, 1),
            "param_cache": param,
        },
        "speedup": round(cold_s / warm_s, 2),
        "min_speedup": MIN_SPEEDUP,
        "parity": {
            "checked": traffic,
            "mismatches": len(mismatches),
            "ok": not mismatches,
        },
        "incremental_match": _incremental_match_parity(),
    }


def _print_report(report: dict) -> None:
    config = report["config"]
    print(f"workload: {config['shapes']} shapes x "
          f"{config['constants']} constants = {config['traffic']} "
          f"distinct queries, search={config['search']}, "
          f"{config['cpus']} cpu(s)")
    cold, warm = report["cold"], report["warm"]
    param = warm["param_cache"]
    print(f"  cold (exact keying) : {cold['elapsed_s']:7.2f}s "
          f"({cold['qps']:7.1f} q/s)")
    print(f"  warm (param cache)  : {warm['elapsed_s']:7.2f}s "
          f"({warm['qps']:7.1f} q/s)  skeletons "
          f"{param['hits']}/{param['hits'] + param['misses']} hits, "
          f"{param['blocked']} blocked, "
          f"{param['warm_hits']} warm e-graph reuse(s)")
    print(f"  speedup: {report['speedup']}x "
          f"(bar: {report['min_speedup']}x)")
    parity = report["parity"]
    print(f"  parity: {parity['checked'] - parity['mismatches']}"
          f"/{parity['checked']} bit-identical to the cold path")
    inc = report["incremental_match"]
    state = "identical" if inc["ok"] else \
        f"DIVERGED: {inc['diverged_fields']}"
    print(f"  incremental e-matching on {inc['query']}: "
          f"{inc['iterations']} round(s), {inc['enodes']} e-nodes, "
          f"{inc['rewrites_applied']} rewrites — {state}")


def _failures(report: dict, enforce_speedup: bool) -> list[str]:
    problems = []
    if not report["parity"]["ok"]:
        problems.append(
            f"{report['parity']['mismatches']} cache-served plan(s) "
            "differ from the cold path")
    if not report["incremental_match"]["ok"]:
        problems.append(
            "incremental e-matching diverged from full matching on "
            + ", ".join(report["incremental_match"]["diverged_fields"]))
    param = report["warm"]["param_cache"]
    skeletons = report["config"]["skeletons"]
    expected_hits = report["config"]["traffic"] - skeletons
    if param["hits"] != expected_hits:
        problems.append(
            f"expected {expected_hits} skeleton-cache hits "
            f"(one cold member per distinct skeleton), "
            f"got {param['hits']}")
    if param["blocked"]:
        problems.append(
            f"{param['blocked']} corpus query(ies) unexpectedly "
            "refused abstraction")
    if enforce_speedup and report["speedup"] < report["min_speedup"]:
        problems.append(
            f"warm-family speedup {report['speedup']}x below the "
            f"{report['min_speedup']}x bar")
    return problems


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    db = _bench_db()
    report = measure(db, constants=12 if quick else CONSTANTS)
    _print_report(report)
    problems = _failures(report, enforce_speedup=not quick)
    if not quick:
        out = Path(__file__).resolve().parent.parent \
            / "BENCH_incremental.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
