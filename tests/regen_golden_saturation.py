"""Regenerate or check ``tests/golden/saturation_outcomes.json``.

The file pins what ``search="saturate"`` decides for the paper's
printed KOLA queries (the seven of ``perfbench/inputs.py::PAPER_KOLA``
at constant 25, plus KG1) and the Figure 7 hidden-join family, each on
a fresh optimizer over the small database (|P|=100, |V|=60, seed 1):
the chosen term, the plan class, the estimated cost, the extraction
frontier (each candidate term and its extraction cost), and every
``SaturationReport`` field except ``rewrites_applied``.  That counter
records whether an instantiated class was already equal to its match
class *before* the driver merged them, so it moves with the order in
which equal classes meet even when the e-graph, the report's size
counts and the decisions do not.

Regenerate only after an *intentional* change to saturation,
extraction or plan choice, then review the diff::

    PYTHONPATH=src python -m tests.regen_golden_saturation

``--check`` compares the tier-1 set (what ``tests/test_saturate.py``
compares) and exits 1 on any difference; ``--check --deep`` compares
the twelve depth 2-4 hidden-join members instead, which are too slow
for tier-1.  Either prints one line per query: its wall time (the
whole saturate-mode ``optimize`` on a fresh optimizer, reported and
never compared) and what moved: each differing ``report`` key as
``old → new``, and the names of the other differing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import time
from unittest import mock

from repro.core.pretty import pretty
from repro.optimizer.optimizer import Optimizer
from repro.rewrite.pattern import canon
from repro.rules.registry import standard_rulebase
from repro.saturate.extract import Extractor
from repro.schema.generator import GeneratorConfig, generate_database
from repro.translate.aqua_to_kola import translate_query
from repro.workloads.hidden_join import HiddenJoinSpec, hidden_join_family
from repro.workloads.queries import paper_queries

GOLDEN = pathlib.Path(__file__).parent / "golden" \
    / "saturation_outcomes.json"

#: The database every outcome is decided on (perfbench's small one).
DATABASE = {"n_persons": 100, "n_vehicles": 60, "seed": 1}


def _family(depths) -> list[tuple[str, object]]:
    members = []
    for depth in depths:
        for predicate in ("gt", "eq"):
            for applicable in (True, False):
                spec = HiddenJoinSpec(depth=depth, applicable=applicable,
                                      predicate=predicate)
                name = (f"hidden-join-{depth}-{predicate}"
                        + ("" if applicable else "-inapplicable"))
                members.append((name, canon(translate_query(
                    hidden_join_family(spec)))))
    return members


def tier1_queries() -> list[tuple[str, object]]:
    """The paper's KOLA queries and the depth-1 hidden-join family."""
    q = paper_queries()
    paper = [("KG2", q.kg2), ("T1K", q.t1k_source),
             ("T1K-target", q.t1k_target), ("T2K", q.t2k_source),
             ("T2K-target", q.t2k_target), ("K3", q.k3), ("K4", q.k4),
             ("KG1", q.kg1)]
    return paper + _family([1])


def deep_queries() -> list[tuple[str, object]]:
    """The depth 2-4 hidden-join family members."""
    return _family([2, 3, 4])


def outcome(name: str, term, rulebase, db) -> dict:
    """One query's saturate-mode decisions, JSON-ready."""
    frontiers = []
    candidates = Extractor.candidates

    def recording(self, cid, limit=16):
        found = candidates(self, cid, limit)
        frontiers.append(found)
        return found

    optimizer = Optimizer(rulebase=rulebase, search="saturate")
    with mock.patch.object(Extractor, "candidates", recording):
        result = optimizer.optimize(term, db)
    (frontier,) = frontiers
    report = dataclasses.asdict(result.saturation)
    del report["rewrites_applied"]
    return {"name": name, "query": pretty(term),
            "chosen": pretty(result.best_term),
            "plan": type(result.plan).__name__,
            "cost": result.estimated_cost,
            "frontier": [[pretty(c.term), c.cost] for c in frontier],
            "report": report}


def outcomes(queries, rulebase=None, timings=None) -> list[dict]:
    """Every query's outcome; appends each query's wall time in
    seconds to ``timings`` when given."""
    if rulebase is None:
        rulebase = standard_rulebase()
    db = generate_database(GeneratorConfig(**DATABASE))
    fresh = []
    for name, term in queries:
        begun = time.perf_counter()
        fresh.append(outcome(name, term, rulebase, db))
        if timings is not None:
            timings.append(time.perf_counter() - begun)
    # A JSON round trip, so fresh outcomes compare equal to loaded ones.
    return json.loads(json.dumps(fresh))


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


#: What :func:`differences` reports when the query lists differ.
LIST_CHANGED = "the query list differs from the golden file"


def changed_fields(fresh: list[dict],
                   pinned: list[dict]) -> list[list[str]] | None:
    """Per query, the outcome fields that differ from the pinned ones;
    ``None`` when the query lists differ."""
    if [one["name"] for one in fresh] != [one["name"] for one in pinned]:
        return None
    return [[key for key in then if now.get(key) != then[key]]
            for now, then in zip(fresh, pinned)]


def describe(now: dict, then: dict, fields: list[str]) -> str:
    """What moved in one query's outcome: each differing ``report`` key
    as ``old → new``, and the names of the other differing fields."""
    parts = []
    named = [field for field in fields if field != "report"]
    if named:
        parts.append(f"{', '.join(named)} changed")
    if "report" in fields:
        old, new = then["report"], now.get("report") or {}
        keys = list(old) + [key for key in new if key not in old]
        parts.append("report: " + ", ".join(
            f"{key} {old.get(key)} → {new.get(key)}"
            for key in keys if old.get(key) != new.get(key)))
    return "; ".join(parts)


def differences(fresh: list[dict], pinned: list[dict]) -> list[str]:
    """One line per query whose outcome differs from the pinned one."""
    changes = changed_fields(fresh, pinned)
    if changes is None:
        return [LIST_CHANGED]
    return [f"{now['name']}: {describe(now, then, fields)}"
            for now, then, fields in zip(fresh, pinned, changes) if fields]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the golden file instead "
                             "of rewriting it")
    parser.add_argument("--deep", action="store_true",
                        help="with --check: compare the depth 2-4 "
                             "hidden-join members")
    args = parser.parse_args(argv)
    if args.check:
        key = "deep" if args.deep else "queries"
        queries = deep_queries() if args.deep else tier1_queries()
        timings: list[float] = []
        fresh = outcomes(queries, timings=timings)
        pinned = load()[key]
        changes = changed_fields(fresh, pinned)
        if changes is None:
            print(LIST_CHANGED)
            return 1
        width = max(len(name) for name, _ in queries)
        for now, then, fields, seconds in zip(fresh, pinned, changes,
                                              timings):
            verdict = describe(now, then, fields) if fields else "same"
            print(f"{now['name']:<{width}}  {seconds:7.3f} s  {verdict}")
        differing = sum(1 for fields in changes if fields)
        print(f"{len(queries)} {key} outcome(s) checked in "
              f"{sum(timings):.2f} s, {differing} differ")
        return 1 if differing else 0
    data = {"database": DATABASE,
            "queries": outcomes(tier1_queries()),
            "deep": outcomes(deep_queries())}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
