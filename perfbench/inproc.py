"""One in-process workload run, in a fresh interpreter.

Usage (started by ``run.py``, never by hand)::

    python3 perfbench/inproc.py SPEC OUT LAUNCHED [--trace] [--replay]

The process sets up the program (imports, rulebase, database, one probe
request; ``LAUNCHED`` is the parent's monotonic clock just before it
started this process), then either runs the spec's warm-up and timed
requests through ``Optimizer.execute`` with the default backend (the
in-process workloads), or replays a serve-zipf stream through
``Optimizer.optimize`` plus result encoding with a serving worker's
cache sizes, timing only those two (``--replay``).
``--trace`` wraps the public callables of each layer (see
:func:`install_tracer`) after set-up and warm-up, so set-up and
untraced timing are never affected.  Results go to ``OUT`` as JSON.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import parser as core_parser  # noqa: E402
from repro.optimizer import optimizer as optimizer_module  # noqa: E402
from repro.optimizer.optimizer import Optimizer  # noqa: E402
from repro.parallel.cache import LRUCache  # noqa: E402
from repro.parallel.portable import encode_result  # noqa: E402
from repro.parallel.worker import ENCODE_MEMO_MAX  # noqa: E402
from repro.rules.registry import standard_rulebase  # noqa: E402
from repro.schema.generator import (GeneratorConfig,  # noqa: E402
                                    generate_database)

IMPORTED = time.monotonic()

from digest import fingerprint, plan_digest  # noqa: E402
from measure import SpeedMarks, Tracer, speed_probe  # noqa: E402

#: Engine counters recorded per run (deterministic work counts).
ENGINE_COUNTERS = ("rewrites", "match_attempts", "trie_candidates",
                   "nf_cache_hits", "nf_cache_misses")


def install_tracer() -> Tracer:
    """Wrap each layer's public callables, from outside the program."""
    from repro import exec as exec_package
    from repro.exec.codegen import CompiledKernel
    from repro.exec.emit import ExecutablePlan
    from repro.optimizer.physical import PhysicalPlan
    from repro.rewrite.engine import Engine
    from repro.saturate.driver import Saturator
    from repro.saturate.extract import Extractor

    tracer = Tracer()
    tracer.patch(core_parser, "parse_obj", "core.parse")
    tracer.patch(optimizer_module, "parse_oql", "translate")
    tracer.patch(optimizer_module, "translate_query", "translate")
    tracer.patch(optimizer_module, "canon", "rewrite.canon")
    tracer.patch(Engine, "normalize", "rewrite.normalize")
    tracer.patch(optimizer_module, "run_blocks", "coko.untangle")
    tracer.patch(Saturator, "run", "saturate.run")
    tracer.patch(Extractor, "candidates", "saturate.extract")
    tracer.patch(Optimizer, "optimize", "optimizer")
    tracer.patch(exec_package, "compile_executable", "exec.compile")
    tracer.patch(exec_package, "compile_kernel", "exec.compile")
    tracer.patch(ExecutablePlan, "run", "exec.run")
    tracer.patch(CompiledKernel, "run", "exec.run")
    pending = [PhysicalPlan]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "execute" in cls.__dict__:
            tracer.patch(cls, "execute", "exec.run")
    return tracer


def query_of(req: dict):
    """The object handed to the optimizer: OQL stays text, KOLA text is
    parsed (through the module attribute, so a tracer sees it)."""
    if req["kind"] == "oql":
        return req["text"]
    return core_parser.parse_obj(req["text"])


class Counts:
    """Deterministic work counts summed over the optimizers of a run."""

    def __init__(self) -> None:
        self.values: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def add_optimizer(self, optimizer: Optimizer, engine_base: dict,
                      cache_base: dict) -> None:
        stats = optimizer.engine.stats
        for name in ENGINE_COUNTERS:
            self.add(f"engine.{name}",
                     getattr(stats, name) - engine_base.get(name, 0))
        for key, amount in cache_counts(optimizer).items():
            self.add(key, amount - cache_base.get(key, 0))


def engine_snapshot(optimizer: Optimizer) -> dict:
    stats = optimizer.engine.stats
    return {name: getattr(stats, name) for name in ENGINE_COUNTERS}


def cache_counts(optimizer: Optimizer) -> dict:
    info = optimizer.plan_cache_info()
    param, kernel = info["param"], info["kernel"]
    return {"plan.hits": info["hits"], "plan.misses": info["misses"],
            "param.hits": param["hits"], "param.misses": param["misses"],
            "param.blocked": param["blocked"],
            "kernel.hits": kernel["kernel_hits"],
            "kernel.misses": kernel["kernel_misses"]}


def saturation_counts(reports, counts: Counts) -> None:
    for report in reports:
        if report is None:
            continue
        counts.add("saturate.runs", 1)
        counts.add("saturate.enodes", report.enodes)
        counts.add("saturate.rewrites_applied", report.rewrites_applied)
        counts.add("saturate.match_truncations", report.match_truncations)
        counts.add("saturate.budget_hits", 0 if report.saturated else 1)


def traced_fields(tracer: Tracer | None) -> dict:
    if tracer is None:
        return {}
    return {"trace": {"self_s": dict(tracer.self_s),
                      "calls": dict(tracer.calls),
                      "covered_s": tracer.covered}}


def run_requests(spec: dict, optimizer: Optimizer, rulebase, db,
                 trace: bool) -> dict:
    """Warm up (optimize only: the warm-up fills the plan caches and
    compiles rule groups without paying for execution), then time every
    request of ``spec``, with host-speed probes in between
    (``probe_marks``, see ``measure.SpeedMarks``).
    Saturate-mode passes each start on a fresh optimizer that shares
    only the rulebase."""
    for req in spec["warmup"]:
        optimizer.optimize(query_of(req), db)
    saturate = spec["search"] == "saturate"
    probes = SpeedMarks()
    tracer = install_tracer() if trace else None
    optimizers = [] if saturate else [
        (optimizer, engine_snapshot(optimizer), cache_counts(optimizer))]
    used = []
    latencies, values, errors = [], [], []
    clock = time.perf_counter
    # Start the timed requests from a freshly collected heap, so the
    # collector's full collections fall on the same requests in every
    # round and, as far as the requests allow, for every seed.
    gc.collect()
    started = clock()
    for index, req in enumerate(spec["requests"]):
        probes.before(index)
        if saturate and len(optimizers) <= req["pass"]:
            optimizers.append((Optimizer(rulebase=rulebase,
                                         search="saturate"), {}, {}))
        current = optimizers[-1][0]
        begun = clock()
        try:
            value = current.execute(query_of(req), db)
        except Exception as error:  # counted as a failed request
            value = None
            errors.append(f"{req['text']}: {type(error).__name__}: {error}")
        latencies.append(clock() - begun)
        values.append(value)
        used.append(current)
    probes.after(len(latencies))
    wall = clock() - started - probes.spent
    if tracer is not None:
        tracer.restore()

    counts = Counts()
    counts.add("requests", len(spec["requests"]))
    for one, engine_base, cache_base in optimizers:
        counts.add_optimizer(one, engine_base, cache_base)
    if tracer is not None:
        counts.add("exec.compiles", tracer.calls.get("exec.compile", 0))
    if saturate:
        # Plan-cache lookups after the counts are taken: each returns
        # the cached result that carries its saturation report.
        saturation_counts([one.optimize(query_of(req), db).saturation
                           for one, req in zip(used, spec["requests"])],
                          counts)
    prints = [None if value is None else fingerprint(value)
              for value in values]
    return {"latencies_s": latencies, "wall_s": wall, "errors": errors,
            "fingerprints": prints, "counts": counts.values,
            "probe_marks": probes.marks, **traced_fields(tracer)}


def replay(spec: dict, db, trace: bool) -> dict:
    """A serving worker's path for every request, on a fresh optimizer
    built the way ``repro.parallel.worker`` builds it (default cache
    sizes).  The daemon resolves a request (parse + canon) before its
    clock starts and the worker never does, so that happens untimed
    here; the time per request is ``Optimizer.optimize`` plus the
    worker's memoized result encoding."""
    optimizer = Optimizer(search=spec["search"])
    memo = LRUCache(ENCODE_MEMO_MAX)

    def resolve(req):
        return optimizer_module.canon(core_parser.parse_obj(req["text"]))

    def serve(term):
        result = optimizer.optimize(term, db, search=spec["search"])
        encoded = memo.get(id(result))
        if encoded is None:
            encoded = (result, encode_result(result))
            memo.put(id(result), encoded)
        return encoded[1]

    for req in spec["warmup"]:
        serve(resolve(req))
    probes = SpeedMarks()
    tracer = install_tracer() if trace else None
    engine_base = engine_snapshot(optimizer)
    cache_base = cache_counts(optimizer)
    clock = time.perf_counter
    latencies, served = [], []
    started = clock()
    for index, req in enumerate(spec["requests"]):
        probes.before(index)
        term = resolve(req)
        begun = clock()
        served.append(serve(term))
        latencies.append(clock() - begun)
    probes.after(len(latencies))
    wall = clock() - started - probes.spent
    if tracer is not None:
        tracer.restore()
    counts = Counts()
    counts.add("requests", len(spec["requests"]))
    counts.add_optimizer(optimizer, engine_base, cache_base)
    return {"latencies_s": latencies, "wall_s": wall, "errors": [],
            "fingerprints": [plan_digest(one) for one in served],
            "counts": counts.values, "probe_marks": probes.marks,
            **traced_fields(tracer)}


def main(argv: list[str]) -> int:
    spec_path, out_path, launched = argv[0], argv[1], float(argv[2])
    flags = set(argv[3:])
    spec = json.loads(Path(spec_path).read_text())
    rulebase = standard_rulebase()
    optimizer = Optimizer(rulebase=rulebase, search=spec["search"])
    built = time.monotonic()
    db = generate_database(GeneratorConfig(**spec["db"]))
    generated = time.monotonic()
    optimizer.execute(core_parser.parse_obj(spec["probe"]), db)
    ready = time.monotonic()
    out = {"setup": {"setup_s": ready - launched,
                     "probe_ms": speed_probe(),
                     "import_s": IMPORTED - launched,
                     "rulebase_s": built - IMPORTED,
                     "data_s": generated - built}}
    trace = "--trace" in flags
    if "--replay" in flags:
        out.update(replay(spec, db, trace))
    else:
        out.update(run_requests(spec, optimizer, rulebase, db, trace))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
