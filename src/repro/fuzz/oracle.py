"""Multi-tier differential oracle over generated KOLA queries.

The ground truth for any query is direct evaluation by
:mod:`repro.core.eval` — the denotational reading of KOLA the paper's
rule proofs are stated against.  Every optimizer configuration in the
matrix must agree with it, bag-for-bag:

======================  ==========================================
axis                    points
======================  ==========================================
engine tier             ``linear`` (reference scan),
                        ``indexed`` (head-indexed dispatch),
                        ``compiled`` (discrimination trie)
search                  ``greedy``, ``saturate`` (equality
                        saturation under a small budget)
front-end               sequential :class:`Optimizer`,
                        :class:`BatchOptimizer` batch
execution backend       ``plan`` (physical plans), ``codegen``
                        (compiled source kernels, :mod:`repro.exec`)
======================  ==========================================

:func:`default_matrix` enumerates six sequential configurations (the
full engine × search cross), two batch configurations and one codegen
configuration (``codegen-exec``) — nine re-evaluations per query,
every one compared bag-for-bag against direct evaluation.
``codegen-exec`` runs through :meth:`Optimizer.execute`, the path a
served query takes: skeleton-keyed kernels with parameter slots and
per-binding fallback closures.  A disagreement anywhere is a
:class:`Divergence`; the oracle shrinks it to a minimal reproducer
(see :mod:`repro.fuzz.shrink`) and reports the replay seed, so a CI
failure is immediately a local one-liner (``docs/testing.md``).

The oracle also records per-configuration cost and derivation stats
(:class:`ConfigStats`) — a cheap drift detector: a perf PR that
suddenly stops firing rules in one tier shows up here before it shows
up in benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.eval import EvalError, eval_obj, test_pred
from repro.core.pretty import pretty
from repro.core.terms import Term
from repro.core.types import TypeInferenceError, well_typed
from repro.fuzz.generator import FuzzConfig, QueryGenerator
from repro.optimizer.optimizer import Optimizer
from repro.parallel.batch import BatchOptimizer
from repro.rewrite.engine import Engine
from repro.rewrite.rulebase import RuleBase
from repro.saturate.driver import SaturationBudget
from repro.schema.adt import Database, Schema
from repro.schema.generator import tiny_database
from repro.schema.paper_schema import paper_schema

#: Engine tier factories, keyed by the names used in config matrices.
ENGINE_TIERS = {
    "linear": lambda: Engine(indexed=False, incremental=False),
    "indexed": lambda: Engine(compiled=False),
    "compiled": lambda: Engine(),
}

#: Small saturation budget: oracle runs optimize hundreds of queries,
#: so each saturate pass is kept to a few rounds and a bounded amount
#: of e-match exploration — plenty to exercise e-matching, extraction
#: and the backoff scheduler differentially, while keeping the worst
#: generated query (deep constant chains have exponentially many
#: chain decompositions) to milliseconds instead of minutes.
ORACLE_BUDGET = SaturationBudget(max_iterations=2, max_enodes=1_000,
                                 reps_per_class=1,
                                 max_match_visits=10_000)


@dataclass(frozen=True)
class OracleConfig:
    """One point in the configuration matrix."""

    name: str
    engine: str                  # key into ENGINE_TIERS
    search: str                  # "greedy" | "saturate"
    batch: bool = False          # route through BatchOptimizer
    workers: int = 1             # batch pool size (1 = in-process)
    backend: str = "plan"        # execution backend (see BACKENDS)


def default_matrix(*, batch_workers: int = 1) -> tuple[OracleConfig, ...]:
    """The full cross: 3 engine tiers × 2 searches, plus 2 batch
    front-end configs (greedy and saturate), plus 1 codegen config
    (the default executor) — 9 configurations."""
    configs = [OracleConfig(f"{engine}-{search}", engine, search)
               for engine in ("linear", "indexed", "compiled")
               for search in ("greedy", "saturate")]
    configs += [OracleConfig(f"batch-{search}", "compiled", search,
                             batch=True, workers=batch_workers)
                for search in ("greedy", "saturate")]
    configs.append(OracleConfig("codegen-exec", "compiled", "greedy",
                                backend="codegen"))
    return tuple(configs)


def sequential_matrix() -> tuple[OracleConfig, ...]:
    """The sequential configurations only (no batch front-end): the
    six engine × search configs plus ``codegen-exec``."""
    return tuple(c for c in default_matrix() if not c.batch)


def bag_equal(a: object, b: object) -> bool:
    """Result equality for the oracle.

    All KOLA collection values already implement structural equality
    (``frozenset`` extensionally, :class:`KBag` as a multiset,
    :class:`KList` positionally), so ``==`` is the bag-equality the
    paper's rules preserve.  Kept as a named function so the oracle
    reads as the claim it checks — and so the comparison has one home
    if a future value type needs normalization first.
    """
    return type(a) is type(b) and a == b


@dataclass
class ConfigStats:
    """Accumulated per-configuration plan statistics."""

    queries: int = 0
    costed: int = 0              # plans with a non-None estimate
    total_cost: float = 0.0
    rule_steps: int = 0          # derivation steps, summed
    rewritten: int = 0           # queries whose derivation is non-empty
    elapsed: float = 0.0

    def record(self, result, elapsed: float) -> None:
        self.queries += 1
        self.elapsed += elapsed
        if result.estimated_cost is not None:
            self.costed += 1
            self.total_cost += result.estimated_cost
        steps = len(result.derivation.rules_used())
        self.rule_steps += steps
        if steps:
            self.rewritten += 1

    def summary(self) -> str:
        mean_cost = self.total_cost / self.costed if self.costed else 0.0
        return (f"{self.queries} queries, {self.rewritten} rewritten, "
                f"{self.rule_steps} rule steps, "
                f"mean cost {mean_cost:.1f}, {self.elapsed:.2f}s")


@dataclass
class Divergence:
    """One configuration disagreeing with direct evaluation."""

    config: str
    query: Term
    expected: object
    actual: object
    seed: int | None = None      # generator seed that produced query
    shrunk: Term | None = None   # minimal reproducer, if shrinking ran

    @property
    def minimal(self) -> Term:
        return self.shrunk if self.shrunk is not None else self.query

    def replay(self) -> str:
        """Shell one-liner reproducing this divergence locally."""
        if self.seed is not None:
            return (f"PYTHONPATH=src python -m repro.cli fuzz "
                    f"--seed {self.seed} --count 1")
        return f"# replay the stored corpus entry for: {pretty(self.minimal)}"

    def report(self) -> str:
        lines = [f"divergence in config {self.config}:",
                 f"  query:    {pretty(self.query)}"]
        if self.shrunk is not None and self.shrunk is not self.query:
            lines.append(f"  shrunk:   {pretty(self.shrunk)}")
        lines += [f"  expected: {self.expected!r}",
                  f"  actual:   {self.actual!r}",
                  f"  replay:   {self.replay()}"]
        return "\n".join(lines)


@dataclass
class OracleReport:
    """Outcome of one oracle run."""

    queries: int
    configs: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)
    skipped: int = 0             # direct evaluation raised EvalError
    per_config: dict[str, ConfigStats] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [f"{self.queries} queries x {len(self.configs)} configs: "
                 f"{len(self.divergences)} divergence(s), "
                 f"{self.skipped} skipped, {self.elapsed:.2f}s"]
        for name in self.configs:
            stats = self.per_config.get(name)
            if stats is not None:
                lines.append(f"  {name:>18}: {stats.summary()}")
        for div in self.divergences:
            lines.append(div.report())
        return "\n".join(lines)


class DifferentialOracle:
    """Differential harness: direct evaluation vs the config matrix.

    Args:
        db: database queries run against (defaults to the seeded tiny
            paper-schema database all tier-1 fuzz tests share).
        schema: schema for well-typedness checks during shrinking.
        configs: configuration matrix (default :func:`default_matrix`).
        rulebase: shared rulebase for *sequential* configs.  Inject a
            mutated rulebase here to verify the oracle actually catches
            unsound rules (batch workers always build the standard
            rulebase, so mutation tests use :func:`sequential_matrix`).
        budget: saturation budget for saturate-mode configs.
        shrink: reduce each diverging query to a minimal reproducer.
    """

    def __init__(self, db: Database | None = None, *,
                 schema: Schema | None = None,
                 configs: tuple[OracleConfig, ...] | None = None,
                 rulebase: RuleBase | None = None,
                 budget: SaturationBudget | None = None,
                 shrink: bool = True) -> None:
        self.db = db if db is not None else tiny_database(seed=17)
        self.schema = schema or paper_schema()
        self.configs = tuple(configs) if configs else default_matrix()
        self.budget = budget or ORACLE_BUDGET
        self.shrink = shrink
        self._rulebase = rulebase
        self._optimizers: dict[str, Optimizer] = {}
        self._batchers: dict[str, BatchOptimizer] = {}
        for config in self.configs:
            if config.batch:
                self._batchers[config.name] = BatchOptimizer(
                    self.db, workers=config.workers, search=config.search,
                    budget=self.budget)
            else:
                self._optimizers[config.name] = Optimizer(
                    rulebase=rulebase,
                    engine=ENGINE_TIERS[config.engine](),
                    search=config.search,
                    saturation_budget=self.budget)

    def close(self) -> None:
        """Tear down any batch worker pools."""
        for batcher in self._batchers.values():
            batcher.close()

    def __enter__(self) -> "DifferentialOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- single-query checking ---------------------------------------------

    def direct(self, query: Term) -> object:
        """Ground truth: evaluate ``query`` directly, no optimizer."""
        if query.op == "test":
            return test_pred(query.args[0], eval_obj(query.args[1], self.db),
                             self.db)
        return eval_obj(query, self.db)

    def evaluate(self, config: OracleConfig, query: Term):
        """Optimize ``query`` under ``config`` and execute it on the
        config's backend.  Sequential configs run through
        :meth:`Optimizer.execute` (the result then comes from its plan
        cache), so codegen configs use the skeleton-keyed kernels."""
        if config.batch:
            report = self._batchers[config.name].optimize_many([query])
            result = report.results[0].result
            return result, result.execute(self.db, backend=config.backend)
        optimizer = self._optimizers[config.name]
        value = optimizer.execute(query, self.db, search=config.search,
                                  backend=config.backend)
        return optimizer.optimize(query, self.db,
                                  search=config.search), value

    def check(self, query: Term, seed: int | None = None,
              report: OracleReport | None = None) -> list[Divergence]:
        """Run ``query`` through every configuration; return the
        divergences (empty when all agree with direct evaluation)."""
        try:
            expected = self.direct(query)
        except EvalError:
            if report is not None:
                report.skipped += 1
            return []
        divergences = []
        for config in self.configs:
            started = time.perf_counter()
            result, actual = self.evaluate(config, query)
            elapsed = time.perf_counter() - started
            if report is not None:
                report.per_config.setdefault(
                    config.name, ConfigStats()).record(result, elapsed)
            if not bag_equal(expected, actual):
                divergences.append(Divergence(
                    config=config.name, query=query,
                    expected=expected, actual=actual, seed=seed))
        if self.shrink and divergences:
            divergences = [self._shrink(d) for d in divergences]
        return divergences

    def _shrink(self, div: Divergence) -> Divergence:
        from repro.fuzz.shrink import shrink as shrink_term
        config = next(c for c in self.configs if c.name == div.config)

        def diverges(candidate: Term) -> bool:
            try:
                expected = self.direct(candidate)
                _, actual = self.evaluate(config, candidate)
            except EvalError:
                return False
            return not bag_equal(expected, actual)

        minimal = shrink_term(div.query, diverges, self.schema)
        return replace(div, shrunk=minimal)

    # -- corpus runs ---------------------------------------------------------

    def run(self, count: int = 100, seed: int = 0,
            seconds: float | None = None,
            fuzz_config: FuzzConfig | None = None) -> OracleReport:
        """Generate ``count`` queries (seeds ``seed .. seed+count-1``)
        and check each against the full matrix.  ``seconds`` caps the
        wall clock: the run stops early (with however many queries it
        managed) once the budget is spent.
        """
        base = fuzz_config or FuzzConfig()
        started = time.perf_counter()
        report = OracleReport(queries=0,
                              configs=tuple(c.name for c in self.configs))
        for offset in range(count):
            if seconds is not None and (
                    time.perf_counter() - started) >= seconds:
                break
            query_seed = seed + offset
            query = QueryGenerator(
                replace(base, seed=query_seed)).query()
            report.queries += 1
            report.divergences.extend(
                self.check(query, seed=query_seed, report=report))
        report.elapsed = time.perf_counter() - started
        return report


def unguarded_rulebase(rule_name: str,
                       base: RuleBase | None = None) -> RuleBase:
    """A copy of ``base`` with ``rule_name``'s precondition guard
    stripped — and the now-unguarded rule promoted into the
    ``simplify`` group, exactly as the registry classifies unguarded
    rules.

    This deliberately manufactures an *unsound* optimizer: guarded
    rules (``count-map-inj``, ``map-intersect-inj``...) are only
    semantics-preserving when their side conditions hold, so dropping
    the guard makes the rule fire on non-qualifying queries.  It exists
    to mutation-test the oracle itself — a differential harness that
    cannot catch a deliberately broken rule is not testing anything.
    Never use outside tests.
    """
    from dataclasses import replace as dc_replace

    from repro.rules.registry import standard_rulebase
    base = base or standard_rulebase()
    if rule_name not in base:
        raise ValueError(f"no rule named {rule_name!r}")
    mutated = base.clone()
    mutated.replace(dc_replace(base.get(rule_name), preconditions=()))
    mutated.extend_group("simplify", [rule_name])
    return mutated


def is_well_typed(query: Term, schema: Schema) -> bool:
    """``well_typed`` with inference failures folded into ``False``."""
    try:
        return well_typed(query, schema)
    except TypeInferenceError:
        return False
