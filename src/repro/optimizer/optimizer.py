"""The end-to-end rule-based optimizer.

Pipeline (each stage is skippable and inspectable):

1. **Parse** — OQL text -> AQUA (:mod:`repro.translate.oql`), or accept
   an AQUA expression or a KOLA term directly.
2. **Translate** — AQUA -> KOLA with explicit environments.
3. **Simplify** — exhaustive application of the terminating rule group
   (``simplify``): identity elimination, projection laws, constant
   folding of predicates...
4. **Untangle** — the five-step hidden-join strategy (COKO blocks); a
   no-op for queries that are not hidden joins, but still a gradual
   simplifier for ones that almost are.
5. **Plan** — recognize the nest-of-join shape and build the
   specialized :class:`JoinNestPlan`; otherwise interpret.  The cheaper
   plan (by the cost model) wins.

Two **search modes** drive stage 5:

* ``search="greedy"`` (default) — commit to the simplify->untangle
  path and plan the single resulting form, exactly the paper's
  strategy-driven optimizer.
* ``search="saturate"`` — equality-saturation search
  (:mod:`repro.saturate`): the initial, simplified and untangled forms
  seed one e-graph, the saturation-safe rule pool explores further
  equal forms under iteration/e-node budgets, and cost-based extraction
  plus plan recognition over the extracted frontier choose the plan.
  The greedy result is one of the seeds, so the chosen plan is never
  costlier than greedy's — budget exhaustion degrades to greedy, not to
  failure.

Results are memoized in a **two-level cross-call plan cache**:

* The **exact** level keys on the interned initial KOLA term, the
  rulebase generation, the database's stats fingerprint and the search
  mode: re-optimizing a literally repeated query (the serving hot
  path) is a dictionary hit.  The cache is an
  :class:`~repro.parallel.cache.LRUCache`, so skewed traffic keeps its
  hot plans cached.  Across a worker pool each worker keeps its own
  cache, and skeleton routing (:func:`repro.serve.pool.route_of`)
  sends every member of a query family to the same one.
* The **parameterized** level keys on the constant-abstracted
  *skeleton* (:func:`~repro.core.terms.abstract_constants`): queries
  differing only in scalar constants share one cached entry whose
  forms are stored with numbered parameter slots and re-instantiated
  per query with its own bindings.  Validity guard: a query whose
  bindings intersect any scalar constant pinned by a rule (or declared
  as an oracle fact) could simplify differently per value, so such
  queries fall back to exact keying only.  See
  ``docs/architecture.md`` for the soundness argument.

Saturate-mode runs additionally keep a small **warm e-graph pool**
keyed by skeleton family: a later family member seeds its forms into
the already-saturated graph instead of re-deriving the shared,
constant-free structure from scratch.

The result is an :class:`OptimizedQuery` holding every intermediate
form, the full derivation (each step justified by a rule), and the
chosen plan.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.aqua.terms import AquaExpr
from repro.core.terms import (ABSTRACTABLE_SCALARS, Term,
                              abstract_constants, abstract_with,
                              instantiate_constants)
from repro.coko.hidden_join import hidden_join_blocks
from repro.coko.blocks import run_blocks
from repro.optimizer.cost import CostModel
from repro.optimizer.physical import (InterpretPlan, JoinNestPlan,
                                      PhysicalPlan, recognize_join_nest)
from repro.rewrite.engine import Engine
from repro.rewrite.pattern import canon
from repro.rewrite.rulebase import RuleBase
from repro.rewrite.trace import Derivation
from repro.rules.registry import standard_rulebase
from repro.saturate.driver import (SaturationBudget, SaturationReport,
                                   Saturator)
from repro.saturate.extract import Extractor
from repro.schema.adt import Database
from repro.translate.aqua_to_kola import translate_query
from repro.translate.oql import parse_oql

#: Search modes accepted by :meth:`Optimizer.optimize`.
SEARCH_MODES = ("greedy", "saturate")

#: Execution backends accepted by :meth:`Optimizer.execute` and
#: :meth:`OptimizedQuery.execute`: ``codegen`` (the default) runs the
#: best known form as a compiled source kernel (:mod:`repro.exec.codegen`)
#: from the optimizer's skeleton-keyed kernel cache, and ``plan`` runs
#: the chosen physical plan (interpretation, the join-nest strategy or
#: an index scan).
BACKENDS = ("plan", "codegen")

#: The backend both ``execute`` entry points use when none is named.
DEFAULT_BACKEND = "codegen"


@dataclass
class OptimizedQuery:
    """Everything the optimizer produced for one input query.

    ``estimated_cost`` is ``None`` when the plan could not be costed —
    no database was supplied, so there are no cardinalities to estimate
    from.  (It is never NaN: an uncosted plan is an explicit state, not
    a number that silently poisons ``<=`` comparisons.)

    A result remembers (weakly) the optimizer that produced it, so
    :meth:`execute` runs the same skeleton-keyed kernel as
    :meth:`Optimizer.execute`.  A result with no live optimizer — one
    decoded from the wire, say — compiles its own concrete kernel once
    (:meth:`kernel`) and caches it on itself.
    """

    source: object                 # OQL text, AQUA expression, or KOLA term
    aqua: AquaExpr | None
    initial: Term                  # KOLA form before rewriting
    simplified: Term
    untangled: Term
    plan: PhysicalPlan
    derivation: Derivation
    estimated_cost: float | None
    search: str = "greedy"
    chosen: Term | None = None     # saturate mode: the extracted form
    saturation: SaturationReport | None = None
    _owner: object = field(default=None, init=False, repr=False,
                           compare=False)
    _kernel: object = field(default=None, init=False, repr=False,
                            compare=False)

    @property
    def best_term(self) -> Term:
        """The form execution should run: the extracted term in
        saturate mode, the untangled form otherwise."""
        return self.chosen if self.chosen is not None else self.untangled

    def kernel(self) -> "CompiledKernel":
        """The codegen kernel for :attr:`best_term`, compiled lazily
        from the concrete term (no parameter slots) and cached on this
        result.  :meth:`execute` runs it only when no optimizer is
        attached; constant-family sharing lives in the optimizer's
        skeleton-keyed kernel cache (:meth:`Optimizer.kernel_for`)."""
        if self._kernel is None:
            from repro.exec import compile_kernel
            self._kernel = compile_kernel(self.best_term)
        return self._kernel

    def execute(self, db: Database | None = None,
                backend: str = DEFAULT_BACKEND) -> object:
        """Run the query on ``db`` with one of :data:`BACKENDS`."""
        if backend == "codegen":
            owner = None if self._owner is None else self._owner()
            if owner is not None:
                kernel, values = owner.kernel_for(self, db)
                return kernel.run(db, values)
            return self.kernel().run(db)
        if backend == "plan":
            return self.plan.execute(db)
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected one of {BACKENDS}")

    def explain(self) -> str:
        cost = ("(not costed: no db)" if self.estimated_cost is None
                else f"{self.estimated_cost:.1f}")
        lines = [
            "== optimized query ==",
            f"initial:    {self.initial!r}",
            f"simplified: {self.simplified!r}",
            f"untangled:  {self.untangled!r}",
            f"steps:      {' '.join(self.derivation.rules_used()) or '(none)'}",
            f"search:     {self.search}",
            f"est. cost:  {cost}",
        ]
        if self.saturation is not None:
            lines.append(f"saturation: {self.saturation.summary()}")
        if self.chosen is not None and self.chosen is not self.untangled:
            lines.append(f"extracted:  {self.chosen!r}")
        lines += ["plan:", self.plan.explain()]
        return "\n".join(lines)


@dataclass(frozen=True)
class ParamPlanEntry:
    """One parameterized plan-cache entry: every form the optimizer
    produced for a skeleton family, stored constant-abstracted.

    ``steps`` holds the derivation as ``(rule, before, after, path)``
    tuples with ``before``/``after`` abstracted — re-instantiation
    rebuilds a :class:`~repro.rewrite.trace.Derivation` whose forms
    carry the serving query's own constants, so the replayed trace is
    indistinguishable from a cold optimization's.  The physical plan is
    *not* stored: it is re-derived per query by ``_choose_plan`` over
    the instantiated best form (deterministic and value-independent),
    which keeps plan objects bound to their query's concrete terms.
    """

    skeleton: Term
    simplified: Term
    untangled: Term
    chosen: Term | None
    steps: tuple
    title: str
    search: str
    saturation: SaturationReport | None


class Optimizer:
    """The assembled rule-based optimizer.

    One :class:`~repro.rewrite.engine.Engine` is shared across
    ``optimize`` calls, so its normal-form cache persists: repeated
    simplification of shared subqueries (or re-optimizing the same
    query) hits memoized normal forms instead of re-scanning.  On top
    of that sits the **plan cache** — whole optimize results keyed on
    ``(interned initial term, rulebase generation, db stats
    fingerprint, search mode)`` — so a repeated query skips rewriting,
    search and planning entirely.

    Args:
        search: default search mode, ``"greedy"`` or ``"saturate"``
            (overridable per :meth:`optimize` call).
        saturation_budget: budgets for saturate-mode runs.
        plan_cache_max: capacity of the exact-level plan cache
            (defaults to :attr:`PLAN_CACHE_MAX`) — the batch layer
            raises it so an in-process pool's single cache matches the
            *aggregate* capacity the worker processes would have had.
        abstract_cache: enable the parameterized (constant-abstracted)
            cache level and the warm e-graph pool.  ``False`` is the
            ``--no-abstract-cache`` escape hatch: exact keying only,
            byte-for-byte the pre-abstraction behavior.
    """

    #: Cap on cached optimize results (LRU eviction).
    PLAN_CACHE_MAX = 1024

    #: Cap on parameterized (skeleton-keyed) plan entries.
    PARAM_CACHE_MAX = 256

    #: Cap on cached codegen kernels (skeleton-keyed, LRU eviction).
    KERNEL_CACHE_MAX = 256

    #: Cap on pooled warm e-graphs (saturate mode only).
    WARM_POOL_MAX = 8

    #: A pooled e-graph is dropped once it grows past this multiple of
    #: the per-run enode budget (warm runs budget *added* nodes, so a
    #: long-lived shared graph needs its own absolute bound).
    WARM_POOL_ENODE_FACTOR = 3

    def __init__(self, rulebase: RuleBase | None = None,
                 cost_model: CostModel | None = None,
                 catalog: "IndexCatalog | None" = None,
                 engine: Engine | None = None,
                 search: str = "greedy",
                 saturation_budget: SaturationBudget | None = None,
                 plan_cache_max: int | None = None,
                 abstract_cache: bool = True) -> None:
        from repro.optimizer.indexes import IndexCatalog
        from repro.parallel.cache import LRUCache
        if search not in SEARCH_MODES:
            raise ValueError(f"unknown search mode {search!r}; "
                             f"expected one of {SEARCH_MODES}")
        self.rulebase = rulebase or standard_rulebase()
        self.cost_model = cost_model or CostModel()
        self.catalog = catalog or IndexCatalog()
        self.engine = engine if engine is not None else Engine()
        self.search = search
        self.saturation_budget = saturation_budget or SaturationBudget()
        self._plan_cache_max = plan_cache_max
        self.abstract_cache = abstract_cache
        self._plan_cache = LRUCache(self.plan_cache_max)
        self._param_cache = LRUCache(self.PARAM_CACHE_MAX)
        self._warm_pool = LRUCache(self.WARM_POOL_MAX)
        self._param_stats = {"hits": 0, "misses": 0, "blocked": 0,
                             "warm_hits": 0}
        self._kernel_cache = LRUCache(self.KERNEL_CACHE_MAX)
        self._kernel_stats = {"kernel_hits": 0, "kernel_misses": 0}
        self._blocked_cache: tuple | None = None
        self._self_ref = weakref.ref(self)

    # -- plan cache ---------------------------------------------------------

    @property
    def plan_cache_max(self) -> int:
        """Exact-level capacity: the constructor override when given,
        else :attr:`PLAN_CACHE_MAX` (looked up dynamically, so
        instance-level attribute overrides keep working)."""
        if self._plan_cache_max is not None:
            return self._plan_cache_max
        return self.PLAN_CACHE_MAX

    def plan_cache_info(self) -> dict:
        """Size and traffic of the cross-query plan cache.

        The nested ``"param"`` dict reports the parameterized level:
        skeleton-cache size and traffic, queries refused abstraction
        (``blocked``), and warm e-graph reuses (``warm_hits``).  The
        nested ``"kernel"`` dict reports the codegen kernel cache:
        compiled-kernel count and hit/miss traffic of
        :meth:`kernel_for`.  Batch merging
        (:func:`~repro.parallel.cache.merge_cache_info`) sums the flat
        counters and ignores the nested dicts.
        """
        info = self._plan_cache.info()
        info["max_size"] = self.plan_cache_max
        param = dict(self._param_cache.info())
        param.update(self._param_stats)
        param["warm_pool_size"] = len(self._warm_pool)
        info["param"] = param
        kernel = dict(self._kernel_cache.info())
        kernel.update(self._kernel_stats)
        kernel["max_size"] = self.KERNEL_CACHE_MAX
        info["kernel"] = kernel
        return info

    def clear_plan_cache(self) -> None:
        """Drop all cached optimize results — both levels, the warm
        e-graph pool, and the compiled kernel cache (keeps the
        counters)."""
        self._plan_cache.clear()
        self._param_cache.clear()
        self._warm_pool.clear()
        self._kernel_cache.clear()

    def _cache_key(self, initial: Term, db: Database | None,
                   search: str) -> tuple:
        fingerprint = None if db is None else db.stats_fingerprint()
        return (initial, self.rulebase.generation, fingerprint, search)

    # -- codegen kernel cache ------------------------------------------------

    def kernel_for(self, result: OptimizedQuery,
                   db: Database | None = None) -> tuple:
        """The family-shared codegen kernel for one optimize result.

        Returns ``(kernel, values)``: the compiled kernel plus the
        parameter values that instantiate it to ``result.best_term``
        (run as ``kernel.run(db, values)``).  The cache is keyed on the
        best form's constant-abstracted *skeleton* (plus rulebase
        generation and db stats fingerprint), so an entire
        constant-varying template family compiles once and every member
        binds its own values at run time.  Unlike the
        parameterized *plan* cache this needs no blocked-values guard:
        abstraction happens after rewriting, and the emitted kernel is
        value-faithful by construction — parameter slots flow through
        the same db-late closures the concrete term would.  With
        ``abstract_cache`` disabled the concrete term itself is the key
        (no slots, empty values).
        """
        term = result.best_term
        if self.abstract_cache:
            skeleton, values = abstract_constants(term)
        else:
            skeleton, values = term, ()
        fingerprint = None if db is None else db.stats_fingerprint()
        key = (skeleton, self.rulebase.generation, fingerprint)
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            from repro.exec import compile_kernel
            self._kernel_stats["kernel_misses"] += 1
            kernel = compile_kernel(skeleton)
            self._kernel_cache.put(key, kernel,
                                   max_size=self.KERNEL_CACHE_MAX)
        else:
            self._kernel_stats["kernel_hits"] += 1
        return kernel, values

    # -- parameterized (constant-abstracted) level --------------------------

    def _blocked_values(self) -> frozenset | None:
        """Typed ``(type, value)`` scalar constants that make a query
        non-abstractable: literals pinned by any rule plus literals
        inside the oracle's declared facts.  A cached skeleton plan
        would be unsound for a query binding one of these — a guarded
        rule could fire (or refuse to) based on the value — so such
        queries are keyed exactly.  ``None`` when the engine's oracle
        does not list its facts (no ``facts()`` method): then every
        query is keyed exactly.  Cached per (rulebase generation,
        facts)."""
        facts_of = getattr(self.engine.oracle, "facts", None)
        if facts_of is None:
            return None
        facts = facts_of()
        stamp = (self.rulebase.generation, facts)
        cached = self._blocked_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        pinned = set(self.rulebase.scalar_constants())
        for fact in facts:
            for node in fact.term.subterms():
                if (node.op == "lit"
                        and type(node.label) in ABSTRACTABLE_SCALARS):
                    pinned.add((type(node.label), node.label))
        result = frozenset(pinned)
        self._blocked_cache = (stamp, result)
        return result

    def _make_param_entry(self, result: OptimizedQuery, values: tuple,
                          mode: str) -> ParamPlanEntry:
        """Abstract one cold optimization result into a reusable
        skeleton entry.  The caller has already refused any query whose
        binding values collide with a constant a rule could introduce
        (:meth:`_blocked_values`), so every output literal equal to a
        binding value co-varies with it.  One memo serves every form:
        consecutive derivation steps share nearly all their nodes."""
        skeleton, _ = abstract_constants(result.initial)
        memo: dict[Term, Term] = {}

        def abstract(term: Term) -> Term:
            return abstract_with(term, values, memo)

        steps = tuple(
            (step.rule, abstract(step.before), abstract(step.after),
             step.path)
            for step in result.derivation.steps)
        return ParamPlanEntry(
            skeleton=skeleton,
            simplified=abstract(result.simplified),
            untangled=abstract(result.untangled),
            chosen=(None if result.chosen is None
                    else abstract(result.chosen)),
            steps=steps,
            title=result.derivation.title,
            search=mode,
            saturation=result.saturation)

    def _instantiate_entry(self, entry: ParamPlanEntry, query: object,
                           aqua: AquaExpr | None, initial: Term,
                           values: tuple,
                           db: Database | None) -> OptimizedQuery:
        """Serve a skeleton entry to one concrete query: substitute its
        binding values into every stored form, replay the derivation,
        and re-run (deterministic, value-independent) plan choice on
        the instantiated best form."""
        simplified = instantiate_constants(entry.simplified, values)
        untangled = instantiate_constants(entry.untangled, values)
        chosen = (None if entry.chosen is None
                  else instantiate_constants(entry.chosen, values))
        derivation = Derivation(entry.title)
        for rule, before, after, path in entry.steps:
            derivation.record(rule, instantiate_constants(before, values),
                              instantiate_constants(after, values), path)
        best = chosen if chosen is not None else untangled
        plan, estimated = self._choose_plan(best, db)
        result = OptimizedQuery(source=query, aqua=aqua, initial=initial,
                                simplified=simplified, untangled=untangled,
                                plan=plan, derivation=derivation,
                                estimated_cost=estimated,
                                search=entry.search, chosen=chosen,
                                saturation=entry.saturation)
        result._owner = self._self_ref
        return result

    # -- planning helpers ---------------------------------------------------

    def _choose_plan(self, term: Term, db: Database | None,
                     ) -> tuple[PhysicalPlan, float | None]:
        """The cheapest recognized plan for one query form.

        Without a database nothing can be costed: the specialized join
        plan is preferred whenever it is recognizable and the estimate
        is ``None``.
        """
        plan: PhysicalPlan = InterpretPlan(term)
        estimated = (plan.cost_estimate(db, self.cost_model)
                     if db is not None else None)

        join_plan = recognize_join_nest(term)
        if join_plan is not None:
            if db is None:
                plan = join_plan
            else:
                join_cost = join_plan.cost_estimate(db, self.cost_model)
                if join_cost <= estimated:
                    plan, estimated = join_plan, join_cost

        from repro.optimizer.indexes import recognize_index_scan
        index_plan = recognize_index_scan(term, self.catalog)
        if index_plan is not None and db is not None:
            index_cost = index_plan.cost_estimate(db, self.cost_model)
            if index_cost <= estimated:
                plan, estimated = index_plan, index_cost

        return plan, estimated

    def _saturation_rules(self):
        """The compiled saturation pool (falls back to ``simplify`` for
        rulebases that do not define a ``saturate`` group)."""
        from repro.core.errors import RewriteError
        try:
            return self.rulebase.group_compiled("saturate")
        except RewriteError:
            return self.rulebase.group_compiled("simplify")

    def _saturate_plan(self, initial: Term, simplified: Term,
                       untangled: Term, db: Database | None,
                       family: Term | None = None,
                       ) -> tuple[PhysicalPlan, float | None, Term,
                                  SaturationReport]:
        """Saturation-mode plan choice.

        Seeds the e-graph with every form the greedy pipeline produced
        (they are rule-equal by construction), saturates under budget,
        then evaluates plans over the extracted candidate frontier plus
        the greedy form itself — so the outcome can only improve on
        greedy, never regress, even when a budget is hit immediately.

        ``family`` (the query's constant-abstracted skeleton) keys the
        warm e-graph pool: a fully saturated, untruncated run donates
        its graph, and the family's next member seeds into it instead
        of starting cold — the constant-free shared structure is
        already saturated, so only the new constants' consequences need
        deriving.  Partial runs (budget hit, truncated match round) are
        never pooled, and a pooled graph that a later run leaves
        partial is evicted: the pool only ever holds graphs whose
        equalities are complete under the budget.
        """
        saturator = Saturator(self.engine, self._saturation_rules(),
                              self.saturation_budget)
        warm_key = warm = None
        if family is not None and self.saturation_budget.incremental_match:
            warm_key = (family, self.rulebase.generation)
            warm = self._warm_pool.get(warm_key)
            if warm is not None:
                self._param_stats["warm_hits"] += 1
        run = saturator.run([initial, simplified, untangled], egraph=warm)
        if warm_key is not None:
            cap = (self.WARM_POOL_ENODE_FACTOR
                   * self.saturation_budget.max_enodes)
            poolable = (run.report.saturated
                        and run.report.match_truncations == 0
                        and run.egraph.enodes_allocated <= cap)
            if poolable:
                self._warm_pool.put(warm_key, run.egraph,
                                    max_size=self.WARM_POOL_MAX)
            elif warm is not None:
                # The shared graph is now partial; drop it.
                self._warm_pool.put(warm_key, None)
        extractor = Extractor(run.egraph, self.cost_model)
        frontier = extractor.candidates(run.root)

        best_plan, best_cost = self._choose_plan(untangled, db)
        best_term = untangled
        for candidate in frontier:
            if candidate.term is best_term:
                continue
            plan, cost = self._choose_plan(candidate.term, db)
            if db is None:
                # No cardinalities: only upgrade interpretation to a
                # recognized specialized plan, mirroring greedy.
                if (isinstance(best_plan, InterpretPlan)
                        and not isinstance(plan, InterpretPlan)):
                    best_plan, best_cost, best_term = plan, cost, \
                        candidate.term
                continue
            if cost is not None and cost < best_cost:
                best_plan, best_cost, best_term = plan, cost, \
                    candidate.term
        return best_plan, best_cost, best_term, run.report

    # -- the pipeline -------------------------------------------------------

    def optimize(self, query: object, db: Database | None = None,
                 search: str | None = None) -> OptimizedQuery:
        """Optimize OQL text, an AQUA expression, or a KOLA query term.

        ``db`` provides cardinalities for plan choice; without it, the
        untangled plan is preferred whenever it is recognizable and
        ``estimated_cost`` is ``None``.  ``search`` overrides the
        optimizer's default mode for this call.
        """
        mode = search if search is not None else self.search
        if mode not in SEARCH_MODES:
            raise ValueError(f"unknown search mode {mode!r}; "
                             f"expected one of {SEARCH_MODES}")

        aqua: AquaExpr | None = None
        if isinstance(query, str):
            aqua = parse_oql(query)
            initial = translate_query(aqua)
        elif isinstance(query, AquaExpr):
            aqua = query
            initial = translate_query(aqua)
        elif isinstance(query, Term):
            initial = query
        else:
            raise TypeError(f"cannot optimize {query!r}")
        initial = canon(initial)

        key = self._cache_key(initial, db, mode)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached

        # Parameterized level: queries differing only in scalar
        # constants share one skeleton entry.  The blocked-values guard
        # runs on BOTH the serve and the store path, so a query a rule
        # could treat value-sensitively never touches this level — it
        # falls back to exact keying above.
        skeleton = None
        family = None
        values: tuple = ()
        param_key = None
        if self.abstract_cache:
            skeleton, values = abstract_constants(initial)
            if values:
                # E-graph sharing is keyed by skeleton regardless of
                # the blocked check below: saturation works on the
                # concrete terms, so the warm pool stays sound even
                # when plan transfer would not be.
                family = skeleton
                blocked = self._blocked_values()
                if blocked is None or any((type(v), v) in blocked
                                          for v in values):
                    self._param_stats["blocked"] += 1
                    skeleton = None
                else:
                    fingerprint = (None if db is None
                                   else db.stats_fingerprint())
                    param_key = (skeleton, self.rulebase.generation,
                                 fingerprint, mode)
                    entry = self._param_cache.get(param_key)
                    if entry is not None:
                        self._param_stats["hits"] += 1
                        result = self._instantiate_entry(
                            entry, query, aqua, initial, values, db)
                        self._plan_cache.put(key, result,
                                             max_size=self.plan_cache_max)
                        return result
                    self._param_stats["misses"] += 1
            else:
                skeleton = None

        engine = self.engine
        derivation = Derivation("optimization")

        simplified = engine.normalize(
            initial, self.rulebase.group_compiled("simplify"),
            derivation=derivation)
        untangled = run_blocks(hidden_join_blocks(), simplified,
                               self.rulebase, engine, derivation)

        chosen: Term | None = None
        report: SaturationReport | None = None
        if mode == "saturate":
            plan, estimated, chosen, report = self._saturate_plan(
                initial, simplified, untangled, db, family=family)
        else:
            plan, estimated = self._choose_plan(untangled, db)

        result = OptimizedQuery(source=query, aqua=aqua, initial=initial,
                                simplified=simplified, untangled=untangled,
                                plan=plan, derivation=derivation,
                                estimated_cost=estimated, search=mode,
                                chosen=chosen, saturation=report)
        result._owner = self._self_ref
        self._plan_cache.put(key, result, max_size=self.plan_cache_max)
        if param_key is not None:
            self._param_cache.put(param_key,
                                  self._make_param_entry(result, values,
                                                         mode),
                                  max_size=self.PARAM_CACHE_MAX)
        return result

    def execute(self, query: object, db: Database | None = None,
                search: str | None = None,
                backend: str = DEFAULT_BACKEND) -> object:
        """Optimize-and-run: the one-call serving entry point.

        The default ``codegen`` backend runs the best form as a compiled
        kernel from the skeleton-keyed kernel cache (:meth:`kernel_for`):
        queries differing only in scalar constants share one kernel and
        bind their own values at run time, and a plan-cache hit reuses
        both the optimization result and its kernel — only the database
        binding happens per call.  ``backend="plan"`` runs the chosen
        physical plan instead.
        """
        return self.optimize(query, db=db, search=search).execute(
            db, backend=backend)
