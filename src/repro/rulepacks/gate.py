"""The three-stage rule-pack admission gate.

The paper's thesis — combinator rules are *individually verifiable* —
becomes an enforcement point here: no rule enters a :class:`RuleBase`
via :meth:`RuleBase.load_pack` without clearing, in order,

1. **parse** — the declaration builds a valid :class:`Rule` (both sides
   parse at the declared sort, sorts agree, RHS metavariables are
   covered, the sides admit a joint type) and the pretty↔parse
   round-trip is *exact*: re-parsing each side's pretty-printed form
   yields the identical interned term.  Pack-set coherence is checked
   here too: saturation-safety tags must agree with group memberships
   (an exhaustive-rewriting group only admits ``exhaustive`` rules,
   ``saturate`` refuses ``strategy-only`` rules, and guarded rules are
   always ``strategy-only`` — the structural e-matcher and exhaustive
   engine never consult precondition oracles, so a guard there would be
   silently ignored).
2. **model-check** — the Larch-substitute checker
   (:mod:`repro.larch.checker`) refutes or passes the rule over
   ``trials`` random well-typed instantiations from an explicit seed;
   bidirectional rules are checked in both directions.  Reports are
   byte-deterministic for a fixed config (see the golden test).
3. **oracle** — the rule is spliced into a clone of a live standard
   rulebase (replacing its same-named rule, if any, then promoted into
   the groups its safety tag claims are fine) and the PR 5
   :class:`DifferentialOracle` optimizes and executes seeded queries
   end-to-end, comparing every configured optimizer against direct
   evaluation.  This is the stage that catches rules that are sound in
   isolation but break the *system* — exactly how
   ``unguarded_rulebase()`` mutants are caught today.  Guarded rules
   skip this stage (their guards cannot fire in the injected groups);
   their soundness-under-guard is covered by stage 2's
   injective-by-construction instantiation.

Every stage produces a machine-readable result; :meth:`GateReport.
to_json` is the ``gate_report.json`` artifact CI uploads, and it is
deterministic — no wall-clock fields, explicit seeds everywhere.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

from repro.core.errors import KolaError
from repro.core.pretty import pretty
from repro.core.terms import Sort, sort_of
from repro.core.parser import parse
from repro.larch.checker import RuleChecker
from repro.rewrite.pattern import canon
from repro.rewrite.rule import Rule
from repro.rewrite.rulebase import RuleBase
from repro.rulepacks.format import (RulePack, coherence_problems,
                                    effective_groups)

STAGES = ("parse", "model-check", "oracle")


@dataclass(frozen=True)
class GateConfig:
    """Knobs for one gate run — everything that affects the verdict,
    so two runs with equal configs produce byte-identical reports."""

    trials: int = 60             # stage-2 model-check trials per direction
    seed: int = 20260705         # stage-2 base seed
    max_depth: int = 3           # stage-2 instantiation depth
    oracle_queries: int = 2      # stage-3 generated sweep queries per rule
    oracle_probes: int = 6       # stage-3 LHS-instantiated probe queries
    oracle_seed: int = 424242    # stage-3 query/probe base seed
    #: stage-3 optimizer configurations (names from ``default_matrix``);
    #: one exhaustive-greedy and one saturation config covers both
    #: automatic application paths a mis-tagged rule can corrupt.
    oracle_configs: tuple[str, ...] = ("compiled-greedy",
                                      "compiled-saturate")

    def to_json(self) -> dict:
        return {"trials": self.trials, "seed": self.seed,
                "max_depth": self.max_depth,
                "oracle_queries": self.oracle_queries,
                "oracle_probes": self.oracle_probes,
                "oracle_seed": self.oracle_seed,
                "oracle_configs": list(self.oracle_configs)}


@dataclass
class StageResult:
    """Outcome of one stage for one rule."""

    stage: str                   # one of STAGES
    status: str                  # "pass" | "fail" | "skip"
    detail: str = ""             # failure rendering / skip reason
    trials: int = 0
    skipped_trials: int = 0

    def to_json(self) -> dict:
        payload = {"stage": self.stage, "status": self.status}
        if self.detail:
            payload["detail"] = self.detail
        if self.trials:
            payload["trials"] = self.trials
        if self.skipped_trials:
            payload["skipped_trials"] = self.skipped_trials
        return payload


@dataclass
class GateRuleResult:
    """All stage outcomes for one declared rule."""

    rule: str
    pack: str
    safety: str
    stages: list[StageResult] = field(default_factory=list)

    @property
    def admitted(self) -> bool:
        return all(s.status != "fail" for s in self.stages)

    @property
    def rejected_stage(self) -> str | None:
        """Name of the catching stage, or ``None`` when admitted."""
        for stage_result in self.stages:
            if stage_result.status == "fail":
                return stage_result.stage
        return None

    def to_json(self) -> dict:
        return {"rule": self.rule, "pack": self.pack,
                "safety": self.safety, "admitted": self.admitted,
                "rejected_stage": self.rejected_stage,
                "stages": [s.to_json() for s in self.stages]}


@dataclass
class GateReport:
    """Outcome of gating a pack set."""

    config: GateConfig
    packs: tuple[tuple[str, int, int], ...]   # (name, version, rules)
    results: list[GateRuleResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.admitted for r in self.results)

    @property
    def rejected(self) -> list[GateRuleResult]:
        return [r for r in self.results if not r.admitted]

    def to_json(self) -> dict:
        """The ``gate_report.json`` payload — deterministic for a fixed
        config (no timestamps, no machine state)."""
        return {"ok": self.ok,
                "config": self.config.to_json(),
                "packs": [{"name": n, "version": v, "rules": c}
                          for n, v, c in self.packs],
                "checked": len(self.results),
                "rejected": len(self.rejected),
                "results": [r.to_json() for r in self.results]}

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render(self, verbose: bool = False) -> str:
        """Human-readable summary; rejection details always included."""
        lines = []
        for name, version, count in self.packs:
            lines.append(f"pack {name} v{version}: {count} rule(s)")
        admitted = sum(1 for r in self.results if r.admitted)
        lines.append(f"{admitted}/{len(self.results)} rule(s) admitted")
        for result in self.results:
            if result.admitted and not verbose:
                continue
            marker = "PASS" if result.admitted else "REJECT"
            stage = ("" if result.admitted
                     else f" at stage {result.rejected_stage}")
            lines.append(f"  [{marker}] {result.pack}/{result.rule}"
                         f"{stage}")
            for stage_result in result.stages:
                if stage_result.status == "fail" or verbose:
                    lines.append(f"    {stage_result.stage}: "
                                 f"{stage_result.status}")
                    if stage_result.detail:
                        for line in stage_result.detail.splitlines():
                            lines.append(f"      {line}")
        return "\n".join(lines)


class PackRejected(KolaError):
    """A pack failed the admission gate; carries the full report."""

    def __init__(self, report: GateReport) -> None:
        names = ", ".join(f"{r.pack}/{r.rule} (stage {r.rejected_stage})"
                          for r in report.rejected)
        super().__init__(f"rule pack rejected: {names}")
        self.report = report


_SORT_BY_NAME = {"fun": Sort.FUN, "pred": Sort.PRED, "obj": Sort.OBJ}


class AdmissionGate:
    """Runs the three stages over a pack set.

    Args:
        config: gate knobs (default :class:`GateConfig`).
        context: live rulebase stage 3 splices candidates into
            (default: a fresh standard rulebase).  Cloned per rule;
            never mutated.
        db: database the stage-3 oracle executes against (default: the
            seeded tiny paper-schema database the fuzz suite shares).
    """

    def __init__(self, config: GateConfig | None = None, *,
                 context: RuleBase | None = None, db=None) -> None:
        self.config = config or GateConfig()
        self._context = context
        self._db = db

    @property
    def context(self) -> RuleBase:
        if self._context is None:
            from repro.rules.registry import standard_rulebase
            self._context = standard_rulebase()
        return self._context

    @property
    def db(self):
        if self._db is None:
            from repro.schema.generator import tiny_database
            self._db = tiny_database(seed=17)
        return self._db

    # -- the run -------------------------------------------------------------

    def check(self, packs) -> GateReport:
        """Gate every rule of ``packs`` (a :class:`RulePack` or an
        iterable of them, checked jointly so cross-pack group blocks
        resolve)."""
        if isinstance(packs, RulePack):
            packs = (packs,)
        packs = tuple(packs)
        report = GateReport(
            config=self.config,
            packs=tuple((p.name, p.version, len(p.rules)) for p in packs))
        effective = effective_groups(packs)
        for pack in packs:
            for decl in pack.rules:
                result = GateRuleResult(rule=decl.name, pack=pack.name,
                                        safety=decl.safety)
                report.results.append(result)
                built = self._stage_parse(decl, effective, result)
                if built is None:
                    continue
                if not self._stage_model_check(built, result):
                    continue
                self._stage_oracle(decl, built, result)
        return report

    # -- stage 1: parse / type / round-trip ---------------------------------

    def _stage_parse(self, decl, effective: dict,
                     result: GateRuleResult) -> Rule | None:
        try:
            built = decl.build()
        except KolaError as exc:
            result.stages.append(StageResult("parse", "fail", str(exc)))
            return None
        problems = []
        for side_name, term in (("lhs", built.lhs), ("rhs", built.rhs)):
            sort = sort_of(term)
            if sort is Sort.ANY:
                sort = _SORT_BY_NAME[decl.sort]
            printed = pretty(term)
            reparsed = canon(parse(printed, sort))
            if reparsed is not term:
                problems.append(
                    f"{side_name} does not round-trip: {printed!r} "
                    f"re-parses to {pretty(reparsed)!r}")
        problems.extend(coherence_problems(decl, effective))
        if problems:
            result.stages.append(
                StageResult("parse", "fail", "\n".join(problems)))
            return None
        result.stages.append(StageResult("parse", "pass"))
        return built

    # -- stage 2: Larch model check ------------------------------------------

    def _stage_model_check(self, built: Rule,
                           result: GateRuleResult) -> bool:
        checker = RuleChecker(trials=self.config.trials,
                              seed=self.config.seed,
                              max_depth=self.config.max_depth)
        directions = [built]
        if built.bidirectional:
            try:
                directions.append(built.reversed())
            except KolaError:
                # Reverse would lose variables or narrow types: the
                # forward rule stands alone, nothing extra to check.
                pass
        trials = skipped = 0
        for candidate in directions:
            rule_report = checker.check(candidate)
            trials += rule_report.trials
            skipped += rule_report.skipped_trials
            if not rule_report.passed:
                assert rule_report.counterexample is not None
                direction = ("reverse direction: "
                             if candidate is not built else "")
                result.stages.append(StageResult(
                    "model-check", "fail",
                    f"{direction}refuted after {rule_report.trials} "
                    f"trial(s)\n" + rule_report.counterexample.render(),
                    trials=trials, skipped_trials=skipped))
                return False
        result.stages.append(StageResult("model-check", "pass",
                                         trials=trials,
                                         skipped_trials=skipped))
        return True

    # -- stage 3: differential-oracle run ------------------------------------

    def _stage_oracle(self, decl, built: Rule,
                      result: GateRuleResult) -> bool:
        if built.preconditions:
            result.stages.append(StageResult(
                "oracle", "skip",
                "guarded rule: automatic application paths never fire "
                "it, and stage 2 covers soundness under the guard"))
            return True
        from repro.fuzz.oracle import DifferentialOracle, default_matrix
        wanted = set(self.config.oracle_configs)
        configs = tuple(c for c in default_matrix() if c.name in wanted)
        assert configs, f"unknown oracle configs: {wanted}"
        mutated = self.context.clone()
        if built.name in mutated:
            mutated.replace(built)
        else:
            mutated.add(built)
        if decl.safety == "exhaustive":
            mutated.extend_group("simplify", [built.name])
            mutated.extend_group("saturate", [built.name])
        else:
            # saturate-only and (unguarded) strategy-only rules are
            # exercised where automation can reach them: the budgeted
            # e-graph, which tolerates expansionary rules.
            mutated.extend_group("saturate", [built.name])
        oracle = DifferentialOracle(db=self.db, configs=configs,
                                    rulebase=mutated)
        with warnings.catch_warnings():
            # An unsound candidate may loop the exhaustive engine; the
            # step cap turns that into a warning, and the divergence (if
            # any) is what the gate reports.
            warnings.simplefilter("ignore")
            # Targeted probes first: the rule's own LHS, instantiated
            # with random well-typed ground terms and planted inside a
            # whole query, guarantees the optimizer actually reaches
            # the candidate — random generation alone rarely does.
            divergences = []
            for probe in self._probe_queries(built):
                divergences = oracle.check(probe)
                if divergences:
                    break
            if not divergences:
                # Generic sweep: seeded queries steered toward the
                # LHS's operators, plus end-to-end coverage that the
                # candidate does not corrupt unrelated optimization.
                from repro.fuzz.generator import FuzzConfig
                sweep = oracle.run(
                    count=self.config.oracle_queries,
                    seed=self.config.oracle_seed,
                    fuzz_config=FuzzConfig(
                        weights=_steered_weights(built)))
                divergences = sweep.divergences
        if divergences:
            detail = "\n".join(d.report() for d in divergences)
            result.stages.append(StageResult("oracle", "fail", detail))
            return False
        result.stages.append(StageResult("oracle", "pass"))
        return True

    def _probe_queries(self, built: Rule):
        """Up to ``oracle_probes`` whole queries embedding random
        well-typed instantiations of ``built``'s LHS.

        Probe generation evaluates *both* instantiated sides on the
        candidate input first and puts disagreeing instantiations at
        the front of the probe list: when the rule is unsound, the
        optimizer is then guaranteed to be probed exactly where the
        rewrite changes the answer, so the end-to-end divergence is
        found instead of hoped for.  Sound rules get agreeing probes —
        still worth running, as they drive the candidate through
        matching, extraction and plan execution.
        """
        from repro.core import constructors as C
        from repro.core.eval import EvalError, apply_fn, eval_obj, test_pred
        from repro.larch.gen import GenerationError, TermGenerator
        checker = RuleChecker(trials=0, seed=self.config.oracle_seed,
                              max_depth=2)
        generator = TermGenerator(
            seed=self.config.oracle_seed * 1_000_003 + 1, max_depth=2)
        want = self.config.oracle_probes
        refuting, agreeing = [], []
        for _ in range(want * 8):
            if len(refuting) >= want:
                break
            instantiated = checker.instantiate_sides(built, generator)
            if instantiated is None:
                continue
            lhs, rhs, rule_type, _ = instantiated
            try:
                if rule_type.name == "Fun":
                    input_term = generator.literal(rule_type.args[0])
                    input_value = eval_obj(input_term)
                    disagree = (apply_fn(lhs, input_value)
                                != apply_fn(rhs, input_value))
                    probe = C.invoke(lhs, input_term)
                elif rule_type.name == "Pred":
                    input_term = generator.literal(rule_type.args[0])
                    input_value = eval_obj(input_term)
                    disagree = (test_pred(lhs, input_value)
                                != test_pred(rhs, input_value))
                    probe = C.test(lhs, input_term)
                else:
                    disagree = eval_obj(lhs) != eval_obj(rhs)
                    probe = lhs
            except (GenerationError, KolaError, EvalError, TypeError):
                continue
            (refuting if disagree else agreeing).append(probe)
        return (refuting + agreeing)[:max(want, len(refuting))]


def _steered_weights(built: Rule) -> dict[str, float]:
    """Generator weight multipliers boosting the LHS's operators —
    the generalization of the hand-tuned mutant-hunting weights in
    ``tests/test_fuzz_oracle.py``."""
    from repro.fuzz.generator import DEFAULT_WEIGHTS
    weights = {node.op: 6.0 for node in built.lhs.subterms()
               if node.op in DEFAULT_WEIGHTS}
    weights.setdefault("const", 3.0)
    return weights
