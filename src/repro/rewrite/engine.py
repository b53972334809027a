"""The rewrite engine: applying declarative rules to KOLA terms.

The engine realizes the paper's model of rule-based optimization — pure
structural matching, no head or body routines — with the two mechanisms
that make the paper's *small* rules effective on *large* queries:

* **Chain windows.**  A rule whose head is a composition (e.g. rule 11,
  ``iterate(p,f) o iterate(q,g) => ...``) is tried against every
  contiguous window of every composition chain, so it fires inside the
  long pipelines produced by translation (Figure 7) without any rule
  author effort.

* **Invocation peeling.**  A rule whose head is an invocation (e.g.
  rule 19, ``iterate(Kp(T), <id, Kf(B)>) ! A => ...``) is tried against
  every suffix of an application ``(f1 o ... o fn) ! x`` — the engine
  "peels" the chain at each split, matching the rule against
  ``(fi o ... o fn) ! x`` and recomposing the prefix afterwards.  This is
  exactly the Step-2 "bottom-out" move of the hidden-join strategy.

Both mechanisms are *engine* features, not rule features: the rules stay
declarative.

The engine has two dispatch paths.  The default is **compiled**: rule
lists are indexed by LHS head operator (:mod:`repro.rewrite.ruleindex`)
and compiled into a discrimination tree
(:mod:`repro.rewrite.discrimination`), so one traversal of a subject
node yields the full ordered candidate set with bindings already
accumulated — per-rule ``match()`` walks survive only as the fallback
for multi-segment chain patterns.  Whole subtrees that contain no
candidate head operator are pruned using the per-term
contained-operator cache.  Its ``normalize`` is **incremental**:
instead of rescanning from the root after every local rewrite, it
resumes the scan at the changed region (the untouched, already-rejected
prefix of the traversal is provably still rejected — see
``_resume_path``).  It also carries a cross-call **normal-form cache**
keyed by ``(interned term, rule-set generation, strategy)``, so
repeated simplification passes over shared subqueries are O(1) lookups
that still replay their derivation steps and fire counts.
``Engine(indexed=False)`` is the **linear** reference: every rule is
attempted at every node, and ``normalize`` restarts from the root after
every step with no cache.  The compiled path preserves the linear
engine's semantics bit for bit — same fixpoints, same derivation steps,
same per-rule fire counts — which the equivalence property tests check.

An :class:`EngineStats` counter records nodes visited, match attempts,
attempts skipped by the index, pruned subtrees, trie-node visits,
candidate-set sizes, normal-form-cache traffic and canon-cache traffic,
which the benchmarks read to quantify matching costs.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.errors import TypeInferenceError
from repro.core.terms import Term
from repro.core.types import Inferencer, alpha_equivalent
from repro.rewrite.discrimination import CompiledRuleSet, compiled_ruleset
from repro.rewrite.match import match
from repro.rewrite.pattern import (build_chain, canon, canon_cache_stats,
                                   flatten_compose, instantiate)
from repro.rewrite.rule import NO_ORACLE, PropertyOracle, Rule
from repro.rewrite.ruleindex import rule_index
from repro.rewrite.trace import Derivation


def _typed_apply_ok(before: Term, after: Term) -> bool:
    """For rules flagged ``needs_typed_apply``: the instantiated result
    must type-check and have the same (schema-independent) principal
    type as what it replaces — otherwise the rewrite would narrow or
    break the type at this position."""
    try:
        before_inf, after_inf = Inferencer(), Inferencer()
        before_type = before_inf.resolve(before_inf.infer(before))
        after_type = after_inf.resolve(after_inf.infer(after))
    except TypeInferenceError:
        return False
    return alpha_equivalent(before_type, after_type)


class MaxStepsExceededWarning(RuntimeWarning):
    """``normalize`` hit its step cap before reaching a fixpoint."""


@dataclass
class EngineStats:
    """Work counters for benchmark instrumentation.

    ``canon_cache_hits``/``canon_cache_misses`` report the process-wide
    canon memo traffic since this stats object was created (or last
    ``reset``) — the memo itself lives on the interned terms.

    The trie counters quantify compiled dispatch: ``trie_retrievals``
    is the number of single-traversal lookups (one per node, window or
    peel view), ``trie_node_visits`` the total trie nodes walked, and
    ``trie_candidates`` the summed size of the per-node candidate sets
    the engine actually iterated.  ``nf_cache_hits``/``misses``/
    ``evictions`` track the engine's cross-call normal-form cache.

    ``attempt_log``, when set to a list, receives the name of every
    rule whose match is attempted, in attempt order — the equivalence
    suite uses it to check that compiled dispatch only ever *removes*
    attempts the linear reference makes, without reordering the
    survivors.
    """

    nodes_visited: int = 0
    match_attempts: int = 0
    rewrites: int = 0
    attempts_skipped_by_index: int = 0
    subtrees_pruned: int = 0
    trie_retrievals: int = 0
    trie_node_visits: int = 0
    trie_candidates: int = 0
    nf_cache_hits: int = 0
    nf_cache_misses: int = 0
    nf_cache_evictions: int = 0
    per_rule: dict[str, int] = field(default_factory=dict)
    attempt_log: list | None = field(default=None, repr=False)
    _canon_base: tuple[int, int] = field(default=(0, 0), repr=False)

    def __post_init__(self) -> None:
        self._canon_base = canon_cache_stats()

    @property
    def canon_cache_hits(self) -> int:
        return canon_cache_stats()[0] - self._canon_base[0]

    @property
    def canon_cache_misses(self) -> int:
        return canon_cache_stats()[1] - self._canon_base[1]

    def count_rule(self, name: str) -> None:
        self.rewrites += 1
        self.per_rule[name] = self.per_rule.get(name, 0) + 1

    def reset(self) -> None:
        self.nodes_visited = 0
        self.match_attempts = 0
        self.rewrites = 0
        self.attempts_skipped_by_index = 0
        self.subtrees_pruned = 0
        self.trie_retrievals = 0
        self.trie_node_visits = 0
        self.trie_candidates = 0
        self.nf_cache_hits = 0
        self.nf_cache_misses = 0
        self.nf_cache_evictions = 0
        self.per_rule = {}
        if self.attempt_log is not None:
            self.attempt_log.clear()
        self._canon_base = canon_cache_stats()

    def report(self) -> str:
        """Fire counts per rule, most-fired first."""
        lines = [f"{count:>5}  {name}" for name, count in
                 sorted(self.per_rule.items(), key=lambda kv: -kv[1])]
        return "\n".join(lines) if lines else "(no rewrites)"


@dataclass(frozen=True)
class RewriteResult:
    """Outcome of one successful rewrite step."""

    term: Term
    rule: Rule
    bindings: dict[str, Term]
    path: tuple[int, ...]


@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of a ``normalize`` run.

    Attributes:
        term: the final (canonical) form.
        steps_used: number of rewrites applied.
        reached_fixpoint: ``True`` when no rule applies to ``term``;
            ``False`` means ``max_steps`` was exhausted first and
            ``term`` is *not* a normal form.
    """

    term: Term
    steps_used: int
    reached_fixpoint: bool


def _resume_path(old: Term, new: Term,
                 rewrite_path: tuple[int, ...]) -> tuple[int, ...]:
    """Where an incremental ``normalize`` may resume scanning after a
    step rewrote ``old`` into ``new`` at ``rewrite_path``.

    The resumable prefix rests on two facts about a first-match scan:

    * every node strictly before the match position in traversal order
      was tried and rejected, and a node's match depends only on its own
      subtree — so unchanged earlier subtrees are still rejected;
    * interning makes "unchanged" an identity test, so the divergence
      point of ``old`` vs ``new`` is found by walking the single chain
      of differing children.

    The scan must therefore revisit only (a) the ancestors of the
    changed region (their subtrees changed under them) and (b)
    everything at or after the *shallower* of the match position and the
    divergence point — the match position because nothing below it on
    the other side was scanned yet, the divergence point because
    canonicalization may have restructured the spine above the match.
    Returning ``()`` degenerates to a full rescan, so this is always
    safe.
    """
    path: list[int] = []
    while True:
        if (old.op != new.op or old.label != new.label
                or len(old.args) != len(new.args)):
            break
        differing = [index for index, (a, b)
                     in enumerate(zip(old.args, new.args)) if a is not b]
        if len(differing) != 1:
            break
        path.append(differing[0])
        old, new = old.args[differing[0]], new.args[differing[0]]
    diverged = tuple(path)
    if len(rewrite_path) <= len(diverged):
        return rewrite_path
    return diverged


class Engine:
    """Applies rules to terms under a traversal strategy.

    Args:
        oracle: decides precondition goals for conditional rules
            (defaults to an oracle that establishes nothing, so
            conditional rules are inert).
        indexed: ``True`` (default) dispatches through the rule pool's
            discrimination tree
            (:class:`~repro.rewrite.discrimination.CompiledRuleSet`),
            prunes subtrees that contain no candidate head operator,
            resumes ``normalize`` scans at the changed region and keeps
            a cross-call normal-form cache keyed by ``(interned term,
            rule-set generation, strategy)``.  Cache hits replay the
            memoized derivation steps and fire counts; only the
            traversal-work counters (nodes, attempts) are skipped.
            ``False`` gives the reference linear engine: every rule
            attempted at every node, ``normalize`` restarting from the
            root after every step, no cache.

    Fixpoints, derivations and per-rule fire counts are identical on
    both paths.
    """

    #: Cap on memoized normal forms per engine (LRU eviction).
    NF_CACHE_MAX = 4096

    def __init__(self, oracle: PropertyOracle = NO_ORACLE, *,
                 indexed: bool = True) -> None:
        self.oracle = oracle
        self.indexed = indexed
        self.stats = EngineStats()
        self._nf_cache: dict = {}
        #: Trie hits by ``(compiled set generation, interned term)``
        #: while a :meth:`retrieval_memo` block is open, else ``None``.
        self._retrieved: dict | None = None

    def nf_cache_info(self) -> dict:
        """Size and traffic of the normal-form cache (diagnostics)."""
        return {"size": len(self._nf_cache),
                "max_size": self.NF_CACHE_MAX,
                "hits": self.stats.nf_cache_hits,
                "misses": self.stats.nf_cache_misses,
                "evictions": self.stats.nf_cache_evictions}

    @contextmanager
    def retrieval_memo(self):
        """Within the block, each (compiled rule set, term) pair is
        retrieved from its trie once: the direct, window and peel
        retrievals of every call share one table, which the block's
        end drops.  Retrieval is a pure function of the pair, so
        results are unchanged; only ``trie_retrievals`` and
        ``trie_node_visits`` count fewer walks.  Nested blocks share
        the outermost table."""
        outer = self._retrieved
        if outer is None:
            self._retrieved = {}
        try:
            yield
        finally:
            self._retrieved = outer

    def _retrieve(self, compiled: CompiledRuleSet, term: Term) -> list:
        """``compiled.retrieve(term)``, through the open
        :meth:`retrieval_memo` table if any."""
        table = self._retrieved
        if table is None:
            return compiled.retrieve(term, self.stats)
        key = (compiled.generation, term)
        hits = table.get(key)
        if hits is None:
            hits = table[key] = compiled.retrieve(term, self.stats)
        return hits

    def _as_candidates(self, rules):
        """Normalize a rule collection (list,
        :class:`~repro.rewrite.ruleindex.RuleIndex` or
        :class:`CompiledRuleSet`) for dispatch: the (memoized)
        :class:`CompiledRuleSet` on the compiled path, an iterable of
        the rules in priority order on the linear one."""
        if isinstance(rules, CompiledRuleSet):
            return rules if self.indexed else rules.index
        return compiled_ruleset(rule_index(rules)) if self.indexed else rules

    def _note_attempt(self, one_rule: Rule) -> None:
        self.stats.match_attempts += 1
        log = self.stats.attempt_log
        if log is not None:
            log.append(one_rule.name)

    # -- single-node application ------------------------------------------------

    def try_rule_at(self, node: Term, rule: Rule) -> tuple[Term, dict] | None:
        """Try ``rule`` at ``node`` itself (direct, windowed, or peeled).

        ``node`` must be canonical.  Returns the replacement term for the
        node plus the bindings used, or ``None``.
        """
        self._note_attempt(rule)
        bindings = match(rule.lhs, node)
        if bindings is not None and rule.check_preconditions(
                bindings, self.oracle):
            replacement = canon(instantiate(rule.rhs, bindings))
            if (not rule.needs_typed_apply
                    or _typed_apply_ok(node, replacement)):
                self.stats.count_rule(rule.name)
                return replacement, bindings

        if node.op == "compose" and rule.lhs.op == "compose":
            result = self._try_windows(node, rule)
            if result is not None:
                return result
        if node.op == "invoke" and rule.lhs.op == "invoke":
            result = self._try_peels(node, rule)
            if result is not None:
                return result
        return None

    def _try_windows(self, node: Term, rule: Rule) -> tuple[Term, dict] | None:
        factors = flatten_compose(node)
        count = len(factors)
        for start in range(count):
            # length-1 windows are plain subterm matches, found by the
            # traversal when it visits the factor itself; length == count
            # at start 0 is the direct match already tried.
            for end in range(start + 2, count + 1):
                if start == 0 and end == count:
                    continue
                window = build_chain(factors[start:end])
                self._note_attempt(rule)
                bindings = match(rule.lhs, window)
                if bindings is None or not rule.check_preconditions(
                        bindings, self.oracle):
                    continue
                replacement = instantiate(rule.rhs, bindings)
                if (rule.needs_typed_apply
                        and not _typed_apply_ok(window, replacement)):
                    continue
                new_factors = (factors[:start]
                               + flatten_compose(replacement)
                               + factors[end:])
                self.stats.count_rule(rule.name)
                return canon(build_chain(new_factors)), bindings
        return None

    def _try_peels(self, node: Term, rule: Rule) -> tuple[Term, dict] | None:
        fn, arg = node.args
        factors = flatten_compose(fn)
        for split in range(1, len(factors)):
            view = Term("invoke", (build_chain(factors[split:]), arg))
            self._note_attempt(rule)
            bindings = match(rule.lhs, view)
            if bindings is None or not rule.check_preconditions(
                    bindings, self.oracle):
                continue
            inner = instantiate(rule.rhs, bindings)
            if (rule.needs_typed_apply
                    and not _typed_apply_ok(view, inner)):
                continue
            prefix = build_chain(factors[:split])
            self.stats.count_rule(rule.name)
            return canon(Term("invoke", (prefix, inner))), bindings
        return None

    # -- whole-term rewriting --------------------------------------------------------

    def rewrite_once(self, term: Term, rules, strategy: str = "topdown",
                     ) -> RewriteResult | None:
        """Apply the first applicable rule at the first matching position.

        ``rules`` is a rule list, a prebuilt
        :class:`~repro.rewrite.ruleindex.RuleIndex` or a compiled set.
        ``strategy`` is ``"topdown"`` (outermost-first, the default) or
        ``"bottomup"`` (innermost-first).  Rules are tried in list order
        at each position, so list order is priority order.
        """
        term = canon(term)
        candidates = self._as_candidates(rules)
        if self._prunable(term, candidates):
            return None
        return self._rewrite_at(term, candidates, strategy, (), None, {})

    def _prunable(self, node: Term, rules) -> bool:
        """True when no rule in ``rules`` can match anywhere inside
        ``node`` (decided from head operators alone)."""
        if (not isinstance(rules, CompiledRuleSet)
                or rules.index.relevant_to(node.ops)):
            return False
        self.stats.subtrees_pruned += 1
        return True

    def _rewrite_at(self, node: Term, rules, strategy: str,
                    path: tuple[int, ...],
                    resume: tuple[int, ...] | None,
                    windows: dict) -> RewriteResult | None:
        """First-match scan of ``node``'s subtree.

        ``resume`` skips the already-rejected prefix of the traversal:
        children before ``resume[0]`` are not revisited, the child at
        ``resume[0]`` resumes with ``resume[1:]``, and later children
        are scanned in full.  Ancestor nodes on the resume path are
        themselves retried (their subtrees changed under them).  Empty
        or ``None`` resume is a full scan.  ``windows`` is the scan's
        window table (see :meth:`_window_hits`).
        """
        self.stats.nodes_visited += 1

        if strategy == "topdown":
            hit = self._try_rules(node, rules, path, windows)
            if hit is not None:
                return hit
        start = resume[0] if resume else 0
        for index in range(start, len(node.args)):
            child = node.args[index]
            child_resume = resume[1:] if (resume and index == start) else None
            if not child_resume and self._prunable(child, rules):
                continue
            result = self._rewrite_at(child, rules, strategy,
                                      path + (index,), child_resume,
                                      windows)
            if result is not None:
                new_args = (node.args[:index] + (result.term,)
                            + node.args[index + 1:])
                return RewriteResult(canon(node.with_args(new_args)),
                                     result.rule, result.bindings,
                                     result.path)
        if strategy == "bottomup":
            return self._try_rules(node, rules, path, windows)
        return None

    def _try_rules(self, node: Term, rules, path: tuple[int, ...],
                   windows: dict) -> RewriteResult | None:
        if isinstance(rules, CompiledRuleSet):
            for _, one_rule, new_node, bindings in \
                    self._iter_compiled_hits(node, rules, windows):
                return RewriteResult(new_node, one_rule, bindings, path)
            return None
        for one_rule in rules:
            outcome = self.try_rule_at(node, one_rule)
            if outcome is not None:
                new_node, bindings = outcome
                return RewriteResult(new_node, one_rule, bindings, path)
        return None

    # -- compiled (discrimination-tree) dispatch -------------------------------

    def _iter_compiled_hits(self, node: Term, compiled: CompiledRuleSet,
                            windows: dict):
        """Yield ``(position, rule, replacement, bindings)`` for every
        rule that fires *at* ``node``, in priority order.

        This is the compiled counterpart of looping
        :meth:`try_rule_at` over an index's candidate list, with the
        same phase order per rule — direct, then chain windows, then
        invocation peels — and the same first-outcome-per-rule
        semantics.  One trie retrieval replaces all direct ``match()``
        walks; window and peel views are likewise retrieved once per
        view (not once per rule x view) and consumed lazily, so a node
        with no compose/invoke-headed candidates never builds them.
        Being a generator, first-match consumers stop at the first hit
        while :meth:`successors` drains every rule.
        """
        stats = self.stats
        hits = self._retrieve(compiled, node)
        direct: dict[int, dict | None] = {
            position: bindings for position, _, bindings in hits}
        if node.op == "compose":
            extra = compiled.compose_entries
        elif node.op == "invoke":
            extra = compiled.invoke_entries
        else:
            extra = ()
        if extra:
            merged = {position: one_rule for position, one_rule, _ in hits}
            for position, one_rule in extra:
                merged[position] = one_rule
            worklist = sorted(merged.items())
        else:
            worklist = [(position, one_rule)
                        for position, one_rule, _ in hits]
        stats.trie_candidates += len(worklist)
        stats.attempts_skipped_by_index += (len(compiled.rules)
                                            - len(worklist))
        window_state: list | None = None
        peel_state: list | None = None
        for position, one_rule in worklist:
            if position in direct:
                bindings = direct[position]
                self._note_attempt(one_rule)
                if bindings is None:  # incomplete pattern: full fallback
                    bindings = match(one_rule.lhs, node)
                if bindings is not None and one_rule.check_preconditions(
                        bindings, self.oracle):
                    replacement = canon(instantiate(one_rule.rhs, bindings))
                    if (not one_rule.needs_typed_apply
                            or _typed_apply_ok(node, replacement)):
                        stats.count_rule(one_rule.name)
                        yield position, one_rule, replacement, bindings
                        continue
            if node.op == "compose" and one_rule.lhs.op == "compose":
                if window_state is None:
                    window_state = self._window_hits(node, compiled,
                                                     windows)
                factors, table = window_state
                outcome = self._consume_windows(one_rule, position,
                                                factors, table)
                if outcome is not None:
                    yield position, one_rule, outcome[0], outcome[1]
            elif node.op == "invoke" and one_rule.lhs.op == "invoke":
                if peel_state is None:
                    peel_state = self._peel_hits(node, compiled)
                factors, table = peel_state
                outcome = self._consume_peels(one_rule, position,
                                              factors, table)
                if outcome is not None:
                    yield position, one_rule, outcome[0], outcome[1]

    def _window_hits(self, node: Term, compiled: CompiledRuleSet,
                     windows: dict) -> list:
        """Tabulate the trie hits of every chain window of ``node`` per
        rule position, in window order (the order :meth:`_try_windows`
        enumerates).

        ``windows`` maps ``(suffix node, length)`` to ``(window, hits)``
        for one scan.  Every window of a chain suffix is a window of
        each chain ending in that suffix, so a scan builds and retrieves
        each window once, not once per enclosing suffix node; entries
        are never mutated once stored.  The whole chain is never
        retrieved as a window: the direct match covers it.
        """
        suffixes = [node]  # node is canonical: a right-associated chain
        while suffixes[-1].op == "compose":
            suffixes.append(suffixes[-1].args[1])
        factors = [suffix.args[0] for suffix in suffixes[:-1]]
        factors.append(suffixes[-1])
        count = len(factors)
        # Right to left, so each window is one compose node over the
        # next-shorter window (the one starting a factor later).
        for start in range(count - 2, -1, -1):
            suffix = suffixes[start]
            for length in range(2, count - start + 1):
                key = (suffix, length)
                if key in windows or (start == 0 and length == count):
                    continue
                if start + length == count:
                    window = suffix
                else:
                    tail = (factors[start + 1] if length == 2 else
                            windows[(suffixes[start + 1], length - 1)][0])
                    window = Term("compose", (factors[start], tail))
                # Wildcard hits are dropped: windows are only offered
                # to compose-headed rules.
                windows[key] = (window, tuple(
                    (position, bindings) for position, one_rule, bindings
                    in self._retrieve(compiled, window)
                    if one_rule.lhs.op == "compose"))
        table: dict[int, list] = {}
        for start in range(count):
            suffix = suffixes[start]
            for end in range(start + 2, count + 1):
                if start == 0 and end == count:
                    continue
                window, hits = windows[(suffix, end - start)]
                for position, bindings in hits:
                    table.setdefault(position, []).append(
                        (start, end, window, bindings))
        return [factors, table]

    def _consume_windows(self, one_rule: Rule, position: int,
                         factors: list[Term],
                         table: dict) -> tuple[Term, dict] | None:
        """The compiled counterpart of :meth:`_try_windows` for one
        rule: same window order, same precondition/typed-apply gating,
        same rebuild."""
        for start, end, window, bindings in table.get(position, ()):
            self._note_attempt(one_rule)
            if bindings is None:
                bindings = match(one_rule.lhs, window)
            if bindings is None or not one_rule.check_preconditions(
                    bindings, self.oracle):
                continue
            replacement = instantiate(one_rule.rhs, bindings)
            if (one_rule.needs_typed_apply
                    and not _typed_apply_ok(window, replacement)):
                continue
            new_factors = (factors[:start]
                           + flatten_compose(replacement)
                           + factors[end:])
            self.stats.count_rule(one_rule.name)
            return canon(build_chain(new_factors)), bindings
        return None

    def _peel_hits(self, node: Term, compiled: CompiledRuleSet) -> list:
        """Retrieve every invocation peel of ``node`` against the trie
        once, tabulating hits per rule position in split order."""
        fn, arg = node.args
        factors = flatten_compose(fn)
        table: dict[int, list] = {}
        for split in range(1, len(factors)):
            view = Term("invoke", (build_chain(factors[split:]), arg))
            for position, one_rule, bindings in \
                    self._retrieve(compiled, view):
                if one_rule.lhs.op != "invoke":
                    continue  # peels are only offered to invoke heads
                table.setdefault(position, []).append(
                    (split, view, bindings))
        return [factors, table]

    def _consume_peels(self, one_rule: Rule, position: int,
                       factors: list[Term],
                       table: dict) -> tuple[Term, dict] | None:
        """The compiled counterpart of :meth:`_try_peels` for one rule."""
        for split, view, bindings in table.get(position, ()):
            self._note_attempt(one_rule)
            if bindings is None:
                bindings = match(one_rule.lhs, view)
            if bindings is None or not one_rule.check_preconditions(
                    bindings, self.oracle):
                continue
            inner = instantiate(one_rule.rhs, bindings)
            if (one_rule.needs_typed_apply
                    and not _typed_apply_ok(view, inner)):
                continue
            prefix = build_chain(factors[:split])
            self.stats.count_rule(one_rule.name)
            return canon(Term("invoke", (prefix, inner))), bindings
        return None

    def normalize(self, term: Term, rules,
                  max_steps: int = 1000, strategy: str = "topdown",
                  derivation: Derivation | None = None) -> Term:
        """Rewrite with ``rules`` until no rule applies (a fixpoint).

        Records each step into ``derivation`` when given.  Stops after
        ``max_steps`` rewrites (non-terminating rule sets are a rule-
        authoring bug; the cap makes it observable instead of hanging) —
        and *warns* (:class:`MaxStepsExceededWarning`) when the cap was
        hit before a fixpoint, instead of silently returning a
        non-normal form.  Use :meth:`normalize_result` to observe
        ``steps_used``/``reached_fixpoint`` programmatically.
        """
        result = self.normalize_result(term, rules, max_steps=max_steps,
                                       strategy=strategy,
                                       derivation=derivation)
        if not result.reached_fixpoint:
            warnings.warn(
                f"normalize stopped after max_steps={max_steps} rewrites "
                "without reaching a fixpoint; the returned term is not a "
                "normal form (non-terminating rule set?)",
                MaxStepsExceededWarning, stacklevel=2)
        return result.term

    def normalize_result(self, term: Term, rules,
                         max_steps: int = 1000, strategy: str = "topdown",
                         derivation: Derivation | None = None,
                         ) -> NormalizeResult:
        """Like :meth:`normalize`, but report how the run ended.

        Returns a :class:`NormalizeResult` whose ``reached_fixpoint``
        flag is exact: when the cap is hit, one extra (uncounted) probe
        decides whether the final term happens to be a normal form.
        """
        candidates = self._as_candidates(rules)
        current = canon(term)
        key = None
        if self.indexed:
            key = (current, candidates.generation, strategy)
            cached = self._nf_cache.get(key)
            if cached is not None and cached[0].steps_used <= max_steps:
                # Replay the memoized steps so fire counts and the
                # derivation come out identical to a fresh run; only
                # the traversal work (nodes, attempts) is skipped.
                # Re-inserting refreshes recency: eviction is LRU, so
                # hot normal forms survive skewed traffic.
                del self._nf_cache[key]
                self._nf_cache[key] = cached
                self.stats.nf_cache_hits += 1
                for one_rule, before, after, step_path in cached[1]:
                    self.stats.count_rule(one_rule.name)
                    if derivation is not None:
                        derivation.record(one_rule, before, after,
                                          step_path)
                return cached[0]
            self.stats.nf_cache_misses += 1
        steps_taken: list | None = [] if key is not None else None
        resume: tuple[int, ...] | None = None
        windows: dict = {}  # this run's window table (_window_hits)
        for step in range(max_steps):
            if self._prunable(current, candidates):
                return self._nf_finish(key, steps_taken,
                                       NormalizeResult(current, step, True))
            result = self._rewrite_at(current, candidates, strategy, (),
                                      resume, windows)
            if result is None:
                return self._nf_finish(key, steps_taken,
                                       NormalizeResult(current, step, True))
            if derivation is not None:
                derivation.record(result.rule, current, result.term,
                                  result.path)
            if steps_taken is not None:
                steps_taken.append((result.rule, current, result.term,
                                    result.path))
            if self.indexed:
                resume = _resume_path(current, result.term, result.path)
            current = result.term
        # Cap hit: never memoized (the run may not have converged).
        return NormalizeResult(current, max_steps,
                               self._is_normal_form(current, candidates,
                                                    strategy, resume,
                                                    windows))

    def _nf_finish(self, key, steps_taken,
                   outcome: NormalizeResult) -> NormalizeResult:
        """Memoize a converged ``normalize`` run (LRU-bounded: hits
        refresh recency, the dict head is the least-recent entry)."""
        if key is not None:
            cache = self._nf_cache
            if key not in cache:
                if len(cache) >= self.NF_CACHE_MAX:
                    del cache[next(iter(cache))]
                    self.stats.nf_cache_evictions += 1
                cache[key] = (outcome, tuple(steps_taken))
        return outcome

    def _is_normal_form(self, term: Term, rules, strategy: str,
                        resume: tuple[int, ...] | None,
                        windows: dict) -> bool:
        """One probe scan that does not perturb the fire-count stats."""
        if self._prunable(term, rules):
            return True
        probe = self._rewrite_at(term, rules, strategy, (), resume,
                                 windows)
        if probe is None:
            return True
        self.stats.rewrites -= 1
        name = probe.rule.name
        remaining = self.stats.per_rule.get(name, 1) - 1
        if remaining:
            self.stats.per_rule[name] = remaining
        else:
            self.stats.per_rule.pop(name, None)
        return False

    def apply_rule(self, term: Term, one_rule: Rule) -> Term | None:
        """Apply ``one_rule`` once anywhere in ``term`` (or ``None``).

        Convenience for derivation replays of the paper's figures.
        """
        result = self.rewrite_once(term, [one_rule])
        return result.term if result else None

    def rewrite_everywhere(self, term: Term,
                           one_rule: Rule) -> list[RewriteResult]:
        """All single-step rewrites of ``term`` by ``one_rule`` — one
        result per position where the rule matches (at most one per
        node, including window/peel positions).  Used by the equational
        prover's successor enumeration and by overlap analysis."""
        term = canon(term)
        results: list[RewriteResult] = []
        head = one_rule.lhs.op
        if self.indexed and head != "meta" and head not in term.ops:
            self.stats.subtrees_pruned += 1
            return results
        self._rewrite_everywhere_at(term, one_rule, (), results)
        return results

    def rewrites_at(self, node: Term,
                    rules) -> list[tuple[Rule, Term, dict]]:
        """All rule firings *at* ``node`` itself — direct matches, chain
        windows and invocation peels, but no descent into subterms — in
        priority order, at most one outcome per rule.

        This is the batch-dispatch surface the equality-saturation
        driver uses: every e-class representative is the root of its own
        view, so node-local retrieval (one discrimination-trie traversal
        under compiled dispatch) covers the whole graph without the
        per-subtree duplication of :meth:`successors`.  Returned terms
        are canonical replacements for ``node`` as a whole.
        """
        node = canon(node)
        candidates = self._as_candidates(rules)
        if isinstance(candidates, CompiledRuleSet):
            return [(one_rule, new_node, bindings)
                    for _, one_rule, new_node, bindings
                    in self._iter_compiled_hits(node, candidates, {})]
        outcomes: list[tuple[Rule, Term, dict]] = []
        for one_rule in candidates:
            outcome = self.try_rule_at(node, one_rule)
            if outcome is not None:
                outcomes.append((one_rule, outcome[0], outcome[1]))
        return outcomes

    def successors(self, term: Term, rules) -> list[RewriteResult]:
        """All single-step rewrites of ``term`` by any rule in the pool
        — the union of :meth:`rewrite_everywhere` over every rule, in
        rule-major order (all positions of rule 0, then rule 1, ...).

        With compiled dispatch one traversal of ``term`` retrieves the
        candidates of *all* rules at once instead of re-walking the
        term once per rule; the equational prover's successor
        enumeration is the intended caller.
        """
        term = canon(term)
        candidates = self._as_candidates(rules)
        if isinstance(candidates, CompiledRuleSet):
            if self._prunable(term, candidates):
                return []
            entries: list[tuple[int, int, RewriteResult]] = []
            self._successors_at(term, candidates, (), entries, [0], {})
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            return [entry[2] for entry in entries]
        results: list[RewriteResult] = []
        for one_rule in candidates:
            results.extend(self.rewrite_everywhere(term, one_rule))
        return results

    def _successors_at(self, node: Term, compiled: CompiledRuleSet,
                       path: tuple[int, ...],
                       entries: list, counter: list[int],
                       windows: dict) -> None:
        """Collect ``(rule position, preorder index, result)`` triples
        for every rewrite in ``node``'s subtree, splicing child results
        back into the whole term on the way up (sorting by the triple's
        first two fields then reproduces the per-rule enumeration
        order of :meth:`rewrite_everywhere`)."""
        preorder = counter[0]
        counter[0] += 1
        for position, one_rule, new_node, bindings in \
                self._iter_compiled_hits(node, compiled, windows):
            entries.append((position, preorder,
                            RewriteResult(new_node, one_rule, bindings,
                                          path)))
        for index, child in enumerate(node.args):
            if self._prunable(child, compiled):
                continue
            before = len(entries)
            self._successors_at(child, compiled, path + (index,),
                                entries, counter, windows)
            for slot in range(before, len(entries)):
                rule_pos, pre_index, inner = entries[slot]
                new_args = (node.args[:index] + (inner.term,)
                            + node.args[index + 1:])
                entries[slot] = (rule_pos, pre_index, RewriteResult(
                    canon(node.with_args(new_args)), inner.rule,
                    inner.bindings, inner.path))

    def _rewrite_everywhere_at(self, node: Term, one_rule: Rule,
                               path: tuple[int, ...],
                               results: list[RewriteResult]) -> None:
        outcome = self.try_rule_at(node, one_rule)
        if outcome is not None:
            new_node, bindings = outcome
            results.append(RewriteResult(new_node, one_rule, bindings,
                                         path))
        head = one_rule.lhs.op
        for index, child in enumerate(node.args):
            if self.indexed and head != "meta" and head not in child.ops:
                self.stats.subtrees_pruned += 1
                continue
            before = len(results)
            self._rewrite_everywhere_at(child, one_rule,
                                        path + (index,), results)
            # rebuild whole-term results for rewrites found in children
            for position in range(before, len(results)):
                inner = results[position]
                new_args = (node.args[:index] + (inner.term,)
                            + node.args[index + 1:])
                results[position] = RewriteResult(
                    canon(node.with_args(new_args)), inner.rule,
                    inner.bindings, inner.path)
