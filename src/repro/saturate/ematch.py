"""E-matching: rule patterns matched against e-classes.

Term-level matching (:mod:`repro.rewrite.match`) asks "does this
pattern match this *term*?"; e-matching asks "does this pattern match
*anything this e-class represents*?" — metavariables bind to whole
e-classes instead of subterms, so one match covers every spelling of
the bound subterm at once.  This is what makes saturation complete
where rewriting sampled representative terms is not: a derivation that
must grow a term before it pays off (the hidden-join untangling does,
repeatedly) dies under best-representative sampling, because the
grown intermediate spelling is represented only virtually and is never
anyone's smallest member.  The e-matcher sees it regardless of any
extraction bias.

The matcher mirrors the term matcher's two refinements:

* **Sorted metavariables** — a metavariable only binds to a class of
  its sort (class sorts are read off each class's best known term).
* **Associative chain matching** — compose chains are right-associated
  binary e-nodes, so a chain *suffix* is itself a class.  Pattern
  factor lists walk the compose e-nodes; a bare function metavariable
  absorbs a run of factor classes (bound as a tuple, materialized as
  fresh compose e-nodes only if the rule fires).  Top-level chain
  patterns may also match a *prefix window* with a leftover suffix
  class — and because every chain suffix is its own class, matching
  prefixes over all classes covers every window position the term
  engine enumerates.

A pass tries a rule only where it can match: at classes holding an
e-node of its LHS root operator whose **reachable operators** — their
e-nodes' operators plus their children's, computed once per pass to a
fixpoint because classes can be cyclic — include every operator the
LHS names (metavariables and ``compose`` aside).  Every match needs
those operators at or below its root, so the filter drops no match,
and a pruned (rule, class) walk spends no visit credit.

Instantiation builds the rule's RHS directly as e-nodes over the bound
classes (:meth:`~repro.saturate.egraph.EGraph.add_enode`) — no ground
term is ever constructed, so applying a rule to a class whose subterm
has a thousand spellings costs the same as applying it to one.

Everything is bounded (`max_bindings` per pattern node, chain depth) so
cyclic classes and highly ambiguous chains cannot blow up a round; the
caps trade completeness for termination exactly like the saturation
budgets do.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.terms import Sort, Term, sort_of
from repro.rewrite.pattern import (build_chain, canon, flatten_compose,
                                   is_bare_segment_var)
from repro.rewrite.rule import Rule
from repro.saturate.egraph import EGraph

#: A binding value: one class id, or a tuple of class ids for a chain
#: segment absorbed by a bare function metavariable.
Binding = "int | tuple[int, ...]"


def rule_list(rules) -> list[Rule]:
    """The plain priority-ordered rule list behind any dispatch tier
    (compiled set, head index, or already a list)."""
    from repro.rewrite.discrimination import CompiledRuleSet
    from repro.rewrite.ruleindex import RuleIndex
    if isinstance(rules, CompiledRuleSet):
        rules = rules.index
    if isinstance(rules, RuleIndex):
        return list(rules.rules)
    return list(rules)


class EMatch:
    """One successful match: the class it fired on, the bindings, and
    how the match was framed — the leftover chain-suffix class for
    window matches, or the peeled-off chain-prefix classes for
    invocation-peel matches (mutually exclusive)."""

    __slots__ = ("rule", "cid", "bindings", "suffix", "peel_prefix",
                 "key")

    def __init__(self, rule: Rule, cid: int,
                 bindings: dict[str, Binding],
                 suffix: int | None = None,
                 peel_prefix: tuple[int, ...] | None = None) -> None:
        self.rule = rule
        self.cid = cid
        self.bindings = bindings
        self.suffix = suffix
        self.peel_prefix = peel_prefix
        #: The rule name, the root class and the framing plus sorted
        #: bindings, with ids as the pass enumerated them (so canonical
        #: then); set by :func:`_dedup`, which every match passes.
        self.key: tuple | None = None


class EMatcher:
    """Matches a rule pool against every class of one e-graph."""

    def __init__(self, egraph: EGraph, rules,
                 max_bindings: int = 24, max_chain: int = 10,
                 max_visits: int = 1_000_000) -> None:
        self.egraph = egraph
        self.rules = rule_list(rules)
        self.max_bindings = max_bindings
        self.max_chain = max_chain
        #: Per-:meth:`match_all` budget of pattern-walk steps.  Chain
        #: patterns against chain-heavy classes can enumerate
        #: exponentially many decompositions (every peel point x every
        #: respelling) even when few of them *match* — ``max_bindings``
        #: only caps successes, so failed exploration needs its own
        #: bound.  Exhaustion truncates the round deterministically
        #: (same enumeration order every run); saturation stays sound,
        #: it just discovers fewer equalities that round.
        self.max_visits = max_visits
        self._visits = max_visits
        self.truncated = False
        self._sorts: dict[int, Sort] = {}
        self._best: dict[int, Term] = {}
        #: ``(find(left), find(right))`` -> the class of ``left o
        #: right``, as :meth:`_compose_class` built it this round.
        self._composed: dict[tuple[int, int], int] = {}
        #: Compose patterns -> their factor lists, for the matcher's
        #: lifetime (rule patterns never change).
        self._factors: dict[Term, list[Term]] = {}
        #: The pass snapshot, filled lazily while :meth:`match_all`
        #: runs: each class's e-nodes and its compose children.
        self._nodes: dict[int, tuple] = {}
        self._compose_nodes: dict[int, list[tuple[int, int]]] = {}
        #: Operator -> its bit in the reachable-operator masks, and
        #: each LHS -> the mask of the operators it names, for the
        #: matcher's lifetime.
        self._op_bits: dict[str, int] = {}
        self._needs: dict[Term, int] = {}
        self.refresh()

    def refresh(self) -> None:
        """Recompute per-class sorts and best terms and forget the
        compose memo (call after merges or rebuilds change the class
        structure; the driver calls it once per round).  Sorts are
        recomputed only when the graph's best terms changed."""
        best = self.egraph.best_terms()
        if best is not self._best:
            self._best = best
            self._sorts = {cid: sort_of(term)
                           for cid, term in best.items()}
        self._composed.clear()

    # -- match enumeration --------------------------------------------------

    def match_all(self, rules: "list[Rule] | None" = None,
                  class_ids=None) -> list[EMatch]:
        """Every (rule, class) match in the graph, rule-priority-major
        then class-id order (deterministic).  ``rules`` restricts the
        pass to a subset of the pool — the saturation driver's backoff
        scheduler passes the currently unbanned rules.  ``class_ids``
        restricts which classes patterns may be *rooted* at — the
        driver's incremental mode passes the dirty-set upward closure
        (canonical ids, as :meth:`EGraph.closure_up` returns them);
        metavariables inside a match still bind any class.

        The graph must be rebuilt (:class:`StaleEGraphError`
        otherwise): then every id it stores is canonical, and nothing
        changes it until the pass returns, so the pass reads each
        class's e-nodes at most once and calls no ``find``.

        A rule is only tried at the classes holding an e-node of its
        LHS root operator (every class for a metavariable root) and
        reaching every operator its LHS names
        (:meth:`_reachable_ops`): a match needs all of them at or
        below its root, so the filter drops no match, and a pruned
        walk spends no ``max_visits`` credit."""
        egraph = self.egraph
        egraph.require_rebuilt()
        out: list[EMatch] = []
        self._visits = self.max_visits
        self.truncated = False
        class_ids = (egraph.class_ids() if class_ids is None
                     else sorted(class_ids))
        rooted: dict[str, list[int]] = {}
        try:
            for cid in class_ids:
                for op in {node[0] for node in self._enodes(cid)}:
                    rooted.setdefault(op, []).append(cid)
            reach = self._reachable_ops()
            for rule in (self.rules if rules is None else rules):
                if self.truncated:
                    break
                lhs = rule.lhs
                need = self._needs.get(lhs)
                if need is None:
                    need = self._needs[lhs] = self._op_mask(
                        op for op in lhs.ops
                        if op not in ("meta", "compose"))
                for cid in (class_ids if lhs.op == "meta"
                            else rooted.get(lhs.op, ())):
                    if reach[cid] & need != need:
                        continue
                    if self._visits <= 0:
                        # A walk the credits cannot pay for: the pass
                        # is cut even though no walk's spend failed.
                        self.truncated = True
                        break
                    out.extend(self._match_class(rule, cid))
        finally:
            self._nodes.clear()
            self._compose_nodes.clear()
        return out

    def _op_mask(self, ops: Iterable[str]) -> int:
        """The bitmask of ``ops`` (bits assigned on first sight)."""
        bits = self._op_bits
        mask = 0
        for op in ops:
            bit = bits.get(op)
            if bit is None:
                bit = bits[op] = 1 << len(bits)
            mask |= bit
        return mask

    def _reachable_ops(self) -> dict[int, int]:
        """Every class's reachable-operator mask, for one pass: the
        operators of its e-nodes plus its children's masks.  Classes
        can be cyclic, so the masks grow to a fixpoint (children
        usually have smaller ids, so ascending sweeps settle fast)."""
        class_ids = self.egraph.class_ids()
        reach: dict[int, int] = {}
        children: dict[int, set[int]] = {}
        for cid in class_ids:
            nodes = self._enodes(cid)
            reach[cid] = self._op_mask({node[0] for node in nodes})
            children[cid] = {child for node in nodes
                             for child in node[2] if child != cid}
        changed = True
        while changed:
            changed = False
            for cid in class_ids:
                mask = reach[cid]
                for child in children[cid]:
                    mask |= reach[child]
                if mask != reach[cid]:
                    reach[cid] = mask
                    changed = True
        return reach

    def _spend(self) -> bool:
        """Consume one pattern-walk credit; ``False`` ends the walk."""
        if self._visits <= 0:
            self.truncated = True
            return False
        self._visits -= 1
        return True

    def _enodes(self, cid: int) -> tuple:
        """The e-nodes of canonical class ``cid``, read once per pass."""
        nodes = self._nodes.get(cid)
        if nodes is None:
            nodes = self._nodes[cid] = self.egraph.rebuilt_enodes(cid)
        return nodes

    def _compose_enodes(self, cid: int) -> list[tuple[int, int]]:
        """The ``(left, right)`` children of ``cid``'s compose e-nodes,
        once per pass."""
        found = self._compose_nodes.get(cid)
        if found is None:
            found = self._compose_nodes[cid] = [
                (child_ids[0], child_ids[1])
                for op, _, child_ids in self._enodes(cid)
                if op == "compose"]
        return found

    def _pattern_factors(self, pattern: Term) -> list[Term]:
        factors = self._factors.get(pattern)
        if factors is None:
            factors = self._factors[pattern] = flatten_compose(pattern)
        return factors

    def _match_class(self, rule: Rule, cid: int) -> list[EMatch]:
        """All matches of ``rule``'s LHS against class ``cid``
        (including prefix-window matches of chain patterns)."""
        lhs = rule.lhs
        results: list[EMatch] = []
        if lhs.op == "compose":
            for bindings, suffix in self._match_chain(
                    self._pattern_factors(lhs), cid, {}, True, 0):
                results.append(EMatch(rule, cid, bindings, suffix))
        else:
            for bindings in self._match_pattern(lhs, cid, {}, 0):
                results.append(EMatch(rule, cid, bindings))
            if lhs.op == "invoke":
                results.extend(self._match_peels(rule, cid))
        return _dedup(results)[:self.max_bindings]

    def _match_peels(self, rule: Rule, cid: int) -> list[EMatch]:
        """Invocation peeling over classes: ``(f o g) ! x`` equals
        ``f ! (g ! x)``, so an invoke pattern may match any chain
        *suffix* of the function with the prefix peeled off — mirroring
        the term engine's peel phase."""
        fn_pattern, arg_pattern = rule.lhs.args
        results: list[EMatch] = []

        def walk(fn_cid: int, prefix: tuple[int, ...],
                 arg_cid: int) -> None:
            if len(prefix) >= self.max_chain or not self._spend():
                return
            for left, tail in self._compose_enodes(fn_cid):
                peeled = prefix + (left,)
                for part in self._match_pattern(fn_pattern, tail, {}, 1):
                    for full in self._match_pattern(
                            arg_pattern, arg_cid, part, 1):
                        results.append(EMatch(rule, cid, full,
                                              peel_prefix=peeled))
                        if len(results) >= self.max_bindings:
                            return
                walk(tail, peeled, arg_cid)

        for op, _, child_ids in self._enodes(cid):
            if op == "invoke":
                walk(child_ids[0], (), child_ids[1])
        return results

    # -- pattern-vs-class ---------------------------------------------------

    def _sort_ok(self, var_sort: Sort, cid: int) -> bool:
        if var_sort is Sort.ANY:
            return True
        class_sort = self._sorts.get(cid)
        if class_sort is None or class_sort is Sort.ANY:
            return True
        return class_sort is var_sort

    def _bind(self, bindings: dict, name: str,
              value: Binding) -> dict | None:
        """Extend ``bindings`` with ``name = value``; ``None`` on
        conflict.  Values are compared as class tuples (a single class
        equals a segment iff the segment's composition e-nodes already
        exist and land in the same class)."""
        normalized = value if isinstance(value, tuple) else (value,)
        bound = bindings.get(name)
        if bound is None:
            fresh = dict(bindings)
            fresh[name] = (normalized[0] if len(normalized) == 1
                           else normalized)
            return fresh
        existing = bound if isinstance(bound, tuple) else (bound,)
        if existing == normalized:
            return bindings
        collapsed_old = self._probe_chain(existing)
        collapsed_new = self._probe_chain(normalized)
        if (collapsed_old is not None
                and collapsed_old == collapsed_new):
            return bindings
        return None

    def _probe_chain(self, cids: tuple[int, ...]) -> int | None:
        """The class of the right-associated composition of ``cids``
        if its compose e-nodes all exist; never allocates."""
        acc: int | None = cids[-1]
        for cid in reversed(cids[:-1]):
            acc = self.egraph.rebuilt_lookup("compose", None, (cid, acc))
            if acc is None:
                return None
        return acc

    def _match_pattern(self, pattern: Term, cid: int,
                       bindings: dict, depth: int) -> list[dict]:
        """Bindings under which ``pattern`` matches class ``cid``."""
        if not self._spend():
            return []
        if pattern.op == "meta":
            name, var_sort = pattern.label
            if not self._sort_ok(var_sort, cid):
                return []
            extended = self._bind(bindings, name, cid)
            return [] if extended is None else [extended]
        if pattern.op == "compose":
            return [b for b, _ in self._match_chain(
                self._pattern_factors(pattern), cid, bindings, False,
                depth)]
        if depth > self.max_chain:
            return []
        results: list[dict] = []
        arity = len(pattern.args)
        for op, label, child_ids in self._enodes(cid):
            if (op != pattern.op or label != pattern.label
                    or len(child_ids) != arity):
                continue
            partial = [bindings]
            for p_arg, child in zip(pattern.args, child_ids):
                step: list[dict] = []
                for binding in partial:
                    step.extend(self._match_pattern(
                        p_arg, child, binding, depth + 1))
                    if len(step) >= self.max_bindings:
                        break
                partial = step[:self.max_bindings]
                if not partial:
                    break
            results.extend(partial)
            if len(results) >= self.max_bindings:
                break
        return results

    def _match_chain(self, pfactors: list[Term], cid: int,
                     bindings: dict, allow_suffix: bool,
                     depth: int) -> list[tuple[dict, int | None]]:
        """Match pattern factors against the chain decompositions of a
        class.  Yields ``(bindings, suffix)`` pairs; ``suffix`` is the
        unconsumed chain-tail class of a prefix-window match (only when
        ``allow_suffix``) or ``None`` for an exact match."""
        if not self._spend():
            return []
        if depth > self.max_chain:
            return []
        head, rest = pfactors[0], pfactors[1:]
        results: list[tuple[dict, int | None]] = []

        if is_bare_segment_var(head):
            name, var_sort = head.label
            self._absorb(name, var_sort, rest, cid, (), bindings,
                         allow_suffix, depth, results)
            return results[:self.max_bindings]

        if rest:
            for left, tail in self._compose_enodes(cid):
                for extended in self._match_pattern(
                        head, left, bindings, depth + 1):
                    results.extend(self._match_chain(
                        rest, tail, extended, allow_suffix, depth + 1))
                    if len(results) >= self.max_bindings:
                        return results[:self.max_bindings]
            return results

        # Last pattern factor: consume the whole remaining chain...
        for extended in self._match_pattern(head, cid, bindings, depth + 1):
            results.append((extended, None))
        # ...or just its first factor, leaving a window suffix.
        if allow_suffix:
            for left, tail in self._compose_enodes(cid):
                for extended in self._match_pattern(
                        head, left, bindings, depth + 1):
                    results.append((extended, tail))
        return results[:self.max_bindings]

    def _absorb(self, name: str, var_sort: Sort, rest: list[Term],
                cid: int, taken: tuple[int, ...], bindings: dict,
                allow_suffix: bool, depth: int,
                results: list) -> None:
        """A bare function metavariable eats 1..n chain factors."""
        if not self._spend():
            return
        if len(taken) >= self.max_chain or len(results) >= self.max_bindings:
            return
        if not rest:
            # Absorb everything that remains as the final segment...
            if self._sort_ok(var_sort, cid):
                extended = self._bind(bindings, name, taken + (cid,))
                if extended is not None:
                    results.append((extended, None))
            # ...or stop here and leave a window suffix.
            if taken and allow_suffix:
                extended = self._bind(bindings, name, taken)
                if extended is not None:
                    results.append((extended, cid))
        elif taken:
            # Hand the remainder to the rest of the pattern.
            extended = self._bind(bindings, name, taken)
            if extended is not None:
                results.extend(self._match_chain(
                    rest, cid, extended, allow_suffix, depth + 1))
        # Eat one more factor and recurse.
        for left, tail in self._compose_enodes(cid):
            if self._sort_ok(var_sort, left):
                self._absorb(name, var_sort, rest, tail,
                             taken + (left,), bindings,
                             allow_suffix, depth + 1, results)

    # -- instantiation ------------------------------------------------------

    def instantiate(self, match: EMatch) -> int:
        """Build the RHS of a fired rule as e-nodes over the bound
        classes; returns the class of the full replacement (window
        suffix re-appended).  The caller merges it with ``match.cid``."""
        rhs_cid = self._instantiate_term(match.rule.rhs, match.bindings)
        if match.peel_prefix is not None:
            return self._invoke_class(match.peel_prefix, rhs_cid)
        if match.suffix is None:
            return rhs_cid
        return self._chain_class((rhs_cid, match.suffix))

    def _instantiate_term(self, node: Term, bindings: dict) -> int:
        if node.op == "meta":
            value = bindings[node.label[0]]
            return (self._chain_class(value)
                    if isinstance(value, tuple) else value)
        if node.op == "invoke":
            fn_cid = self._instantiate_term(node.args[0], bindings)
            arg_cid = self._instantiate_term(node.args[1], bindings)
            return self._invoke_class((fn_cid,), arg_cid)
        if node.op == "compose":
            cids: list[int] = []
            for factor in flatten_compose(node):
                if factor.op == "meta":
                    value = bindings[factor.label[0]]
                    if isinstance(value, tuple):
                        cids.extend(value)
                        continue
                    cids.append(value)
                    continue
                cids.append(self._instantiate_term(factor, bindings))
            return self._chain_class(tuple(cids))
        child_ids = tuple(self._instantiate_term(arg, bindings)
                          for arg in node.args)
        return self.egraph.add_enode(node.op, node.label, child_ids)

    def _invoke_class(self, fn_cids: tuple[int, ...], arg_cid: int) -> int:
        """An ``invoke`` e-node in canonical form — mirrors canon's
        ``invoke(f, invoke(g, x)) == invoke(f o g, x)`` flattening by
        splicing the argument's own invoke spelling into the function
        chain (bounded against cyclic classes)."""
        egraph = self.egraph
        arg_cid = egraph.find(arg_cid)
        for _ in range(self.max_chain):
            inner = next((kids for op, _, kids in egraph.enodes_of(arg_cid)
                          if op == "invoke"), None)
            if inner is None:
                break
            fn_cids = fn_cids + (egraph.find(inner[0]),)
            arg_cid = egraph.find(inner[1])
        return egraph.add_enode("invoke", None,
                                (self._chain_class(fn_cids), arg_cid))

    def _chain_class(self, cids: Iterable[int]) -> int:
        """The class of the right-associated composition of ``cids``
        (compose e-nodes created as needed)."""
        cids = tuple(cids)
        acc = cids[-1]
        for cid in reversed(cids[:-1]):
            acc = self._compose_class(cid, acc)
        return acc

    def _compose_class(self, left: int, right: int, depth: int = 0) -> int:
        """The class of ``left o right``.  When ``left`` is itself a
        chain class, the canonical right-associated respelling
        ``l1 o (l2 o right)`` is added and merged in — terms enter the
        e-graph in canon form (right-associated chains), so keeping
        that spelling structurally present is what lets later matches
        and congruences line up with engine-produced forms.

        Memoized per round on the find-normalized pair: a merge never
        makes a recorded equality false, and the entry is written
        before the respelling recurses, so a cyclic class (``id`` after
        ``id o id`` merged into it) returns at once instead of
        re-deriving the respelling down to the chain bound."""
        egraph = self.egraph
        left = egraph.find(left)
        right = egraph.find(right)
        known = self._composed.get((left, right))
        if known is not None:
            return egraph.find(known)
        out = egraph.add_enode("compose", None, (left, right))
        self._composed[(left, right)] = out
        if depth < self.max_chain:
            decomp = next((kids for op, _, kids in egraph.enodes_of(left)
                           if op == "compose"), None)
            if decomp is not None:
                l2, r2 = decomp
                inner = self._compose_class(r2, right, depth + 1)
                alt = egraph.add_enode(
                    "compose", None, (egraph.find(l2), egraph.find(inner)))
                out = egraph.merge(out, alt)
        return out

    # -- typed-apply guard --------------------------------------------------

    def ground_pair(self, match: EMatch) -> tuple[Term, Term] | None:
        """A representative (before, after) ground-term pair for a
        match — used to evaluate the engine's typed-apply guard for
        rules flagged ``needs_typed_apply``.  ``None`` when some bound
        class has no known best term yet."""
        term_bindings: dict[str, Term] = {}
        for name, value in match.bindings.items():
            if isinstance(value, tuple):
                parts = [self._best.get(self.egraph.find(c))
                         for c in value]
                if any(part is None for part in parts):
                    return None
                term_bindings[name] = build_chain(parts)
            else:
                part = self._best.get(self.egraph.find(value))
                if part is None:
                    return None
                term_bindings[name] = part
        from repro.rewrite.pattern import instantiate
        before = canon(instantiate(match.rule.lhs, term_bindings))
        after = canon(instantiate(match.rule.rhs, term_bindings))
        return before, after


def _dedup(matches: list[EMatch]) -> list[EMatch]:
    seen: set[tuple] = set()
    unique: list[EMatch] = []
    for match in matches:
        signature = (match.suffix, match.peel_prefix, tuple(sorted(
            (name, value if isinstance(value, tuple) else (value,))
            for name, value in match.bindings.items())))
        if signature in seen:
            continue
        seen.add(signature)
        match.key = (match.rule.name, match.cid, signature)
        unique.append(match)
    return unique
