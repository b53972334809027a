"""Discrimination-tree matching: the whole rule pool in one trie.

PR 1's head-operator :class:`~repro.rewrite.ruleindex.RuleIndex` prunes
rules whose LHS *head* cannot match, but every surviving candidate still
pays a full per-rule :func:`~repro.rewrite.match.match` walk over the
subject — and at a ~180-rule pool most of those walks re-traverse the
same prefix of the term.  Classic term indexing (discrimination nets)
fixes this: compile every LHS pattern into a trie keyed on the pattern's
preorder spine, then match *all* rules with a single traversal of the
subject.  KOLA being variable-free makes the construction unusually
clean — no alpha-conversion and no environment checks complicate the
trie; the only non-syntactic feature the matcher supports is the
associative-chain absorption of :mod:`repro.rewrite.match`, which gets a
dedicated edge kind below.

Edge kinds (one per pattern-token kind, emitted in preorder):

* ``op``      — exact operator edge, keyed ``(op, label, arity)``; the
  subject node must agree and its children are matched next.
* ``var``     — metavariable edge, keyed by :class:`~repro.core.terms.Sort`
  (the ISSUE's "metavariable edges sorted by Sort"); captures one whole
  subterm, with sort compatibility checked exactly as ``match`` does.
* ``chain``   — a composition chain of exactly *k* factors, none of
  which is a bare segment variable; the factor patterns follow in order.
* ``chainseg`` — a chain of *k* factor patterns of which exactly one
  (at a known position) is a bare segment variable.  Because every
  non-segment factor consumes exactly one subject factor and the
  segment consumes the rest, the segment length is *forced* to
  ``n - k + 1`` for a subject chain of ``n`` factors: the absorption
  case is matched deterministically, with no backtracking.
* ``chainrest`` — the fallback edge for chains with two or more segment
  variables (genuinely nondeterministic segment splits).  The trie only
  checks the arity floor (``n >= k``) and yields the rule as an
  *incomplete* candidate; the engine completes it with a full
  ``match()`` call.  No shipped rule currently needs this edge, but the
  matcher stays total.

Retrieval walks the subject once, following every compatible edge;
each surviving leaf yields ``(priority, rule, bindings)`` where the
bindings were accumulated *during* the walk (``None`` marks an
incomplete candidate needing the ``match()`` fallback).  Non-linear
patterns are resolved at the leaf: repeated metavariable captures must
be the same interned term (an O(1) identity test).  Results are
returned sorted by rule position, so **list order stays priority
order** exactly as with linear and head-indexed dispatch.

:class:`CompiledRuleSet` packages the trie with the per-head candidate
lists the engine's chain-window and invocation-peel phases need, plus a
**generation number** used by the engine's normal-form cache: every
compilation gets a fresh generation, so any rule-pool change (a new
index in the :class:`~repro.rewrite.rulebase.RuleBase`, which compiles
each rule-reference tuple once per rule-base generation) silently
invalidates cached normal forms keyed on the old generation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from repro.core.terms import Sort, Term, _label_key, sort_of
from repro.rewrite.pattern import build_chain, flatten_compose
from repro.rewrite.rule import Rule
from repro.rewrite.ruleindex import RuleIndex

#: A retrieval hit: (rule position, rule, accumulated bindings or None
#: when the pattern needs the full ``match()`` fallback to complete).
Hit = "tuple[int, Rule, Optional[dict[str, Term]]]"

#: Sorts whose bare metavariables may absorb a chain segment
#: (mirrors :func:`repro.rewrite.pattern.is_bare_segment_var`).
_SEGMENT_SORTS = (Sort.FUN, Sort.ANY)

#: Monotonic generation numbers for compiled rule sets (normal-form
#: cache keys include the generation, so recompilation invalidates).
_GENERATION = itertools.count(1)


def _edge_label(label) -> object:
    """Edge-key form of a term label (same normalization the cons table
    uses, so cross-type-equal labels like ``False``/``0`` stay apart)."""
    if label is None or type(label) is str:
        return label
    return _label_key(label)


def _sort_ok(var_sort: Sort, subject: Term) -> bool:
    """Sort compatibility of a metavariable with a subject subterm —
    the same rule ``match`` applies: ``ANY`` on either side matches."""
    if var_sort is Sort.ANY:
        return True
    subject_sort = sort_of(subject)
    return subject_sort is Sort.ANY or subject_sort is var_sort


# -- pattern compilation -------------------------------------------------


def _compile(lhs: Term) -> tuple[list[tuple], tuple[str, ...], bool]:
    """Compile a canonical LHS into its preorder token path.

    Returns ``(tokens, capture_names, complete)``.  ``capture_names``
    aligns with the capture slots the walk fills (metavariable and
    segment edges, in token order).  ``complete`` is ``False`` when the
    pattern was truncated at a multi-segment chain and the engine must
    finish the candidate with a full ``match()``.
    """
    tokens: list[tuple] = []
    names: list[str] = []
    complete = _emit(lhs, tokens, names)
    return tokens, tuple(names), complete


def _emit(pattern: Term, tokens: list[tuple], names: list[str]) -> bool:
    if pattern.op == "meta":
        name, var_sort = pattern.label
        tokens.append(("var", var_sort))
        names.append(name)
        return True
    if pattern.op == "compose":
        factors = flatten_compose(pattern)
        segments = [index for index, factor in enumerate(factors)
                    if factor.op == "meta"
                    and factor.label[1] in _SEGMENT_SORTS]
        if len(segments) > 1:
            # Nondeterministic segment split: stop compiling here and
            # let the engine complete the candidate with match().
            tokens.append(("chainrest", len(factors)))
            return False
        if segments:
            index = segments[0]
            name, var_sort = factors[index].label
            tokens.append(("chainseg", len(factors), index, var_sort))
            names.append(name)
            rest = factors[:index] + factors[index + 1:]
        else:
            tokens.append(("chain", len(factors)))
            rest = factors
        for factor in rest:
            if not _emit(factor, tokens, names):
                return False
        return True
    tokens.append(("op", pattern.op, _edge_label(pattern.label),
                   len(pattern.args)))
    for arg in pattern.args:
        if not _emit(arg, tokens, names):
            return False
    return True


class _Node:
    """One trie node: outgoing edges by kind, plus pattern leaves."""

    __slots__ = ("exact", "vars", "chains", "chainsegs", "chainrests",
                 "leaves")

    def __init__(self) -> None:
        self.exact: dict[tuple, _Node] = {}
        self.vars: dict[Sort, _Node] = {}
        self.chains: dict[int, _Node] = {}
        self.chainsegs: dict[tuple[int, int, Sort], _Node] = {}
        self.chainrests: dict[int, _Node] = {}
        self.leaves: list[tuple[int, Rule, tuple[str, ...] | None]] = []


def _insert(root: _Node, tokens: list[tuple],
            leaf: tuple[int, Rule, tuple[str, ...] | None]) -> None:
    node = root
    for token in tokens:
        kind = token[0]
        if kind == "op":
            table, key = node.exact, token[1:]
        elif kind == "var":
            table, key = node.vars, token[1]
        elif kind == "chain":
            table, key = node.chains, token[1]
        elif kind == "chainseg":
            table, key = node.chainsegs, token[1:]
        else:  # chainrest
            table, key = node.chainrests, token[1]
        successor = table.get(key)
        if successor is None:
            successor = _Node()
            table[key] = successor
        node = successor
    node.leaves.append(leaf)


class DiscriminationTree:
    """An ordered rule list compiled into one matching trie."""

    __slots__ = ("root", "size")

    def __init__(self, rules: "tuple[Rule, ...] | list[Rule]") -> None:
        self.root = _Node()
        self.size = len(rules)
        for position, one_rule in enumerate(rules):
            tokens, names, complete = _compile(one_rule.lhs)
            _insert(self.root, tokens,
                    (position, one_rule, names if complete else None))

    def retrieve(self, subject: Term, stats=None) -> list:
        """All rules whose LHS matches ``subject`` at the root, in
        priority order, with the bindings accumulated by the walk
        (``None`` bindings mark incomplete candidates).

        ``stats`` (an :class:`~repro.rewrite.engine.EngineStats`-shaped
        object) receives ``trie_node_visits``/``trie_retrievals``.
        """
        hits: list = []
        visits = self._walk(self.root, [subject], [], hits)
        if stats is not None:
            stats.trie_node_visits += visits
            stats.trie_retrievals += 1
        if len(hits) > 1:
            hits.sort(key=lambda hit: hit[0])
        return hits

    def _walk(self, node: _Node, stack: list, captures: list,
              hits: list) -> int:
        """Simultaneous walk of every compatible trie path.

        ``stack`` holds the pending subject subterms (top at the end);
        branches copy it, so sibling edges never see each other's
        consumption.  Returns the number of trie nodes visited.
        """
        visits = 1
        if not stack:
            for position, one_rule, names in node.leaves:
                if names is None:
                    hits.append((position, one_rule, None))
                    continue
                bindings: dict[str, Term] = {}
                consistent = True
                for name, value in zip(names, captures):
                    bound = bindings.get(name)
                    if bound is None:
                        bindings[name] = value
                    elif bound is not value:
                        consistent = False  # non-linear capture mismatch
                        break
                if consistent:
                    hits.append((position, one_rule, bindings))
            return visits
        subject = stack[-1]
        if subject.op == "compose" and (node.chains or node.chainsegs
                                        or node.chainrests):
            # Flattening is O(chain length); skip it when no chain-kind
            # edge leaves this trie node (a compose subject can still
            # take a var edge below without being flattened).
            factors = flatten_compose(subject)
            count = len(factors)
            successor = node.chains.get(count)
            if successor is not None:
                visits += self._walk(successor, stack[:-1] + factors[::-1],
                                     captures, hits)
            for (size, index, var_sort), successor in \
                    node.chainsegs.items():
                if size > count:
                    continue
                # Each non-segment factor consumes exactly one subject
                # factor, so the segment length is forced.
                segment_length = count - size + 1
                segment_factors = factors[index:index + segment_length]
                segment = (segment_factors[0] if segment_length == 1
                           else build_chain(segment_factors))
                if not _sort_ok(var_sort, segment):
                    continue
                remaining = (factors[:index]
                             + factors[index + segment_length:])
                captures.append(segment)
                visits += self._walk(successor,
                                     stack[:-1] + remaining[::-1],
                                     captures, hits)
                captures.pop()
            for size, successor in node.chainrests.items():
                if size <= count:
                    # Incomplete candidate: discard the pending stack and
                    # fire the leaf; the engine completes with match().
                    visits += self._walk(successor, [], captures, hits)
        else:
            key = (subject.op, _edge_label(subject.label),
                   len(subject.args))
            successor = node.exact.get(key)
            if successor is not None:
                visits += self._walk(successor,
                                     stack[:-1] + list(subject.args[::-1]),
                                     captures, hits)
        for var_sort, successor in node.vars.items():
            if _sort_ok(var_sort, subject):
                captures.append(subject)
                visits += self._walk(successor, stack[:-1], captures, hits)
                captures.pop()
        return visits


class CompiledRuleSet:
    """A rule pool compiled for single-traversal dispatch.

    Wraps the pool's :class:`DiscriminationTree` together with what the
    engine's other two application phases need:

    * ``compose_entries``/``invoke_entries`` — the compose-headed and
      invoke-headed rules (with their priorities) that must still be
      offered chain *windows* and invocation *peels* even when their
      direct match fails;
    * ``index`` — the underlying head-operator index, still used for
      whole-subtree pruning by contained-operator sets;
    * ``generation`` — a process-unique number identifying this
      compilation; the engine's normal-form cache keys on it, so a
      rebuilt pool can never serve stale cached normal forms.
    """

    __slots__ = ("index", "rules", "generation", "tree",
                 "compose_entries", "invoke_entries")

    def __init__(self, index: RuleIndex) -> None:
        self.index = index
        self.rules: tuple[Rule, ...] = index.rules
        self.generation: int = next(_GENERATION)
        self.tree = DiscriminationTree(self.rules)
        self.compose_entries: tuple[tuple[int, Rule], ...] = tuple(
            (position, one_rule)
            for position, one_rule in enumerate(self.rules)
            if one_rule.lhs.op == "compose")
        self.invoke_entries: tuple[tuple[int, Rule], ...] = tuple(
            (position, one_rule)
            for position, one_rule in enumerate(self.rules)
            if one_rule.lhs.op == "invoke")

    def retrieve(self, subject: Term, stats=None) -> list:
        """Delegates to the tree — see
        :meth:`DiscriminationTree.retrieve`."""
        return self.tree.retrieve(subject, stats)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __repr__(self) -> str:
        return (f"CompiledRuleSet({len(self.rules)} rules, "
                f"generation {self.generation})")


@lru_cache(maxsize=512)
def compiled_ruleset(index: RuleIndex) -> CompiledRuleSet:
    """The (memoized) compiled form of a rule index.

    Keyed on index identity: :func:`~repro.rewrite.ruleindex.rule_index`
    already memoizes indexes per rule tuple, so every engine resolving
    the same group shares one compiled tree — and a *new* index (a
    mutated group) compiles to a fresh tree with a fresh generation.
    """
    return CompiledRuleSet(index)
