"""Head-operator index of a rule list.

The paper's position is that an optimizer should own *many small*
declarative rules (Section 1.2 reports a pool of 500+ proved rules).  A
linear engine makes that pool pay a scaling tax: every rule is attempted
at every node, so match work grows with pool size even though almost
every attempt fails on the head operator alone.

A :class:`RuleIndex` records which LHS head operators (``rule.lhs.op``)
an ordered rule list uses.  Head-operator agreement is necessary for
every one of the engine's three application modes:

* **direct match** — :func:`repro.rewrite.match.match` fails immediately
  unless ``pattern.op == subject.op`` (or the pattern is a bare
  metavariable, which matches anywhere and disables pruning);
* **chain windows** — only tried when both the rule head and the node
  are ``compose``;
* **invocation peels** — only tried when both are ``invoke``.

So combined with the per-term contained-operator cache
(:attr:`repro.core.terms.Term.ops`), :meth:`RuleIndex.relevant_to` lets
the engine prune entire subtrees that contain no candidate head at all.
The compiled discrimination tree
(:mod:`repro.rewrite.discrimination`) is built from a :class:`RuleIndex`
and keeps its rule order, so list order remains priority order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.rewrite.rule import Rule


class RuleIndex:
    """An immutable head-operator index over an ordered rule list."""

    __slots__ = ("rules", "heads", "has_wildcard")

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules: tuple[Rule, ...] = tuple(rules)
        ops = {one_rule.lhs.op for one_rule in self.rules}
        #: True when some rule's head is a bare metavariable (matches
        #: any node, so subtree pruning must be disabled).
        self.has_wildcard: bool = "meta" in ops
        #: Head operators with at least one indexed rule.
        self.heads: frozenset[str] = frozenset(ops - {"meta"})

    def relevant_to(self, ops: frozenset[str]) -> bool:
        """Could any indexed rule fire somewhere in a subtree whose
        contained-operator set is ``ops``?"""
        return self.has_wildcard or not self.heads.isdisjoint(ops)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __repr__(self) -> str:
        return (f"RuleIndex({len(self.rules)} rules, "
                f"{len(self.heads)} heads)")


@lru_cache(maxsize=512)
def _index_for(rules: tuple[Rule, ...]) -> RuleIndex:
    return RuleIndex(rules)


def rule_index(rules: "Sequence[Rule] | RuleIndex") -> RuleIndex:
    """The (memoized) index for an ordered rule collection.

    Building an index is cheap but engines resolve the same rule lists
    over and over (every ``rewrite_once`` inside a ``normalize`` loop,
    every strategy round); the memo makes repeated resolution O(1).
    """
    if isinstance(rules, RuleIndex):
        return rules
    return _index_for(tuple(rules))
