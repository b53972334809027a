"""Rule registry: named, queryable collections of rules.

The optimizer's rule pool (the paper reports ~500 proved rules; Section
4.2 notes "most of the rules introduced have general applicability") is
managed as a :class:`RuleBase` — rules are registered once, looked up by
name or paper number, and grouped into named subsets that COKO rule
blocks reference.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.errors import RewriteError
from repro.rewrite.discrimination import CompiledRuleSet, compiled_ruleset
from repro.rewrite.rule import Rule
from repro.rewrite.ruleindex import RuleIndex


class RuleBase:
    """A registry of rules with named groups.

    Rule *references* — a rule name, ``<name>-rev`` or
    ``group:<name>`` — resolve here (:meth:`resolve`).  Each reference
    tuple a consumer dispatches through (the optimizer's simplify pass,
    a COKO ``Exhaust("r17", "r17b", "group:cleanup")``) gets one lazily
    built :class:`~repro.rewrite.ruleindex.RuleIndex` and compiled
    discrimination tree (:meth:`resolve_compiled`), so a rule block
    compiles its dispatch once, not once per run;
    :meth:`group_compiled` is the one-reference case.

    **Invalidation contract:** every group has a monotonically
    increasing *generation* (:meth:`group_generation`), bumped whenever
    the group's membership changes, and the whole rule base a
    :attr:`generation` that moves on *any* change.  The cached indexes
    and compiled trees are tagged with the :attr:`generation` they were
    built from and are rebuilt on the first lookup after a change; the
    fresh tree gets a fresh process-unique
    :attr:`~CompiledRuleSet.generation`, which the engine's normal-form
    cache keys on — so a changed rule base can never serve stale cached
    normal forms.
    """

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}
        self._groups: dict[str, list[str]] = {}
        self._generations: dict[str, int] = {}
        self._generation_total = 0
        #: refs -> [generation, index, compiled tree or None until used]
        self._dispatch: dict[tuple[str, ...], list] = {}
        self._scalar_constants: tuple[int, frozenset] | None = None

    # -- registration -------------------------------------------------------

    def _bump(self, group: str) -> None:
        self._generations[group] = self._generations.get(group, 0) + 1
        self._generation_total += 1

    @property
    def generation(self) -> int:
        """A monotone counter over *every* change: a rule registered or
        replaced, or any group's membership changed — the
        whole-rulebase fingerprint the optimizer's cross-query plan
        cache and the dispatch caches key on (any rule change
        invalidates them, conservatively)."""
        return self._generation_total

    def add(self, one_rule: Rule, groups: Iterable[str] = ()) -> Rule:
        """Register a rule, optionally into one or more groups."""
        if one_rule.name in self._rules:
            raise RewriteError(f"duplicate rule name {one_rule.name!r}")
        self._rules[one_rule.name] = one_rule
        for group in groups:
            self._groups.setdefault(group, []).append(one_rule.name)
            self._bump(group)
        # Even in no group, a new rule changes what a name reference
        # (``<name>-rev`` included) and scalar_constants resolve to.
        self._generation_total += 1
        return one_rule

    def extend_group(self, group: str, names: Iterable[str]) -> None:
        """Add already-registered rules (by name) to a group."""
        names = list(names)
        for name in names:
            self.get(name)  # raises if unknown — and must not mutate
        bucket = self._groups.setdefault(group, [])
        changed = False
        for name in names:
            if name not in bucket:
                bucket.append(name)
                changed = True
        if changed or group not in self._generations:
            self._bump(group)

    def replace(self, one_rule: Rule) -> Rule:
        """Swap an already-registered rule for ``one_rule`` (same name),
        keeping every group membership and ordering intact.

        Every group containing the rule is generation-bumped, so cached
        indexes, compiled trees and downstream plan caches rebuild — the
        same invalidation contract as a membership change.
        """
        if one_rule.name not in self._rules:
            raise RewriteError(f"unknown rule {one_rule.name!r}")
        self._rules[one_rule.name] = one_rule
        touched = False
        for group, names in self._groups.items():
            if one_rule.name in names:
                self._bump(group)
                touched = True
        if not touched:
            # Not in any group: still move the whole-rulebase generation
            # (scalar_constants and plan caches key on it).
            self._generation_total += 1
        return one_rule

    def clone(self) -> "RuleBase":
        """An independent copy sharing the (immutable) :class:`Rule`
        objects but nothing mutable: group lists are copied, generation
        counters carried over, and the lazily built index/compiled
        caches start empty (they rebuild on first use).

        This is the cheap way to derive an experimental rulebase — the
        admission gate's per-rule mutants, ``unguarded_rulebase()`` —
        without perturbing a live optimizer's caches.
        """
        twin = RuleBase()
        twin._rules = dict(self._rules)
        twin._groups = {g: list(names) for g, names in self._groups.items()}
        twin._generations = dict(self._generations)
        twin._generation_total = self._generation_total
        return twin

    def load_pack(self, source, *, gate=None, verify: bool = True):
        """Admit a rule pack (path, text, or parsed
        :class:`~repro.rulepacks.format.RulePack`) into this rulebase.

        Every rule must clear the three-stage admission gate first
        (parse/round-trip, Larch model check, differential-oracle
        mutation run) unless ``verify=False`` — in which case only the
        checks construction implies and the safety-tag coherence check
        run.  On success the pack's rules are registered (with their
        groups) and its group blocks applied; every touched group is
        generation-bumped, so plan and kernel caches invalidate.

        Returns the :class:`~repro.rulepacks.gate.GateReport` (or
        ``None`` when ``verify=False``).  Raises
        :class:`~repro.rulepacks.gate.PackRejected` if any rule fails
        the gate, or :class:`~repro.rulepacks.format.PackFormatError`
        if the pack is malformed or incoherent; the rulebase is
        untouched in either case.
        """
        from repro.rulepacks import load_pack_into
        return load_pack_into(self, source, gate=gate, verify=verify)

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> Rule:
        """The rule registered under ``name`` (``"<name>-rev"`` resolves
        to the reversed rule)."""
        if name in self._rules:
            return self._rules[name]
        if name.endswith("-rev"):
            base = self._rules.get(name[:-4])
            if base is not None:
                return base.reversed()
        raise RewriteError(f"unknown rule {name!r}")

    def by_number(self, number: int) -> Rule:
        """The rule carrying the paper's rule ``number``."""
        for one_rule in self._rules.values():
            if one_rule.number == number:
                return one_rule
        raise RewriteError(f"no rule numbered {number}")

    def group(self, name: str) -> list[Rule]:
        """The rules of group ``name``, in registration order."""
        try:
            names = self._groups[name]
        except KeyError:
            raise RewriteError(f"unknown rule group {name!r}") from None
        return [self._rules[rule_name] for rule_name in names]

    def group_generation(self, name: str) -> int:
        """How many times group ``name``'s membership has changed.

        Raises for unknown groups (same contract as :meth:`group`).
        """
        if name not in self._groups:
            raise RewriteError(f"unknown rule group {name!r}")
        return self._generations.get(name, 0)

    # -- rule references and dispatch ----------------------------------------

    def resolve(self, refs: Iterable[str]) -> list[Rule]:
        """The rules a sequence of references names, in order: a rule
        name, ``<name>-rev`` for its reversed reading, or
        ``group:<name>`` for the group's rules in registration order."""
        rules: list[Rule] = []
        for ref in refs:
            if ref.startswith("group:"):
                rules.extend(self.group(ref[len("group:"):]))
            else:
                rules.append(self.get(ref))
        return rules

    def _dispatch_entry(self, refs: tuple[str, ...]) -> list:
        """The cached ``[generation, index, compiled tree]`` entry of
        ``refs`` (the tree is ``None`` until first compiled), rebuilt on
        the first lookup after any change to the rule base."""
        entry = self._dispatch.get(refs)
        if entry is None or entry[0] != self._generation_total:
            entry = [self._generation_total,
                     RuleIndex(self.resolve(refs)), None]
            self._dispatch[refs] = entry
        return entry

    def resolve_compiled(self, refs: tuple[str, ...]) -> CompiledRuleSet:
        """The cached compiled discrimination tree of ``refs`` (see
        :mod:`repro.rewrite.discrimination`), compiled on first use and
        rebuilt — with a fresh normal-form-cache generation — after any
        change to the rule base."""
        entry = self._dispatch_entry(refs)
        if entry[2] is None:
            entry[2] = compiled_ruleset(entry[1])
        return entry[2]

    def group_compiled(self, name: str) -> CompiledRuleSet:
        """:meth:`resolve_compiled` of the one reference
        ``group:<name>``."""
        return self.resolve_compiled((f"group:{name}",))

    def scalar_constants(self) -> frozenset:
        """Every abstractable scalar literal pinned by any registered
        rule, as typed ``(type, value)`` pairs.

        This is the constant-abstraction validity set: a rule whose LHS
        spells a concrete ``int``/``float``/``str`` literal matches (or
        fails to match) depending on a query's constant *values*, and a
        rule whose RHS spells one introduces a constant that must never
        be mistaken for a query binding — so the optimizer refuses to
        serve a parameterized plan to any query whose bindings intersect
        this set (guarded simplifications fall back to exact keying).
        Scanned once per rulebase :attr:`generation` and cached.
        """
        from repro.core.terms import ABSTRACTABLE_SCALARS
        cached = self._scalar_constants
        if cached is not None and cached[0] == self._generation_total:
            return cached[1]
        pinned: set[tuple] = set()
        for one_rule in self._rules.values():
            for side in (one_rule.lhs, one_rule.rhs):
                for node in side.subterms():
                    if node.op != "lit":
                        continue
                    label = node.label
                    if type(label) in ABSTRACTABLE_SCALARS:
                        pinned.add((type(label), label))
        result = frozenset(pinned)
        self._scalar_constants = (self._generation_total, result)
        return result

    def group_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._groups))

    def all_rules(self) -> list[Rule]:
        return list(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __contains__(self, name: str) -> bool:
        return name in self._rules
