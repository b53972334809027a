"""Generate a human-readable catalog of the rule pool.

``python -m repro.tools.rulecatalog [--output docs/rules-catalog.md]``
emits a markdown document listing every registered rule — equation,
paper number, preconditions, direction, notes, and the pack and
saturation-safety tag that declare it — grouped the way the rule base
groups them.  The committed ``docs/rules-catalog.md`` is regenerated by
this script (and a test asserts it is in sync).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.pretty import pretty
from repro.rewrite.rule import Rule
from repro.rewrite.rulebase import RuleBase
from repro.rules.registry import standard_rulebase

#: Presentation order and titles for the catalog sections.
SECTIONS: list[tuple[str, str]] = [
    ("fig4", "Figure 4 — rules 1-12"),
    ("fig5", "Figure 5 — rules 13-16"),
    ("fig8", "Figure 8 — hidden-join rules 17-24"),
    ("companions", "Companion identities"),
    ("pool", "Extended pool"),
    ("bags", "Bag extension (Section 6)"),
    ("lists", "List extension (Section 6)"),
    ("aggregates", "Aggregates and the count-bug study"),
]


def _render_rule(one_rule: Rule,
                 pack_info: dict[str, tuple[str, str]] | None = None) -> str:
    arrow = "&harr;" if one_rule.bidirectional else "&rarr;"
    number = (f" *(paper rule {one_rule.number})*"
              if one_rule.number is not None else "")
    lines = [f"### `{one_rule.name}`{number}",
             "",
             f"```\n{pretty(one_rule.lhs)}  {'<=>' if one_rule.bidirectional else '==>'}  "
             f"{pretty(one_rule.rhs)}\n```"]
    if one_rule.preconditions:
        goals = ", ".join(f"`{g!r}`" for g in one_rule.preconditions)
        lines.append(f"*Preconditions:* {goals}")
    if one_rule.note:
        lines.append(f"*Note:* {one_rule.note}")
    info = (pack_info or {}).get(one_rule.name)
    if info:
        pack_name, safety = info
        lines.append(f"*Pack:* `{pack_name}.kpack` &middot; "
                     f"*safety:* `{safety}`")
    lines.append("")
    return "\n".join(lines)


def _pack_info() -> dict[str, tuple[str, str]]:
    """rule name -> (shipped pack name, saturation-safety tag)."""
    from repro.rulepacks import load_standard_packs
    info: dict[str, tuple[str, str]] = {}
    for pack in load_standard_packs():
        for decl in pack.rules:
            info[decl.name] = (pack.name, decl.safety)
    return info


def generate_catalog(base: RuleBase | None = None) -> str:
    """The full catalog as markdown text."""
    base = base or standard_rulebase()
    seen: set[str] = set()
    parts = [
        "# Rule catalog",
        "",
        "Generated by `python -m repro.tools.rulecatalog`; "
        "do not edit by hand.",
        "",
        f"**{len(base)} rules**, every one type-checked at construction "
        "and verified by the Larch-substitute model checker "
        "(`pytest tests/test_rule_pool.py`).",
        "",
        "## Rule packs",
        "",
        "The `.kpack` rule packs under `src/repro/rulepacks/packs/` are "
        "the pool's only definition: named, versioned rule groups in "
        "the surface syntax, each rule carrying its sort, direction, "
        "preconditions, group memberships and a *saturation-safety* "
        "tag.  `standard_rulebase()` (`repro.rules.registry`) loads "
        "them.  Every pack — shipped or user-written — must clear the "
        "three-stage admission gate (parse/round-trip, model check, "
        "differential oracle) before `RuleBase.load_pack` registers "
        "it; `python -m repro.cli rulepack check` runs the gate from "
        "the command line.  See `docs/rule-authoring.md` for the "
        "format, the gate's stages and how to change a rule; each "
        "entry below names its pack and tag.",
        "",
        "## Saturation safety",
        "",
        "A rule's safety tag says where it may be applied "
        "automatically, and the loader refuses a pack whose tags and "
        "groups disagree.  **exhaustive** rules terminate under "
        "exhaustive rewriting and may join `cleanup`, `simplify` and "
        "`saturate`.  **saturate-only** rules are expansionary or "
        "shape-changing under greedy rewriting but productive in "
        "equality-saturation search (`repro.saturate`), which applies "
        "the `saturate` group — simplify + the Figure 4/5/8 equalities "
        "+ the pair/cross normalizers — under iteration and e-node "
        "budgets: the e-graph keeps every intermediate form, so "
        "grow-before-payoff derivations are safe there.  "
        "**strategy-only** rules join neither: they enlarge terms "
        "without bound, destroy the combinator shapes the plan "
        "recognizers match, or carry preconditions, which the "
        "exhaustive engine and the e-matcher never consult; named "
        "strategies apply them deliberately.",
        "",
    ]
    packs = _pack_info()
    for group, title in SECTIONS:
        rules = [r for r in base.group(group) if r.name not in seen]
        if not rules:
            continue
        parts.append(f"## {title}")
        parts.append("")
        for one_rule in rules:
            seen.add(one_rule.name)
            parts.append(_render_rule(one_rule, packs))
    leftovers = [r for r in base.all_rules() if r.name not in seen]
    if leftovers:
        parts.append("## Other")
        parts.append("")
        for one_rule in leftovers:
            parts.append(_render_rule(one_rule, packs))
    return "\n".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    args = parser.parse_args(argv)
    text = generate_catalog()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({text.count(chr(10))} lines)",
              file=sys.stderr)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
