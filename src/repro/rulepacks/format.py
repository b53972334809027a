"""The ``.kpack`` rule-pack text format: parsing and rendering.

A *rule pack* is one text file declaring a named, versioned group of
KOLA rewrite rules in the surface syntax the parser and pretty-printer
already share (``docs/rule-authoring.md``).  The paper's thesis is that
combinator-form rules are *data* — small enough to state declaratively
and check mechanically — and this format is that claim made concrete:
everything a rule needs (sides, sort, paper number, preconditions,
saturation-safety tag, groups) is spelled in the file, and nothing else
is; a pack never contains Python.

Grammar (line-oriented; a line starting with ``#`` is a comment, blank
lines separate blocks, indentation is cosmetic)::

    pack <name>
    version <int>
    description "<json string>"            # optional

    rule <name>
        number <int>                       # optional paper rule number
        sort fun|pred|obj                  # default fun
        bidirectional yes|no               # default yes
        safety exhaustive|saturate-only|strategy-only   # default strategy-only
        citation "<json string>"           # optional
        note "<json string>"               # optional
        requires <property>($<var>)        # repeatable precondition goal
        groups <g1> <g2> ...               # optional inline group memberships
        lhs <kola surface syntax>
        rhs <kola surface syntax>

    group <name>                           # ordered group block; names may
        <rule> <rule> ...                  # span several indented lines and
        <rule> ...                         # may resolve across packs

Inline ``groups`` attach the rule to groups *in declaration order* (the
semantics of :meth:`RuleBase.add`); ``group`` blocks append rules
declared in the same pack or in one loaded before it, in the block's
order (the semantics of :meth:`RuleBase.extend_group`) — that
distinction is what lets the shipped packs spell each group's priority
order exactly, which the optimizer's rule-priority behavior depends on.

**Saturation-safety tags** say where a rule may be applied
automatically:

========================  ====================================================
tag                       meaning
========================  ====================================================
``exhaustive``            terminating under exhaustive rewriting; eligible
                          for ``cleanup``/``simplify`` and ``saturate``
``saturate-only``         productive inside the budgeted e-graph but
                          expansionary or shape-changing under greedy
                          exhaustive rewriting; eligible for ``saturate``
``strategy-only``         sound, but only applied deliberately by named
                          strategies (or guarded by preconditions); never
                          auto-scheduled
========================  ====================================================

Every load refuses a pack set whose tags and group memberships
disagree (e.g. a ``strategy-only`` rule in ``simplify``;
:func:`check_coherence`), gated or not, so the tag is a checked promise,
not a comment.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.core.errors import KolaError
from repro.core.terms import Sort
from repro.rewrite.rule import Goal, Rule, rule as make_rule

#: Safety tags, in decreasing order of automation eligibility.
SAFETY_TAGS = ("exhaustive", "saturate-only", "strategy-only")

#: Groups whose members are rewritten exhaustively: only ``exhaustive``
#: rules may join (prefix-matched for the ``simplify-*`` family).
EXHAUSTIVE_GROUPS = ("cleanup", "simplify")

_SORTS = {"fun": Sort.FUN, "pred": Sort.PRED, "obj": Sort.OBJ}
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_REQUIRES_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)\(\$([A-Za-z]\w*)\)$")


class PackFormatError(KolaError):
    """A rule-pack file is malformed (with ``source:line`` position)."""


@dataclass(frozen=True)
class PackRule:
    """One rule declaration, as written (sides kept as surface text)."""

    name: str
    lhs_text: str
    rhs_text: str
    sort: str = "fun"
    number: int | None = None
    bidirectional: bool = True
    safety: str = "strategy-only"
    preconditions: tuple[Goal, ...] = ()
    citation: str = ""
    note: str = ""
    groups: tuple[str, ...] = ()
    line: int = 0

    def build(self) -> Rule:
        """Parse the sides and construct the (validated) :class:`Rule`."""
        return make_rule(self.name, self.lhs_text, self.rhs_text,
                         sort=_SORTS[self.sort], number=self.number,
                         bidirectional=self.bidirectional,
                         preconditions=self.preconditions,
                         citation=self.citation, note=self.note)


@dataclass(frozen=True)
class RulePack:
    """One parsed ``.kpack`` file."""

    name: str
    version: int
    description: str = ""
    rules: tuple[PackRule, ...] = ()
    group_blocks: tuple[tuple[str, tuple[str, ...]], ...] = ()
    source: str = "<string>"

    def rule_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)


@dataclass
class _RuleDraft:
    name: str
    line: int
    fields: dict = field(default_factory=dict)
    preconditions: list = field(default_factory=list)


def _err(source: str, line_no: int, message: str) -> PackFormatError:
    return PackFormatError(f"{source}:{line_no}: {message}")


def _json_string(raw: str, source: str, line_no: int, key: str) -> str:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        raise _err(source, line_no,
                   f"{key} wants a JSON string, got {raw!r}") from None
    if not isinstance(value, str):
        raise _err(source, line_no, f"{key} wants a JSON string")
    return value


def parse_pack_text(text: str, source: str = "<string>") -> RulePack:
    """Parse one pack file's text into a :class:`RulePack`.

    Raises :class:`PackFormatError` (with ``source:line``) on any
    malformation; the returned pack is structurally valid but its rule
    sides are *not yet parsed* — that is gate stage 1's job
    (:meth:`PackRule.build`).
    """
    header: dict = {}
    rules: list[PackRule] = []
    seen: set[str] = set()
    group_blocks: list[tuple[str, tuple[str, ...]]] = []
    draft: _RuleDraft | None = None
    group_draft: tuple[str, list[str], int] | None = None

    def close_rule() -> None:
        nonlocal draft
        if draft is None:
            return
        fields = draft.fields
        for side in ("lhs", "rhs"):
            if side not in fields:
                raise _err(source, draft.line,
                           f"rule {draft.name!r} is missing its {side}")
        rules.append(PackRule(
            name=draft.name, lhs_text=fields["lhs"], rhs_text=fields["rhs"],
            sort=fields.get("sort", "fun"), number=fields.get("number"),
            bidirectional=fields.get("bidirectional", True),
            safety=fields.get("safety", "strategy-only"),
            preconditions=tuple(draft.preconditions),
            citation=fields.get("citation", ""),
            note=fields.get("note", ""),
            groups=tuple(fields.get("groups", ())), line=draft.line))
        draft = None

    def close_group() -> None:
        nonlocal group_draft
        if group_draft is None:
            return
        name, names, line_no = group_draft
        if not names:
            raise _err(source, line_no, f"group block {name!r} is empty")
        group_blocks.append((name, tuple(names)))
        group_draft = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        # Full-line comments only: rule text and JSON strings may
        # legitimately contain '#', so there are no trailing comments.
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 1)
        key, rest = parts[0], (parts[1] if len(parts) > 1 else "")

        if group_draft is not None and key not in ("pack", "rule", "group"):
            group_draft[1].extend(stripped.split())
            continue

        if key == "pack":
            if header:
                raise _err(source, line_no, "duplicate pack header")
            if rules or draft:
                raise _err(source, line_no,
                           "pack header must precede the first rule")
            if not _NAME_RE.match(rest):
                raise _err(source, line_no, f"bad pack name {rest!r}")
            header["name"] = rest
        elif key == "version":
            if not rest.isdigit() or int(rest) < 1:
                raise _err(source, line_no,
                           f"version wants a positive integer, got {rest!r}")
            header["version"] = int(rest)
        elif key == "description" and draft is None:
            header["description"] = _json_string(rest, source, line_no,
                                                 "description")
        elif key == "rule":
            close_rule()
            close_group()
            if not _NAME_RE.match(rest):
                raise _err(source, line_no, f"bad rule name {rest!r}")
            if rest in seen:
                raise _err(source, line_no, f"duplicate rule {rest!r}")
            seen.add(rest)
            draft = _RuleDraft(name=rest, line=line_no)
        elif key == "group":
            close_rule()
            close_group()
            if not _NAME_RE.match(rest):
                raise _err(source, line_no, f"bad group name {rest!r}")
            group_draft = (rest, [], line_no)
        elif draft is not None:
            _rule_field(draft, key, rest, source, line_no)
        else:
            raise _err(source, line_no,
                       f"unexpected directive {key!r} outside a rule")

    close_rule()
    close_group()
    if "name" not in header:
        raise _err(source, 1, "missing 'pack <name>' header")
    if "version" not in header:
        raise _err(source, 1, "missing 'version <int>' header")
    return RulePack(name=header["name"], version=header["version"],
                    description=header.get("description", ""),
                    rules=tuple(rules), group_blocks=tuple(group_blocks),
                    source=source)


def _rule_field(draft: _RuleDraft, key: str, rest: str, source: str,
                line_no: int) -> None:
    fields = draft.fields
    if key in fields and key != "requires":
        raise _err(source, line_no,
                   f"duplicate {key!r} in rule {draft.name!r}")
    if key in ("lhs", "rhs"):
        if not rest:
            raise _err(source, line_no, f"{key} wants a KOLA term")
        fields[key] = rest
    elif key == "sort":
        if rest not in _SORTS:
            raise _err(source, line_no,
                       f"sort wants fun|pred|obj, got {rest!r}")
        fields[key] = rest
    elif key == "number":
        if not rest.lstrip("-").isdigit():
            raise _err(source, line_no,
                       f"number wants an integer, got {rest!r}")
        fields[key] = int(rest)
    elif key == "bidirectional":
        if rest not in ("yes", "no"):
            raise _err(source, line_no,
                       f"bidirectional wants yes|no, got {rest!r}")
        fields[key] = rest == "yes"
    elif key == "safety":
        if rest not in SAFETY_TAGS:
            raise _err(source, line_no,
                       f"safety wants one of {'|'.join(SAFETY_TAGS)}, "
                       f"got {rest!r}")
        fields[key] = rest
    elif key in ("citation", "note"):
        fields[key] = _json_string(rest, source, line_no, key)
    elif key == "requires":
        match = _REQUIRES_RE.match(rest)
        if match is None:
            raise _err(source, line_no,
                       f"requires wants <property>($<var>), got {rest!r}")
        draft.preconditions.append(Goal(match.group(1), match.group(2)))
    elif key == "groups":
        names = rest.split()
        if not names:
            raise _err(source, line_no, "groups wants at least one name")
        for name in names:
            if not _NAME_RE.match(name):
                raise _err(source, line_no, f"bad group name {name!r}")
        fields[key] = names
    else:
        raise _err(source, line_no,
                   f"unknown rule field {key!r} in rule {draft.name!r}")


# -- rendering ---------------------------------------------------------------

def render_pack(pack: RulePack) -> str:
    """Render a pack back to ``.kpack`` text
    (``parse_pack_text(render_pack(p))`` is the identity up to the
    ``source`` field)."""
    lines = [f"pack {pack.name}", f"version {pack.version}"]
    if pack.description:
        lines.append(f"description {json.dumps(pack.description)}")
    for decl in pack.rules:
        lines.append("")
        lines.append(f"rule {decl.name}")
        if decl.number is not None:
            lines.append(f"    number {decl.number}")
        if decl.sort != "fun":
            lines.append(f"    sort {decl.sort}")
        if not decl.bidirectional:
            lines.append("    bidirectional no")
        lines.append(f"    safety {decl.safety}")
        if decl.citation:
            lines.append(f"    citation {json.dumps(decl.citation)}")
        if decl.note:
            lines.append(f"    note {json.dumps(decl.note)}")
        for goal in decl.preconditions:
            lines.append(f"    requires {goal.property}(${goal.var})")
        if decl.groups:
            lines.append(f"    groups {' '.join(decl.groups)}")
        lines.append(f"    lhs {decl.lhs_text}")
        lines.append(f"    rhs {decl.rhs_text}")
    for group_name, names in pack.group_blocks:
        lines.append("")
        lines.append(f"group {group_name}")
        for chunk_start in range(0, len(names), 4):
            chunk = names[chunk_start:chunk_start + 4]
            lines.append("    " + " ".join(chunk))
    lines.append("")
    return "\n".join(lines)


# -- safety-tag coherence ----------------------------------------------------

def _is_exhaustive_group(name: str) -> bool:
    return any(name == prefix or name.startswith(prefix + "-")
               for prefix in EXHAUSTIVE_GROUPS)


def effective_groups(packs) -> dict[str, set[str]]:
    """rule name -> every group a load set puts it in (inline fields
    plus group blocks)."""
    effective: dict[str, set[str]] = {}
    for pack in packs:
        for decl in pack.rules:
            effective.setdefault(decl.name, set()).update(decl.groups)
    for pack in packs:
        for group_name, names in pack.group_blocks:
            for name in names:
                effective.setdefault(name, set()).add(group_name)
    return effective


def coherence_problems(decl: PackRule, effective: dict) -> list[str]:
    """Where ``decl``'s safety tag, guards and groups disagree."""
    problems = []
    groups = effective.get(decl.name, set())
    exhaustive_groups = sorted(g for g in groups if _is_exhaustive_group(g))
    if decl.safety != "exhaustive" and exhaustive_groups:
        problems.append(
            f"safety {decl.safety!r} forbids membership in exhaustive-"
            f"rewriting group(s) {', '.join(exhaustive_groups)}")
    if decl.safety == "strategy-only" and "saturate" in groups:
        problems.append(
            "safety 'strategy-only' forbids membership in 'saturate'")
    if decl.preconditions:
        if decl.safety != "strategy-only":
            problems.append(
                "guarded rules must declare safety strategy-only: the "
                "exhaustive engine and the e-matcher never consult "
                "precondition oracles")
        if exhaustive_groups or "saturate" in groups:
            bad = ", ".join(sorted(
                set(exhaustive_groups) | ({"saturate"} & groups)))
            problems.append(
                f"guarded rule cannot join automatic group(s) {bad}: "
                "its guard would be silently ignored there")
    return problems


def check_coherence(packs) -> None:
    """Refuse a load set in which any rule's safety tag disagrees with
    the groups the set puts it in (:class:`PackFormatError`, naming
    every offending ``source:line``)."""
    effective = effective_groups(packs)
    problems = [f"{pack.source}:{decl.line}: rule {decl.name!r}: {problem}"
                for pack in packs for decl in pack.rules
                for problem in coherence_problems(decl, effective)]
    if problems:
        raise PackFormatError("\n".join(problems))


def load_pack_file(path) -> RulePack:
    """Parse a ``.kpack`` file from disk."""
    from pathlib import Path
    p = Path(path)
    return parse_pack_text(p.read_text(encoding="utf-8"), source=str(p))
