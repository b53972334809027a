"""Tests for the ``.kpack`` text format: parsing, rendering, errors."""

import pytest

from repro.rewrite.rule import Goal
from repro.rulepacks import (PackFormatError, PackRule, RulePack,
                             parse_pack_text, render_pack)

GOOD = """\
# A comment line.
pack demo
version 3
description "two harmless rules"

rule compose-id
    number 1
    safety exhaustive
    citation "fig. 4"
    groups demo-group
    lhs id o $f
    rhs $f

rule demo-eq-inj
    sort pred
    bidirectional no
    requires injective($f)
    lhs eq @ ($f >< $f)
    rhs eq

group demo-block
    compose-id demo-eq-inj
"""


class TestParse:
    def test_header(self):
        pack = parse_pack_text(GOOD, source="demo.kpack")
        assert pack.name == "demo"
        assert pack.version == 3
        assert pack.description == "two harmless rules"
        assert pack.source == "demo.kpack"

    def test_rules(self):
        pack = parse_pack_text(GOOD)
        assert pack.rule_names() == ("compose-id", "demo-eq-inj")
        first, second = pack.rules
        assert first.number == 1
        assert first.safety == "exhaustive"
        assert first.citation == "fig. 4"
        assert first.groups == ("demo-group",)
        assert first.lhs_text == "id o $f" and first.rhs_text == "$f"
        assert second.sort == "pred"
        assert not second.bidirectional
        assert second.preconditions == (Goal("injective", "f"),)
        assert second.safety == "strategy-only"   # the default

    def test_group_blocks(self):
        pack = parse_pack_text(GOOD)
        assert pack.group_blocks == (
            ("demo-block", ("compose-id", "demo-eq-inj")),)

    def test_group_block_spans_lines(self):
        text = ("pack p\nversion 1\n\nrule r\n    lhs id o $f\n"
                "    rhs $f\n\ngroup g\n    r\n    r\n")
        pack = parse_pack_text(text)
        assert pack.group_blocks == (("g", ("r", "r")),)

    def test_build_constructs_validated_rule(self):
        built = parse_pack_text(GOOD).rules[0].build()
        assert built.name == "compose-id"
        assert built.number == 1
        assert built.bidirectional

    def test_defaults(self):
        pack = parse_pack_text(
            "pack p\nversion 1\nrule r\n    lhs id o $f\n    rhs $f\n")
        decl = pack.rules[0]
        assert decl.sort == "fun" and decl.bidirectional
        assert decl.safety == "strategy-only"
        assert decl.groups == () and decl.preconditions == ()


class TestErrors:
    def _expect(self, text, fragment, line=None):
        with pytest.raises(PackFormatError) as excinfo:
            parse_pack_text(text, source="bad.kpack")
        assert fragment in str(excinfo.value)
        if line is not None:
            assert f"bad.kpack:{line}:" in str(excinfo.value)

    def test_missing_pack_header(self):
        self._expect("version 1\n", "missing 'pack <name>'")

    def test_missing_version(self):
        self._expect("pack p\n", "missing 'version <int>'")

    def test_bad_version(self):
        self._expect("pack p\nversion zero\n", "positive integer", line=2)

    def test_duplicate_rule(self):
        self._expect("pack p\nversion 1\nrule r\n    lhs id\n    rhs id\n"
                     "rule r\n    lhs id\n    rhs id\n",
                     "duplicate rule", line=6)

    def test_rule_missing_side(self):
        self._expect("pack p\nversion 1\nrule r\n    lhs id o $f\n",
                     "missing its rhs", line=3)

    def test_unknown_field(self):
        self._expect("pack p\nversion 1\nrule r\n    wat 3\n",
                     "unknown rule field 'wat'", line=4)

    def test_directive_outside_rule(self):
        self._expect("pack p\nversion 1\nlhs id\n",
                     "unexpected directive", line=3)

    def test_bad_safety(self):
        self._expect("pack p\nversion 1\nrule r\n    safety sometimes\n",
                     "safety wants", line=4)

    def test_bad_bidirectional(self):
        self._expect("pack p\nversion 1\nrule r\n    bidirectional true\n",
                     "bidirectional wants yes|no", line=4)

    def test_bad_requires(self):
        self._expect("pack p\nversion 1\nrule r\n    requires inj f\n",
                     "requires wants", line=4)

    def test_non_json_note(self):
        self._expect("pack p\nversion 1\nrule r\n    note unquoted\n",
                     "JSON string", line=4)

    def test_empty_group_block(self):
        self._expect("pack p\nversion 1\nrule r\n    lhs id\n    rhs id\n"
                     "group g\n", "group block 'g' is empty", line=6)

    def test_duplicate_field(self):
        self._expect("pack p\nversion 1\nrule r\n    sort fun\n"
                     "    sort obj\n", "duplicate 'sort'", line=5)


class TestRoundTrip:
    def test_render_parse_identity(self):
        pack = parse_pack_text(GOOD)
        again = parse_pack_text(render_pack(pack))
        assert again.name == pack.name
        assert again.version == pack.version
        assert again.description == pack.description
        assert again.group_blocks == pack.group_blocks
        # source/line differ; compare the declaration payloads.
        for a, b in zip(pack.rules, again.rules):
            import dataclasses
            strip = lambda d: {k: v for k, v in
                               dataclasses.asdict(d).items() if k != "line"}
            assert strip(a) == strip(b)

    def test_render_is_stable(self):
        pack = parse_pack_text(GOOD)
        once = render_pack(pack)
        assert render_pack(parse_pack_text(once)) == once

    def test_render_programmatic_pack(self):
        pack = RulePack(
            name="mini", version=2,
            rules=(PackRule(name="r", lhs_text="id o $f",
                            rhs_text="$f", safety="exhaustive"),))
        text = render_pack(pack)
        assert "pack mini" in text and "safety exhaustive" in text
        assert parse_pack_text(text).rule_names() == ("r",)
