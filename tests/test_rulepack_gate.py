"""The rule-pack admission gate over the shipped pool.

The acceptance bar for the pack subsystem:

* every one of the shipped pool's rules loads from ``.kpack`` text and
  clears the full three-stage gate with **zero** rejections;
* the shipped pack files round-trip byte-exactly;
* loading the shipped packs one by one through ``RuleBase.load_pack``
  reproduces ``standard_rulebase()`` — same rules, same group
  orderings, and bit-identical optimizer behavior on the paper's
  queries;
* ``standard_rulebase()`` builds the shipped rules once per process
  and hands out bases isolated from each other;
* ``RuleBase.load_pack`` keeps the generation-counter cache contract,
  refuses a pack whose safety tags and groups disagree, and leaves the
  base untouched on rejection;
* gate reports are byte-deterministic (golden file under
  ``tests/golden/``).
"""

import json
import pathlib

import pytest

from repro.rewrite.rule import rule
from repro.rewrite.rulebase import RuleBase
from repro.rulepacks import (AdmissionGate, GateConfig, PackFormatError,
                             PackRejected, apply_packs, load_pack_file,
                             load_standard_packs, parse_pack_text,
                             standard_pack_paths)
from repro.rulepacks.format import render_pack
from repro.rules.registry import standard_rulebase

#: Trimmed gate knobs for the in-suite full-pool run (the CI ``rule-gate``
#: job uses the heavier defaults); still executes every stage including
#: the differential-oracle probes for every unguarded rule.
LIGHT = GateConfig(trials=15, oracle_probes=2, oracle_queries=1)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def standard_packs():
    return load_standard_packs()


@pytest.fixture(scope="module")
def light_report(standard_packs):
    """One full-pool gate run shared by the admission tests (~30s)."""
    return AdmissionGate(LIGHT).check(standard_packs)


class TestShippedPacksAdmitted:
    def test_pool_is_fully_represented(self, standard_packs, rulebase):
        names = [decl.name for pack in standard_packs
                 for decl in pack.rules]
        assert sorted(names) == sorted(r.name for r in rulebase.all_rules())
        assert len(names) == len(set(names))

    def test_zero_rejections(self, light_report, rulebase):
        assert light_report.ok, light_report.render()
        assert len(light_report.results) == len(rulebase)
        assert light_report.rejected == []

    def test_every_stage_recorded(self, light_report):
        for result in light_report.results:
            stages = {s.stage: s.status for s in result.stages}
            assert stages["parse"] == "pass"
            assert stages["model-check"] == "pass"
            # Guarded rules legitimately skip the oracle stage.
            assert stages["oracle"] in ("pass", "skip")

    def test_guarded_rules_skip_oracle_only(self, light_report, rulebase):
        guarded = {r.name for r in rulebase.all_rules()
                   if r.preconditions}
        for result in light_report.results:
            oracle = next(s for s in result.stages if s.stage == "oracle")
            expected = "skip" if result.rule in guarded else "pass"
            assert oracle.status == expected, result.rule

    def test_report_json_schema(self, light_report):
        payload = json.loads(light_report.to_json_text())
        assert payload["ok"] is True
        assert payload["rejected"] == 0
        assert payload["checked"] == len(light_report.results)
        assert payload["config"]["trials"] == LIGHT.trials
        assert {p["name"] for p in payload["packs"]} >= {"fig4", "fig5"}
        for entry in payload["results"]:
            assert entry["admitted"] is True
            assert entry["rejected_stage"] is None


class TestShippedPacksInSync:
    def test_files_round_trip_byte_exactly(self):
        for path in standard_pack_paths():
            text = path.read_text(encoding="utf-8")
            assert render_pack(load_pack_file(path)) == text, path.name


class TestPackRegistryEquivalence:
    """The public per-pack path (``RuleBase.load_pack``, as ``repro.cli
    rulepack load --standard`` uses it) assembles the same pool as
    ``standard_rulebase()``."""

    @pytest.fixture(scope="class")
    def pack_base(self):
        base = RuleBase()
        for pack in load_standard_packs():
            base.load_pack(pack, verify=False)
        return base

    @pytest.fixture(scope="class")
    def registry(self):
        # A private fresh base: the session-scoped ``rulebase`` fixture
        # is shared suite-wide and other tests may touch it.
        return standard_rulebase()

    def test_same_rules(self, pack_base, registry):
        assert len(pack_base) == len(registry)
        for one_rule in registry.all_rules():
            assert pack_base.get(one_rule.name) == one_rule

    def test_same_groups_same_order(self, pack_base, registry):
        assert pack_base.group_names() == registry.group_names()
        for name in registry.group_names():
            assert ([r.name for r in pack_base.group(name)]
                    == [r.name for r in registry.group(name)]), name

    def test_optimizer_behavior_identical(self, pack_base, registry,
                                          tiny_db, queries):
        """Plans chosen from the pack-loaded base are bit-identical
        (interned-term identity) to the registry's."""
        from repro.optimizer.optimizer import Optimizer
        corpus = [queries.kg1, queries.t1k_source, queries.t2k_source,
                  queries.k3]
        for search in ("greedy", "saturate"):
            for query in corpus:
                from_packs = Optimizer(rulebase=pack_base).optimize(
                    query, tiny_db, search=search)
                from_registry = Optimizer(rulebase=registry).optimize(
                    query, tiny_db, search=search)
                assert from_packs.best_term is from_registry.best_term

    def test_engine_normalization_identical(self, pack_base, registry,
                                            engine, queries):
        for query in (queries.kg1, queries.t1k_source, queries.k4):
            ours = engine.normalize(query, pack_base.group("simplify"))
            theirs = engine.normalize(query, registry.group("simplify"))
            assert ours is theirs


SOUND_PACK = """\
pack add-on
version 1

rule demo-id-left
    safety exhaustive
    groups simplify
    lhs id o $f
    rhs $f
"""

UNSOUND_PACK = """\
pack broken
version 1

rule inv-gt-is-leq
    sort pred
    safety exhaustive
    groups simplify
    lhs inv(gt)
    rhs leq
"""

INCOHERENT_PACK = """\
pack incoherent
version 1

rule demo-id-right
    safety strategy-only
    groups simplify saturate
    lhs $f o id
    rhs $f
"""

FAST = GateConfig(trials=20, oracle_probes=2, oracle_queries=1)


class TestLoadPack:
    def test_load_bumps_generations(self):
        base = RuleBase()
        before_total = base.generation
        base.load_pack(SOUND_PACK, verify=False)
        assert base.generation > before_total
        assert "demo-id-left" in base
        assert [r.name for r in base.group("simplify")] == ["demo-id-left"]

    def test_load_invalidates_group_caches(self):
        base = standard_rulebase()
        compiled_before = base.group_compiled("simplify")
        base.load_pack(SOUND_PACK, verify=False)
        assert base.group_compiled("simplify") is not compiled_before

    def test_verified_load_admits_sound_pack(self):
        base = RuleBase()
        report = base.load_pack(SOUND_PACK,
                                gate=AdmissionGate(FAST))
        assert report is not None and report.ok
        assert "demo-id-left" in base

    def test_rejected_pack_leaves_base_untouched(self):
        base = RuleBase()
        base.load_pack(SOUND_PACK, verify=False)
        generation = base.generation
        with pytest.raises(PackRejected) as excinfo:
            base.load_pack(UNSOUND_PACK, gate=AdmissionGate(FAST))
        assert "inv-gt-is-leq" in str(excinfo.value)
        assert excinfo.value.report.rejected[0].rejected_stage \
            == "model-check"
        assert "inv-gt-is-leq" not in base
        assert base.generation == generation

    def test_malformed_pack_leaves_base_untouched(self):
        base = RuleBase()
        base.load_pack(SOUND_PACK, verify=False)
        generation = base.generation
        with pytest.raises(PackFormatError):
            base.load_pack("pack nope\n", verify=False)
        assert base.generation == generation and len(base) == 1

    def test_incoherent_pack_refused_without_gate(self):
        """The loader itself checks safety tags against groups: a
        ``strategy-only`` rule cannot join ``simplify`` or ``saturate``
        even when the gate is skipped."""
        base = RuleBase()
        base.load_pack(SOUND_PACK, verify=False)
        generation = base.generation
        with pytest.raises(PackFormatError) as excinfo:
            base.load_pack(INCOHERENT_PACK, verify=False)
        message = str(excinfo.value)
        assert "<string>:4: rule 'demo-id-right'" in message
        assert "exhaustive-rewriting group(s) simplify" in message
        assert "forbids membership in 'saturate'" in message
        assert "demo-id-right" not in base
        assert base.generation == generation

    def test_incoherent_group_block_refused(self):
        """Coherence is checked over the whole load set, so a group
        block in a later pack is held to an earlier pack's tags."""
        rules = INCOHERENT_PACK.replace("    groups simplify saturate\n",
                                        "")
        blocks = "pack blocks\nversion 1\n\ngroup simplify\n" \
                 "    demo-id-right\n"
        base = RuleBase()
        with pytest.raises(PackFormatError, match="demo-id-right"):
            apply_packs(base, (parse_pack_text(rules),
                               parse_pack_text(blocks)))
        assert len(base) == 0


class TestStandardRulebase:
    def test_rules_built_once_per_process(self):
        first, second = standard_rulebase(), standard_rulebase()
        assert first is not second
        assert len(first) == len(second) == 179
        for one_rule in first:
            assert second.get(one_rule.name) is one_rule

    def test_bases_are_isolated(self):
        first, second = standard_rulebase(), standard_rulebase()
        groups = {name: [r.name for r in second.group(name)]
                  for name in second.group_names()}
        generations = {name: second.group_generation(name)
                       for name in second.group_names()}
        total = second.generation

        first.add(rule("demo-extra", "id o id o $f", "$f"),
                  ["simplify", "demo-new"])
        first.extend_group("fig4", ["r13"])
        first.load_pack(SOUND_PACK, verify=False)
        assert "demo-extra" in first and "demo-id-left" in first

        assert "demo-extra" not in second and "demo-id-left" not in second
        assert {name: [r.name for r in second.group(name)]
                for name in second.group_names()} == groups
        assert {name: second.group_generation(name)
                for name in second.group_names()} == generations
        assert second.generation == total
        assert "demo-extra" not in standard_rulebase()


#: The golden run's config — chosen small but with every stage live.
GOLDEN_CONFIG = GateConfig(trials=25, oracle_probes=2, oracle_queries=1)


class TestDeterminism:
    def test_checker_reports_are_reproducible(self, rulebase):
        """Same (rule, config) -> identical report objects.  The
        per-rule seed folds the rule name in via crc32, not the
        process-salted ``hash()`` (see RuleChecker.check)."""
        from repro.larch.checker import RuleChecker
        one_rule = rulebase.get("count-map-inj")
        first = RuleChecker(trials=40).check(one_rule)
        second = RuleChecker(trials=40).check(one_rule)
        assert first == second

    def test_golden_gate_report(self):
        """Gating fig5 under GOLDEN_CONFIG is byte-identical across
        runs, processes and Python versions.  Regenerate (only after an
        intentional gate change) with:

        ``PYTHONPATH=src python -m tests.regen_golden_gate_report``
        (see the module for the exact recipe used here).
        """
        fig5 = next(p for p in load_standard_packs() if p.name == "fig5")
        report = AdmissionGate(GOLDEN_CONFIG).check(fig5)
        golden = GOLDEN / "gate_report_fig5.json"
        assert report.to_json_text() == golden.read_text(encoding="utf-8")
