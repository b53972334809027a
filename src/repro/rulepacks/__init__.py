"""Declarative rule packs with a verified admission gate.

``.kpack`` files declare named, versioned groups of KOLA rewrite rules
in the shared parse/pretty surface syntax (:mod:`repro.rulepacks.
format`); every rule must clear a three-stage admission gate — parse /
round-trip, Larch model check, differential-oracle run — before
:meth:`RuleBase.load_pack` registers it (:mod:`repro.rulepacks.gate`).
The shipped packs (:mod:`repro.rulepacks.standard`) are the standard
pool's only definition, and :mod:`repro.rulepacks.mutate` breeds the
known-bad variants the mutation-escape tests feed back through the gate.
"""

from __future__ import annotations

from pathlib import Path

from repro.rewrite.rulebase import RuleBase
from repro.rulepacks.format import (PackFormatError, PackRule, RulePack,
                                    load_pack_file, parse_pack_text,
                                    render_pack)
from repro.rulepacks.gate import (AdmissionGate, GateConfig, GateReport,
                                  GateRuleResult, PackRejected,
                                  StageResult)
from repro.rulepacks.standard import (apply_packs, load_standard_packs,
                                      standard_pack_paths)

__all__ = [
    "AdmissionGate", "GateConfig", "GateReport", "GateRuleResult",
    "PackFormatError", "PackRejected", "PackRule", "RulePack",
    "StageResult", "apply_packs", "coerce_pack", "load_pack_file",
    "load_pack_into", "load_standard_packs", "parse_pack_text",
    "render_pack", "standard_pack_paths",
]


def coerce_pack(source) -> RulePack:
    """Accept a parsed pack, a path to a ``.kpack`` file, or pack text."""
    if isinstance(source, RulePack):
        return source
    if isinstance(source, Path):
        return load_pack_file(source)
    if isinstance(source, str):
        if "\n" in source or source.strip().startswith("pack "):
            return parse_pack_text(source)
        return load_pack_file(source)
    raise PackFormatError(
        f"cannot load a rule pack from {type(source).__name__}")


def load_pack_into(base: RuleBase, source, *, gate: AdmissionGate | None,
                   verify: bool = True) -> GateReport | None:
    """Implementation of :meth:`RuleBase.load_pack`.

    Gates the pack (unless ``verify=False``), then applies it to a
    working clone and — only on full success — swaps the clone's state
    into ``base``, so a rejected, malformed or incoherent pack leaves
    ``base`` untouched.  Generation counters only ever move forward,
    keeping the cache-invalidation contract intact.
    """
    pack = coerce_pack(source)
    report = None
    if verify:
        gate = gate or AdmissionGate(context=base if len(base) else None)
        report = gate.check(pack)
        if not report.ok:
            raise PackRejected(report)
    work = base.clone()
    apply_packs(work, (pack,))
    base._rules = work._rules
    base._groups = work._groups
    base._generations = work._generations
    base._generation_total = max(work._generation_total,
                                 base._generation_total + 1)
    return report
