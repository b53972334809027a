"""The shipped rule packs: the standard pool's only definition.

Every rule :func:`repro.rules.registry.standard_rulebase` registers is
declared once, as data, in a ``.kpack`` file in the ``packs/`` directory
next to this module; no Python module restates it.  To change the
pool, edit a pack, gate it (``python -m repro.cli rulepack check
--standard``) and regenerate the rules catalog
(``docs/rule-authoring.md``).

Pack partition:

======================  ==================================================
pack file               contents
======================  ==================================================
``fig4.kpack``          Figure 4 sidebar rules 1-12
``fig5.kpack``          Figure 5 rules 13-16
``companions.kpack``    unnumbered identities the derivations use silently
``hidden-join.kpack``   Figure 8 rules 17-24 (+17b, 22b)
``bags.kpack``          bag algebra
``lists.kpack``         list algebra
``aggregates.kpack``    aggregates
``extended.kpack``      the extended pool (``pool-<family>`` groups)
``groups.kpack``        ordered group blocks for the derived groups
                        (``cleanup``, ``simplify``, ``saturate``, ...)
======================  ==================================================

Groups whose membership order equals the packs' declaration order are
attached inline on each rule (``groups`` field); every other group —
the ones whose order is a deliberate rule priority — lives as an
ordered block in ``groups.kpack``, which loads last.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.errors import KolaError
from repro.rewrite.rulebase import RuleBase
from repro.rulepacks.format import (PackFormatError, RulePack,
                                    check_coherence, load_pack_file)

#: The shipped pack files, in load order: the rule packs' order is the
#: pool's registration order, and ``groups`` stays last so its blocks
#: can reference rules from every other pack.
_PACK_NAMES = (
    "fig4", "fig5", "companions", "hidden-join", "bags", "lists",
    "aggregates", "extended", "groups",
)


def standard_pack_paths() -> tuple[Path, ...]:
    """The shipped pack files, in load order (``groups.kpack`` last)."""
    directory = Path(__file__).resolve().parent / "packs"
    paths = tuple(directory / f"{name}.kpack" for name in _PACK_NAMES)
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise PackFormatError(
            "missing shipped pack file(s): " + ", ".join(missing))
    return paths


def load_standard_packs() -> tuple[RulePack, ...]:
    """Parse every shipped pack, in load order."""
    return tuple(load_pack_file(path) for path in standard_pack_paths())


def apply_packs(base: RuleBase, packs) -> None:
    """Register a load set of parsed packs into ``base``, in order.

    Structural application only — no admission gate — but the load set
    must be coherent (:func:`~repro.rulepacks.format.check_coherence`):
    a safety tag that disagrees with the rule's groups raises
    :class:`PackFormatError` before anything is registered.  Rules
    already registered under the same name are *replaced* (with the
    cache generation bump :meth:`RuleBase.replace` guarantees); each
    pack's group blocks append in declared order and may reference
    rules from previously applied packs.
    """
    check_coherence(packs)
    for pack in packs:
        for decl in pack.rules:
            built = decl.build()
            if built.name in base:
                base.replace(built)
                for group in decl.groups:
                    base.extend_group(group, [built.name])
            else:
                base.add(built, decl.groups)
        for group_name, names in pack.group_blocks:
            try:
                base.extend_group(group_name, names)
            except KolaError as exc:
                raise PackFormatError(
                    f"{pack.source}: group block {group_name!r}: {exc}"
                ) from exc
