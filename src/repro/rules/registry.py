"""The standard rule base, assembled from the shipped rule packs.

:func:`standard_rulebase` returns a fresh
:class:`~repro.rewrite.rulebase.RuleBase` holding every rule the
``.kpack`` files of :mod:`repro.rulepacks.standard` declare, with the
groups the rest of the system refers to:

========================  =====================================================
group                     contents
========================  =====================================================
``fig4``                  rules 1-12 (Figure 4 sidebar)
``fig5``                  rules 13-16 (Figure 5)
``fig8``                  rules 17-24 (+ the 17b and 22b instances)
``companions``            unnumbered identities the derivations use silently
``bags``, ``lists``       the Section 6 extensions
``aggregates``            aggregates and the count-bug study
``pool``                  the full extended pool (``pool-<family>`` partitions
                          it by family)
``structural``            pool rules that loop under exhaustive rewriting
``conditional``           precondition-guarded pool rules
``cleanup``               terminating identities safe for exhaustive rewriting
``simplify``              cleanup + the terminating extension and pool rules
``pair-to-cross``         the spelling normalizers used after hidden-join step 5
``saturate``              the saturation-safe pool for equality-saturation
                          search: simplify + fig8 + pair-to-cross +
                          fig4 + fig5
========================  =====================================================

Which automatic groups a rule may join is its pack's *saturation-safety*
tag — ``exhaustive`` (``cleanup``/``simplify``/``saturate``),
``saturate-only`` (``saturate``) or ``strategy-only`` (neither) — and
the loader refuses a pack whose tags and groups disagree
(:func:`repro.rulepacks.format.check_coherence`).

The packs are parsed and their rules built once per process; every call
returns a clone that shares those immutable :class:`Rule` objects but
no group list or generation counter, so bases stay isolated from each
other.
"""

from __future__ import annotations

import threading

from repro.rewrite.rulebase import RuleBase
from repro.rulepacks.standard import apply_packs, load_standard_packs

_shipped_base: RuleBase | None = None
_shipped_lock = threading.Lock()


def _shipped() -> RuleBase:
    """The pool as the shipped packs declare it, built on first use.

    Never handed out: callers get clones, so nothing mutates it."""
    global _shipped_base
    with _shipped_lock:
        if _shipped_base is None:
            base = RuleBase()
            apply_packs(base, load_standard_packs())
            _shipped_base = base
        return _shipped_base


def standard_rulebase() -> RuleBase:
    """Build the full standard rule base (fresh instance)."""
    base = _shipped().clone()
    # Build each group's rule index once up front: every consumer (the
    # optimizer's simplify pass, COKO strategies, benchmarks) then
    # compiles its discrimination tree from the same cached entry.
    for group_name in base.group_names():
        base._dispatch_entry((f"group:{group_name}",))
    return base
