"""The shared primitive-operator tables.

KOLA's comparison predicates (``eq``/``neq``/``lt``/``leq``/``gt``/
``geq``) and binary set functions (``union``/``intersect``/
``difference``) are pure Python operators.  Every execution path —
the tree-walking evaluator (:mod:`repro.core.eval`), the scalar
closures (:mod:`repro.exec.scalar`) and the codegen kernels
(:mod:`repro.exec.codegen`) — resolves them through *this* module, so
the paths cannot drift on primitive semantics.  (They used to each carry
a private copy of these tables; a typo in one copy would have been a
silent semantic fork only the differential oracle could catch.)
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.core.errors import EvalError

#: Comparison predicates on pairs, by operator name.
COMPARISONS: dict[str, Callable[[object, object], bool]] = {
    "eq": operator.eq,
    "neq": operator.ne,
    "lt": operator.lt,
    "leq": operator.le,
    "gt": operator.gt,
    "geq": operator.ge,
}

#: Binary set functions on pairs of frozensets, by ``setop`` label.
SETOPS: dict[str, Callable[[frozenset, frozenset], frozenset]] = {
    "union": operator.or_,
    "intersect": operator.and_,
    "difference": operator.sub,
}


def compare(op: str, fst: object, snd: object) -> bool:
    """Apply comparison ``op``, folding Python ``TypeError`` (incomparable
    values, e.g. ``1 < "a"``) into the evaluator's :class:`EvalError`."""
    try:
        return bool(COMPARISONS[op](fst, snd))
    except TypeError as exc:
        raise EvalError(f"{op} applied to incomparable values: {exc}")
