"""Bags (multisets): the paper's first "current effort" (Section 6).

    "We are extending KOLA to incorporate other bulk types besides
    sets, both to increase compatibility with languages such as OQL
    (which supports bags and lists also) and to permit expressions of
    optimizations that exploit these kinds of collections (e.g.
    optimizations that defer duplicate elimination can be expressed as
    transformations that produce bags as intermediate results)."

This module provides the bag value type :class:`KBag`; the bag operators
live in the signature registry (``tobag``, ``distinct``, ``bag_iterate``,
``bag_flat``, ``bag_union``, ``bag_join``) and their semantics in
:mod:`repro.core.eval`.  The deferred-duplicate-elimination rules are in
the shipped ``bags.kpack`` rule pack.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.core.errors import EvalError


class KBag:
    """An immutable multiset.

    Stored as element -> multiplicity; hashable and comparable so bags
    can be members of sets/bags and results of queries.
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Mapping[object, int] | None = None) -> None:
        cleaned: dict[object, int] = {}
        for element, count in (counts or {}).items():
            if not isinstance(count, int) or count < 0:
                raise EvalError(
                    f"bag multiplicity must be a non-negative int, "
                    f"got {count!r}")
            if count:
                cleaned[element] = count
        self._counts = cleaned
        self._hash = hash((KBag, frozenset(cleaned.items())))

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, items: Iterable[object]) -> "KBag":
        """Build a bag from an iterable (counting duplicates)."""
        counts: dict[object, int] = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        return cls(counts)

    @classmethod
    def empty(cls) -> "KBag":
        return cls({})

    # -- queries ------------------------------------------------------------

    def count(self, element: object) -> int:
        """Multiplicity of ``element`` (0 when absent)."""
        return self._counts.get(element, 0)

    def support(self) -> frozenset:
        """The underlying set (duplicate elimination)."""
        return frozenset(self._counts)

    def counts(self) -> dict[object, int]:
        """A copy of the multiplicity map."""
        return dict(self._counts)

    def __len__(self) -> int:
        """Total number of elements, counting multiplicity."""
        return sum(self._counts.values())

    def __iter__(self) -> Iterator[object]:
        """Iterate elements with multiplicity (deterministic per build)."""
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def __contains__(self, element: object) -> bool:
        return element in self._counts

    # -- algebra --------------------------------------------------------------

    def map(self, fn) -> "KBag":
        """Multiplicity-preserving map (duplicates may merge *counts*)."""
        counts: dict[object, int] = {}
        for element, count in self._counts.items():
            image = fn(element)
            counts[image] = counts.get(image, 0) + count
        return KBag(counts)

    def filter(self, pred) -> "KBag":
        return KBag({element: count
                     for element, count in self._counts.items()
                     if pred(element)})

    def additive_union(self, other: "KBag") -> "KBag":
        """Bag union: multiplicities add (OQL's ``union all``)."""
        counts = dict(self._counts)
        for element, count in other._counts.items():
            counts[element] = counts.get(element, 0) + count
        return KBag(counts)

    def flatten(self) -> "KBag":
        """Additive union of a bag of bags."""
        result = KBag.empty()
        for element, count in self._counts.items():
            if not isinstance(element, KBag):
                raise EvalError(f"bag_flat over non-bag member {element!r}")
            for _ in range(count):
                result = result.additive_union(element)
        return result

    # -- protocol ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KBag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{element!r}*{count}"
                          for element, count in sorted(
                              self._counts.items(), key=lambda kv: repr(kv[0])))
        return f"Bag{{{inner}}}"


def as_bag(value: object, context: str = "") -> KBag:
    """Coerce to a bag or raise a descriptive :class:`EvalError`."""
    if isinstance(value, KBag):
        return value
    where = f" in {context}" if context else ""
    raise EvalError(f"expected a bag{where}, got {value!r}")
