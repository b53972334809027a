"""Runtime values for the KOLA evaluator.

KOLA's semantic domain (Tables 1 and 2) needs four kinds of value:

* scalars — ints, floats, strings, booleans;
* pairs — the ``[x, y]`` objects that binary functions/predicates consume;
* sets — always *sets* in this paper (bags and lists are explicitly left
  to future work, Section 6), represented as ``frozenset`` so that sets of
  sets and sets of pairs are well-defined;
* schema objects — instances of abstract data types (``Person``,
  ``Vehicle``...), identified by ADT name + oid and carrying their
  attribute values.

Everything is hashable and immutable, which the evaluator relies on when
building result sets.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Iterator

from repro.core.errors import EvalError


class KPair:
    """An ordered pair ``[x, y]`` in KOLA's value domain.

    Distinct from Python tuples so that evaluator type errors (projecting
    a non-pair, say) are detected rather than silently accepted for any
    2-sequence.
    """

    __slots__ = ("fst", "snd", "_hash")

    def __init__(self, fst: object, snd: object) -> None:
        self.fst = fst
        self.snd = snd
        self._hash = hash((KPair, fst, snd))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KPair):
            return NotImplemented
        return self.fst == other.fst and self.snd == other.snd

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"[{self.fst!r}, {self.snd!r}]"

    def __iter__(self) -> Iterator[object]:
        yield self.fst
        yield self.snd


class Instance:
    """An object of a schema ADT, identified by ``(adt, oid)``.

    Attribute values are filled in once by the database builder and read
    via :meth:`get`; identity (equality/hash) is by ADT name and oid, as
    in an object database.
    """

    __slots__ = ("adt", "oid", "_attrs", "_hash")

    def __init__(self, adt: str, oid: int) -> None:
        self.adt = adt
        self.oid = oid
        self._attrs: dict[str, object] = {}
        # Not hash(adt): str hashes are salted per process, and set
        # order over instances (so which element an error names) must
        # be the same in every process.
        self._hash = hash((zlib.crc32(adt.encode()), oid))

    def set_attr(self, name: str, value: object) -> None:
        """Define attribute ``name`` (database construction only)."""
        self._attrs[name] = value

    def get(self, name: str) -> object:
        """The value of attribute ``name``.

        Raises:
            EvalError: the instance's ADT does not define the attribute.
        """
        try:
            return self._attrs[name]
        except KeyError:
            raise EvalError(
                f"{self.adt} object #{self.oid} has no attribute {name!r}"
            ) from None

    def attrs(self) -> dict[str, object]:
        """A shallow copy of the attribute map (for reporting/tests)."""
        return dict(self._attrs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.adt == other.adt and self.oid == other.oid

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Identity travels in the constructor args so a pickled cyclic
        # object graph (persons referencing persons) can hash this
        # instance before its attribute state arrives.
        return (Instance, (self.adt, self.oid), self._attrs)

    def __setstate__(self, state: dict) -> None:
        self._attrs = dict(state)

    def __repr__(self) -> str:
        return f"{self.adt}#{self.oid}"


#: The empty KOLA set.
EMPTY_SET: frozenset = frozenset()


def kset(items: Iterable[object]) -> frozenset:
    """Build a KOLA set value from any iterable."""
    return frozenset(items)


def as_pair(value: object, context: str = "") -> KPair:
    """Coerce ``value`` to a pair or raise a descriptive :class:`EvalError`."""
    if isinstance(value, KPair):
        return value
    where = f" in {context}" if context else ""
    raise EvalError(f"expected a pair{where}, got {value!r}")


def as_set(value: object, context: str = "") -> frozenset:
    """Coerce ``value`` to a set or raise a descriptive :class:`EvalError`."""
    if isinstance(value, frozenset):
        return value
    where = f" in {context}" if context else ""
    raise EvalError(f"expected a set{where}, got {value!r}")


def as_bool(value: object, context: str = "") -> bool:
    """Coerce ``value`` to a boolean or raise :class:`EvalError`."""
    if isinstance(value, bool):
        return value
    where = f" in {context}" if context else ""
    raise EvalError(f"expected a boolean{where}, got {value!r}")


def freeze(value: object) -> object:
    """Recursively convert plain Python containers into KOLA values.

    Lists/sets/frozensets become frozensets; 2-tuples become pairs.
    Useful in tests and workload builders.
    """
    if isinstance(value, (set, list, frozenset)):
        return frozenset(freeze(item) for item in value)
    if isinstance(value, tuple):
        if len(value) != 2:
            raise EvalError(f"only 2-tuples convert to pairs: {value!r}")
        return KPair(freeze(value[0]), freeze(value[1]))
    return value


def value_repr(value: object, limit: int = 8) -> str:
    """A compact, deterministic rendering of a value for reports.

    Sets are sorted by repr and truncated to ``limit`` elements so that
    derivation traces and benchmark output are stable across runs.
    """
    if isinstance(value, frozenset):
        items = sorted(value_repr(item, limit) for item in value)
        shown = items[:limit]
        suffix = ", ..." if len(items) > limit else ""
        return "{" + ", ".join(shown) + suffix + "}"
    if isinstance(value, KPair):
        return f"[{value_repr(value.fst, limit)}, {value_repr(value.snd, limit)}]"
    return repr(value)
