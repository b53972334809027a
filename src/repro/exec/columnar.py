"""The columnar fast path for bulk scans over named collections.

A fused pipeline whose scan is a named collection frequently starts
with attribute-chain maps (``city o addr``), constant comparisons
(``Cp(lt, 25)``) and — for list pipelines — a ``listify`` sort keyed by
an attribute chain.  This module recognizes that prefix and replaces
the per-element closure calls with **cached column extraction**: for
each ``(collection, attribute-path)`` the full column is materialized
once per database and reused by every plan that scans it.  Numeric
columns are additionally filtered with numpy's vectorized comparisons
when numpy is importable — strictly an accelerator, never a dependency,
and gated so that results stay *bit-identical* to the scalar path:

* integer columns vectorize only when they fit an int64 array (arbitrary
  precision falls back to the Python loop);
* float columns vectorize only when every value is an actual ``float``
  (mixed int/float columns would silently round large ints during the
  float64 cast);
* a comparison the scalar path would fold into :class:`EvalError`
  (e.g. a ``str`` constant against a numeric column) falls back to the
  Python loop rather than letting numpy's ``TypeError`` escape;
* survivors are always yielded from the original Python values — numpy
  scalars never escape into results.

Coverage across collection kinds: set *and bag* pipelines ride this
path whenever lowering scans a named set (``tobag`` lowers to a set
scan with a bag sink, so ``bag_iterate(...) o tobag ! P`` prefixes are
served from columns); list pipelines are served through
**sort-from-column** — a leading ``Sort`` whose key is a pure attribute
chain reads the cached key column and orders the cached base column
with the same :func:`~repro.core.lists.stable_sort_key` the scalar path
uses, so the resulting order is identical.  Maps are never consumed
*after* a sort (the cached columns are in collection order, which no
longer matches the stream), and only ``Map``s *before* the first
``Filter`` are consumed (the evaluator applies map closures to every
scanned element, so whole-column extraction matches its error behavior
exactly); filters are combined with per-element short-circuit in the
fallback loop so an element rejected by an earlier filter is never
shown to a later one — again matching the scalar path's error behavior.

The column cache is keyed weakly by database, so dropping a database
drops its columns; within a database the column map is itself a small
LRU (:data:`COLUMN_CACHE_MAX` entries) so long-lived serving processes
cannot grow it without bound.

The prefix recognizer is shared with the codegen backend
(:mod:`repro.exec.codegen`), which splices the same column reads and
filter specs into its emitted source — with ``allow_params=True`` so a
skeleton-compiled kernel can defer the comparison constants to run-time
parameter bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.core.errors import EvalError
from repro.core.lists import stable_sort_key
from repro.core.prims import COMPARISONS, compare
from repro.core.terms import Term, is_param_slot
from repro.exec.ir import Filter, Map, Scan, Sort
from repro.rewrite.pattern import flatten_compose

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.schema.adt import Database

#: numpy once :func:`_numpy` has tried to import it (``None`` when it is
#: not installed); only the columnar backends' filters use it, so no
#: other process pays for loading it.
_np = False

#: Cap on cached columns *per database* (LRU over column keys).
COLUMN_CACHE_MAX = 512

#: db -> {(collection label, attribute path): tuple of column values}
#: (the inner dict is kept in LRU order: oldest first).
_COLUMN_CACHE: "WeakKeyDictionary[Database, dict]" = WeakKeyDictionary()


def clear_cache() -> None:
    """Drop every cached column (tests and memory pressure)."""
    _COLUMN_CACHE.clear()


def cache_stats() -> tuple[int, int]:
    """(number of cached databases, number of cached columns)."""
    return (len(_COLUMN_CACHE),
            sum(len(columns) for columns in _COLUMN_CACHE.values()))


def attr_chain(term: Term) -> tuple[str, ...] | None:
    """A pure attribute path (composition of ``prim``/``id`` factors),
    in application order, or ``None``."""
    labels: list[str] = []
    for factor in reversed(flatten_compose(term)):
        if factor.op == "prim":
            labels.append(factor.label)
        elif factor.op != "id":
            return None
    return tuple(labels)


def column(db: "Database", label: str, path: tuple[str, ...]) -> tuple:
    """The column of ``path`` values over collection ``label``, cached
    per database.  Longer paths derive from their prefix columns, so
    ``addr`` and ``city o addr`` share the ``addr`` extraction."""
    columns = _COLUMN_CACHE.setdefault(db, {})
    key = (label, path)
    cached = columns.get(key)
    if cached is not None:
        # LRU touch: move to the fresh end of the insertion-ordered map.
        del columns[key]
        columns[key] = cached
        return cached
    if not path:
        values = tuple(db.collection(label))
    else:
        prefix = column(db, label, path[:-1])
        attribute = path[-1]
        values = tuple(db.apply_prim(attribute, item) for item in prefix)
    columns[key] = values
    while len(columns) > COLUMN_CACHE_MAX:
        columns.pop(next(iter(columns)))
    return values


def sort_by_key_column(keys, values) -> list:
    """``values`` stably ordered by ``stable_sort_key(key, value)`` —
    exactly the order ``sorted(values, key=...)`` produces in the
    scalar ``Sort`` stage, rebuilt from a pre-extracted key column."""
    decorated = [(stable_sort_key(key, value), value)
                 for key, value in zip(keys, values)]
    decorated.sort(key=itemgetter(0))
    return [value for _, value in decorated]


@dataclass(frozen=True, slots=True)
class ScanPrefix:
    """A recognized columnar prefix of a scanned pipeline.

    ``path`` is the attribute chain of the consumed leading maps;
    ``sort_path`` is the key chain of a consumed leading ``Sort`` (the
    two are mutually exclusive — maps are never consumed after a sort);
    ``filters`` holds ``(comparison op, literal Term)`` pairs — the
    *term* rather than its value, so the codegen backend can map
    parameter slots to run-time arguments; ``consumed`` is how many
    leading ops the prefix absorbs."""

    label: str
    path: tuple
    sort_path: tuple | None
    filters: tuple
    consumed: int

    def filter_values(self) -> tuple:
        """The filters with literal terms collapsed to their values
        (only valid when no filter constant is a parameter slot)."""
        return tuple((op, lit.label) for op, lit in self.filters)


def _filter_shape(pred: Term, allow_params: bool) -> tuple | None:
    """``Cp(cmp, k)`` with a numeric/str literal (or, when allowed, a
    parameter slot) ``k`` -> ``(op, lit term)`` — tests
    ``compare(op, k, x)`` per element."""
    if pred.op != "curry_p":
        return None
    comparison, obj = pred.args
    if comparison.op not in COMPARISONS or obj.op != "lit":
        return None
    if is_param_slot(obj):
        # Slot types are int/float/str by construction, so the bound
        # value always satisfies the scalar-constant requirement below.
        return (comparison.op, obj) if allow_params else None
    constant = obj.label
    if isinstance(constant, bool) or not isinstance(constant,
                                                    (int, float, str)):
        return None
    return comparison.op, obj


def match_scan_prefix(scan: Scan, ops, *,
                      allow_params: bool = False) -> ScanPrefix | None:
    """Recognize the columnar-servable prefix of ``(scan, ops)``:
    an optional leading attr-keyed ``Sort``, then (sort-free only)
    attr-chain ``Map``s before the first ``Filter``, then
    constant-comparison ``Filter``s.  ``None`` when nothing at all can
    be served from columns."""
    if scan.kind != "set" or scan.source.op != "setname":
        return None
    label = scan.source.label

    sort_path: tuple[str, ...] | None = None
    path: tuple[str, ...] = ()
    filters: list[tuple] = []
    consumed = 0
    remaining = list(ops)
    if remaining and isinstance(remaining[0], Sort):
        sort_path = attr_chain(remaining[0].key_fn)
        if sort_path is None:
            return None
        consumed = 1
        remaining = remaining[1:]
    for op in remaining:
        if (isinstance(op, Map) and sort_path is None and not filters):
            chain = attr_chain(op.fn)
            if chain is None:
                break
            path += chain
            consumed += 1
        elif isinstance(op, Filter):
            shape = _filter_shape(op.pred, allow_params)
            if shape is None:
                break
            filters.append(shape)
            consumed += 1
        else:
            break
    if not path and not filters and sort_path is None:
        return None
    return ScanPrefix(label, path, sort_path, tuple(filters), consumed)


def columnar_scan(scan: Scan, ops):
    """Try to serve a scan prefix from cached columns.

    Returns ``(base_stream, remaining_ops)`` or ``None`` when the
    pipeline has no columnar-friendly prefix.
    """
    prefix = match_scan_prefix(scan, ops)
    if prefix is None:
        return None
    label, path, sort_path = prefix.label, prefix.path, prefix.sort_path
    filters = prefix.filter_values()

    def base(db):
        if db is None:
            raise EvalError(f"named collection {label!r} needs a database")
        if sort_path is not None:
            values = sort_by_key_column(column(db, label, sort_path),
                                        column(db, label, ()))
        else:
            values = column(db, label, path)
        if not filters:
            return iter(values)
        mask = _vector_mask(filters, values)
        if mask is not None:
            return (item for item, keep in zip(values, mask) if keep)
        return (item for item in values
                if all(compare(op, constant, item)
                       for op, constant in filters))

    return base, tuple(ops[prefix.consumed:])


def _numpy():
    global _np
    if _np is False:
        try:
            import numpy as _np
        except ImportError:  # the pure-Python environment
            _np = None
    return _np


def _vector_mask(filters, values):
    """A combined numpy boolean mask, or ``None`` when vectorization
    cannot be bit-identical to the scalar path."""
    if not values:
        return None
    np = _numpy()
    if np is None:
        return None
    if all(type(item) is int for item in values):
        dtype = np.int64
    elif all(type(item) is float for item in values):
        dtype = np.float64
    else:
        return None
    try:
        array = np.asarray(values, dtype=dtype)
    except OverflowError:
        return None
    mask = None
    try:
        for op, constant in filters:
            step = COMPARISONS[op](constant, array)
            mask = step if mask is None else (mask & step)
    except TypeError:
        # e.g. a str constant against a numeric column: the scalar
        # loop folds the TypeError into EvalError via compare(), so
        # fall back to it rather than leak a raw TypeError.
        return None
    return mask
