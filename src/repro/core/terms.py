"""Immutable term representation for the KOLA combinator algebra.

KOLA (Cherniack & Zdonik, SIGMOD 1996) is a *variable-free* query algebra:
queries are trees of combinators, with no binders and no variables.  That
property is what makes the algebra a good *internal* representation for a
rule-based optimizer — rules are first-order patterns and rule application
is plain structural matching.

This module defines the single AST node type :class:`Term` used for every
KOLA expression: functions, predicates, object expressions (including
query invocations ``f ! x``), and the metavariables that appear in rule
patterns.  Terms are immutable, hashable, and compared structurally, so
they can be used as dictionary keys, cached, and shared freely.

Terms are **hash-consed**: construction goes through a weak-value cons
table keyed on ``(op, args, label)``, so two structurally equal terms
are always the *same object*.  Interning gives the whole system

* O(1) equality — ``__eq__`` is an identity test;
* maximal structure sharing — rewrites that keep subterms reuse them;
* O(1) structure queries — ``size``, ``depth``, ``is_ground`` and the
  contained-operator set ``ops`` are computed once per distinct term,
  bottom-up at construction (children are always built first, so each
  node derives its caches from its children's in O(arity)).

The table holds *weak* references to the interned terms: a term is kept
alive only by its users (and by its parents, which reference it through
``args``), so interning does not leak memory across workloads.

Terms are *sorted* (in the order-sorted-algebra sense): every term denotes
either a function (``Sort.FUN``), a predicate (``Sort.PRED``), or an
object/value expression (``Sort.OBJ``).  Construction goes through
:func:`mk`, which checks operator arity and argument sorts against the
signature registry in :mod:`repro.core.signature`; invalid combinations
raise :class:`~repro.core.errors.TermError` at build time rather than
surfacing as evaluator crashes later.

Most callers should use the named constructors in
:mod:`repro.core.constructors` (``compose``, ``pair``, ``iterate``...)
rather than calling :func:`mk` directly.
"""

from __future__ import annotations

import enum
import weakref
from typing import Hashable, Iterator

from repro.core.errors import (EvalError, PortableTermError, TermError,
                               UnknownOperatorError)


class Sort(enum.Enum):
    """Syntactic sort of a KOLA term.

    ``FUN``  — denotes a function, invoked with ``!``.
    ``PRED`` — denotes a predicate, tested with ``?``.
    ``OBJ``  — denotes a value: literals, named database sets, object
               pairs, and applications ``f ! x`` / ``p ? x``.
    ``ANY``  — wildcard sort used only by metavariables that may stand
               for a term of any sort (rare; most patterns are sorted).
    """

    FUN = "fun"
    PRED = "pred"
    OBJ = "obj"
    ANY = "any"


#: The cons table: ``(op, args, label)`` -> the unique interned node.
#: Weak values — unused terms are collected normally.
_CONS_TABLE: "weakref.WeakValueDictionary[tuple, Term]" = \
    weakref.WeakValueDictionary()


def interned_count() -> int:
    """Number of live interned terms (diagnostics/benchmarks)."""
    return len(_CONS_TABLE)


def _label_key(value: Hashable) -> Hashable:
    """A cons-key form of a label that never conflates values Python
    deems cross-type equal (``False == 0``, ``1.0 == 1`` — also inside
    tuples and frozensets, e.g. ``lit`` payloads like ``{T}`` vs
    ``{1}``)."""
    kind = type(value)
    if kind is tuple:
        return (kind, tuple(_label_key(item) for item in value))
    if kind is frozenset:
        return (kind, frozenset(_label_key(item) for item in value))
    return (kind, value)


class Term:
    """A node of a KOLA expression tree.

    Attributes:
        op: operator name (``"compose"``, ``"iterate"``, ``"lit"``, ...).
        args: child terms, in operator-defined order.
        label: payload carried by leaf operators — the primitive name for
            ``prim``/``pprim``, the collection name for ``setname``, the
            Python value for ``lit``, and a ``(name, Sort)`` tuple for
            ``meta`` (pattern metavariables).

    ``Term`` is deeply immutable: ``args`` is a tuple of ``Term`` and
    ``label`` must be hashable.  Construction is interned (hash-consed),
    so equality is structural *and* an identity test; the hash is
    computed once at construction.
    """

    __slots__ = ("op", "args", "label", "_hash", "_size", "_depth",
                 "_ground", "_ops", "_canon", "_portable", "_abstract",
                 "__weakref__")

    op: str
    args: tuple["Term", ...]
    label: Hashable

    def __new__(cls, op: str, args: tuple["Term", ...] = (),
                label: Hashable = None) -> "Term":
        if label is None or type(label) is str:
            key = (op, args, label)  # common case: no cross-type aliasing
        else:
            key = (op, args, _label_key(label))
        cached = _CONS_TABLE.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        fill = object.__setattr__
        fill(self, "op", op)
        fill(self, "args", args)
        fill(self, "label", label)
        fill(self, "_hash", hash((op, args, label)))
        size, depth, ground = 1, 0, op != "meta"
        for child in args:
            size += child._size
            if child._depth > depth:
                depth = child._depth
            ground = ground and child._ground
        fill(self, "_size", size)
        fill(self, "_depth", depth + 1)
        fill(self, "_ground", ground)
        if args:
            fill(self, "_ops",
                 frozenset((op,)).union(*(child._ops for child in args)))
        else:
            fill(self, "_ops", frozenset((op,)))
        _CONS_TABLE[key] = self
        return self

    def __init__(self, op: str, args: tuple["Term", ...] = (),
                 label: Hashable = None) -> None:
        # All state is set in __new__ (which may return an existing
        # interned node that must not be re-initialized).
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Term is immutable")

    def __eq__(self, other: object) -> bool:
        # Interning makes structural equality an identity test: any two
        # structurally equal terms are the same object by construction.
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return False

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        from repro.core.pretty import pretty
        return f"Term({pretty(self)})"

    # -- structure helpers -------------------------------------------------

    def is_leaf(self) -> bool:
        """True when the term has no child terms."""
        return not self.args

    @property
    def sort(self) -> Sort:
        """The sort of this term (delegates to the signature registry)."""
        return sort_of(self)

    def subterms(self) -> Iterator["Term"]:
        """Yield this term and every descendant, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.args))

    def size(self) -> int:
        """Number of nodes in the term tree (the paper's size measure).

        O(1): cached bottom-up at construction.
        """
        return self._size

    def depth(self) -> int:
        """Height of the term tree (a leaf has depth 1).

        O(1) and recursion-free: cached bottom-up at construction, so
        even the very deep compose chains the translator produces for
        Figure 7 pipelines never hit the interpreter recursion limit.
        """
        return self._depth

    @property
    def ops(self) -> frozenset[str]:
        """The set of operator names occurring anywhere in this term.

        O(1): cached at construction.  The rewrite engine uses it to
        skip whole subtrees that cannot contain a rule's head operator.
        """
        return self._ops

    def with_args(self, args: tuple["Term", ...]) -> "Term":
        """A copy of this term with ``args`` replaced (op/label preserved)."""
        if args == self.args:
            return self
        return Term(self.op, args, self.label)

    def contains(self, other: "Term") -> bool:
        """True when ``other`` occurs as a subterm of this term."""
        if other.op not in self._ops:
            return False
        return any(node is other for node in self.subterms())

    def metavars(self) -> frozenset[tuple[str, Sort]]:
        """The ``(name, sort)`` pairs of all metavariables in the term."""
        if self._ground:
            return frozenset()
        return frozenset(node.label for node in self.subterms()
                         if node.op == "meta")

    def is_ground(self) -> bool:
        """True when the term contains no metavariables (O(1), cached)."""
        return self._ground

    # -- portability -------------------------------------------------------

    def to_portable(self) -> tuple:
        """A process-portable wire form of this term.

        Interned terms are per-process singletons backed by a weak cons
        table, so they must not cross a process boundary as live
        objects — the receiving process would hold nodes outside *its*
        table, breaking the identity-equality invariant.  The portable
        form is built from tuples and scalars only; :func:`from_portable`
        re-interns it bottom-up on the other side, restoring every
        hash-consing invariant (identity equality, O(1) size/depth/ops
        caches) for free because re-interning *is* reconstruction.

        The encoding is deterministic (frozenset labels are emitted in
        sorted order) and shared subterms are encoded once, so the
        payload is a DAG exactly like the interned term it mirrors.
        Pickling a :class:`Term` routes through this form automatically
        (see :meth:`__reduce__`).

        The payload is memoized on the term (terms are immutable and
        interned, so it can never go stale), which makes repeated
        shipping of the same query — the hot path of batch
        optimization — a slot read.
        """
        cached = getattr(self, "_portable", None)
        if cached is not None:
            return cached
        payload = (_PORTABLE_TAG, PORTABLE_VERSION, _encode_node(self))
        object.__setattr__(self, "_portable", payload)
        return payload

    def __reduce__(self):
        # Pickle via the portable wire form: unpickling re-interns in
        # the receiving process, so spawn-based multiprocessing (and
        # any other serialization) preserves hash-consing.
        return (from_portable, (self.to_portable(),))


def mk(op: str, *args: Term, label: Hashable = None) -> Term:
    """Build a term, validating arity and argument sorts.

    Raises:
        UnknownOperatorError: ``op`` is not in the signature registry.
        TermError: wrong number of arguments or an argument of the wrong
            sort (metavariables of sort ``ANY`` are accepted anywhere).
    """
    from repro.core.signature import REGISTRY

    sig = REGISTRY.get(op)
    if sig is None:
        raise UnknownOperatorError(f"unknown operator {op!r}")
    if len(args) != len(sig.arg_sorts):
        raise TermError(
            f"operator {op!r} expects {len(sig.arg_sorts)} argument(s), "
            f"got {len(args)}")
    for index, (arg, want) in enumerate(zip(args, sig.arg_sorts)):
        if not isinstance(arg, Term):
            raise TermError(
                f"argument {index} of {op!r} is not a Term: {arg!r}")
        have = sort_of(arg)
        if have is Sort.ANY or have is want:
            continue
        raise TermError(
            f"argument {index} of {op!r} must have sort {want.value}, "
            f"got {have.value} ({arg!r})")
    if sig.needs_label and label is None:
        raise TermError(f"operator {op!r} requires a label payload")
    if not sig.needs_label and label is not None:
        raise TermError(f"operator {op!r} does not take a label payload")
    return Term(op, tuple(args), label)


# -- the portable wire form ---------------------------------------------

#: Tag and version prefixed to every portable payload; bumped only if
#: the encoding itself changes shape.
_PORTABLE_TAG = "kola-term"
PORTABLE_VERSION = 1

#: Label scalar types carried through the wire form unchanged.  Exact
#: type membership — ``bool`` is listed before the ``int`` check it
#: would otherwise alias into.
_PORTABLE_SCALARS = (bool, int, float, str, type(None))


def _encode_label(value: Hashable) -> object:
    """Encode a label payload as tagged tuples over scalars.

    Scalars pass through bare; containers and enums are tagged 2-tuples
    (``("tuple", ...)``, ``("frozenset", ...)``, ``("sort", ...)``), so
    a decoded payload can never confuse a structured label with a
    scalar one.  Frozensets are emitted in a deterministic order."""
    kind = type(value)
    if kind is tuple:
        return ("tuple", tuple(_encode_label(item) for item in value))
    if kind is frozenset:
        items = tuple(_encode_label(item) for item in value)
        return ("frozenset", tuple(sorted(items, key=repr)))
    if kind is Sort:
        return ("sort", value.value)
    if kind in _PORTABLE_SCALARS:
        return value
    from repro.core.bags import KBag
    from repro.core.lists import KList
    from repro.core.values import KPair
    if kind is KPair:
        return ("pair", (_encode_label(value.fst),
                         _encode_label(value.snd)))
    if kind is KBag:
        pairs = tuple((_encode_label(element), count)
                      for element, count in value.counts().items())
        return ("bag", tuple(sorted(pairs, key=repr)))
    if kind is KList:
        return ("list", tuple(_encode_label(item)
                              for item in value.items()))
    raise PortableTermError(
        f"label payload of type {kind.__name__} ({value!r}) has no "
        "portable encoding")


def _decode_label(payload: object) -> Hashable:
    if type(payload) in _PORTABLE_SCALARS:
        return payload
    if isinstance(payload, (tuple, list)) and len(payload) == 2:
        tag, body = payload
        if tag == "sort":
            try:
                return Sort(body)
            except ValueError:
                raise PortableTermError(
                    f"unknown sort value {body!r} in portable label"
                    ) from None
        if tag in ("tuple", "frozenset", "list"):
            if not isinstance(body, (tuple, list)):
                raise PortableTermError(
                    f"portable {tag} label body must be a sequence, "
                    f"got {body!r}")
            items = tuple(_decode_label(item) for item in body)
            if tag == "tuple":
                return items
            if tag == "frozenset":
                return frozenset(items)
            from repro.core.lists import KList
            return KList(items)
        if tag == "pair":
            if not isinstance(body, (tuple, list)) or len(body) != 2:
                raise PortableTermError(
                    f"portable pair label body must be a 2-sequence, "
                    f"got {body!r}")
            from repro.core.values import KPair
            return KPair(_decode_label(body[0]), _decode_label(body[1]))
        if tag == "bag":
            if not isinstance(body, (tuple, list)):
                raise PortableTermError(
                    f"portable bag label body must be a sequence, "
                    f"got {body!r}")
            from repro.core.bags import KBag
            counts: dict = {}
            for entry in body:
                if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                    raise PortableTermError(
                        f"portable bag entry must be an "
                        f"(element, count) pair, got {entry!r}")
                counts[_decode_label(entry[0])] = entry[1]
            try:
                return KBag(counts)
            except EvalError as error:  # a count not a non-negative int
                raise PortableTermError(
                    f"portable bag label rejected: {error}") from error
    raise PortableTermError(f"malformed portable label {payload!r}")


class NodeTable:
    """A flat post-order node table that several root terms share.

    Each entry is ``(op, child_indices, label)``, children referring to
    earlier entries.  :meth:`add` appends the nodes of a root the table
    does not hold yet (children first) and returns the root's index, so
    roots that share subterms — one term, or the forms and derivation
    steps of one optimize result — encode each distinct node exactly
    once.  Flat (not nested) so arbitrarily deep terms survive
    pickling; the table is a DAG just like the terms it mirrors."""

    __slots__ = ("index", "nodes")

    def __init__(self) -> None:
        self.index: dict[Term, int] = {}
        self.nodes: list[tuple] = []

    def add(self, root: Term) -> int:
        """Encode ``root`` into the table; returns its entry index."""
        index = self.index
        nodes = self.nodes
        stack = [root]
        while stack:
            node = stack[-1]
            if node in index:
                stack.pop()
                continue
            pending = [child for child in node.args if child not in index]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            nodes.append((node.op,
                          tuple(index[child] for child in node.args),
                          _encode_label(node.label)))
            index[node] = len(nodes) - 1
        return index[root]


def _encode_node(root: Term) -> tuple:
    """The node table of one term; the last entry is the root."""
    table = NodeTable()
    table.add(root)
    return tuple(table.nodes)


def decode_table(table: object) -> tuple[Term, ...]:
    """Re-intern a flat node table bottom-up; returns every entry's
    term, in table order.

    Every node goes through :func:`mk`, so a malformed payload —
    unknown operator, wrong arity, argument of the wrong sort, missing
    or extra label — is rejected with the same checks ordinary
    construction gets, surfaced as :class:`PortableTermError`.  Child
    references must point strictly backwards in the table, which rules
    out cycles by construction.  Memoized like :func:`from_portable`:
    a hashable table decoded before is a dictionary probe."""
    return _memoized(table, _decode_nodes)


def _decode_nodes(table: object) -> tuple[Term, ...]:
    if not isinstance(table, (tuple, list)) or not table:
        raise PortableTermError(
            f"portable term node table must be a non-empty sequence, "
            f"got {table!r}")
    done: list[Term] = []
    for position, node in enumerate(table):
        if not isinstance(node, (tuple, list)) or len(node) != 3:
            raise PortableTermError(
                f"portable term node must be an (op, children, label) "
                f"triple, got {node!r}")
        op, children, label = node
        if not isinstance(op, str):
            raise PortableTermError(
                f"portable term operator must be a string, got {op!r}")
        if not isinstance(children, (tuple, list)):
            raise PortableTermError(
                f"portable term children must be a sequence of node "
                f"indices, got {children!r}")
        args = []
        for child in children:
            if (not isinstance(child, int) or isinstance(child, bool)
                    or not 0 <= child < position):
                raise PortableTermError(
                    f"portable term child reference {child!r} at node "
                    f"{position} must be an index of an earlier node")
            args.append(done[child])
        try:
            done.append(mk(op, *args, label=_decode_label(label)))
        except PortableTermError:
            raise
        except TermError as error:
            raise PortableTermError(
                f"portable payload rejected at operator {op!r}: {error}"
                ) from error
    return tuple(done)


#: Bounded decode memo: payload or node table -> what it decodes to,
#: LRU evicted.  Batch workers decode the same query and result
#: payloads over and over; a hit skips the node-table walk (and its
#: per-node ``mk`` validation) entirely.  Only fully-hashable inputs
#: that decoded successfully are cached, so the memo is invisible to
#: error behavior.
_DECODE_MEMO: dict = {}
_DECODE_MEMO_MAX = 8192


def _memoized(key: object, decode):
    """``decode(key)`` through :data:`_DECODE_MEMO`."""
    memo = _DECODE_MEMO
    try:
        # Hash explicitly: dict.pop on an *empty* dict never hashes
        # the key, which would let an unhashable list-form payload
        # slip through to the memo insert below.
        hash(key)
        cached = memo.pop(key, None)
    except TypeError:  # unhashable (list-form) input: decode fully
        return decode(key)
    if cached is not None:
        memo[key] = cached  # refresh LRU recency
        return cached
    value = decode(key)
    if len(memo) >= _DECODE_MEMO_MAX:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def from_portable(payload: object) -> Term:
    """Re-intern a :meth:`Term.to_portable` payload in this process.

    The result is interned exactly as if it had been built with
    :func:`mk` bottom-up: structurally equal payloads decode to the
    *same* term object, with all construction-time caches (size, depth,
    ops, groundness) intact.

    Raises:
        PortableTermError: the payload is not a well-formed portable
            term (wrong container shape, unknown version, unknown
            operator, bad arity/sort, unportable label, or cycles).
    """
    return _memoized(payload, _decode_payload)


def _decode_payload(payload: object) -> Term:
    if not isinstance(payload, (tuple, list)) or len(payload) != 3:
        raise PortableTermError(
            f"portable term payload must be a (tag, version, node) "
            f"triple, got {payload!r}")
    tag, version, node = payload
    if tag != _PORTABLE_TAG:
        raise PortableTermError(
            f"not a portable term payload (tag {tag!r})")
    if version != PORTABLE_VERSION:
        raise PortableTermError(
            f"unsupported portable term version {version!r} "
            f"(this build reads version {PORTABLE_VERSION})")
    return _decode_nodes(node)[-1]


# -- constant abstraction ------------------------------------------------

#: Label tag marking a parameter-slot literal in a constant-abstracted
#: skeleton.  The middle dot keeps the tag out of the identifier space
#: real queries use for strings, and the full slot label
#: ``(PARAM_TAG, index, type name)`` is a plain tuple so skeletons stay
#: hashable, internable, and portable-encodable (shard routing hashes
#: skeleton payloads).
PARAM_TAG = "·param"

#: Literal payload types that abstraction may replace with a slot.
#: Exact type membership: ``bool`` is deliberately absent (``true()``
#: and ``false()`` are ``lit(True)``/``lit(False)`` and rule patterns
#: pin them structurally), and containers (frozenset/KBag/KList/KPair)
#: stay concrete because the cost model and type inference read their
#: contents.
ABSTRACTABLE_SCALARS: dict[type, str] = {int: "int", float: "float",
                                         str: "str"}


def _slot_shaped(label: object) -> bool:
    return (type(label) is tuple and len(label) == 3
            and label[0] == PARAM_TAG)


def is_param_slot(term: Term) -> bool:
    """True when ``term`` is a parameter-slot literal produced by
    :func:`abstract_constants`."""
    return term.op == "lit" and _slot_shaped(term.label)


def abstract_constants(term: Term) -> tuple[Term, tuple]:
    """Split ``term`` into a constant-abstracted *skeleton* and the
    tuple of constant values it binds.

    Every scalar literal (exact type ``int``/``float``/``str`` — never
    ``bool``, never NaN, never containers) is replaced by a numbered
    parameter slot ``lit((PARAM_TAG, index, type name))``.  Slots are
    numbered by first occurrence of each *distinct* ``(type, value)``
    pair in a deterministic structural walk, so value-equal positions
    share a slot: the skeleton preserves the query's literal-equality
    pattern exactly (two queries get the same skeleton iff they differ
    only in constant values *and* agree on which positions hold equal
    constants — the property non-linear rule patterns and interned-term
    sharing depend on).

    Returns ``(skeleton, values)`` with the exact inverse
    ``instantiate_constants(skeleton, values) is term``.  Terms with no
    abstractable constants — and, defensively, terms that already spell
    a slot-shaped literal, which would make abstraction ambiguous —
    return ``(term, ())``.

    The result is memoized on the interned term, so the serving hot
    path (cache-key computation per optimize call) is a slot read after
    the first call.
    """
    cached = getattr(term, "_abstract", None)
    if cached is not None:
        return cached
    slots: dict[tuple, int] = {}
    values: list = []
    rebuilt: dict[Term, Term] = {}
    opaque = False
    stack = [term]
    while stack:  # iterative post-order over distinct subterms (DAG walk)
        node = stack[-1]
        if node in rebuilt:
            stack.pop()
            continue
        pending = [child for child in node.args if child not in rebuilt]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if node.op == "lit":
            label = node.label
            type_name = ABSTRACTABLE_SCALARS.get(type(label))
            if type_name is not None and label == label:  # NaN: v != v
                key = (type(label), label)
                index = slots.get(key)
                if index is None:
                    index = len(values)
                    slots[key] = index
                    values.append(label)
                rebuilt[node] = Term("lit", (),
                                     (PARAM_TAG, index, type_name))
                continue
            if _slot_shaped(label):
                opaque = True
            rebuilt[node] = node
            continue
        rebuilt[node] = node.with_args(
            tuple(rebuilt[child] for child in node.args))
    result = ((term, ()) if opaque or not values
              else (rebuilt[term], tuple(values)))
    object.__setattr__(term, "_abstract", result)
    return result


def instantiate_constants(skeleton: Term, values: tuple,
                          memo: dict[Term, Term] | None = None) -> Term:
    """The exact inverse of :func:`abstract_constants`: replace each
    parameter slot in ``skeleton`` with ``values[index]``.

    Also substitutes into *derived* skeletons — forms the optimizer
    abstracted with :func:`abstract_with` against the same binding
    vector.  Raises :class:`TermError` on an out-of-range slot index or
    a value whose exact type does not match the slot's type tag (the
    guard that keeps instantiation sort- and type-preserving).

    An empty binding vector returns ``skeleton`` unchanged — the
    ``(term, ())`` form :func:`abstract_constants` produces for
    non-abstractable terms inverts trivially.

    ``memo`` maps already-instantiated subterms to their results, as in
    :func:`abstract_with`: pass one dict to every call made with the
    same ``values``, and forms that share subterms (a cached plan
    entry's forms and derivation steps) walk each shared node once.
    """
    if not values or "lit" not in skeleton.ops:
        return skeleton
    return _instantiate(skeleton, values,
                        {} if memo is None else memo)[0]


def _instantiate(skeleton: Term, values: tuple,
                 rebuilt: dict[Term, Term]) -> tuple[Term, bool]:
    """:func:`instantiate_constants`' walk.  Also tells whether
    ``(skeleton, values)`` is exactly the split
    :func:`abstract_constants` makes of the result: the skeleton spells
    no abstractable constant of its own, and its slots, met in
    :func:`abstract_constants`' walk order, number ``0, 1, ...`` and
    use every value.  (Meaningless when ``rebuilt`` starts non-empty.)
    """
    slots = 0
    exact = True
    stack = [skeleton]
    while stack:
        node = stack[-1]
        if node in rebuilt:
            stack.pop()
            continue
        pending = [child for child in node.args if child not in rebuilt]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if node.op == "lit":
            label = node.label
            if _slot_shaped(label):
                _, index, type_name = label
                if (type(index) is not int
                        or not 0 <= index < len(values)):
                    raise TermError(
                        f"parameter slot index {index!r} out of range for "
                        f"{len(values)} binding value(s)")
                value = values[index]
                if ABSTRACTABLE_SCALARS.get(type(value)) != type_name:
                    raise TermError(
                        f"parameter slot {index} expects a {type_name}, "
                        f"got {type(value).__name__} value {value!r}")
                exact = exact and index == slots
                slots += 1
                rebuilt[node] = Term("lit", (), value)
                continue
            if type(label) in ABSTRACTABLE_SCALARS and label == label:
                exact = False
        rebuilt[node] = node.with_args(
            tuple(rebuilt[child] for child in node.args))
    return rebuilt[skeleton], exact and slots == len(values)


def instantiate_abstraction(skeleton: Term, values: tuple) -> Term:
    """The term that :func:`abstract_constants` split into ``(skeleton,
    values)``, with that split recorded as the term's
    :func:`abstract_constants` memo — so a receiver handed a query
    already split (the serving pool ships skeleton and values) does not
    split it again.

    The split is recorded only when it has the exact shape
    :func:`abstract_constants` produces: ``values`` non-empty, pairwise
    distinct by ``(type, value)`` and free of NaN, every value used,
    slots numbered in first-occurrence order, and no abstractable
    constant left in the skeleton.  The memo therefore always equals a
    fresh :func:`abstract_constants`, and a pair split some other way
    can never select another family's plan-cache entry; it is merely
    instantiated.  An already-memoized term keeps its memo.
    """
    if not values or "lit" not in skeleton.ops:
        return instantiate_constants(skeleton, values)
    term, exact = _instantiate(skeleton, values, {})
    if (exact and getattr(term, "_abstract", None) is None
            and len({(type(value), value) for value in values})
            == len(values)
            and all(value == value for value in values)):  # NaN: v != v
        object.__setattr__(term, "_abstract", (skeleton, tuple(values)))
    return term


def abstract_with(term: Term, values: tuple,
                  memo: dict[Term, Term] | None = None) -> Term:
    """Abstract ``term`` against an *existing* binding vector: scalar
    literals whose ``(type, value)`` appears in ``values`` become that
    value's slot; every other literal stays concrete.

    This is how the optimizer abstracts its *outputs* (simplified,
    untangled and extracted forms, derivation steps): output literals
    either co-vary with the input constants (and get slotted) or were
    introduced by a rule right-hand side independently of the bindings
    (and stay concrete) — the optimizer's blocked-constant validity
    check rejects the ambiguous overlap up front.

    ``memo`` maps already-abstracted subterms to their results; pass
    one dict to every call made with the same ``values`` and forms that
    share subterms (an optimization's derivation steps share nearly
    all of theirs) walk each shared node once.
    """
    if not values:
        return term
    slot_of = {(type(value), value): index
               for index, value in enumerate(values)}
    rebuilt: dict[Term, Term] = {} if memo is None else memo
    stack = [term]
    while stack:
        node = stack[-1]
        if node in rebuilt:
            stack.pop()
            continue
        pending = [child for child in node.args if child not in rebuilt]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if node.op == "lit":
            label = node.label
            type_name = ABSTRACTABLE_SCALARS.get(type(label))
            index = (slot_of.get((type(label), label))
                     if type_name is not None and label == label else None)
            rebuilt[node] = (node if index is None else
                             Term("lit", (), (PARAM_TAG, index, type_name)))
            continue
        rebuilt[node] = node.with_args(
            tuple(rebuilt[child] for child in node.args))
    return rebuilt[term]


def sort_of(term: Term) -> Sort:
    """The sort of ``term`` according to the signature registry.

    Metavariables carry their sort in their label.
    """
    if term.op == "meta":
        return term.label[1]
    from repro.core.signature import REGISTRY
    sig = REGISTRY.get(term.op)
    if sig is None:
        raise UnknownOperatorError(f"unknown operator {term.op!r}")
    return sig.result_sort


def meta(name: str, sort: Sort = Sort.ANY) -> Term:
    """A pattern metavariable.

    Metavariables only match terms of their sort (``ANY`` matches
    everything).  They are the "unification variables" of the paper's
    rule language and never appear in executable queries.
    """
    if not isinstance(name, str) or not name:
        raise TermError("metavariable name must be a non-empty string")
    return Term("meta", (), (name, sort))


def fun_var(name: str) -> Term:
    """A function-sorted metavariable (``f``, ``g``, ``h`` in the paper)."""
    return meta(name, Sort.FUN)


def pred_var(name: str) -> Term:
    """A predicate-sorted metavariable (``p``, ``q`` in the paper)."""
    return meta(name, Sort.PRED)


def obj_var(name: str) -> Term:
    """An object-sorted metavariable (``x``, ``k``, ``A``, ``B``...)."""
    return meta(name, Sort.OBJ)
