"""An e-graph over hash-consed KOLA terms.

An *e-graph* (equivalence graph) compactly represents a set of terms
closed under an equivalence relation: terms are broken into **e-nodes**
— one operator application whose children are **e-classes** (equivalence
classes of terms) rather than subterms — and equal terms share one
e-class.  Because an e-node's children are whole classes, a single
e-node stands for the *cross product* of its children's members: ``n``
e-nodes can represent exponentially many distinct terms, which is what
makes equality-saturation search affordable where naive BFS over whole
terms (``Engine.successors`` fan-out) re-derives the same subterm
variants once per enclosing context.

Hash-consing (:mod:`repro.core.terms`) makes the construction unusually
cheap here: structurally equal terms are already the same object, so
the term-to-class map is keyed by identity, congruence keys are O(1) to
build, and "is this term already represented?" is a dictionary probe.

The implementation follows the classic worklist-free formulation:

* a union-find over integer e-class ids (:meth:`EGraph.find`,
  :meth:`EGraph.merge`);
* a hashcons from canonical e-nodes ``(op, label, child class ids)`` to
  their e-class (:meth:`EGraph.add`);
* **congruence closure** by rebuild-to-fixpoint (:meth:`EGraph.rebuild`):
  after merges, e-nodes whose canonicalized keys collide force their
  classes to merge too, repeated until stable.

Every e-class also records a bounded set of **member terms** — actual
ground :class:`~repro.core.terms.Term` objects that were inserted into
the class.  The saturation driver rewrites these representatives (plus
one level of e-node recombinations, :meth:`EGraph.sample_terms`), and
extraction uses them as guaranteed-finite fallbacks even when merges
have made a class cyclic (``x = f(x)`` shapes arise naturally from
identity rules).

**Best terms are an incremental e-class analysis** (after egg's
analyses, Willsey et al., POPL 2021, §4).  Every class keeps the size
of its smallest known term and that term's *source* — a member term,
or an e-node whose children supply their own best terms.  A new class,
a new member or e-node, and a merge offer their candidate to the
class; a class whose best shrinks is queued, and the queue is drained
(:meth:`EGraph._settle`) along parent edges before any read and at the
end of :meth:`EGraph.rebuild`, so a change costs work proportional to
the classes it improves, never a whole-graph fixpoint.  Terms are
built only when a caller reads a class (:meth:`EGraph.best_term`) and
kept until its best changes; a class's sort is its source operator's
(:meth:`EGraph.class_sort`).  Members win ties against e-nodes (the
smallest, earliest member first), and an e-node replaces the incumbent
only when strictly smaller.

Every class also carries two clock **stamps**.  ``stamp`` moves when
the class is created, merged or grown by an e-node — everything an
e-match walk can see of it — and ``view`` additionally when it gains a
member or its best term changes.  The e-matcher keeps walks whose
classes kept their ``stamp``, and the saturation driver skips
re-sampling classes whose own and children's ``view`` stand
(:meth:`EGraph.unchanged_since`, :meth:`EGraph.view_unchanged_since`).

Diagnostics: :meth:`EGraph.represented_counts` computes how many
distinct terms each class stands for (saturating at a cap so cyclic
classes report "effectively infinite" instead of diverging), which the
saturation benchmark compares against naive-BFS materialization.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.core.errors import KolaError
from repro.core.terms import Sort, Term, _label_key, op_sort
from repro.rewrite.pattern import canon

#: Saturation cap for represented-term counting: classes at or above the
#: cap (including cyclic classes, which represent infinitely many terms)
#: report exactly this value.
COUNT_CAP = 10 ** 18

#: The tie-break rank of an e-node source: any member of equal size
#: ranks before it.
_BUILT = float("inf")


class StaleEGraphError(KolaError):
    """A read that needs canonical ids ran on an e-graph changed by
    ``add``, ``add_enode`` or ``merge`` since its last
    :meth:`EGraph.rebuild`."""


def _node_key(op: str, label: Hashable,
              child_ids: tuple[int, ...]) -> tuple:
    """Congruence key of an e-node (labels normalized exactly like the
    term cons table, so ``False``/``0`` payloads never collide)."""
    if label is None or type(label) is str:
        return (op, label, child_ids)
    return (op, _label_key(label), child_ids)


class EClass:
    """One equivalence class: its e-nodes, member terms, best-term
    analysis data and change stamps.

    ``nodes`` maps the congruence key (canonical at the last rebuild) to
    the e-node data ``(op, label, child class ids)``.  ``members`` holds
    the ground terms explicitly inserted into this class, bounded to the
    ``max_members`` smallest (ties broken by insertion order, so runs
    are deterministic).  ``size``/``rank``/``source`` describe the best
    known term — its size, its tie-break rank (a member's insertion
    number, :data:`_BUILT` for an e-node) and the member or e-node it
    comes from — and ``term`` caches it once built.  ``stamp`` and
    ``view`` are the graph clock at the class's last structural and
    last visible change (see the module docstring).
    """

    __slots__ = ("nodes", "members", "size", "rank", "source", "term",
                 "stamp", "view")

    def __init__(self, stamp: int) -> None:
        self.nodes: dict[tuple, tuple[str, Hashable, tuple[int, ...]]] = {}
        self.members: dict[Term, int] = {}
        self.size = 0
        self.rank: float = _BUILT
        self.source: Term | tuple | None = None
        self.term: Term | None = None
        self.stamp = stamp
        self.view = stamp


class EGraph:
    """E-classes + union-find + congruence closure over interned terms."""

    def __init__(self, max_members_per_class: int = 8) -> None:
        self.max_members = max_members_per_class
        self._parent: list[int] = []
        self._classes: dict[int, EClass] = {}
        self._hashcons: dict[tuple, int] = {}
        self._term_class: dict[Term, int] = {}
        self._seq = 0          # member insertion counter (determinism)
        #: Total e-nodes ever hash-consed (the budget/benchmark measure;
        #: congruence merges never decrement it).
        self.enodes_allocated = 0
        self.merges = 0
        #: child class id -> ids of classes owning an e-node that
        #: references it (the edges the best-term analysis repairs
        #: along).  Keys and values may be stale; normalized on read.
        self._parents: dict[int, set[int]] = {}
        #: Whether ``add``, ``add_enode`` or ``merge`` ran since the
        #: last :meth:`rebuild`; while it is ``False`` every id stored
        #: in the graph is canonical (see :meth:`require_rebuilt`).
        self._mutated = False
        #: Ticks once per class stamp; stamps only ever grow.
        self.clock = 0
        #: Classes whose best term shrank or changed since their
        #: parents last looked (an ordered set; see :meth:`_settle`).
        self._pending: dict[int, None] = {}
        #: ``(clock, map)`` of the last :meth:`best_terms` result.
        self._best: tuple[int, dict[int, Term]] | None = None

    # -- union-find ---------------------------------------------------------

    def find(self, cid: int) -> int:
        """Canonical id of ``cid``'s class (with path compression)."""
        parent = self._parent
        root = cid
        while parent[root] != root:
            root = parent[root]
        while parent[cid] != root:
            parent[cid], cid = root, parent[cid]
        return root

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    def _new_class(self) -> int:
        cid = len(self._parent)
        self._parent.append(cid)
        self._classes[cid] = EClass(self._tick())
        return cid

    def _note_parents(self, cid: int, child_ids: tuple[int, ...]) -> None:
        parents = self._parents
        for child in child_ids:
            bucket = parents.get(child)
            if bucket is None:
                parents[child] = {cid}
            else:
                bucket.add(cid)

    def merge(self, a: int, b: int) -> int:
        """Union the classes of ``a`` and ``b``; returns the surviving
        canonical id.  Call :meth:`rebuild` before reading the graph —
        congruence closure is deferred so batches of merges pay for one
        propagation pass."""
        self._mutated = True
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        # union by size of the class data (cheaper dict merges)
        if (len(self._classes[a].nodes) + len(self._classes[a].members)
                < len(self._classes[b].nodes)
                + len(self._classes[b].members)):
            a, b = b, a
        self._parent[b] = a
        absorbed = self._classes.pop(b)
        target = self._classes[a]
        target.stamp = target.view = self._tick()
        moved = self._parents.pop(b, None)
        if moved is not None:
            bucket = self._parents.get(a)
            if bucket is None:
                self._parents[a] = moved
            else:
                bucket.update(moved)
        target.nodes.update(absorbed.nodes)
        for term, seq in absorbed.members.items():
            if term not in target.members:
                target.members[term] = seq
        self._trim_members(target)
        self.merges += 1
        # The survivor keeps the better best term; the parents of the
        # side that lost see a smaller child and are repaired.
        if (absorbed.size, absorbed.rank) < (target.size, target.rank):
            target.size, target.rank = absorbed.size, absorbed.rank
            target.source, target.term = absorbed.source, absorbed.term
            self._pending[a] = None
        elif absorbed.size != target.size:
            self._pending[a] = None
        return a

    def _trim_members(self, eclass: EClass) -> None:
        if len(eclass.members) <= self.max_members:
            return
        kept = sorted(eclass.members.items(),
                      key=lambda item: (item[0].size(), item[1]))
        eclass.members = dict(kept[:self.max_members])

    # -- best-term analysis -------------------------------------------------

    def _offer(self, cid: int, eclass: EClass, size: int, rank: float,
               source: Term | tuple) -> None:
        """Make ``source`` the class's best when ``(size, rank)`` beats
        the incumbent's.  A class nobody references yet queues
        nothing: a parent added later reads its size then."""
        if eclass.source is None or (size, rank) < (eclass.size,
                                                    eclass.rank):
            eclass.size, eclass.rank, eclass.source = size, rank, source
            eclass.term = None
            eclass.view = self._tick()
            if cid in self._parents:
                self._pending[cid] = None

    def _node_size(self, child_ids: tuple[int, ...]) -> int:
        """The size of an e-node built from its children's best terms."""
        classes, find = self._classes, self.find
        size = 1
        for child in child_ids:
            size += classes[find(child)].size
        return size

    def _settle(self) -> None:
        """Drain the analysis worklist: every parent of a class whose
        best changed offers each of its e-nodes again, and a parent
        that improves is queued in turn.  Sizes only ever shrink, so
        this reaches the least fixpoint the whole-graph iteration
        would."""
        pending = self._pending
        classes, find = self._classes, self.find
        while pending:
            cid = find(pending.popitem()[0])
            floor = classes[cid].size + 1  # no e-node over cid is smaller
            for parent in self._parents.get(cid, ()):
                owner = find(parent)
                eclass = classes[owner]
                best = eclass.size
                if best <= floor:
                    continue
                source = None
                for node in eclass.nodes.values():
                    size = self._node_size(node[2])
                    if size < best:
                        best, source = size, node
                if source is not None:
                    self._offer(owner, eclass, best, _BUILT, source)

    def best_term(self, cid: int) -> Term:
        """The smallest known term of ``cid``'s class, built on first
        read and kept until the class's best changes."""
        self._settle()
        classes, find = self._classes, self.find
        root = find(cid)
        stack = [root]
        while stack:  # iterative: sources strictly shrink downwards
            eclass = classes[stack[-1]]
            if eclass.term is not None:
                stack.pop()
                continue
            source = eclass.source
            if type(source) is Term:
                eclass.term = source
                stack.pop()
                continue
            op, label, child_ids = source
            kids = [classes[find(child)] for child in child_ids]
            if any(kid.term is None for kid in kids):
                stack.extend(find(child) for child in child_ids)
                continue
            eclass.term = canon(Term(op, tuple(kid.term for kid in kids),
                                     label))
            stack.pop()
        return classes[root].term

    def class_sort(self, cid: int) -> Sort:
        """The sort of canonical ``cid``'s best term — its source
        operator's result sort.  Reads a rebuilt graph (whose analysis
        :meth:`rebuild` settled) without ``find``."""
        source = self._classes[cid].source
        return op_sort(source.op if type(source) is Term else source[0])

    # -- insertion ----------------------------------------------------------

    def add(self, term: Term) -> int:
        """Insert ``term`` (canonicalized) and every subterm; returns the
        canonical id of its e-class.  Idempotent: re-adding a
        represented term is a dictionary probe per new subterm."""
        self._mutated = True
        term = canon(term)
        pending = [term]
        order: list[Term] = []
        seen: set[Term] = set()
        while pending:  # iterative post-order over distinct subterms
            node = pending[-1]
            if node in self._term_class or node in seen:
                pending.pop()
                continue
            missing = [child for child in node.args
                       if child not in self._term_class
                       and child not in seen]
            if missing:
                pending.extend(missing)
                continue
            pending.pop()
            seen.add(node)
            order.append(node)
        for node in order:
            child_ids = tuple(self.find(self._term_class[child])
                              for child in node.args)
            key = _node_key(node.op, node.label, child_ids)
            cid = self._hashcons.get(key)
            if cid is None:
                cid = self._new_class()
                self._hashcons[key] = cid
                self.enodes_allocated += 1
            else:
                cid = self.find(cid)
            eclass = self._classes[cid]
            self._put_enode(cid, eclass, key,
                            (node.op, node.label, child_ids))
            if node not in eclass.members:  # a loop node is a new member
                seq = eclass.members[node] = self._seq
                self._seq += 1
                self._trim_members(eclass)
                eclass.view = self._tick()
                self._offer(cid, eclass, node.size(), seq, node)
            self._term_class[node] = cid
        return self.find(self._term_class[term])

    def add_enode(self, op: str, label: Hashable,
                  child_ids: tuple[int, ...]) -> int:
        """Insert one e-node given by child *classes* (no ground term)
        and return its class — the e-matcher's instantiation primitive.
        Classes created this way may have no member terms; their best
        term comes from the e-node."""
        self._mutated = True
        child_ids = tuple(self.find(child) for child in child_ids)
        key = _node_key(op, label, child_ids)
        cid = self._hashcons.get(key)
        if cid is None:
            cid = self._new_class()
            self._hashcons[key] = cid
            self.enodes_allocated += 1
        else:
            cid = self.find(cid)
        self._put_enode(cid, self._classes[cid], key,
                        (op, label, child_ids))
        return cid

    def _put_enode(self, cid: int, eclass: EClass, key: tuple,
                   enode: tuple) -> None:
        """Store ``enode`` in class ``cid`` under ``key``; a spelling
        new to the class stamps it and offers its size."""
        if key not in eclass.nodes:
            eclass.stamp = eclass.view = self._tick()
            self._offer(cid, eclass, self._node_size(enode[2]), _BUILT,
                        enode)
        eclass.nodes[key] = enode
        self._note_parents(cid, enode[2])

    def find_enode(self, op: str, label: Hashable,
                   child_ids: tuple[int, ...]) -> int | None:
        """The class of an existing e-node, or ``None`` — a pure probe
        (never allocates)."""
        child_ids = tuple(self.find(child) for child in child_ids)
        cid = self._hashcons.get(_node_key(op, label, child_ids))
        return None if cid is None else self.find(cid)

    def class_of(self, term: Term) -> int | None:
        """The class representing ``term``, or ``None`` when the exact
        term was never inserted (it may still be *represented* via
        e-node recombination — this map only tracks insertions)."""
        cid = self._term_class.get(canon(term))
        return None if cid is None else self.find(cid)

    def lookup(self, term: Term) -> int | None:
        """The class *representing* ``term``, resolved structurally
        through the hashcons — covers e-node recombinations that were
        never inserted whole.  Pure probe: never allocates."""
        term = canon(term)
        cid = self._term_class.get(term)
        if cid is not None:
            return self.find(cid)
        child_ids = []
        for arg in term.args:
            child = self.lookup(arg)
            if child is None:
                return None
            child_ids.append(child)
        return self.find_enode(term.op, term.label, tuple(child_ids))

    # -- congruence closure -------------------------------------------------

    def rebuild(self) -> None:
        """Restore the congruence invariant: e-nodes that canonicalize
        to the same key live in the same class.  Runs upward-merge
        passes to a fixpoint; each pass is O(e-nodes).  Ends by
        settling the best-term analysis."""
        while True:
            changed = False
            fresh: dict[tuple, int] = {}
            for cid in list(self._classes):
                if self._parent[cid] != cid:
                    continue  # absorbed by a merge earlier in this pass
                for node in list(self._classes[self.find(cid)]
                                 .nodes.values()):
                    op, label, child_ids = node
                    key = _node_key(
                        op, label,
                        tuple(self.find(child) for child in child_ids))
                    owner = fresh.get(key)
                    mine = self.find(cid)
                    if owner is None:
                        fresh[key] = mine
                    elif self.find(owner) != mine:
                        self.merge(owner, mine)
                        changed = True
            if not changed:
                self._hashcons = fresh
                break
        # Re-key every class's node table canonically and drop duplicates.
        for cid, eclass in self._classes.items():
            rekeyed: dict[tuple, tuple] = {}
            for op, label, child_ids in eclass.nodes.values():
                canon_children = tuple(self.find(child)
                                       for child in child_ids)
                rekeyed[_node_key(op, label, canon_children)] = \
                    (op, label, canon_children)
                self._note_parents(cid, canon_children)
            eclass.nodes = rekeyed
        self._settle()
        self._mutated = False

    def require_rebuilt(self) -> None:
        """Raise :class:`StaleEGraphError` unless the graph is unchanged
        since its last :meth:`rebuild` — the condition under which
        :meth:`rebuilt_enodes` and :meth:`rebuilt_lookup` are exact."""
        if self._mutated:
            raise StaleEGraphError(
                "the e-graph changed since its last rebuild(); call "
                "rebuild() before matching against it")

    def rebuilt_enodes(self, cid: int) -> tuple:
        """:meth:`enodes_of` for a canonical ``cid`` of a rebuilt graph:
        no ``find``, because :meth:`rebuild` left every stored id
        canonical."""
        return tuple(self._classes[cid].nodes.values())

    def rebuilt_lookup(self, op: str, label: Hashable,
                       child_ids: tuple[int, ...]) -> int | None:
        """:meth:`find_enode` for canonical ``child_ids`` of a rebuilt
        graph: one hashcons probe, no ``find``."""
        return self._hashcons.get(_node_key(op, label, child_ids))

    # -- change stamps ------------------------------------------------------

    def unchanged_since(self, cids: Iterable[int], clock: int) -> bool:
        """Whether every class in ``cids`` is still canonical and was
        neither merged nor grown by an e-node after ``clock`` (no
        ``find``: an absorbed id simply counts as changed)."""
        classes = self._classes
        for cid in cids:
            eclass = classes.get(cid)
            if eclass is None or eclass.stamp > clock:
                return False
        return True

    def view_unchanged_since(self, cid: int, clock: int) -> bool:
        """Whether canonical ``cid``'s members, e-nodes and every
        child's best term are as they were at ``clock`` — then
        :meth:`sample_terms` returns what it returned then."""
        self._settle()
        classes, find = self._classes, self.find
        eclass = classes[cid]
        if eclass.view > clock:
            return False
        for node in eclass.nodes.values():
            for child in node[2]:
                if classes[find(child)].view > clock:
                    return False
        return True

    # -- views --------------------------------------------------------------

    def class_ids(self) -> list[int]:
        """Canonical ids of all live classes (deterministic order)."""
        return sorted(self._classes)

    def class_count(self) -> int:
        return len(self._classes)

    def enodes_of(self, cid: int) -> list[tuple]:
        """The ``(op, label, child class ids)`` e-nodes of a class."""
        return list(self._classes[self.find(cid)].nodes.values())

    def members_of(self, cid: int) -> list[Term]:
        """Inserted member terms, smallest first (deterministic)."""
        eclass = self._classes[self.find(cid)]
        return [term for term, _ in sorted(
            eclass.members.items(),
            key=lambda item: (item[0].size(), item[1]))]

    def __iter__(self) -> Iterator[int]:
        return iter(self.class_ids())

    def __repr__(self) -> str:
        return (f"EGraph({self.class_count()} classes, "
                f"{self.enodes_allocated} e-nodes allocated)")

    # -- representative terms ----------------------------------------------

    def best_terms(self) -> dict[int, Term]:
        """Every class's :meth:`best_term` (a total map) — for tests and
        diagnostics; saturation reads classes one at a time.

        Built once per :attr:`clock`: while the graph is unchanged
        every call returns the same map, which callers must not
        mutate."""
        self._settle()
        if self._best is not None and self._best[0] == self.clock:
            return self._best[1]
        best = {cid: self.best_term(cid) for cid in self._classes}
        self._best = (self.clock, best)
        return best

    def sample_terms(self, cid: int, limit: int) -> list[Term]:
        """Up to ``limit`` distinct representative terms of a class:
        its inserted members plus each e-node rebuilt from its
        children's best terms (so cross-class merges surface new
        representatives without re-inserting them), smallest first."""
        cid = self.find(cid)
        eclass = self._classes[cid]
        candidates: dict[Term, int] = dict(eclass.members)
        for op, label, child_ids in eclass.nodes.values():
            built = canon(Term(
                op, tuple(self.best_term(child) for child in child_ids),
                label))
            if built not in candidates:
                candidates[built] = self._seq + 1  # after real members
        ranked = sorted(candidates.items(),
                        key=lambda item: (item[0].size(), item[1]))
        return [term for term, _ in ranked[:limit]]

    # -- diagnostics --------------------------------------------------------

    def represented_counts(self, cap: int = COUNT_CAP) -> dict[int, int]:
        """Distinct terms represented per class, saturating at ``cap``.

        Computed as a monotone fixpoint of ``count(c) = sum over
        e-nodes of the product of child counts``; cyclic classes keep
        growing until they saturate at the cap, which is the honest
        reading ("effectively unbounded") rather than an infinite loop.
        """
        counts: dict[int, int] = {cid: 0 for cid in self._classes}
        changed = True
        while changed:
            changed = False
            for cid, eclass in self._classes.items():
                total = 0
                for op, label, child_ids in eclass.nodes.values():
                    product = 1
                    for child in child_ids:
                        product *= counts[self.find(child)]
                        if product >= cap:
                            product = cap
                            break
                    total += product
                    if total >= cap:
                        total = cap
                        break
                if total > counts[cid]:
                    counts[cid] = total
                    changed = True
        return counts

    def represented_total(self, cap: int = COUNT_CAP) -> int:
        """Distinct terms represented across all classes (saturating)."""
        total = 0
        for count in self.represented_counts(cap).values():
            total += count
            if total >= cap:
                return cap
        return total
