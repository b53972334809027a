"""Operator signature registry for KOLA.

Tables 1 and 2 of the paper fix KOLA's operator set: primitive functions
and predicates, general-purpose function and predicate *formers*, and the
query formers over sets.  The paper stresses (Section 5) that the
combinator set is deliberately **fixed** — "algebraic query optimization
must reference a known (i.e. fixed) set of operators" — so the registry
below is the single source of truth the rest of the system (construction
checks, sort computation, the type checker, the random term generator
used by the rule verifier, the parser and the pretty printer) is driven
from.

Schema primitives (``age``, ``addr``, ``child``...) are *not* in this
registry; they are leaf ``prim``/``pprim`` terms whose meaning comes from
the active :class:`~repro.schema.adt.Schema`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.terms import Sort


@dataclass(frozen=True)
class Signature:
    """Arity/sort signature of one KOLA operator.

    Attributes:
        name: operator name used in :class:`~repro.core.terms.Term.op`.
        arg_sorts: required sort of each child term.
        result_sort: sort of the built term.
        needs_label: whether the operator carries a leaf payload
            (primitive name, literal value, collection name).
        display: notation used by the pretty printer (paper notation).
        doc: one-line semantics, quoted from Tables 1/2 where possible.
    """

    name: str
    arg_sorts: tuple[Sort, ...]
    result_sort: Sort
    needs_label: bool = False
    display: str = ""
    doc: str = ""


REGISTRY: dict[str, Signature] = {}


def _register(name: str, arg_sorts: tuple[Sort, ...], result: Sort,
              needs_label: bool = False, display: str = "",
              doc: str = "") -> None:
    if name in REGISTRY:
        raise ValueError(f"duplicate operator {name!r}")
    REGISTRY[name] = Signature(name, arg_sorts, result, needs_label,
                               display or name, doc)


F, P, O = Sort.FUN, Sort.PRED, Sort.OBJ

# -- primitive functions (Table 1, first section) --------------------------

_register("id", (), F, display="id",
          doc="id ! x = x")
_register("pi1", (), F, display="p1",
          doc="p1 ! [x, y] = x")
_register("pi2", (), F, display="p2",
          doc="p2 ! [x, y] = y")
_register("prim", (), F, needs_label=True,
          doc="schema-defined unary function (age, addr, child, ...)")
_register("setop", (), F, needs_label=True,
          doc="binary set function invoked on a pair: union/intersect/diff")

# -- primitive predicates (Table 1, second section) -------------------------

_register("eq", (), P, display="eq", doc="eq ? [x, y] = (x = y)")
_register("neq", (), P, display="neq", doc="neq ? [x, y] = (x != y)")
_register("lt", (), P, display="lt", doc="lt ? [x, y] = (x < y)")
_register("leq", (), P, display="leq", doc="leq ? [x, y] = (x <= y)")
_register("gt", (), P, display="gt", doc="gt ? [x, y] = (x > y)")
_register("geq", (), P, display="geq", doc="geq ? [x, y] = (x >= y)")
_register("isin", (), P, display="in", doc="in ? [x, A] = (x in A)")
_register("subset", (), P, display="subset",
          doc="subset ? [A, B] = (A subseteq B)")
_register("pprim", (), P, needs_label=True,
          doc="schema-defined unary predicate")

# -- function formers (Table 1, third section) ------------------------------

_register("compose", (F, F), F, display="o",
          doc="(f o g) ! x = f ! (g ! x)")
_register("pair", (F, F), F, display="<,>",
          doc="<f, g> ! x = [f ! x, g ! x]")
_register("cross", (F, F), F, display="x",
          doc="(f x g) ! [x, y] = [f ! x, g ! y]")
_register("const_f", (O,), F, display="Kf",
          doc="Kf(c) ! y = c")
_register("curry_f", (F, O), F, display="Cf",
          doc="Cf(f, x) ! y = f ! [x, y]")
_register("cond", (P, F, F), F, display="con",
          doc="con(p, f, g) ! x = f ! x if p ? x else g ! x")

# -- predicate formers (Table 1, fourth section) -----------------------------

_register("oplus", (P, F), P, display="(+)",
          doc="(p (+) f) ? x = p ? (f ! x)")
_register("conj", (P, P), P, display="&",
          doc="(p & q) ? x = p ? x and q ? x")
_register("disj", (P, P), P, display="|",
          doc="(p | q) ? x = p ? x or q ? x")
_register("inv", (P,), P, display="inv",
          doc="inv(p) ? [x, y] = p ? [y, x]  (converse; see DESIGN.md on "
              "the paper's rule 7)")
_register("neg", (P,), P, display="~",
          doc="(~p) ? x = not (p ? x)")
_register("const_p", (O,), P, display="Kp",
          doc="Kp(b) ? y = b")
_register("curry_p", (P, O), P, display="Cp",
          doc="Cp(p, x) ? y = p ? [x, y]")

# -- query formers (Table 2) -------------------------------------------------

_register("flat", (), F, display="flat",
          doc="flat ! A = {x | x in B, B in A}")
_register("iterate", (P, F), F, display="iterate",
          doc="iterate(p, f) ! A = {f ! x | x in A, p ? x}")
_register("iter", (P, F), F, display="iter",
          doc="iter(p, f) ! [x, B] = {f ! [x, y] | y in B, p ? [x, y]}")
_register("join", (P, F), F, display="join",
          doc="join(p, f) ! [A, B] = "
              "{f ! [x, y] | x in A, y in B, p ? [x, y]}")
_register("nest", (F, F), F, display="nest",
          doc="nest(f, g) ! [A, B] = "
              "{[y, {g ! x | x in A, f ! x = y}] | y in B}")
_register("unnest", (F, F), F, display="unnest",
          doc="unnest(f, g) ! A = {[f ! x, y] | x in A, y in g ! x}")

# -- bag formers (Section 6 extension; see repro.core.bags) -----------------

_register("tobag", (), F, display="tobag",
          doc="tobag ! A = the bag with the elements of set A, each once")
_register("distinct", (), F, display="distinct",
          doc="distinct ! B = the set of elements of bag B "
              "(duplicate elimination)")
_register("bag_iterate", (P, F), F, display="bag_iterate",
          doc="bag_iterate(p, f) ! B = multiplicity-preserving "
              "filter-then-map over bag B")
_register("bag_flat", (), F, display="bag_flat",
          doc="bag_flat ! B = additive union of a bag of bags")
_register("bag_union", (), F, display="bag_union",
          doc="bag_union ! [B1, B2] = additive bag union (union all)")
_register("bag_join", (P, F), F, display="bag_join",
          doc="bag_join(p, f) ! [B1, B2] = bag join, multiplicities "
              "multiply")

# -- aggregates and arithmetic (for the Section 1.2 count-bug study) --------

_register("count", (), F, display="count",
          doc="count ! A = |A| (set cardinality)")
_register("bag_count", (), F, display="bag_count",
          doc="bag_count ! B = total multiplicity of bag B")
_register("ssum", (), F, display="ssum",
          doc="ssum ! A = sum of a set of numbers")
_register("bag_sum", (), F, display="bag_sum",
          doc="bag_sum ! B = multiplicity-weighted sum of a bag of numbers")
_register("plus", (), F, display="plus",
          doc="plus ! [x, y] = x + y")

# -- list formers (Section 6 extension; see repro.core.lists) ---------------

_register("listify", (F,), F, display="listify",
          doc="listify(f) ! A = the elements of set A ordered by f!x "
              "(deterministic tie-break)")
_register("list_iterate", (P, F), F, display="list_iterate",
          doc="list_iterate(p, f) ! L = order-preserving "
              "filter-then-map over list L")
_register("list_flat", (), F, display="list_flat",
          doc="list_flat ! L = concatenation of a list of lists")
_register("list_cat", (), F, display="list_cat",
          doc="list_cat ! [L1, L2] = concatenation")
_register("to_set", (), F, display="to_set",
          doc="to_set ! L = the set of elements of list L")

# -- object expressions ------------------------------------------------------

_register("lit", (), O, needs_label=True,
          doc="literal value (int, str, bool, frozenset, ...)")
_register("setname", (), O, needs_label=True,
          doc="named database collection (P, V, ...)")
_register("pairobj", (O, O), O, display="[,]",
          doc="object pair [x, y]")
_register("invoke", (F, O), O, display="!",
          doc="function invocation f ! x")
_register("test", (P, O), O, display="?",
          doc="predicate test p ? x (a boolean-valued object expression)")


# ``meta`` is special-cased throughout (its sort lives in its label), but a
# signature entry keeps the registry total over every Term.op in the system.
_register("meta", (), Sort.ANY, needs_label=True,
          doc="pattern metavariable (rule language only)")


#: Operator names that may appear in executable (ground) queries.
EXECUTABLE_OPS: frozenset[str] = frozenset(
    name for name in REGISTRY if name != "meta")

#: The comparison predicates and their converses (rule 7's family).
CONVERSES: dict[str, str] = {
    "eq": "eq", "neq": "neq",
    "lt": "gt", "gt": "lt",
    "leq": "geq", "geq": "leq",
}
