"""Text syntax for KOLA terms.

The concrete syntax is the pretty printer's output (ASCII paper
notation), so ``parse_*`` and :func:`repro.core.pretty.pretty`
round-trip.  The main uses are writing rules compactly (every rule of
the shipped ``.kpack`` packs is authored in this syntax), readable
tests, and the COKO DSL.

Grammar summary (sort-directed recursive descent with backtracking):

.. code-block:: text

   fun   := funatom ('o' funatom)*                 right-associated chain
   funatom := id | pi1 | pi2 | flat | union | intersect | difference
            | Kf(obj) | Cf(fun, obj) | con(pred, fun, fun)
            | iterate(pred, fun) | iter(pred, fun) | join(pred, fun)
            | nest(fun, fun) | unnest(fun, fun)
            | '<' fun ',' fun '>'                   pairing former
            | '(' fun '><' fun ')'                  cross former
            | '(' fun ')' | '$'name[':'sort] | IDENT    (schema primitive)

   pred  := conjunct ('|' conjunct)*
   conjunct := predapp ('&' predapp)*
   predapp  := predatom ('@' funatom-chain)*        p @ f, left-assoc
   predatom := eq | neq | lt | leq | gt | geq | in | subset
             | Kp(obj) | Cp(pred, obj) | inv(pred) | '~' predatom
             | '(' pred ')' | '$'name[':'sort] | IDENT   (schema predicate)

   obj   := fun '!' obj | pred '?' obj | objatom
   objatom := INT | FLOAT | STRING | T | F | '{' '}'
            | '[' obj ',' obj ']' | '(' obj ')'
            | '$'name[':'sort] | IDENT               (named collection)

Metavariables ``$f`` take their sort from the parse position; an explicit
suffix (``$x:obj``) overrides.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.core import constructors as C
from repro.core.errors import ParseError
from repro.core.terms import Sort, Term, meta

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<float>-?\d+\.\d+)
      | (?P<int>-?\d+)
      | (?P<string>"[^"]*")
      | (?P<sym>><|!|\?|@|&|\||~|\$|:|,|\(|\)|\[|\]|\{|\}|<|>)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)

_FUN_LEAVES = {
    "id": C.id_, "pi1": C.pi1, "pi2": C.pi2, "flat": C.flat,
    "union": C.union, "intersect": C.intersect, "difference": C.difference,
    "tobag": C.tobag, "distinct": C.distinct, "bag_flat": C.bag_flat,
    "bag_union": C.bag_union,
    "list_flat": C.list_flat, "list_cat": C.list_cat, "to_set": C.to_set,
    "count": C.count, "bag_count": C.bag_count, "ssum": C.ssum,
    "bag_sum": C.bag_sum, "plus": C.plus,
}
_PRED_LEAVES = {
    "eq": C.eq, "neq": C.neq, "lt": C.lt, "leq": C.leq, "gt": C.gt,
    "geq": C.geq, "in": C.isin, "subset": C.subset,
}
_RESERVED = (set(_FUN_LEAVES) | set(_PRED_LEAVES) |
             {"o", "T", "F", "Kf", "Kp", "Cf", "Cp", "con", "inv",
              "iterate", "iter", "join", "nest", "unnest",
              "bag_iterate", "bag_join", "list_iterate", "listify"})

#: Tokens that can only start an object atom, and the tokens after a
#: name that make it a whole object atom (see ``_Parser.at_atom_only``).
_ATOM_STARTS = frozenset({"{", "[", "T", "F"})
_ATOM_ENDS = frozenset({")", ",", "]", "}"})

_SORT_NAMES = {"fun": Sort.FUN, "pred": Sort.PRED, "obj": Sort.OBJ,
               "any": Sort.ANY}


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None or match.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ParseError(f"unexpected character {rest[0]!r}", pos)
            kind = match.lastgroup
            assert kind is not None
            self.tokens.append((kind, match.group(kind), match.start(kind)))
            pos = match.end()
        self.index = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> tuple[str, str] | None:
        if self.index < len(self.tokens):
            kind, value, _ = self.tokens[self.index]
            return kind, value
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return token

    def expect(self, value: str) -> None:
        token = self.peek()
        if token is None or token[1] != value:
            got = token[1] if token else "end of input"
            position = (self.tokens[self.index][2]
                        if self.index < len(self.tokens) else len(self.text))
            raise ParseError(f"expected {value!r}, got {got!r}", position)
        self.index += 1

    def at(self, value: str) -> bool:
        token = self.peek()
        return token is not None and token[1] == value

    def save(self) -> int:
        return self.index

    def restore(self, mark: int) -> None:
        self.index = mark

    def done(self) -> bool:
        return self.index >= len(self.tokens)

    # -- metavariables -----------------------------------------------------------

    def metavar(self, default_sort: Sort) -> Term:
        self.expect("$")
        kind, name = self.next()
        if kind != "ident":
            raise ParseError(f"bad metavariable name {name!r}")
        sort = default_sort
        if self.at(":"):
            self.next()
            _, sort_name = self.next()
            if sort_name not in _SORT_NAMES:
                raise ParseError(f"unknown sort {sort_name!r}")
            sort = _SORT_NAMES[sort_name]
        return meta(name, sort)

    # -- functions ------------------------------------------------------------------

    def fun(self) -> Term:
        left = self.fun_chain()
        while self.at("><"):
            self.next()
            left = C.cross(left, self.fun_chain())
        return left

    def fun_chain(self) -> Term:
        factors = [self.fun_atom()]
        while True:
            token = self.peek()
            if token is not None and token == ("ident", "o"):
                self.next()
                factors.append(self.fun_atom())
            else:
                break
        return C.compose_chain(*factors)

    def fun_atom(self) -> Term:
        token = self.peek()
        if token is None:
            raise ParseError("expected a function", len(self.text))
        kind, value = token

        if value == "$":
            return self.metavar(Sort.FUN)
        if value == "<":
            self.next()
            left = self.fun()
            self.expect(",")
            right = self.fun()
            self.expect(">")
            return C.pair(left, right)
        if value == "(":
            self.next()
            inner = self.fun()
            self.expect(")")
            return inner
        if kind != "ident":
            raise ParseError(f"expected a function, got {value!r}")

        self.next()
        if value in _FUN_LEAVES:
            return _FUN_LEAVES[value]()
        if value == "Kf":
            self.expect("(")
            inner = self.obj()
            self.expect(")")
            return C.const_f(inner)
        if value == "Cf":
            self.expect("(")
            fn = self.fun()
            self.expect(",")
            arg = self.obj()
            self.expect(")")
            return C.curry_f(fn, arg)
        if value == "con":
            self.expect("(")
            pred = self.pred()
            self.expect(",")
            then_fn = self.fun()
            self.expect(",")
            else_fn = self.fun()
            self.expect(")")
            return C.cond(pred, then_fn, else_fn)
        if value in ("iterate", "iter", "join", "bag_iterate", "bag_join",
                     "list_iterate"):
            self.expect("(")
            pred = self.pred()
            self.expect(",")
            fn = self.fun()
            self.expect(")")
            builder = {"iterate": C.iterate, "iter": C.iter_,
                       "join": C.join, "bag_iterate": C.bag_iterate,
                       "bag_join": C.bag_join,
                       "list_iterate": C.list_iterate}[value]
            return builder(pred, fn)
        if value == "listify":
            self.expect("(")
            key_fn = self.fun()
            self.expect(")")
            return C.listify(key_fn)
        if value in ("nest", "unnest"):
            self.expect("(")
            key_fn = self.fun()
            self.expect(",")
            val_fn = self.fun()
            self.expect(")")
            return (C.nest if value == "nest" else C.unnest)(key_fn, val_fn)
        if value in _RESERVED:
            raise ParseError(f"{value!r} is not a function")
        return C.prim(value)

    # -- predicates --------------------------------------------------------------------

    def pred(self) -> Term:
        left = self.pred_conjunct()
        while self.at("|"):
            self.next()
            right = self.pred_conjunct()
            left = C.disj(left, right)
        return left

    def pred_conjunct(self) -> Term:
        left = self.pred_app()
        while self.at("&"):
            self.next()
            right = self.pred_app()
            left = C.conj(left, right)
        return left

    def pred_app(self) -> Term:
        pred = self.pred_atom()
        while self.at("@"):
            self.next()
            pred = C.oplus(pred, self.fun())
        return pred

    def pred_atom(self) -> Term:
        token = self.peek()
        if token is None:
            raise ParseError("expected a predicate", len(self.text))
        kind, value = token

        if value == "$":
            return self.metavar(Sort.PRED)
        if value == "~":
            self.next()
            return C.neg(self.pred_atom())
        if value == "(":
            self.next()
            inner = self.pred()
            self.expect(")")
            return inner
        if kind != "ident":
            raise ParseError(f"expected a predicate, got {value!r}")

        self.next()
        if value in _PRED_LEAVES:
            return _PRED_LEAVES[value]()
        if value == "Kp":
            self.expect("(")
            inner = self.obj()
            self.expect(")")
            return C.const_p(inner)
        if value == "Cp":
            self.expect("(")
            pred = self.pred()
            self.expect(",")
            arg = self.obj()
            self.expect(")")
            return C.curry_p(pred, arg)
        if value == "inv":
            self.expect("(")
            inner = self.pred()
            self.expect(")")
            return C.inv(inner)
        if value in _RESERVED:
            raise ParseError(f"{value!r} is not a predicate")
        return C.pprim(value)

    # -- objects -------------------------------------------------------------------------

    def obj(self) -> Term:
        if self.at_atom_only():
            return self.obj_atom()
        # Try `fun ! obj`
        mark = self.save()
        try:
            fn = self.fun()
            if self.at("!"):
                self.next()
                return C.invoke(fn, self.obj())
        except ParseError:
            pass
        self.restore(mark)
        # Try `pred ? obj`
        try:
            pred = self.pred()
            if self.at("?"):
                self.next()
                return C.test(pred, self.obj())
        except ParseError:
            pass
        self.restore(mark)
        return self.obj_atom()

    def at_atom_only(self) -> bool:
        """Whether the next token can only start an object atom — a
        number, a string, ``{``, ``[``, ``T``, ``F``, or a plain name
        that ends the expression (followed by ``)``, ``,``, ``]``,
        ``}`` or the end).  The ``fun ! obj`` and ``pred ? obj``
        attempts would both fail or stop short there, so :meth:`obj`
        skips them."""
        token = self.peek()
        if token is None:
            return False
        kind, value = token
        if kind in ("int", "float", "string") or value in _ATOM_STARTS:
            return True
        if kind != "ident" or value in _RESERVED:
            return False
        index = self.index + 1
        return (index >= len(self.tokens)
                or self.tokens[index][1] in _ATOM_ENDS)

    def obj_atom(self) -> Term:
        token = self.peek()
        if token is None:
            raise ParseError("expected an object expression", len(self.text))
        kind, value = token

        if value == "$":
            return self.metavar(Sort.OBJ)
        if kind == "int":
            self.next()
            return C.lit(int(value))
        if kind == "float":
            self.next()
            return C.lit(float(value))
        if kind == "string":
            self.next()
            return C.lit(value[1:-1])
        if value == "{":
            return C.lit(self.set_literal())
        if value == "[":
            self.next()
            left = self.obj()
            self.expect(",")
            right = self.obj()
            self.expect("]")
            return C.pairobj(left, right)
        if value == "(":
            self.next()
            inner = self.obj()
            self.expect(")")
            return inner
        if kind == "ident":
            self.next()
            if value == "T":
                return C.true()
            if value == "F":
                return C.false()
            if value == "Bag" and self.at("{"):
                from repro.core.bags import KBag
                self.next()
                items: list[object] = []
                while not self.at("}"):
                    items.append(self.literal_value())
                    if self.at(","):
                        self.next()
                self.expect("}")
                return C.lit(KBag.of(items))
            if value == "List" and self.at("["):
                from repro.core.lists import KList
                self.next()
                elements: list[object] = []
                while not self.at("]"):
                    elements.append(self.literal_value())
                    if self.at(","):
                        self.next()
                self.expect("]")
                return C.lit(KList(elements))
            if value in _RESERVED:
                raise ParseError(f"{value!r} is not an object expression")
            return C.setname(value)
        raise ParseError(f"expected an object expression, got {value!r}")

    # -- literal values (inside set literals) --------------------------------

    def set_literal(self) -> frozenset:
        """Parse ``{ value, ... }`` into a frozenset of plain values."""
        self.expect("{")
        items: list[object] = []
        while not self.at("}"):
            items.append(self.literal_value())
            if self.at(","):
                self.next()
        self.expect("}")
        return frozenset(items)

    def literal_value(self) -> object:
        """A plain value: number, string, T/F, pair or nested set."""
        from repro.core.values import KPair
        token = self.peek()
        if token is None:
            raise ParseError("expected a literal value", len(self.text))
        kind, value = token
        if kind == "int":
            self.next()
            return int(value)
        if kind == "float":
            self.next()
            return float(value)
        if kind == "string":
            self.next()
            return value[1:-1]
        if value == "T":
            self.next()
            return True
        if value == "F":
            self.next()
            return False
        if value == "{":
            return self.set_literal()
        if value == "[":
            self.next()
            left = self.literal_value()
            self.expect(",")
            right = self.literal_value()
            self.expect("]")
            return KPair(left, right)
        if value == "Bag":
            from repro.core.bags import KBag
            self.next()
            self.expect("{")
            items: list[object] = []
            while not self.at("}"):
                items.append(self.literal_value())
                if self.at(","):
                    self.next()
            self.expect("}")
            return KBag.of(items)
        if value == "List":
            from repro.core.lists import KList
            self.next()
            self.expect("[")
            elements: list[object] = []
            while not self.at("]"):
                elements.append(self.literal_value())
                if self.at(","):
                    self.next()
            self.expect("]")
            return KList(elements)
        raise ParseError(f"bad literal value {value!r}")


def _parse(text: str, production: Callable[[_Parser], Term]) -> Term:
    parser = _Parser(text)
    term = production(parser)
    if not parser.done():
        _, value, position = parser.tokens[parser.index]
        raise ParseError(f"trailing input starting at {value!r}", position)
    return term


def parse_fun(text: str) -> Term:
    """Parse a function-sorted KOLA term."""
    return _parse(text, _Parser.fun)


def parse_pred(text: str) -> Term:
    """Parse a predicate-sorted KOLA term."""
    return _parse(text, _Parser.pred)


def parse_obj(text: str) -> Term:
    """Parse an object expression (including whole queries ``f ! x``)."""
    return _parse(text, _Parser.obj)


def parse_query(text: str) -> Term:
    """Alias of :func:`parse_obj` for readability at call sites."""
    return parse_obj(text)


def parse(text: str, sort: Sort) -> Term:
    """Parse a term of the given sort."""
    if sort is Sort.FUN:
        return parse_fun(text)
    if sort is Sort.PRED:
        return parse_pred(text)
    return parse_obj(text)
