"""Codegen kernels: fused pipelines compiled to Python source.

This is the executor the optimizer runs queries on.  It walks the
fused loop IR and **emits specialized Python source**: one flat
function per plan, with the per-element step loop, dedup seen-sets,
join probes and sink accumulation inlined as straight-line code.
``compile()``/``exec`` turn that source into a :class:`CompiledKernel`.
(The closure emitter in :mod:`repro.exec.emit` interprets the same IR
as chained generator stages; it is kept as a reference, unreached from
the optimizer.)

Two things make a kernel more than a transliterated plan:

* **Parameter slots.**  The kernel signature is
  ``_kernel(db, _params, _cl)``; a constant-abstracted skeleton (PR 7,
  :func:`repro.core.terms.abstract_constants`) compiles with its
  ``lit`` slots emitted as ``_params[i]`` reads, so one compiled kernel
  serves an entire constant-varying template family.  The optimizer
  caches kernels by ``(skeleton, rulebase generation, db fingerprint)``
  next to its param plan cache.
* **Virtual pairs.**  ``KPair`` construction hashes its components; a
  kernel tracks pairs it builds itself symbolically and projects
  ``pi1``/``pi2``/``cross``/comparison operands straight out of the
  component expressions, materializing a real ``KPair`` only when the
  value escapes (into a set, a closure, a result).  Join and nest inner
  loops never pay for pairs that only feed projections.

Everything the emitted source calls comes from the same runtime tables
the evaluator uses (``COMPARISONS``, ``as_set``, ``SETOPS``...), and
every coercion context string is copied from
:mod:`repro.exec.scalar` / :mod:`repro.exec.emit` verbatim, so
``EvalError`` messages cannot drift between backends.  Combinators with
no inline emission (``bag_join``, ``bag_iterate``, ``list_iterate``,
pattern metavariables) fall back to the scalar closures themselves,
shipped into the kernel through the ``_cl`` tuple — by construction
those paths cannot diverge either.

Kernels are **db-late** like every other backend: ``run(db)`` binds the
database per call, ``run(None)`` routes through a no-database sentinel
whose accessors raise the exact "needs a database" messages of the
scalar closures.  The wire protocol never ships a kernel: results
cross it as terms (see :mod:`repro.parallel.portable`), and a kernel
is compiled wherever its query runs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from repro.core.bags import KBag, as_bag
from repro.core.errors import EvalError
from repro.core.lists import KList, as_list, stable_sort_key
from repro.core.prims import COMPARISONS, SETOPS
from repro.core.terms import Term, instantiate_constants, is_param_slot
from repro.core.values import KPair, as_bool, as_pair, as_set, kset
from repro.exec.fuse import fuse
from repro.exec.ir import (Compute, Dedup, Filter, Flatten, JoinProbe,
                           LoweredQuery, Map, NestGroup, Pipeline, Scan,
                           Sort, UnnestFlatten, WrapEnv, render)
from repro.exec.lower import lower_query
from repro.exec.scalar import (is_const_true, scalar_fn, scalar_obj,
                               scalar_pred)

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.schema.adt import Database

#: Compiled closure tuples cached per parameter binding (family kernels
#: whose fallback closures mention slots recompile per distinct values).
CLOSURE_CACHE_MAX = 64


# -- the no-database sentinel -------------------------------------------------

class _NoDatabase:
    """Stands in for ``db=None`` inside a kernel so primitive accessors
    stay direct attribute calls; raises the scalar closures' exact
    "needs a database" messages."""

    __slots__ = ()

    def apply_prim(self, name, x):
        raise EvalError(f"primitive {name!r} needs a database")

    def test_pprim(self, name, x):
        raise EvalError(f"primitive predicate {name!r} needs a database")

    def collection(self, name):
        raise EvalError(f"named collection {name!r} needs a database")


_NODB = _NoDatabase()


#: Names every kernel namespace starts from.
_GLOBALS = {
    "EvalError": EvalError,
    "KPair": KPair,
    "KBag": KBag,
    "KList": KList,
    "kset": kset,
    "as_set": as_set,
    "as_pair": as_pair,
    "as_bag": as_bag,
    "as_list": as_list,
    "as_bool": as_bool,
    "stable_sort_key": stable_sort_key,
    "_first": itemgetter(0),
    "_NODB": _NODB,
}

_COERCE_NAME = {"set": "as_set", "bag": "as_bag", "list": "as_list"}


# -- atoms --------------------------------------------------------------------

class _PairAtom:
    """A pair the kernel built itself, kept symbolic until it must
    escape as a real ``KPair``.  ``depth`` is the emitter indent at
    creation: a materialization at a deeper indent (inside a branch or
    loop the creation point does not dominate) is not cached, so the
    variable can never be read on a path that did not bind it."""

    __slots__ = ("fst", "snd", "depth", "var")

    def __init__(self, fst, snd, depth):
        self.fst = fst
        self.snd = snd
        self.depth = depth
        self.var = None


class _Emitter:
    """Accumulates the kernel body, constants, parameter reads and
    closure specs while walking the IR."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 1
        self.counter = 0
        self.consts: dict[str, object] = {}
        self._const_memo: dict[int, str] = {}
        self.params: set[int] = set()
        self.closure_specs: list[tuple] = []
        self._closure_memo: dict[tuple, int] = {}
        self.pair_vars: set[str] = set()
        self.uses_prim = False
        self.uses_pprim = False

    # -- plumbing ------------------------------------------------------------

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"_{stem}{self.counter}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def param(self, index: int) -> str:
        self.params.add(index)
        return f"_p{index}"

    def const(self, value) -> str:
        name = self._const_memo.get(id(value))
        if name is None:
            name = f"_k{len(self.consts)}"
            self.consts[name] = value
            self._const_memo[id(value)] = name
        return name

    def closure(self, kind: str, term: Term) -> str:
        key = (kind, term)
        index = self._closure_memo.get(key)
        if index is None:
            index = len(self.closure_specs)
            self.closure_specs.append(key)
            self._closure_memo[key] = index
        return f"_c{index}"

    def atom_literal(self, value) -> str:
        if isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float) and value == value \
                and value not in (float("inf"), float("-inf")):
            return repr(value)
        return self.const(value)

    def lit_atom(self, lit: Term) -> str:
        """A ``lit`` term as an atom — parameter slots read ``_params``."""
        if is_param_slot(lit):
            return self.param(lit.label[1])
        return self.atom_literal(lit.label)

    def as_code(self, atom) -> str:
        """Collapse an atom to a code expression, materializing virtual
        pairs (cached only when the creation point dominates)."""
        if isinstance(atom, _PairAtom):
            if atom.var is not None:
                return atom.var
            code = (f"KPair({self.as_code(atom.fst)}, "
                    f"{self.as_code(atom.snd)})")
            var = self.fresh("v")
            self.emit(f"{var} = {code}")
            self.pair_vars.add(var)
            if atom.depth == self.indent:
                atom.var = var
            return var
        return atom

    def bind(self, atom) -> str:
        """Force an atom into a plain identifier."""
        code = self.as_code(atom)
        if code.isidentifier():
            return code
        var = self.fresh("t")
        self.emit(f"{var} = {code}")
        return var

    def pair_of(self, atom, context: str):
        """Project an atom as a pair, with the scalar closures' exact
        ``as_pair`` context when the shape is unknown."""
        if isinstance(atom, _PairAtom):
            return atom.fst, atom.snd
        if atom in self.pair_vars:
            return f"{atom}.fst", f"{atom}.snd"
        var = self.fresh("p")
        self.emit(f"{var} = as_pair({self.as_code(atom)}, {context!r})")
        self.pair_vars.add(var)
        return f"{var}.fst", f"{var}.snd"

    def make_pair(self, fst, snd) -> _PairAtom:
        return _PairAtom(fst, snd, self.indent)

    # -- objects -------------------------------------------------------------

    def emit_obj(self, term: Term):
        op = term.op
        if op == "lit":
            return self.lit_atom(term)
        if op == "setname":
            var = self.fresh("s")
            self.emit(f"{var} = db.collection({term.label!r})")
            return var
        if op == "pairobj":
            left = self.emit_obj(term.args[0])
            right = self.emit_obj(term.args[1])
            return self.make_pair(left, right)
        if op == "invoke":
            arg = self.emit_obj(term.args[1])
            return self.emit_fn(term.args[0], arg)
        if op == "test":
            arg = self.emit_obj(term.args[1])
            return self.emit_pred(term.args[0], arg)
        var = self.fresh("o")
        self.emit(f"{var} = {self.closure('obj', term)}(db)")
        return var

    # -- functions -----------------------------------------------------------

    def emit_fn(self, term: Term, x):
        op = term.op
        args = term.args

        if op == "id":
            return x
        if op == "pi1":
            return self.pair_of(x, "pi1")[0]
        if op == "pi2":
            return self.pair_of(x, "pi2")[1]
        if op == "prim":
            self.uses_prim = True
            var = self.fresh("v")
            self.emit(f"{var} = _ap({term.label!r}, {self.as_code(x)})")
            return var
        if op == "setop":
            label = term.label
            fst, snd = self.pair_of(x, label)
            fn = self.const(SETOPS[label])
            var = self.fresh("v")
            self.emit(f"{var} = {fn}(as_set({self.as_code(fst)}, {label!r}), "
                      f"as_set({self.as_code(snd)}, {label!r}))")
            return var

        if op == "compose":
            return self.emit_fn(args[0], self.emit_fn(args[1], x))
        if op == "pair":
            left = self.emit_fn(args[0], x)
            right = self.emit_fn(args[1], x)
            return self.make_pair(left, right)
        if op == "cross":
            fst, snd = self.pair_of(x, "cross")
            left = self.emit_fn(args[0], fst)
            right = self.emit_fn(args[1], snd)
            return self.make_pair(left, right)
        if op == "const_f":
            return self.emit_obj(args[0])
        if op == "curry_f":
            key = self.emit_obj(args[1])
            return self.emit_fn(args[0], self.make_pair(key, x))
        if op == "cond":
            test = self.emit_pred(args[0], x)
            var = self.fresh("v")
            self.emit(f"if {self.as_code(test)}:")
            self.indent += 1
            self.emit(f"{var} = {self.as_code(self.emit_fn(args[1], x))}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.emit(f"{var} = {self.as_code(self.emit_fn(args[2], x))}")
            self.indent -= 1
            return var

        if op == "flat":
            acc = self.fresh("a")
            self.emit(f"{acc} = set()")
            member = self.fresh("m")
            self.emit(f"for {member} in as_set({self.as_code(x)}, 'flat'):")
            self.indent += 1
            self.emit(f"{acc}.update(as_set({member}, 'flat element'))")
            self.indent -= 1
            return self._kset_of(acc)
        if op == "iterate":
            return self._emit_set_loop(args[0], args[1], x, "iterate",
                                       wrap=None)
        if op == "iter":
            fst, snd = self.pair_of(x, "iter")
            env = self.bind(fst)
            return self._emit_set_loop(args[0], args[1], snd, "iter",
                                       wrap=env)
        if op == "join":
            fst, snd = self.pair_of(x, "join")
            left = self.bind(f"as_set({self.as_code(fst)}, 'join')")
            right = self.bind(f"as_set({self.as_code(snd)}, 'join')")
            acc = self.fresh("a")
            self.emit(f"{acc} = set()")
            a = self.fresh("a")
            b = self.fresh("b")
            self.emit(f"for {a} in {left}:")
            self.indent += 1
            self.emit(f"for {b} in {right}:")
            self.indent += 1
            pair = self.make_pair(a, b)
            self.emit_filter(args[0], pair)
            image = self.emit_fn(args[1], pair)
            self.emit(f"{acc}.add({self.as_code(image)})")
            self.indent -= 2
            return self._kset_of(acc)
        if op == "nest":
            src, keys = self.pair_of(x, "nest")
            groups = self.fresh("g")
            self.emit(f"{groups} = {{}}")
            key = self.fresh("k")
            self.emit(f"for {key} in as_set({self.as_code(keys)}, 'nest'):")
            self.indent += 1
            self.emit(f"{groups}[{key}] = set()")
            self.indent -= 1
            item = self.fresh("x")
            self.emit(f"for {item} in as_set({self.as_code(src)}, 'nest'):")
            self.indent += 1
            kv = self.bind(self.emit_fn(args[0], item))
            self.emit(f"if {kv} in {groups}:")
            self.indent += 1
            val = self.emit_fn(args[1], item)
            self.emit(f"{groups}[{kv}].add({self.as_code(val)})")
            self.indent -= 2
            acc = self.fresh("a")
            self.emit(f"{acc} = set()")
            k2 = self.fresh("k")
            mm = self.fresh("m")
            self.emit(f"for {k2}, {mm} in {groups}.items():")
            self.indent += 1
            self.emit(f"{acc}.add(KPair({k2}, kset({mm})))")
            self.indent -= 1
            return self._kset_of(acc)
        if op == "unnest":
            acc = self.fresh("a")
            self.emit(f"{acc} = set()")
            item = self.fresh("x")
            self.emit(f"for {item} in as_set({self.as_code(x)}, 'unnest'):")
            self.indent += 1
            kv = self.emit_fn(args[0], item)
            sv = self.emit_fn(args[1], item)
            member = self.fresh("m")
            self.emit(f"for {member} in as_set({self.as_code(sv)}, "
                      f"'unnest inner'):")
            self.indent += 1
            self.emit(f"{acc}.add(KPair({self.as_code(kv)}, {member}))")
            self.indent -= 2
            return self._kset_of(acc)

        if op == "tobag":
            return self._expr("v", f"KBag.of(as_set({self.as_code(x)}, "
                                   f"'tobag'))")
        if op == "distinct":
            return self._expr("v", f"as_bag({self.as_code(x)}, "
                                   f"'distinct').support()")
        if op == "bag_flat":
            return self._expr("v", f"as_bag({self.as_code(x)}, "
                                   f"'bag_flat').flatten()")
        if op == "bag_union":
            fst, snd = self.pair_of(x, "bag_union")
            return self._expr(
                "v", f"as_bag({self.as_code(fst)}, 'bag_union')"
                     f".additive_union(as_bag({self.as_code(snd)}, "
                     f"'bag_union'))")

        if op == "listify":
            items = self.fresh("l")
            self.emit(f"{items} = list(as_set({self.as_code(x)}, "
                      f"'listify'))")
            dec = self.fresh("d")
            self.emit(f"{dec} = []")
            e = self.fresh("e")
            self.emit(f"for {e} in {items}:")
            self.indent += 1
            key = self.emit_fn(args[0], e)
            self.emit(f"{dec}.append((stable_sort_key("
                      f"{self.as_code(key)}, {e}), {e}))")
            self.indent -= 1
            self.emit(f"{dec}.sort(key=_first)")
            return self._expr("v", f"KList([p[1] for p in {dec}])")
        if op == "list_flat":
            return self._expr("v", f"as_list({self.as_code(x)}, "
                                   f"'list_flat').flatten()")
        if op == "list_cat":
            fst, snd = self.pair_of(x, "list_cat")
            return self._expr(
                "v", f"as_list({self.as_code(fst)}, 'list_cat')"
                     f".concat(as_list({self.as_code(snd)}, 'list_cat'))")
        if op == "to_set":
            return self._expr("v", f"as_list({self.as_code(x)}, "
                                   f"'to_set').support()")

        if op == "count":
            return self._expr("v", f"len(as_set({self.as_code(x)}, "
                                   f"'count'))")
        if op == "bag_count":
            return self._expr("v", f"len(as_bag({self.as_code(x)}, "
                                   f"'bag_count'))")
        if op == "ssum":
            total = self.fresh("n")
            self.emit(f"{total} = 0")
            item = self.fresh("e")
            self.emit(f"for {item} in as_set({self.as_code(x)}, 'ssum'):")
            self.indent += 1
            self.emit(f"if not isinstance({item}, (int, float)):")
            self.indent += 1
            self.emit(f"raise EvalError(f\"ssum over non-number "
                      f"{{{item}!r}}\")")
            self.indent -= 1
            self.emit(f"{total} += {item}")
            self.indent -= 1
            return total
        if op == "bag_sum":
            total = self.fresh("n")
            self.emit(f"{total} = 0")
            item = self.fresh("e")
            mult = self.fresh("c")
            self.emit(f"for {item}, {mult} in as_bag({self.as_code(x)}, "
                      f"'bag_sum').counts().items():")
            self.indent += 1
            self.emit(f"if not isinstance({item}, (int, float)):")
            self.indent += 1
            self.emit(f"raise EvalError(f\"bag_sum over non-number "
                      f"{{{item}!r}}\")")
            self.indent -= 1
            self.emit(f"{total} += {item} * {mult}")
            self.indent -= 1
            return total
        if op == "plus":
            fst, snd = self.pair_of(x, "plus")
            a = self.bind(fst)
            b = self.bind(snd)
            self.emit(f"if not isinstance({a}, (int, float)) "
                      f"or not isinstance({b}, (int, float)):")
            self.indent += 1
            self.emit(f"raise EvalError(f\"plus over non-numbers "
                      f"{{KPair({a}, {b})!r}}\")")
            self.indent -= 1
            return self._expr("v", f"{a} + {b}")

        # bag_iterate / bag_join / list_iterate / meta / unknown: the
        # scalar closure IS the reference implementation — fall back.
        var = self.fresh("v")
        self.emit(f"{var} = {self.closure('fn', term)}"
                  f"({self.as_code(x)}, db)")
        return var

    def _emit_set_loop(self, pred: Term, fn: Term, source_atom,
                       context: str, wrap):
        """Shared ``iterate``/``iter`` loop; ``wrap`` pairs an
        environment onto each element first."""
        acc = self.fresh("a")
        self.emit(f"{acc} = set()")
        y = self.fresh("y")
        self.emit(f"for {y} in as_set({self.as_code(source_atom)}, "
                  f"{context!r}):")
        self.indent += 1
        elem = self.make_pair(wrap, y) if wrap is not None else y
        self.emit_filter(pred, elem)
        image = self.emit_fn(fn, elem)
        self.emit(f"{acc}.add({self.as_code(image)})")
        self.indent -= 1
        return self._kset_of(acc)

    def _kset_of(self, acc: str) -> str:
        return self._expr("v", f"kset({acc})")

    def _expr(self, stem: str, code: str) -> str:
        var = self.fresh(stem)
        self.emit(f"{var} = {code}")
        return var

    # -- predicates ----------------------------------------------------------

    def emit_filter(self, pred: Term, x) -> None:
        """Skip the loop's element ``x`` unless ``pred`` holds for it;
        ``Kp(T)`` holds for every element, so it emits nothing."""
        if is_const_true(pred):
            return
        test = self.emit_pred(pred, x)
        self.emit(f"if not {self.as_code(test)}: continue")

    def emit_pred(self, term: Term, x):
        op = term.op
        args = term.args

        if op in COMPARISONS:
            # compare() inlined: same table entry, same TypeError fold.
            fst, snd = self.pair_of(x, op)
            fst_code = self.as_code(fst)
            snd_code = self.as_code(snd)
            cmp_fn = self.const(COMPARISONS[op])
            var = self.fresh("b")
            self.emit("try:")
            self.indent += 1
            self.emit(f"{var} = bool({cmp_fn}({fst_code}, {snd_code}))")
            self.indent -= 1
            self.emit("except TypeError as _exc:")
            self.indent += 1
            self.emit(f"raise EvalError(f\"{op} applied to incomparable "
                      f"values: {{_exc}}\")")
            self.indent -= 1
            return var
        if op == "isin":
            fst, snd = self.pair_of(x, "in")
            return self._expr("b", f"{self.as_code(fst)} in "
                                   f"as_set({self.as_code(snd)}, 'in')")
        if op == "subset":
            fst, snd = self.pair_of(x, "subset")
            return self._expr(
                "b", f"as_set({self.as_code(fst)}, 'subset') <= "
                     f"as_set({self.as_code(snd)}, 'subset')")
        if op == "pprim":
            self.uses_pprim = True
            return self._expr("b", f"_tp({term.label!r}, "
                                   f"{self.as_code(x)})")

        if op == "oplus":
            return self.emit_pred(args[0], self.emit_fn(args[1], x))
        if op == "conj":
            left = self.bind(self.emit_pred(args[0], x))
            var = self.fresh("b")
            self.emit(f"if {left}:")
            self.indent += 1
            self.emit(f"{var} = {self.as_code(self.emit_pred(args[1], x))}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.emit(f"{var} = {left}")
            self.indent -= 1
            return var
        if op == "disj":
            left = self.bind(self.emit_pred(args[0], x))
            var = self.fresh("b")
            self.emit(f"if {left}:")
            self.indent += 1
            self.emit(f"{var} = {left}")
            self.indent -= 1
            self.emit("else:")
            self.indent += 1
            self.emit(f"{var} = {self.as_code(self.emit_pred(args[1], x))}")
            self.indent -= 1
            return var
        if op == "inv":
            fst, snd = self.pair_of(x, "inv")
            return self.emit_pred(args[0], self.make_pair(snd, fst))
        if op == "neg":
            test = self.emit_pred(args[0], x)
            return self._expr("b", f"not {self.as_code(test)}")
        if op == "const_p":
            value = self.emit_obj(args[0])
            return self._expr("b", f"as_bool({self.as_code(value)}, 'Kp')")
        if op == "curry_p":
            key = self.emit_obj(args[1])
            return self.emit_pred(args[0], self.make_pair(key, x))

        var = self.fresh("b")
        self.emit(f"{var} = {self.closure('pred', term)}"
                  f"({self.as_code(x)}, db)")
        return var

    # -- pipelines -----------------------------------------------------------

    def emit_lowered(self, lowered: LoweredQuery):
        value = self.emit_pipeline_value(lowered.pipeline)
        if lowered.post is not None:
            value = self.emit_fn(lowered.post, value)
        if lowered.post_pred is not None:
            value = self.emit_pred(lowered.post_pred, value)
        return value

    def emit_pipeline_value(self, pipeline: Pipeline):
        if isinstance(pipeline.source, Compute):
            return self.emit_obj(pipeline.source.term)
        sink = pipeline.sink
        if sink == "set":
            acc = self._expr("acc", "set()")
            self.emit_stream(pipeline,
                             lambda x: self.emit(f"{acc}.add"
                                                 f"({self.as_code(x)})"))
            return self._kset_of(acc)
        if sink == "bag":
            acc = self._expr("acc", "{}")

            def add(x):
                xv = self.bind(x)
                self.emit(f"{acc}[{xv}] = {acc}.get({xv}, 0) + 1")
            self.emit_stream(pipeline, add)
            return self._expr("v", f"KBag({acc})")
        if sink == "list":
            acc = self._expr("acc", "[]")
            self.emit_stream(pipeline,
                             lambda x: self.emit(f"{acc}.append"
                                                 f"({self.as_code(x)})"))
            return self._expr("v", f"KList({acc})")
        if sink in ("count", "bag_count"):
            total = self._expr("n", "0")
            self.emit_stream(pipeline,
                             lambda x: self.emit(f"{total} += 1"))
            return total
        if sink in ("ssum", "bag_sum"):
            total = self._expr("n", "0")

            def add_num(x):
                xv = self.bind(x)
                self.emit(f"if not isinstance({xv}, (int, float)):")
                self.indent += 1
                self.emit(f"raise EvalError(f\"{sink} over non-number "
                          f"{{{xv}!r}}\")")
                self.indent -= 1
                self.emit(f"{total} += {xv}")
            self.emit_stream(pipeline, add_num)
            return total
        raise EvalError(f"cannot emit sink {sink!r}")  # pragma: no cover

    # -- streams -------------------------------------------------------------

    def emit_stream(self, pipeline: Pipeline, body) -> None:
        """Emit the loops producing ``pipeline``'s stream, calling
        ``body(atom)`` to emit the per-element consumer."""
        source = pipeline.source
        indexed = list(enumerate(pipeline.ops))
        if isinstance(source, Scan):
            open_loop = self.prepare_scan(source)
        elif isinstance(source, JoinProbe):
            open_loop = lambda b: self.emit_join(source, b)
        elif isinstance(source, NestGroup):
            open_loop = lambda b: self.emit_nest(source, b)
        else:  # pragma: no cover - Compute handled by emit_pipeline_value
            raise EvalError("cannot stream an opaque computed source")
        self.emit_chain(open_loop, indexed, body)

    def emit_chain(self, open_loop, indexed, body) -> None:
        """One chain segment: env/seen prologues, then the element loop
        (buffering into a sort when the segment ends in one)."""
        split = next((k for k, (_, op) in enumerate(indexed)
                      if isinstance(op, Sort)), None)
        head = indexed if split is None else indexed[:split]

        env_atoms: dict[int, object] = {}
        seen_names: dict[int, str] = {}
        for i, op in head:
            if isinstance(op, WrapEnv):
                env_atoms[i] = self.emit_obj(op.env)
            elif isinstance(op, Dedup):
                seen_names[i] = self._expr("seen", "set()")

        if split is None:
            open_loop(lambda x: self.emit_elem(head, 0, x, body,
                                               env_atoms, seen_names))
            return

        sort_op = indexed[split][1]
        tail = indexed[split + 1:]
        buf = self._expr("buf", "[]")
        open_loop(lambda x: self.emit_elem(
            head, 0, x,
            lambda y: self.emit(f"{buf}.append({self.as_code(y)})"),
            env_atoms, seen_names))
        dec = self._expr("dec", "[]")
        e = self.fresh("e")
        self.emit(f"for {e} in {buf}:")
        self.indent += 1
        key = self.emit_fn(sort_op.key_fn, e)
        self.emit(f"{dec}.append((stable_sort_key({self.as_code(key)}, "
                  f"{e}), {e}))")
        self.indent -= 1
        self.emit(f"{dec}.sort(key=_first)")

        def sorted_loop(inner_body):
            p = self.fresh("q")
            self.emit(f"for {p} in {dec}:")
            self.indent += 1
            inner_body(f"{p}[1]")
            self.indent -= 1

        self.emit_chain(sorted_loop, tail, body)

    def emit_elem(self, indexed, pos, x, body, env_atoms,
                  seen_names) -> None:
        """Apply ops ``indexed[pos:]`` to element atom ``x``, then
        ``body``; loops/branches opened here stay open for the rest of
        the element's code path."""
        if pos == len(indexed):
            body(x)
            return
        i, op = indexed[pos]
        if isinstance(op, Map):
            self.emit_elem(indexed, pos + 1, self.emit_fn(op.fn, x),
                           body, env_atoms, seen_names)
            return
        if isinstance(op, Filter):
            self.emit_filter(op.pred, x)
            self.emit_elem(indexed, pos + 1, x, body, env_atoms, seen_names)
            return
        if isinstance(op, WrapEnv):
            wrapped = self.make_pair(env_atoms[i], x)
            self.emit_elem(indexed, pos + 1, wrapped, body, env_atoms,
                           seen_names)
            return
        if isinstance(op, Flatten):
            xv = self.as_code(x)
            member = self.fresh("m")
            if op.kind == "set":
                self.emit(f"for {member} in as_set({xv}, 'flat element'):")
            else:
                cls, msg = (("KBag", "bag_flat") if op.kind == "bag"
                            else ("KList", "list_flat"))
                self.emit(f"if not isinstance({xv}, {cls}):")
                self.indent += 1
                self.emit(f"raise EvalError(f\"{msg} over non-{op.kind} "
                          f"member {{{xv}!r}}\")")
                self.indent -= 1
                self.emit(f"for {member} in {xv}:")
            self.indent += 1
            self.emit_elem(indexed, pos + 1, member, body, env_atoms,
                           seen_names)
            self.indent -= 1
            return
        if isinstance(op, UnnestFlatten):
            key = self.emit_fn(op.key_fn, x)
            sv = self.emit_fn(op.set_fn, x)
            member = self.fresh("m")
            self.emit(f"for {member} in as_set({self.as_code(sv)}, "
                      f"'unnest inner'):")
            self.indent += 1
            self.emit_elem(indexed, pos + 1, self.make_pair(key, member),
                           body, env_atoms, seen_names)
            self.indent -= 1
            return
        if isinstance(op, Dedup):
            xv = self.bind(x)
            seen = seen_names[i]
            self.emit(f"if {xv} in {seen}: continue")
            self.emit(f"{seen}.add({xv})")
            self.emit_elem(indexed, pos + 1, xv, body, env_atoms,
                           seen_names)
            return
        raise EvalError(f"cannot emit IR op {op!r}")  # pragma: no cover

    # -- sources -------------------------------------------------------------

    def prepare_scan(self, scan: Scan):
        """Emit the eager part of a scan (collection fetch + coercion)
        and return the loop opener."""
        source = self.emit_obj(scan.source)
        it = self._expr(
            "it", f"{_COERCE_NAME[scan.kind]}({self.as_code(source)}, "
                  f"'scan')")

        def open_loop(body):
            x = self.fresh("x")
            self.emit(f"for {x} in {it}:")
            self.indent += 1
            body(x)
            self.indent -= 1
        return open_loop

    def emit_join(self, probe: JoinProbe, per_elem) -> None:
        if probe.membership_fn is not None:
            index = self._expr("idx", "set()")
            self.emit_stream(probe.left,
                             lambda a: self.emit(f"{index}.add"
                                                 f"({self.as_code(a)})"))

            def right_body(b):
                member = self.emit_fn(probe.membership_fn, b)
                a = self.fresh("a")
                self.emit(f"for {a} in as_set({self.as_code(member)}, "
                          f"'in'):")
                self.indent += 1
                self.emit(f"if {a} not in {index}: continue")
                image = self.emit_fn(probe.fn, self.make_pair(a, b))
                per_elem(image)
                self.indent -= 1
            self.emit_stream(probe.right, right_body)
            return

        if probe.eq_keys is not None:
            buckets = self._expr("bk", "{}")

            def left_body(a):
                key = self.emit_fn(probe.eq_keys[0], a)
                self.emit(f"{buckets}.setdefault({self.as_code(key)}, "
                          f"[]).append({self.as_code(a)})")
            self.emit_stream(probe.left, left_body)

            def probe_body(b):
                key = self.emit_fn(probe.eq_keys[1], b)
                a = self.fresh("a")
                self.emit(f"for {a} in {buckets}.get({self.as_code(key)}, "
                          f"()):")
                self.indent += 1
                image = self.emit_fn(probe.fn, self.make_pair(a, b))
                per_elem(image)
                self.indent -= 1
            self.emit_stream(probe.right, probe_body)
            return

        items = self._expr("li", "[]")
        self.emit_stream(probe.left,
                         lambda a: self.emit(f"{items}.append"
                                             f"({self.as_code(a)})"))

        def nested_body(b):
            a = self.fresh("a")
            self.emit(f"for {a} in {items}:")
            self.indent += 1
            pair = self.make_pair(a, b)
            self.emit_filter(probe.pred, pair)
            image = self.emit_fn(probe.fn, pair)
            per_elem(image)
            self.indent -= 1
        self.emit_stream(probe.right, nested_body)

    def emit_nest(self, group: NestGroup, per_elem) -> None:
        groups = self._expr("g", "{}")
        self.emit_stream(group.keys,
                         lambda k: self.emit(f"{groups}"
                                             f"[{self.as_code(k)}] = set()"))

        def source_body(x):
            key = self.bind(self.emit_fn(group.key_fn, x))
            self.emit(f"if {key} in {groups}:")
            self.indent += 1
            val = self.emit_fn(group.val_fn, x)
            self.emit(f"{groups}[{key}].add({self.as_code(val)})")
            self.indent -= 1
        self.emit_stream(group.source, source_body)

        key = self.fresh("k")
        members = self.fresh("m")
        self.emit(f"for {key}, {members} in {groups}.items():")
        self.indent += 1
        value = self.bind(f"kset({members})")
        per_elem(self.make_pair(key, value))
        self.indent -= 1


# -- kernel assembly ----------------------------------------------------------

def emit_kernel_source(lowered: LoweredQuery):
    """Emit the kernel function source for a fused query.

    Returns ``(source, consts, closure_specs)``.
    """
    em = _Emitter()
    result = em.emit_lowered(lowered)
    em.emit(f"return {em.as_code(result)}")

    header = ["def _kernel(db, _params, _cl):",
              "    if db is None:",
              "        db = _NODB"]
    if em.uses_prim:
        header.append("    _ap = db.apply_prim")
    if em.uses_pprim:
        header.append("    _tp = db.test_pprim")
    for index in sorted(em.params):
        header.append(f"    _p{index} = _params[{index}]")
    for index in range(len(em.closure_specs)):
        header.append(f"    _c{index} = _cl[{index}]")
    source = "\n".join(header + em.lines) + "\n"
    return source, em.consts, tuple(em.closure_specs)


_RESOLVE = {"fn": scalar_fn, "pred": scalar_pred, "obj": scalar_obj}


class CompiledKernel:
    """A fused plan compiled to a specialized Python function.

    ``run(db, params)`` executes; ``params`` are the constant-parameter
    slot values of the skeleton the kernel was compiled from (empty for
    a concrete term).  One kernel serves every member of its constant
    template family — the optimizer binds a fresh ``params`` tuple per
    query while reusing the compiled function.
    """

    __slots__ = ("term", "lowered", "source", "n_params",
                 "closure_specs", "_fn", "_closures_have_slots",
                 "_closure_cache")

    def __init__(self, term, lowered, source, n_params, closure_specs,
                 fn):
        self.term = term
        self.lowered = lowered
        self.source = source
        self.n_params = n_params
        self.closure_specs = closure_specs
        self._fn = fn
        self._closures_have_slots = any(
            is_param_slot(sub)
            for _, spec in closure_specs for sub in spec.subterms())
        self._closure_cache: dict = {}

    def run(self, db: "Database | None" = None, params: tuple = ()):
        params = tuple(params)
        if len(params) != self.n_params:
            raise EvalError(
                f"kernel expects {self.n_params} parameter value(s), "
                f"got {len(params)}")
        return self._fn(db, params, self._closures(params))

    def _closures(self, params: tuple) -> tuple:
        if not self.closure_specs:
            return ()
        key = params if self._closures_have_slots else ()
        cached = self._closure_cache.get(key)
        if cached is None:
            cached = tuple(
                _RESOLVE[kind](instantiate_constants(spec, params))
                for kind, spec in self.closure_specs)
            if len(self._closure_cache) >= CLOSURE_CACHE_MAX:
                self._closure_cache.clear()
            self._closure_cache[key] = cached
        return cached

    def explain(self) -> str:
        return render(self.lowered)

    @property
    def fully_lowered(self) -> bool:
        return self.lowered.fully_lowered

    def __repr__(self) -> str:
        return (f"CompiledKernel(n_params={self.n_params}, "
                f"{len(self.source.splitlines())} lines)")


def _count_params(term: Term) -> int:
    n = 0
    for sub in term.subterms():
        if is_param_slot(sub):
            n = max(n, sub.label[1] + 1)
    return n


def compile_kernel(term: Term, *, fused: bool = True) -> CompiledKernel:
    """lower + fuse + emit source + ``compile()``/``exec``, once.

    ``term`` may be a concrete query or a constant-abstracted skeleton;
    in the latter case ``run`` takes the binding vector produced by
    :func:`repro.core.terms.abstract_constants`.
    """
    lowered = lower_query(term)
    if fused:
        lowered = fuse(lowered)
    source, consts, specs = emit_kernel_source(lowered)
    namespace = dict(_GLOBALS)
    namespace.update(consts)
    code = compile(source, "<kola-kernel>", "exec")
    exec(code, namespace)
    return CompiledKernel(term, lowered, source, _count_params(term),
                          specs, namespace["_kernel"])
