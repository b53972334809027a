"""Codegen kernels, the one executor: source emission, parameter-slot
families, the skeleton-keyed kernel cache, and its integrations.

Organized by the guarantees the executor makes:

* **result identity** — a compiled kernel returns exactly what the
  closure emitter's pipeline (in both its generator and columnar
  modes) and direct evaluation return (the bulk property sweep lives
  in ``test_exec_property.py``; here are the targeted shapes);
* **message parity** — a query that fails, fails with *the same*
  ``EvalError`` message through the kernel as through the closure
  emitter in either mode (the emitter is the reference: it and direct
  eval already differ on scan-coercion contexts by design);
* **db-late compilation** — one kernel retargets across databases and
  refuses database-dependent work without one;
* **parameter families** — a kernel compiled from a constant-abstracted
  skeleton serves every member of the template family via run-time
  parameter values, and the optimizer's kernel cache exploits that;
* **integration** — backend dispatch and the CLI.
"""

import pytest

from repro.cli import main
from repro.core import constructors as C
from repro.core.errors import EvalError
from repro.core.eval import eval_obj
from repro.core.parser import parse_obj
from repro.core.terms import Term, abstract_constants, instantiate_constants
from repro.exec import compile_executable, compile_kernel
from repro.exec import columnar as columnar_mod
from repro.exec import ir
from repro.optimizer.optimizer import BACKENDS, Optimizer
from repro.rewrite.pattern import canon
from repro.rules.registry import standard_rulebase
from repro.schema.generator import tiny_database

DB = tiny_database()


def _q(text):
    return canon(parse_obj(text))


def _error(run):
    with pytest.raises(EvalError) as info:
        run()
    return str(info.value)


# -- result identity ----------------------------------------------------------


class TestResultIdentity:
    QUERIES = [
        "iterate(gt @ <age, Kf(30)>, id) ! P",
        "listify(age) ! P",
        "ssum o iterate(Kp(T), age) ! P",
        "count ! P",
        "nest(pi1, pi2) o (unnest(pi1, pi2) >< id) o "
        "<join(in @ (id >< cars), (id >< grgs)), pi1> ! [V, P]",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("columnar", [False, True])
    def test_matches_fused_and_eval(self, text, columnar):
        """``columnar`` picks the closure emitter's mode the kernel is
        compared with."""
        query = _q(text)
        expected = eval_obj(query, DB)
        fused = compile_executable(query, columnar=columnar).run(DB)
        got = compile_kernel(query).run(DB)
        assert type(got) is type(expected) and got == expected
        assert type(got) is type(fused) and got == fused

    def test_sort_from_column(self):
        """The kernel's sort orders exactly as the closure emitter's
        sort-from-column path (a leading attr-keyed Sort served from
        the cached column) and direct evaluation do."""
        query = _q("listify(age) ! P")
        expected = eval_obj(query, DB)
        from_column = compile_executable(query, columnar=True)
        assert from_column.run(DB) == expected
        got = compile_kernel(query).run(DB)
        assert type(got) is type(expected)
        assert list(got) == list(expected)

    def test_repr_and_explain(self):
        kernel = compile_kernel(_q("count ! P"))
        assert "CompiledKernel" in repr(kernel)
        assert "Scan[P" in kernel.explain()
        assert kernel.fully_lowered


# -- message parity with the fused backend ------------------------------------


def _swap_zero_for(term, value):
    if term.op == "lit" and term.label == 0:
        return C.lit(value)
    if not term.args:
        return term
    return Term(term.op, tuple(_swap_zero_for(arg, value)
                               for arg in term.args), term.label)


class TestMessageParity:
    ERROR_QUERIES = [
        "flat ! P",                            # flat over non-set members
        "ssum ! P",                            # ssum over non-numbers
        "iterate(lt @ <id, Kf(3)>, id) ! P",   # incomparable compare
        "plus ! 3",                            # plus over a non-pair
    ]

    @pytest.mark.parametrize("text", ERROR_QUERIES)
    @pytest.mark.parametrize("columnar", [False, True])
    def test_same_message_as_fused(self, text, columnar):
        """``columnar`` picks the closure emitter's mode the kernel is
        compared with."""
        query = _q(text)
        expected = _error(
            lambda: compile_executable(query, columnar=columnar).run(DB))
        got = _error(lambda: compile_kernel(query).run(DB))
        assert got == expected

    @pytest.mark.parametrize("columnar", [False, True])
    def test_string_constant_over_numeric_column(self, columnar):
        """The kernel surfaces the same incomparable-values error as
        the closure emitter's scalar and columnar paths (the columnar
        vectorized mask attempt folds its TypeError into a scalar
        fallback, never a silent drop)."""
        query = canon(_swap_zero_for(
            parse_obj("iterate(gt @ <age, Kf(0)>, id) ! P"), "x"))
        expected = _error(
            lambda: compile_executable(query, columnar=columnar).run(DB))
        got = _error(lambda: compile_kernel(query).run(DB))
        assert got == expected
        assert "incomparable values" in got


# -- db-late compilation ------------------------------------------------------


class TestConstantTrueFilters:
    """``Kp(T)`` keeps every element, so a loop filtered by it emits no
    test; any other constant predicate keeps its checked test."""

    @pytest.mark.parametrize("text", [
        "iterate(Kp(T), iterate(Kp(T), id) o cars) ! P",
        "iterate(Kp(T), join(Kp(T), pi1) o <cars, grgs>) ! P",
    ])
    def test_kp_true_emits_no_test(self, text):
        kernel = compile_kernel(_q(text))
        assert "Kp" not in kernel.source
        assert kernel.run(DB) == eval_obj(_q(text), DB)

    def test_kp_false_keeps_its_test(self):
        text = "iterate(Kp(T), iterate(Kp(F), id) o cars) ! P"
        kernel = compile_kernel(_q(text))
        assert "as_bool(False, 'Kp')" in kernel.source
        assert kernel.run(DB) == eval_obj(_q(text), DB)

    def test_kp_non_boolean_still_raises(self):
        text = "iterate(Kp(T), iterate(Kp(3), id) o cars) ! P"
        message = _error(lambda: compile_kernel(_q(text)).run(DB))
        assert message == "expected a boolean in Kp, got 3"


class TestRetargeting:
    def test_one_kernel_many_databases(self):
        query = _q("iterate(gt @ <age, Kf(40)>, id) ! P")
        kernel = compile_kernel(query)
        other = tiny_database(seed=91)
        assert kernel.run(DB) == eval_obj(query, DB)
        assert kernel.run(other) == eval_obj(query, other)

    def test_no_database_is_a_clean_error(self):
        kernel = compile_kernel(_q("count ! P"))
        message = _error(lambda: kernel.run(None))
        assert "needs a database" in message

    def test_database_free_query_runs_without_db(self):
        kernel = compile_kernel(_q("plus ! [2, 3]"))
        assert kernel.run(None) == 5


# -- parameter families -------------------------------------------------------


class TestParameterFamilies:
    def test_one_kernel_serves_the_family(self):
        template = "iterate(gt @ <age, Kf({c})>, id) ! P"
        skeleton, _ = abstract_constants(_q(template.format(c=30)))
        kernel = compile_kernel(skeleton)
        assert kernel.n_params == 1
        for cutoff in (20, 30, 45):
            concrete = _q(template.format(c=cutoff))
            assert kernel.run(DB, (cutoff,)) == eval_obj(concrete, DB)

    def test_instantiation_round_trip(self):
        term = _q("iterate(gt @ <age, Kf(33)>, id) ! P")
        skeleton, values = abstract_constants(term)
        assert instantiate_constants(skeleton, values) is term
        assert (compile_kernel(skeleton).run(DB, values)
                == compile_kernel(term).run(DB))

    def test_wrong_arity_is_an_eval_error(self):
        skeleton, _ = abstract_constants(
            _q("iterate(gt @ <age, Kf(30)>, id) ! P"))
        kernel = compile_kernel(skeleton)
        message = _error(lambda: kernel.run(DB, ()))
        assert "parameter value(s)" in message


# -- the optimizer's skeleton-keyed kernel cache ------------------------------


class TestKernelCache:
    def _family(self, n=3, start=25):
        return [_q(f"iterate(gt @ <age, Kf({start + i})>, id) ! P")
                for i in range(n)]

    def test_family_hits_one_compiled_kernel(self):
        opt = Optimizer()
        for query in self._family(n=3):
            expected = eval_obj(query, DB)
            assert opt.execute(query, DB, backend="codegen") == expected
        info = opt.plan_cache_info()["kernel"]
        assert info["kernel_misses"] == 1
        assert info["kernel_hits"] == 2
        assert info["size"] == 1

    def test_generation_bump_invalidates(self):
        base = standard_rulebase()
        opt = Optimizer(base)
        query = self._family(n=1)[0]
        opt.execute(query, DB, backend="codegen")
        base.extend_group("scratch-codegen", ["r18"])  # bumps generation
        opt.execute(query, DB, backend="codegen")
        info = opt.plan_cache_info()["kernel"]
        assert info["kernel_misses"] == 2 and info["kernel_hits"] == 0

    def test_clear_drops_kernels_keeps_counters(self):
        opt = Optimizer()
        opt.execute(self._family(n=1)[0], DB, backend="codegen")
        opt.clear_plan_cache()
        info = opt.plan_cache_info()["kernel"]
        assert info["size"] == 0
        assert info["kernel_misses"] == 1

    def test_exact_keying_without_abstract_cache(self):
        opt = Optimizer(abstract_cache=False)
        for query in self._family(n=2):
            opt.execute(query, DB, backend="codegen")
        info = opt.plan_cache_info()["kernel"]
        assert info["kernel_misses"] == 2 and info["kernel_hits"] == 0

    def test_result_outlives_its_optimizer(self):
        """A result holds its optimizer weakly: once the optimizer is
        gone, ``execute`` compiles the result's own concrete kernel."""
        import gc
        opt = Optimizer()
        query = self._family(n=1)[0]
        result = opt.optimize(query, DB)
        del opt
        gc.collect()
        assert result._owner() is None
        assert result.execute(DB) == eval_obj(query, DB)
        assert result.kernel().n_params == 0

    def test_kernel_for_returns_runnable_pair(self):
        opt = Optimizer()
        query = self._family(n=1)[0]
        result = opt.optimize(query, DB)
        kernel, values = opt.kernel_for(result, DB)
        assert kernel.run(DB, values) == eval_obj(query, DB)


# -- backend dispatch ---------------------------------------------------------


class TestBackendDispatch:
    def test_all_backends_agree(self):
        opt = Optimizer()
        result = opt.optimize(
            "select p from p in P where p.age > 30", DB)
        assert BACKENDS == ("plan", "codegen")
        values = {backend: result.execute(DB, backend=backend)
                  for backend in BACKENDS}
        values["default"] = result.execute(DB)
        values["optimizer"] = opt.execute(
            "select p from p in P where p.age > 30", DB)
        reference = values["plan"]
        assert all(v == reference for v in values.values())

    def test_unknown_backend_names_the_choices(self):
        opt = Optimizer()
        result = opt.optimize("select p from p in P", DB)
        with pytest.raises(ValueError, match="'plan', 'codegen'"):
            result.execute(DB, backend="vectorized")

    def test_result_kernel_is_cached(self):
        result = Optimizer().optimize("select p from p in P", DB)
        assert result.kernel() is result.kernel()


# -- the CLI ------------------------------------------------------------------


class TestCli:
    def test_run_codegen_backend(self, capsys):
        assert main(["run", "select p from p in P where p.age > 30",
                     "--backend", "codegen"]) == 0
        out = capsys.readouterr().out
        assert "backend  : codegen" in out
        assert "pipeline : fully lowered" in out

    def test_dump_kernel_prints_source(self, capsys):
        assert main(["run", "select p from p in P where p.age > 30",
                     "--dump-kernel"]) == 0
        out = capsys.readouterr().out
        assert "def _kernel(db, _params, _cl):" in out

    def test_dump_kernel_needs_codegen_backend(self, capsys):
        assert main(["run", "select p from p in P",
                     "--backend", "plan", "--dump-kernel"]) == 0
        assert "--dump-kernel needs" in capsys.readouterr().out

    def test_explain_codegen(self, capsys):
        assert main(["run", "select p from p in P where p.age > 30",
                     "--backend", "codegen", "--explain"]) == 0
        assert "Scan[P" in capsys.readouterr().out


# -- satellites: slots and the bounded column cache ---------------------------


class TestSlots:
    def test_ir_nodes_have_no_dict(self):
        nodes = [ir.Scan(C.setname("P"), "set"), ir.Map(C.id_()),
                 ir.Filter(C.true()), ir.Dedup(), ir.Sort(C.id_())]
        for node in nodes:
            assert not hasattr(node, "__dict__"), type(node).__name__

    def test_kernel_has_slots(self):
        kernel = compile_kernel(_q("count ! P"))
        assert not hasattr(kernel, "__dict__")


class TestColumnCacheBound:
    def test_lru_eviction_at_cap(self, monkeypatch):
        monkeypatch.setattr(columnar_mod, "COLUMN_CACHE_MAX", 2)
        columnar_mod.clear_cache()
        db = tiny_database(seed=77)
        for path in (("age",), ("addr",), ("cars",), ("age", )):
            columnar_mod.column(db, "P", path)
        dbs, columns = columnar_mod.cache_stats()
        assert dbs == 1 and columns == 2
        columnar_mod.clear_cache()

    def test_hit_returns_same_object(self):
        columnar_mod.clear_cache()
        db = tiny_database(seed=78)
        first = columnar_mod.column(db, "P", ("age",))
        assert columnar_mod.column(db, "P", ("age",)) is first
        columnar_mod.clear_cache()
