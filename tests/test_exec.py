"""Tests for the execution layer: lowering, fusion, the closure
emitter and its columnar fast path (kept as a reference beside the
codegen kernels), database retargeting, the optimizer's backends, the
plan wire codec, and the CLI ``run`` entry point."""

import pytest

from repro.cli import main
from repro.core import constructors as C
from repro.core.errors import EvalError
from repro.core.eval import eval_obj
from repro.core.parser import parse_obj
from repro.exec import compile_executable, fuse, lower_query
from repro.exec.columnar import (attr_chain, cache_stats, clear_cache,
                                 column, columnar_scan)
from repro.exec.fuse import materialization_points
from repro.exec.ir import (Compute, Dedup, Filter, Flatten, JoinProbe,
                           Map, NestGroup, Pipeline, Scan, Sort,
                           UnnestFlatten, WrapEnv, render)
from repro.optimizer.physical import InterpretPlan
from repro.parallel.portable import encode_plan


def _identical(a, b):
    return type(a) is type(b) and a == b


class TestLowering:
    def test_iterate_lowers_to_filter_map(self):
        lowered = lower_query(
            parse_obj("iterate(gt @ <age, Kf(25)>, age) ! P"))
        pipeline = lowered.pipeline
        assert isinstance(pipeline.source, Scan)
        assert pipeline.source.kind == "set"
        kinds = [type(op) for op in pipeline.ops]
        assert kinds == [Filter, Map, Dedup]
        assert pipeline.sink == "set"
        assert lowered.fully_lowered

    def test_trivial_pred_and_fn_are_elided(self):
        lowered = lower_query(parse_obj("iterate(Kp(T), id) ! P"))
        assert [type(op) for op in lowered.pipeline.ops] == [Dedup]

    def test_chain_inlines_across_invoke_boundaries(self):
        # Nested invoke: the producer's pipeline is inlined into the
        # consumer's — one source scan, no intermediate query.
        lowered = lower_query(parse_obj(
            "iterate(Kp(T), id) ! (iterate(Kp(T), age) ! P)"))
        assert isinstance(lowered.pipeline.source, Scan)
        assert lowered.pipeline.source.source == C.setname("P")
        assert lowered.fully_lowered

    def test_aggregate_sink(self):
        lowered = lower_query(parse_obj("count o iterate(Kp(T), age) ! P"))
        assert lowered.pipeline.sink == "count"
        lowered = lower_query(parse_obj("ssum o iterate(Kp(T), age) ! P"))
        assert lowered.pipeline.sink == "ssum"

    def test_bag_and_list_kinds(self):
        lowered = lower_query(parse_obj(
            "distinct o bag_iterate(Kp(T), city) o tobag ! P"))
        assert lowered.pipeline.sink == "set"
        lowered = lower_query(parse_obj("listify(age) ! P"))
        assert lowered.pipeline.sink == "list"
        assert any(isinstance(op, Sort) for op in lowered.pipeline.ops)

    def test_join_probe_strategies(self):
        by_membership = lower_query(parse_obj(
            "join(in @ (id >< cars), pi1) ! [V, P]"))
        assert by_membership.pipeline.source.strategy == "membership-probe"
        by_equality = lower_query(parse_obj(
            "join(eq @ (city o addr >< city o addr), pi1) ! [P, P]"))
        assert by_equality.pipeline.source.strategy == "hash-equi"
        generic = lower_query(parse_obj(
            "join(gt @ <age o pi1, age o pi2>, pi1) ! [P, P]"))
        assert generic.pipeline.source.strategy == "nested-loop"

    def test_joinnest_shape_becomes_nest_of_probe(self):
        lowered = lower_query(parse_obj(
            "nest(pi1, pi2) o (unnest(pi1, pi2) >< id)"
            " o <join(in @ (id >< cars), (id >< grgs)), pi1> ! [V, P]"))
        group = lowered.pipeline.source
        assert isinstance(group, NestGroup)
        assert isinstance(group.source.source, JoinProbe)
        assert group.source.source.strategy == "membership-probe"
        assert lowered.fully_lowered

    def test_unlowerable_prefix_becomes_post(self):
        lowered = lower_query(parse_obj(
            "pi1 o <count, count> o iterate(Kp(T), age) ! P"))
        assert lowered.post is not None
        assert lowered.pipeline.sink == "set"
        assert not lowered.fully_lowered

    def test_opaque_source_falls_back_to_compute(self):
        lowered = lower_query(parse_obj("pi1 ! [1, 2]"))
        assert isinstance(lowered.pipeline.source, Compute)
        assert not lowered.fully_lowered

    def test_test_query_keeps_predicate(self):
        lowered = lower_query(parse_obj("Cp(lt, 3) ? (count ! P)"))
        assert lowered.post_pred is not None


class TestFusion:
    def test_iterate_chain_collapses_to_one_boundary(self):
        lowered = lower_query(parse_obj(
            "iterate(Kp(T), city) o iterate(Kp(T), addr)"
            " o iterate(Kp(T), id) ! P"))
        before = materialization_points(lowered.pipeline)
        fused = fuse(lowered)
        after = materialization_points(fused.pipeline)
        assert before == 3
        assert after == 0  # set sink deduplicates; no boundary survives

    def test_dedup_guarding_aggregate_survives(self):
        fused = fuse(lower_query(parse_obj(
            "count o iterate(Kp(T), city o addr) ! P")))
        # count is duplicate-sensitive: exactly one Dedup must remain.
        dedups = [op for op in fused.pipeline.ops
                  if isinstance(op, Dedup)]
        assert len(dedups) == 1

    def test_no_dedup_after_duplicate_free_scan(self):
        fused = fuse(lower_query(parse_obj(
            "count o iterate(Kp(T), id) ! P")))
        # identity map over a set scan cannot introduce duplicates.
        assert not [op for op in fused.pipeline.ops
                    if isinstance(op, Dedup)]

    def test_adjacent_maps_merge(self):
        fused = fuse(lower_query(parse_obj(
            "iterate(Kp(T), city) o iterate(Kp(T), addr) ! P")))
        maps = [op for op in fused.pipeline.ops if isinstance(op, Map)]
        assert len(maps) == 1
        assert maps[0].fn == parse_obj("city o addr ! P").args[0]

    def test_fusion_preserves_results(self, tiny_db):
        for text in (
            "iterate(Kp(T), city) o iterate(gt @ <age, Kf(25)>, addr) ! P",
            "count o flat o iterate(Kp(T), grgs) ! P",
            "ssum o iterate(Kp(T), age) o to_set o listify(age) ! P",
        ):
            query = parse_obj(text)
            expected = eval_obj(query, tiny_db)
            unfused = compile_executable(query, fused=False).run(tiny_db)
            fused_result = compile_executable(query).run(tiny_db)
            assert _identical(unfused, expected)
            assert _identical(fused_result, expected)


class TestEmission:
    QUERIES = (
        "iterate(gt @ <age, Kf(25)>, city o addr) ! P",
        "count o iterate(Kp(T), city o addr) ! P",
        "ssum o iterate(Kp(T), age) ! P",
        "flat o iterate(Kp(T), grgs) ! P",
        "unnest(city o addr, grgs) ! P",
        "bag_sum o bag_iterate(Kp(T), age) o tobag ! P",
        "listify(age) o iterate(Kp(T), id) ! P",
        "to_set o list_iterate(Cp(lt, 40) @ age, id) o listify(age) ! P",
        "join(in @ (id >< cars), pi1) ! [V, P]",
        "nest(city o addr, age) ! [P, iterate(Kp(T), city o addr) ! P]",
        "iter(gt @ <age o pi2, pi1>, age o pi2) ! [30, P]",
        "nest(pi1, pi2) o (unnest(pi1, pi2) >< id)"
        " o <join(in @ (id >< cars), (id >< grgs)), pi1> ! [V, P]",
    )

    @pytest.mark.parametrize("text", QUERIES)
    def test_matches_direct_evaluation(self, tiny_db, text):
        query = parse_obj(text)
        expected = eval_obj(query, tiny_db)
        assert _identical(compile_executable(query).run(tiny_db), expected)

    def test_eval_errors_surface_at_run_time(self, tiny_db):
        plan = compile_executable(parse_obj("flat ! P"))
        with pytest.raises(EvalError):
            plan.run(tiny_db)

    def test_explain_renders_pipeline(self):
        plan = compile_executable(
            parse_obj("count o iterate(Kp(T), age) ! P"))
        text = plan.explain()
        assert "Sink[count]" in text
        assert "Scan[P : set]" in text

    def test_plan_reuse_is_stateless(self, tiny_db):
        plan = compile_executable(parse_obj("iterate(Kp(T), age) ! P"))
        first = plan.run(tiny_db)
        assert _identical(plan.run(tiny_db), first)


class TestRetargeting:
    def test_one_executable_two_databases(self, db_pair):
        small, large = db_pair
        query = parse_obj("iterate(gt @ <age, Kf(25)>, city o addr) ! P")
        plan = compile_executable(query)
        assert _identical(plan.run(small), eval_obj(query, small))
        assert _identical(plan.run(large), eval_obj(query, large))

    def test_missing_database_raises_at_run_time(self, tiny_db):
        plan = compile_executable(parse_obj("count ! P"))
        with pytest.raises(EvalError, match="database"):
            plan.run()
        assert plan.run(tiny_db) == len(tiny_db.collection("P"))


class TestColumnar:
    def test_attr_chain_recognition(self):
        assert attr_chain(parse_obj("city o addr ! P").args[0]) == (
            "addr", "city")
        assert attr_chain(parse_obj("age ! P").args[0]) == ("age",)
        assert attr_chain(parse_obj("pi1 o age ! P").args[0]) is None

    def test_columns_are_cached_per_database(self, tiny_db):
        clear_cache()
        first = column(tiny_db, "P", ("age",))
        second = column(tiny_db, "P", ("age",))
        assert first is second
        databases, columns = cache_stats()
        assert databases == 1 and columns >= 1
        clear_cache()

    def test_scan_prefix_consumption(self):
        lowered = fuse(lower_query(parse_obj(
            "iterate(Cp(lt, 25), id) o iterate(Kp(T), age) ! P")))
        fast = columnar_scan(lowered.pipeline.source, lowered.pipeline.ops)
        assert fast is not None
        _, remaining = fast
        assert not any(isinstance(op, (Map, Filter)) for op in remaining)

    @pytest.mark.parametrize("text", TestEmission.QUERIES)
    def test_columnar_matches_direct_evaluation(self, tiny_db, text):
        query = parse_obj(text)
        expected = eval_obj(query, tiny_db)
        got = compile_executable(query, columnar=True).run(tiny_db)
        assert _identical(got, expected)

    def test_columnar_retargets(self, db_pair):
        small, large = db_pair
        query = parse_obj("iterate(Cp(lt, 25), id) o iterate(Kp(T), age) ! P")
        plan = compile_executable(query, columnar=True)
        assert _identical(plan.run(small), eval_obj(query, small))
        assert _identical(plan.run(large), eval_obj(query, large))


class TestOptimizerBackends:
    def test_execute_backends_agree(self, tiny_db):
        from repro.optimizer.optimizer import Optimizer
        optimizer = Optimizer()
        query = parse_obj(
            "iterate(Kp(T), <id, iter(gt @ <age o pi2, age o pi1>, pi2)"
            " o <id, Kf(P)>>) ! P")
        optimized = optimizer.optimize(query, tiny_db)
        expected = eval_obj(query, tiny_db)
        assert _identical(optimized.execute(tiny_db), expected)
        assert _identical(optimized.execute(tiny_db, backend="plan"),
                          expected)
        assert _identical(optimized.execute(tiny_db, backend="codegen"),
                          expected)
        for retired in ("fused", "columnar", "codegen-columnar", "warp"):
            with pytest.raises(ValueError, match="backend"):
                optimized.execute(tiny_db, backend=retired)

    def test_executable_is_cached_on_the_result(self, tiny_db):
        from repro.optimizer.optimizer import Optimizer
        optimizer = Optimizer()
        optimized = optimizer.optimize(
            parse_obj("iterate(Kp(T), age) ! P"), tiny_db)
        optimized.execute(tiny_db)
        # ... and a plan-cache hit runs the same compiled kernel.
        again = optimizer.optimize(
            parse_obj("iterate(Kp(T), age) ! P"), tiny_db)
        assert again is optimized
        again.execute(tiny_db)
        kernels = optimizer.plan_cache_info()["kernel"]
        assert kernels["kernel_misses"] == 1
        assert kernels["kernel_hits"] == 1

    def test_optimizer_execute_entry_point(self, tiny_db):
        from repro.optimizer.optimizer import Optimizer
        query = parse_obj("count o iterate(Kp(T), id) ! P")
        assert Optimizer().execute(query, tiny_db) == eval_obj(
            query, tiny_db)


class TestWireCodec:
    def test_payload_is_picklable(self):
        import pickle
        payload = encode_plan(InterpretPlan(
            parse_obj("count o iterate(Kp(T), id) ! P")))
        assert pickle.loads(pickle.dumps(payload)) == payload


class TestCliRun:
    def test_run_reports_measured_and_estimated(self, capsys):
        code = main(["run", "--kola", "iterate(Kp(T), city o addr) ! P",
                     "--repeat", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "est. cost:" in out
        assert "measured :" in out
        assert "result   :" in out

    def test_run_oql_with_explain(self, capsys):
        code = main(["run", "select p.age from p in P where p.age > 25",
                     "--backend", "codegen", "--repeat", "1",
                     "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sink[set]" in out

    def test_run_plan_backend(self, capsys):
        code = main(["run", "--kola", "count o iterate(Kp(T), id) ! P",
                     "--backend", "plan", "--repeat", "1", "--explain"])
        assert code == 0
        assert "Interpret" in capsys.readouterr().out


class TestRender:
    def test_render_covers_every_node(self):
        lowered = lower_query(parse_obj(
            "nest(pi1, pi2) o (unnest(pi1, pi2) >< id)"
            " o <join(eq @ (pi1 >< pi1), (id >< grgs)), pi1> ! [V, P]"))
        text = render(lowered)
        assert "NestGroup" in text and "JoinProbe" in text
        lowered = lower_query(parse_obj(
            "listify(age) o iterate(Cp(lt, 40) @ age, id)"
            " o to_set o list_flat o list_iterate(Kp(T), id)"
            " o listify(age) ! P"))
        text = render(lowered)
        assert "Sort" in text and "Flatten[list]" in text
        lowered = lower_query(parse_obj(
            "iter(Kp(T), pi2) ! [1, unnest(age, grgs) ! P]"))
        assert "WrapEnv" in render(lowered)
