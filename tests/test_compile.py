"""Tests for the scalar closure compiler (:mod:`repro.exec.scalar`):
compiled evaluation must agree with the tree-walking evaluator
everywhere, and compiled closures must take their database at
execution time, not compile time."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EvalError
from repro.core.eval import apply_fn, eval_obj
from repro.core.eval import test_pred as check_pred
from repro.core.parser import parse_fun, parse_obj, parse_pred
from repro.core.types import INT, pair_t, set_t
from repro.core.values import KPair
from repro.exec.scalar import scalar_fn, scalar_obj, scalar_pred
from repro.larch.gen import TermGenerator


class TestBasicAgreement:
    def test_simple_function(self):
        term = parse_fun("pi1")
        assert scalar_fn(term)(KPair(1, 2), None) == 1

    def test_composition(self):
        term = parse_fun("pi1 o pi2")
        value = KPair(0, KPair(7, 8))
        assert scalar_fn(term)(value, None) == apply_fn(term, value)

    def test_predicate(self):
        term = parse_pred("Cp(lt, 3) | eq @ <id, Kf(0)>")
        for value in (-1, 0, 3, 5):
            assert scalar_pred(term)(value, None) == check_pred(term, value)

    def test_query(self, tiny_db):
        query = parse_obj("iterate(gt @ <age, Kf(25)>, age) ! P")
        compiled = scalar_obj(query)
        assert compiled(tiny_db) == eval_obj(query, tiny_db)

    def test_garage_query(self, tiny_db, queries):
        for query in (queries.kg1, queries.kg2):
            assert scalar_obj(query)(tiny_db) == eval_obj(query, tiny_db)

    def test_bag_pipeline(self, tiny_db):
        query = parse_obj(
            "distinct o bag_iterate(Kp(T), city) o bag_flat"
            " o bag_iterate(Kp(T), tobag o grgs) o tobag ! P")
        assert scalar_obj(query)(tiny_db) == eval_obj(query, tiny_db)

    def test_list_pipeline(self, tiny_db):
        query = parse_obj(
            "to_set o list_iterate(Cp(lt, 40) @ age, id)"
            " o listify(age) ! P")
        assert scalar_obj(query)(tiny_db) == eval_obj(query, tiny_db)

    def test_aggregates(self, tiny_db):
        query = parse_obj("count o iterate(Kp(T), id) ! P")
        assert scalar_obj(query)(tiny_db) == eval_obj(query, tiny_db)
        assert scalar_fn(parse_fun("plus"))(KPair(3, 4), None) == 7

    def test_test_expression(self):
        query = parse_obj("eq ? [1, 1]")
        assert scalar_obj(query)(None) is True

    def test_pairobj_query(self, tiny_db):
        query = parse_obj("join(Kp(T), pi1) ! [P, V]")
        assert scalar_obj(query)(tiny_db) == eval_obj(query, tiny_db)


class TestRetargeting:
    """Database binding happens per call, never at compile time: one
    compiled closure must serve any number of databases."""

    def test_one_plan_two_databases(self, db_pair):
        small, large = db_pair
        query = parse_obj("iterate(gt @ <age, Kf(25)>, city o addr) ! P")
        compiled = scalar_obj(query)
        assert compiled(small) == eval_obj(query, small)
        assert compiled(large) == eval_obj(query, large)
        # Results genuinely differ across databases — the plan is not
        # accidentally caching its first binding.
        assert eval_obj(parse_obj("count ! P"), small) != eval_obj(
            parse_obj("count ! P"), large)

    def test_fn_db_is_per_callable_not_per_compilation(self, db_pair):
        small, large = db_pair
        term = parse_fun("count o grgs")
        compiled = scalar_fn(term)
        person_small = next(iter(small.collection("P")))
        person_large = next(iter(large.collection("P")))
        assert compiled(person_small, small) == apply_fn(
            term, person_small, small)
        assert compiled(person_large, large) == apply_fn(
            term, person_large, large)


class TestErrors:
    def test_domain_error_preserved(self):
        with pytest.raises(EvalError, match="pair"):
            scalar_fn(parse_fun("pi1"))(3, None)

    def test_needs_database_at_run_time(self, tiny_db):
        # Compiling a db-dependent term succeeds; only *running* it
        # without a database raises — the evaluator's behavior.
        fn = scalar_fn(parse_fun("age"))
        with pytest.raises(EvalError, match="database"):
            fn(next(iter(tiny_db.collection("P"))), None)
        run = scalar_obj(parse_obj("iterate(Kp(T), id) ! P"))
        with pytest.raises(EvalError, match="database"):
            run(None)
        assert run(tiny_db) == eval_obj(
            parse_obj("iterate(Kp(T), id) ! P"), tiny_db)

    def test_metavariable_rejected(self):
        from repro.core.terms import fun_var
        with pytest.raises(EvalError):
            scalar_fn(fun_var("f"))

    def test_incomparable_values(self):
        with pytest.raises(EvalError, match="incomparable"):
            scalar_pred(parse_pred("lt"))(KPair(1, "a"), None)


_SETTINGS = settings(max_examples=50, deadline=None)


@given(seed=st.integers(0, 10_000))
@_SETTINGS
def test_compiled_fn_agrees_with_evaluator(seed):
    """The core contract, property-tested over random well-typed terms."""
    generator = TermGenerator(seed=seed, max_depth=3)
    term = generator.function(set_t(INT), set_t(INT))
    value = generator.value(set_t(INT))
    assert scalar_fn(term)(value, None) == apply_fn(term, value)


@given(seed=st.integers(0, 10_000))
@_SETTINGS
def test_compiled_pred_agrees_with_evaluator(seed):
    generator = TermGenerator(seed=seed, max_depth=3)
    term = generator.predicate(pair_t(INT, set_t(INT)))
    value = generator.value(pair_t(INT, set_t(INT)))
    assert scalar_pred(term)(value, None) == check_pred(term, value)


def test_compiled_is_faster_on_iteration(db, queries):
    """Not asserted as a strict bound in CI-like runs, but the compiled
    form must at least not be slower by 2x on the garage query."""
    import time
    compiled = scalar_obj(queries.kg1)
    compiled(db)  # warm
    start = time.perf_counter()
    for _ in range(3):
        compiled(db)
    compiled_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(3):
        eval_obj(queries.kg1, db)
    interpreted_time = time.perf_counter() - start
    assert compiled_time < interpreted_time * 2
