"""Tests for hash indexes, index-scan plans, and optimizer integration."""

import pytest

from repro.core import constructors as C
from repro.core.eval import eval_obj
from repro.core.parser import parse_fun, parse_obj
from repro.optimizer.indexes import (HashIndex, IndexCatalog,
                                     IndexScanPlan, recognize_index_scan)
from repro.optimizer.optimizer import Optimizer


@pytest.fixture()
def catalog(db):
    catalog = IndexCatalog()
    catalog.build(db, "P", C.prim("age"))
    catalog.build(db, "P", parse_fun("city o addr"))
    return catalog


class TestHashIndex:
    def test_lookup(self, db, catalog):
        index = catalog.find("P", C.prim("age"))
        some_person = next(iter(db.collection("P")))
        bucket = index.lookup(some_person.get("age"))
        assert some_person in bucket
        assert all(p.get("age") == some_person.get("age") for p in bucket)

    def test_missing_key_empty(self, db, catalog):
        index = catalog.find("P", C.prim("age"))
        assert index.lookup(-999) == frozenset()

    def test_path_key(self, db, catalog):
        index = catalog.find("P", parse_fun("city o addr"))
        some_person = next(iter(db.collection("P")))
        city = some_person.get("addr").get("city")
        assert some_person in index.lookup(city)

    def test_catalog_miss(self, catalog):
        assert catalog.find("V", C.prim("age")) is None
        assert catalog.find("P", C.prim("name")) is None


class TestRecognition:
    def test_translator_shape(self, catalog):
        query = parse_obj("iterate(eq @ <age, Kf(30)>, id) ! P")
        plan = recognize_index_scan(query, catalog)
        assert isinstance(plan, IndexScanPlan)
        assert "IndexScan" in plan.explain()

    def test_mirrored_shape(self, catalog):
        query = parse_obj("iterate(eq @ <Kf(30), age>, id) ! P")
        assert recognize_index_scan(query, catalog) is not None

    def test_rule13_shape(self, catalog):
        query = parse_obj("iterate(Cp(eq, 30) @ age, name) ! P")
        plan = recognize_index_scan(query, catalog)
        assert plan is not None
        assert plan.map_fn == C.prim("name")

    def test_path_key_shape(self, catalog):
        query = parse_obj(
            'iterate(eq @ <city o addr, Kf("Montreal")>, id) ! P')
        assert recognize_index_scan(query, catalog) is not None

    def test_unindexed_key_rejected(self, catalog):
        query = parse_obj("iterate(eq @ <name, Kf(\"Bob\")>, id) ! P")
        assert recognize_index_scan(query, catalog) is None

    def test_non_equality_rejected(self, catalog):
        query = parse_obj("iterate(gt @ <age, Kf(30)>, id) ! P")
        assert recognize_index_scan(query, catalog) is None

    def test_non_collection_rejected(self, catalog):
        query = parse_obj("iterate(eq @ <age, Kf(30)>, id) ! (flat ! S)")
        assert recognize_index_scan(query, catalog) is None


class TestExecution:
    def test_agrees_with_interpreter(self, db, catalog):
        query = parse_obj("iterate(eq @ <age, Kf(30)>, id) ! P")
        plan = recognize_index_scan(query, catalog)
        assert plan.execute(db) == eval_obj(query, db)

    def test_map_applied(self, db, catalog):
        query = parse_obj("iterate(Cp(eq, 30) @ age, name) ! P")
        plan = recognize_index_scan(query, catalog)
        assert plan.execute(db) == eval_obj(query, db)

    def test_cheaper_than_scan(self, db, catalog):
        from repro.optimizer.physical import InterpretPlan
        query = parse_obj("iterate(eq @ <age, Kf(30)>, id) ! P")
        plan = recognize_index_scan(query, catalog)
        scan = InterpretPlan(query)
        assert plan.cost_estimate(db) < scan.cost_estimate(db)


class TestOptimizerIntegration:
    def test_oql_selection_uses_index(self, rulebase, db, catalog):
        optimizer = Optimizer(rulebase, catalog=catalog)
        optimized = optimizer.optimize(
            "select p from p in P where p.age == 30", db)
        assert isinstance(optimized.plan, IndexScanPlan)
        expected = eval_obj(
            parse_obj("iterate(eq @ <age, Kf(30)>, id) ! P"), db)
        # "plan" runs the IndexScanPlan itself; the default codegen
        # kernel does not read the index catalog.
        assert optimized.execute(db, backend="plan") == expected
        assert optimized.execute(db) == expected

    def test_without_catalog_interprets(self, rulebase, db):
        optimizer = Optimizer(rulebase)
        optimized = optimizer.optimize(
            "select p from p in P where p.age == 30", db)
        assert not isinstance(optimized.plan, IndexScanPlan)
