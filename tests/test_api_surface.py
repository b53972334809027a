"""Coverage for small public API surfaces not exercised elsewhere."""

import pytest

from repro.aqua.analysis import occurs_free_in_lambda_body
from repro.aqua.terms import Attr, BinCmp, Const, Lam, Var
from repro.core.errors import KolaError, MatchFailure, PlanError
from repro.core.parser import parse_obj, parse_query
from repro.translate.aqua_to_kola import translate_pred
from repro.translate.environment import Environment


class TestSmallSurfaces:
    def test_parse_query_alias(self):
        assert parse_query("id ! 3") == parse_obj("id ! 3")

    def test_occurs_free_in_lambda_body(self):
        lam = Lam("c", BinCmp(">", Attr(Var("p"), "age"), Const(25)))
        assert occurs_free_in_lambda_body(lam, "p")
        assert not occurs_free_in_lambda_body(lam, "c")  # bound
        assert not occurs_free_in_lambda_body(lam, "q")

    def test_pool_rules_filters_structural(self, rulebase):
        pool = {r.name for r in rulebase.group("pool")}
        structural = {r.name for r in rulebase.group("structural")}
        assert structural and structural < pool
        assert "conj-comm" in structural
        assert "conj-comm" not in {r.name
                                   for r in rulebase.group("simplify")}

    def test_families_partition_pool(self, rulebase):
        families = {name: [r.name for r in rulebase.group(name)]
                    for name in rulebase.group_names()
                    if name.startswith("pool-")}
        members = [name for names in families.values() for name in names]
        assert sorted(members) == sorted(r.name
                                         for r in rulebase.group("pool"))
        assert "pool-join" in families and "pool-pair" in families

    def test_translate_pred_standalone(self, tiny_db):
        from repro.core.eval import test_pred as check_pred
        pred = translate_pred(
            BinCmp(">", Attr(Var("p"), "age"), Const(25)),
            Environment(("p",)))
        person = next(iter(tiny_db.collection("P")))
        assert check_pred(pred, person, tiny_db) == (
            person.get("age") > 25)

    def test_error_hierarchy(self):
        assert issubclass(MatchFailure, KolaError)
        assert issubclass(PlanError, KolaError)

    def test_environment_depth(self):
        assert Environment(("a", "b")).depth() == 2

    def test_aqua_engine_stats_reset(self):
        from repro.aqua.rules import AquaEngineStats
        stats = AquaEngineStats(nodes_visited=5, head_invocations=3,
                                rewrites=1)
        stats.reset()
        assert (stats.nodes_visited, stats.head_invocations,
                stats.rewrites) == (0, 0, 0)

    def test_module_stats_merge(self, rulebase, queries):
        from repro.coko.compiler import compile_blocks
        from repro.coko.hidden_join import hidden_join_blocks
        module = compile_blocks("m", hidden_join_blocks(), rulebase)
        module.apply(queries.kg1)
        assert module.stats.match_attempts > 0

    def test_signature_dataclass_fields(self):
        from repro.core.signature import REGISTRY, Signature
        sig = REGISTRY["iterate"]
        assert isinstance(sig, Signature)
        assert sig.display == "iterate"

    def test_propagation_enum(self):
        from repro.rules.preconditions import INFERENCE_TABLES, Propagation
        assert INFERENCE_TABLES["injective"]["compose"] is Propagation.ALL
