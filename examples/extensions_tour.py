"""A tour of the Section 6 extensions.

The paper closes with its "current efforts": bags and lists as further
bulk types, and COKO blocks for join optimization, predicate ordering
and semantic optimization.  This example exercises each one, built out
in this reproduction.

Run:  python examples/extensions_tour.py
"""

from repro.coko.compiler import HIDDEN_JOIN_COKO, compile_coko
from repro.coko.stdblocks import (block_defer_dupelim,
                                  block_predicate_ordering,
                                  block_semantic_optimization)
from repro.core import constructors as C
from repro.core.eval import eval_obj
from repro.core.parser import parse_fun, parse_obj
from repro.core.pretty import pretty
from repro.larch.prover import prove_rule
from repro.optimizer.indexes import IndexCatalog
from repro.optimizer.optimizer import Optimizer
from repro.rewrite.engine import Engine
from repro.rules.preconditions import AnnotationOracle
from repro.rules.registry import standard_rulebase
from repro.schema.generator import GeneratorConfig, generate_database


def main() -> None:
    base = standard_rulebase()
    db = generate_database(GeneratorConfig(n_persons=80, n_vehicles=40,
                                           seed=21))

    print("== bags: defer duplicate elimination ==")
    query = parse_obj("iterate(Kp(T), city) o flat o iterate(Kp(T), grgs)"
                      " ! P")
    deferred = block_defer_dupelim().transform(query, base)
    print("set form:", pretty(query))
    print("bag form:", pretty(deferred))
    assert eval_obj(deferred, db) == eval_obj(query, db)
    print("one distinct at the end; results verified equal\n")

    print("== lists: ORDER BY through the optimizer ==")
    optimized = Optimizer(base).optimize(
        "select p from p in P where p.age > 60 order by p.age", db)
    elders = optimized.execute(db)
    print("untangled:", pretty(optimized.untangled))
    print("ages     :", [p.get("age") for p in elders], "\n")

    print("== predicate ordering (Ranked strategy) ==")
    messy = parse_obj("iterate(in @ <id, child> & Cp(lt, 45) @ age, id)"
                      " ! P")
    ordered = block_predicate_ordering().transform(messy, base)
    print("before:", pretty(messy))
    print("after :", pretty(ordered))
    assert eval_obj(ordered, db) == eval_obj(messy, db)
    print("cheap comparison now leads the conjunction\n")

    print("== semantic optimization (annotation-guarded rules) ==")
    db.schema.register_function("pid", lambda p: p.oid, "Person", "Int")
    oracle = AnnotationOracle()
    oracle.declare("injective", C.prim("pid"))
    term = parse_fun("iterate(Kp(T), pid) o intersect")
    rewritten = block_semantic_optimization().transform(
        term, base, Engine(oracle))
    print("with 'pid is a key' declared:")
    print(f"  {pretty(term)}  =>  {pretty(rewritten)}\n")

    print("== index scan ==")
    catalog = IndexCatalog()
    catalog.build(db, "P", C.prim("age"))
    optimizer = Optimizer(base, catalog=catalog)
    by_age = optimizer.optimize("select p from p in P where p.age == 30",
                                db)
    print(by_age.plan.explain())
    # backend="plan" runs the index scan printed above
    print("rows:", len(by_age.execute(db, backend="plan")), "\n")

    print("== the COKO module generator ==")
    module = compile_coko(HIDDEN_JOIN_COKO, base, "hidden-join")
    print(module.describe().splitlines()[0])
    from repro.workloads.queries import paper_queries
    assert module.apply(paper_queries().kg1) == paper_queries().kg2
    print("compiled module reproduces the five-step pipeline\n")

    print("== the equational prover ==")
    proof = prove_rule(base.get("r12"),
                       [base.get("r11"), base.get("r2"), base.get("r5")])
    print("deriving the paper's rule 12 from rule 11 + identities:")
    print(proof.render())


if __name__ == "__main__":
    main()
