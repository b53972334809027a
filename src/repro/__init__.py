"""repro — a reproduction of "Rule Languages and Internal Algebras for
Rule-Based Optimizers" (Cherniack & Zdonik, SIGMOD 1996).

The package implements KOLA, the paper's variable-free combinator query
algebra, together with everything around it that the paper describes or
depends on:

* :mod:`repro.core` — KOLA terms, operational semantics (Tables 1-2),
  type inference, parser and pretty printer;
* :mod:`repro.schema` — the Person/Vehicle/Address object schema and a
  deterministic synthetic database generator;
* :mod:`repro.aqua` — AQUA, the variable-based algebra the paper uses as
  its foil, with the head/body-routine rule engine it requires;
* :mod:`repro.translate` — OQL-subset parser and the AQUA -> KOLA
  translator with explicit environments;
* :mod:`repro.rewrite` — the declarative rule language: patterns,
  matching, rules, strategies, derivation traces;
* :mod:`repro.rules` — the paper's rules 1-24 plus an extended pool, all
  machine-verified, loaded from the ``.kpack`` rule packs of
  :mod:`repro.rulepacks`;
* :mod:`repro.larch` — the Larch-prover substitute (randomized
  model-checking of rule soundness);
* :mod:`repro.coko` — COKO rule blocks and the five-step hidden-join
  untangling strategy;
* :mod:`repro.optimizer` — end-to-end optimizer with cost model and
  executable physical plans;
* :mod:`repro.workloads` — query/family generators used by benchmarks.

Quickstart::

    from repro.core import *
    from repro.schema import generate_database

    db = generate_database()
    ages = invoke(iterate(const_p(true()), prim("age")), setname("P"))
    print(run_query(ages, db))
"""

__version__ = "1.0.0"
