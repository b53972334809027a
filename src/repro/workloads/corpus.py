"""Deterministic query corpora for batch optimization.

The batch layer (:mod:`repro.parallel.batch`), ``repro.cli
optimize-batch`` and the tests need a *reproducible* stream of queries
with two independent knobs:

* **distinct** — how many different queries exist.  This is what plan
  caches care about: a corpus with more distinct queries than a cache
  has capacity thrashes it, while hash-sharding the same corpus over a
  worker pool keeps each shard's share within capacity.
* **traffic** — how many optimize calls the stream contains.  Repeats
  beyond ``distinct`` model the serving hot path (the same query
  arriving again).

:func:`generate_corpus` builds the distinct set: the paper's own
queries (Figures 3/4/6), the parametric hidden-join family of Figure 7
(:mod:`repro.workloads.hidden_join`), and constant-varying instances of
five paper-shaped templates (filters, projections and nested
selections whose comparison constants differ).  Everything is seeded
and constants are drawn in a fixed order, so equal configs produce
equal corpora — term-for-term, across processes.

:func:`corpus_stream` turns a distinct set into a traffic stream of
whole passes (every query once per pass, order shuffled per pass from
the seed).  Cyclic passes are the adversarial access pattern for an
undersized LRU: when ``distinct`` exceeds capacity, every entry is
evicted between its consecutive uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.parser import parse_obj
from repro.core.terms import Term
from repro.rewrite.pattern import canon
from repro.translate.aqua_to_kola import translate_query
from repro.workloads.hidden_join import HiddenJoinSpec, hidden_join_family
from repro.workloads.queries import paper_queries

#: Paper-shaped query templates over the Figure 5 schema; ``{c}`` is a
#: varying comparison constant (distinctness driver).
_TEMPLATES: tuple[tuple[str, str], ...] = (
    ("t2-source",
     "iterate(Kp(T), age) o iterate(gt @ <age, Kf({c})>, id) ! P"),
    ("t2-target",
     "iterate(Cp(lt, {c}), id) o iterate(Kp(T), age) ! P"),
    ("vehicle-filter",
     "iterate(gt @ <year, Kf({c})>, id) ! V"),
    ("city-project",
     "iterate(Kp(T), city o addr) o iterate(gt @ <age, Kf({c})>, id) ! P"),
    ("nested-sel",
     "iterate(Kp(T), <id, iter(gt @ <age o pi2, Kf({c})>, pi2)"
     " o <id, child>>) ! P"),
    # A Figure-7-flavored long pipeline: six iterate stages mixing
    # filters, pairing and projection — the corpus's heavy shape (its
    # simplification does several times the rewrite work of the
    # single-stage templates above).
    ("deep-pipeline",
     "iterate(Kp(T), age) o iterate(gt @ <age, Kf({c})>, id)"
     " o iterate(Kp(T), id) o iterate(lt @ <age, Kf(90)>, id)"
     " o iterate(Kp(T), <id, id>) o iterate(Kp(T), pi1) ! P"),
)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation.

    Attributes:
        distinct: number of distinct queries to produce.
        max_family_depth: hidden-join family instances are generated
            for every ``(depth <= this, predicate, applicable)`` combo.
        include_paper_queries: seed the corpus with the paper's own
            queries (the Garage Query first — it is the largest, which
            exercises the batch layer's largest-first dispatch).
        seed: stream-shuffle seed (the distinct set itself is fully
            order-determined and does not consume randomness).
    """

    distinct: int = 200
    max_family_depth: int = 4
    include_paper_queries: bool = True
    seed: int = 2026


def generate_corpus(config: CorpusConfig | None = None) -> list[Term]:
    """The distinct query set for ``config`` — canonical interned
    terms, deterministic term-for-term across processes."""
    config = config or CorpusConfig()
    queries: list[Term] = []
    seen: set[Term] = set()

    def take(term: Term) -> None:
        if len(queries) < config.distinct and term not in seen:
            seen.add(term)
            queries.append(term)

    if config.include_paper_queries:
        pq = paper_queries()
        for term in (pq.kg1, pq.t1k_source, pq.t2k_source, pq.k3, pq.k4):
            take(term)
    for depth in range(1, config.max_family_depth + 1):
        for predicate in ("gt", "eq"):
            for applicable in (True, False):
                spec = HiddenJoinSpec(depth=depth, applicable=applicable,
                                      predicate=predicate)
                take(canon(translate_query(hidden_join_family(spec))))

    counter = 0
    while len(queries) < config.distinct:
        _, template = _TEMPLATES[counter % len(_TEMPLATES)]
        constant = counter // len(_TEMPLATES) + 1
        take(canon(parse_obj(template.format(c=constant))))
        counter += 1
    return queries


def corpus_stream(queries: list[Term], traffic: int,
                  seed: int = 2026) -> list[Term]:
    """A traffic stream of ``traffic`` optimize calls over ``queries``:
    whole passes, each query once per pass, per-pass order shuffled
    from ``seed``.  Cyclic passes are the adversarial pattern for an
    undersized LRU.  Deterministic for equal inputs.
    """
    if traffic < 0:
        raise ValueError("traffic must be >= 0")
    if not queries:
        raise ValueError("corpus_stream needs at least one query")
    rng = random.Random(seed)
    stream: list[Term] = []
    while len(stream) < traffic:
        one_pass = list(queries)
        rng.shuffle(one_pass)
        stream.extend(one_pass)
    return stream[:traffic]
