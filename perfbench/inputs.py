"""Seeded inputs for every workload, and their reference answers.

Everything a run sends to the program is built here from ``--seed``:
the same seed and run length give the same requests, byte for byte.
Warm-up requests come from a disjoint seed: a fixed odd seed on
compile-cold and serve-zipf, ``2*seed + 1`` on saturate-cold, where the
timed stream uses ``2*seed``.  Each query is validated by reference
evaluation (``repro.core.eval.run_query``) before anything is timed;
the reference fingerprints are what the timed run is checked against.

Request sizes scale with ``--seconds`` relative to
:data:`REFERENCE_SECONDS`, so a given run length always does the same
amount of work whatever the host speed.  Why each workload looks the
way it does is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import itertools
import random

from repro.core.eval import run_query
from repro.core.parser import parse_obj
from repro.core.pretty import pretty
from repro.core.terms import abstract_constants, instantiate_constants
from repro.fuzz.generator import FuzzConfig, QueryGenerator
from repro.rewrite.pattern import canon
from repro.schema.generator import GeneratorConfig, generate_database
from repro.translate.aqua_to_kola import translate_query
from repro.translate.oql import parse_oql
from repro.workloads.hidden_join import HiddenJoinSpec, hidden_join_family

from digest import fingerprint

WORKLOADS = ("compile-cold", "saturate-cold", "serve-zipf")

#: Run length the request counts below are sized for.
REFERENCE_SECONDS = 10

#: compile-cold draws its skeletons from this fixed fuzz stream, and
#: the cold workloads fix their request order from it, so every seed
#: compiles the same query shapes in the same order (the normal-form
#: cache shares work between neighbouring requests); the seed re-draws
#: the constants, from the generator's own pools.
FUZZ_POOL_SEED = 2026

#: Seed of the compile-cold and serve-zipf warm-ups, the same for every
#: run (odd, so no timed stream's ``2*seed``).  The warm-up sets where
#: in the timed requests the collector's full collections (50-130 ms
#: each on compile-cold) fall; a seeded warm-up moved them between
#: light and heavy requests from one seed to the next, which moved
#: ``latency_ms.tail`` by a rank or two.
WARMUP_SEED = 2027
FUZZ_INTS = tuple(range(-4, 10))
FUZZ_STRS = ("a", "b", "c", "Boston", "Saab")

#: Constant draws tried per fuzz query for one that keeps the size of
#: its result (see :func:`same_size_redraw`).
REDRAWS = 8

#: The small database (|P|=100).  ``repro.cli serve`` builds the same
#: one from ``--persons 100 --vehicles 60 --seed 1``.
SMALL_DB = {"n_persons": 100, "n_vehicles": 60, "seed": 1}

#: A fixed request answered at the end of set-up in every in-process
#: workload: set-up ends when the first request has been served.
PROBE = "iterate(Kp(T), age) ! P"

#: The paper's AQUA queries (Figures 1-3) as OQL text.  OQL has no
#: bare selection, so ``sel`` becomes ``select p from p in ... where``
#: and the translated KOLA carries an extra identity stage.
PAPER_OQL = (
    "select a.city from a in (select p.addr from p in P)",
    "select p.addr.city from p in P",
    "select x.age from x in (select p from p in P where p.age > 25)",
    "select a from a in (select p.age from p in P) where a > 25",
    "select [p, (select c from c in p.child where c.age > 25)]"
    " from p in P",
    "select [p, (select c from c in p.child where p.age > 25)]"
    " from p in P",
    "select [v, (select a from p in P, a in p.grgs where v in p.cars)]"
    " from v in V",
)

#: The paper's printed KOLA queries used by saturate-cold, ``{c}``
#: standing for the constant 25 of the figures.
PAPER_KOLA = (
    "nest(pi1, pi2) o (unnest(pi1, pi2) >< id)"
    " o <join(in @ (id >< cars), (id >< grgs)), pi1> ! [V, P]",
    "iterate(Kp(T), city) o iterate(Kp(T), addr) ! P",
    "iterate(Kp(T), city o addr) ! P",
    "iterate(Kp(T), age) o iterate(gt @ <age, Kf({c})>, id) ! P",
    "iterate(Cp(lt, {c}), id) o iterate(Kp(T), age) ! P",
    "iterate(Kp(T), <id, iter(gt @ <age o pi2, Kf({c})>, pi2)"
    " o <id, child>>) ! P",
    "iterate(Kp(T), <id, iter(gt @ <age o pi1, Kf({c})>, pi2)"
    " o <id, child>>) ! P",
)

#: serve-zipf stage alphabet: each stage maps Persons to Persons, so
#: any sequence is well typed.  The pairing stage is composed pair
#: first, then project (``workloads.corpus.serving_corpus`` has it the
#: other way round, which applies ``pi1`` to a Person).
SERVE_STAGES = (
    "iterate(gt @ <age, Kf({c})>, id)",
    "iterate(lt @ <age, Kf({c})>, id)",
    "iterate(Kp(T), id)",
    "iterate(Kp(T), pi1) o iterate(Kp(T), <id, id>)",
)
SERVE_HEADS = ("", "iterate(Kp(T), age) o ", "iterate(Kp(T), city o addr) o ",
               "iterate(Kp(T), name) o ")

#: Skeleton families in the serve-zipf replay: more than one worker's
#: 256-entry parameterized plan cache.  Their popularity ranking and
#: the sequence of families drawn from it are fixed (from
#: :data:`SERVE_RANK_SEED`), so every seed has the same hot families
#: and the same cold misses; the seed draws each request's constants.
SERVE_FAMILIES = 320
SERVE_ZIPF = 1.0
SERVE_RANK_SEED = 2026

#: serve-zipf phases after the warm-up: a closed loop with one client
#: (the latency and throughput figures, every round), then, in a traced
#: run only, an open loop at :data:`OPEN_RATE` requests/s, where the
#: traced run splits a request's time between transport, queue and
#: worker.  The rate is well below one worker's capacity, so the
#: daemon's default admission bounds (64 requests in flight) are never
#: reached, even behind a 220 ms garbage-collection pause.
OPEN_RATE = 100


def scaled(count: int, seconds: int, minimum: int) -> int:
    return max(minimum, round(count * seconds / REFERENCE_SECONDS))


def database(config: dict):
    return generate_database(GeneratorConfig(**config))


def hidden_join_oql(depth: int, applicable: bool, predicate: str) -> str:
    """OQL text of one Figure 7 hidden-join family member (mirrors
    ``workloads.hidden_join.hidden_join_family``)."""
    operator = {"gt": ">", "eq": "=="}[predicate]
    bottom = "P" if applicable else "a.child"
    inner = f"select q0 from q0 in {bottom} where q0.age {operator} a.age"
    for level in range(1, depth):
        var = f"q{level}"
        if level % 2 == 1:
            inner = (f"select c{level} from {var} in ({inner}),"
                     f" c{level} in {var}.child")
        else:
            inner = (f"select {var} from {var} in ({inner})"
                     f" where {var}.age > 10")
    return f"select [a, ({inner})] from a in P"


def family_kola(depth: int, applicable: bool, predicate: str) -> str:
    """KOLA text of the translator's output for one family member."""
    spec = HiddenJoinSpec(depth=depth, applicable=applicable,
                          predicate=predicate)
    return pretty(canon(translate_query(hidden_join_family(spec))))


def _family_members(max_depth: int):
    for depth in range(1, max_depth + 1):
        for predicate in ("gt", "eq"):
            for applicable in (True, False):
                yield depth, applicable, predicate


def request(kind: str, text: str, group: int = 0) -> dict:
    return {"kind": kind, "text": text, "pass": group}


def initial_term(req: dict):
    if req["kind"] == "oql":
        return canon(translate_query(parse_oql(req["text"])))
    return canon(parse_obj(req["text"]))


# -- the workloads ------------------------------------------------------


def redraw_constants(term, rng: random.Random):
    """``term`` with its int and str constants re-drawn from the fuzz
    generator's own value pools, keeping the skeleton: values of one
    type stay pairwise distinct, so no two slots merge."""
    skeleton, values = abstract_constants(term)
    fresh = list(values)
    for kind, pool in ((int, FUZZ_INTS), (str, FUZZ_STRS)):
        slots = [index for index, value in enumerate(values)
                 if type(value) is kind]
        if len(slots) <= len(pool):
            for index, value in zip(slots, rng.sample(pool, len(slots))):
                fresh[index] = value
    return instantiate_constants(skeleton, tuple(fresh))


def result_size(term, db) -> int | None:
    """How many elements ``term``'s value on ``db`` has (1 for a
    scalar), or None when it does not evaluate."""
    try:
        value = run_query(term, db)
    except Exception:  # a draw that fails evaluation is not used
        return None
    if isinstance(value, str) or not hasattr(value, "__len__"):
        return 1
    return len(value)


def same_size_redraw(term, rng: random.Random, db):
    """The first of :data:`REDRAWS` constant draws for ``term``
    (:func:`redraw_constants`) that prints and parses back to itself and
    whose result on ``db`` is as large as ``term``'s own, or ``term``
    itself when none is.  Re-drawn constants can turn a filter that
    keeps nothing into one that keeps everything, which changes a
    query's cost many times over, and with it where the collector's
    full collections fall among the later requests; keeping result
    sizes keeps both alike from seed to seed."""
    size = result_size(term, db)
    for _ in range(REDRAWS):
        candidate = redraw_constants(term, rng)
        if size is not None and parse_obj(pretty(candidate)) is candidate \
                and result_size(candidate, db) == size:
            return candidate
    return term


def compile_cold(seed: int, seconds: int) -> dict:
    """A fixed pool of fuzz queries with pairwise distinct skeletons,
    plus the paper's AQUA queries and the hidden-join family as OQL
    text, in a fixed order; the seed re-draws the fuzz constants,
    keeping each query's result size.  The warm-up comes from
    :data:`WARMUP_SEED` and shares no skeleton with the timed
    requests."""
    rng = random.Random(2 * seed)
    db = database(SMALL_DB)
    requests = [request("oql", text) for text in PAPER_OQL]
    requests += [request("oql", hidden_join_oql(*member))
                 for member in _family_members(4)]
    seen = {abstract_constants(initial_term(req))[0] for req in requests}
    generator = QueryGenerator(FuzzConfig(seed=FUZZ_POOL_SEED))
    wanted = len(requests) + scaled(127, seconds, 40)
    while len(requests) < wanted:
        term = generator.query()
        skeleton = abstract_constants(term)[0]
        if skeleton in seen or parse_obj(pretty(term)) is not term:
            continue
        seen.add(skeleton)
        requests.append(request("kola",
                                pretty(same_size_redraw(term, rng, db))))
    random.Random(FUZZ_POOL_SEED).shuffle(requests)
    warm = QueryGenerator(FuzzConfig(seed=WARMUP_SEED))
    warmup = []
    while len(warmup) < 20:
        term = warm.query()
        if abstract_constants(term)[0] not in seen:
            warmup.append(request("kola", pretty(term)))
    return {"db": SMALL_DB, "search": "greedy", "warmup": warmup,
            "requests": requests}


def saturate_cold(seed: int, seconds: int) -> dict:
    """The paper's KOLA queries and the depth-1 hidden-join family
    under ``search="saturate"`` in a fixed order, with a seeded
    constant; every pass runs on a fresh optimizer."""
    constant = random.Random(2 * seed).randint(11, 89)
    texts = [text.format(c=constant) for text in PAPER_KOLA]
    texts += [family_kola(*member) for member in _family_members(1)]
    order = random.Random(FUZZ_POOL_SEED)
    requests = []
    for group in range(scaled(2, seconds, 2)):
        batch = [request("kola", text, group) for text in texts]
        order.shuffle(batch)
        requests += batch
    warmup = [request("kola", PAPER_KOLA[3].format(
        c=random.Random(2 * seed + 1).randint(11, 89)))]
    return {"db": SMALL_DB, "search": "saturate", "warmup": warmup,
            "requests": requests}


def serve_families() -> list[str]:
    """Person pipelines, one per skeleton: every head over every stage
    sequence, shortest first, with ``{c}`` constant slots."""
    families = []
    for length in itertools.count(1):
        for combo in itertools.product(SERVE_STAGES, repeat=length):
            for head in SERVE_HEADS:
                families.append(head + " o ".join(combo) + " ! P")
                if len(families) == SERVE_FAMILIES:
                    return families


def _zipf_stream(families: list[str], count: int, picks: random.Random,
                 constants: random.Random) -> list[dict]:
    """``count`` requests: families drawn zipf(1.0) over the fixed
    popularity ranking by ``picks``, constants drawn by ``constants``."""
    ranks = list(range(len(families)))
    random.Random(SERVE_RANK_SEED).shuffle(ranks)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(ranks))]
    stream = []
    for family in picks.choices(ranks, weights=weights, k=count):
        template = families[family]
        values = [constants.randint(1, 97)
                  for _ in range(template.count("{c}"))]
        stream.append(request("kola", template.replace("{c}", "{}")
                              .format(*values)))
    return stream


def serve_zipf(seed: int, seconds: int) -> dict:
    """A zipf(1.0) replay over :data:`SERVE_FAMILIES` families.  The
    sequence of families is the same for every seed (so every seed
    meets its cold misses at the same requests); the seed draws each
    request's constants; the warm-up's come from :data:`WARMUP_SEED`."""
    families = serve_families()
    warmup = _zipf_stream(families, scaled(200, seconds, 60),
                          random.Random(SERVE_RANK_SEED + 1),
                          random.Random(WARMUP_SEED))
    phases = [{"name": "closed", "rate": None,
               "count": scaled(300, seconds, 60)},
              {"name": "open", "rate": OPEN_RATE,
               "count": scaled(200, seconds, 60)}]
    requests = _zipf_stream(families,
                            sum(phase["count"] for phase in phases),
                            random.Random(SERVE_RANK_SEED),
                            random.Random(2 * seed))
    return {"db": SMALL_DB, "search": "greedy", "warmup": warmup,
            "requests": requests, "phases": phases}


BUILDERS = {"compile-cold": compile_cold, "saturate-cold": saturate_cold,
            "serve-zipf": serve_zipf}


def build(workload: str, seed: int, seconds: int) -> dict:
    spec = BUILDERS[workload](seed, seconds)
    spec["workload"] = workload
    spec["seed"] = seed
    spec["seconds"] = seconds
    spec["probe"] = PROBE
    return spec


def reference(spec: dict) -> tuple[list[str], list[str]]:
    """Reference fingerprints for every timed request, computed by
    direct evaluation (each distinct query once), and the problems
    found: any timed or warm-up query that fails to evaluate."""
    db = database(spec["db"])
    memo: dict = {}
    expected, problems = [], []
    for index, req in enumerate(spec["requests"] + spec["warmup"]):
        term = initial_term(req)
        if term not in memo:
            try:
                memo[term] = fingerprint(run_query(term, db))
            except Exception as error:  # reported, never timed
                memo[term] = None
                problems.append(f"request {index} ({req['text']}): "
                                f"{type(error).__name__}: {error}")
        if index < len(spec["requests"]):
            expected.append(memo[term])
    return expected, problems
