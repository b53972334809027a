"""Property tests for the portable term wire form.

The contract under test (``Term.to_portable`` / ``from_portable``):

* **Identity round-trip** — decoding a payload in the process that
  encoded it returns the *same interned object*, with every
  construction-time cache (size, depth, ops, groundness) intact.
* **Cross-process round-trip** — a payload shipped to a ``spawn``
  worker re-interns there and survives the trip back bit-identically.
* **Validation** — malformed payloads are rejected with
  :class:`~repro.core.errors.PortableTermError` and a usable message,
  never with a crash or a silently wrong term.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

from repro.core import constructors as C
from repro.core.errors import PortableTermError
from repro.core.parser import parse_obj
from repro.core.terms import (PORTABLE_VERSION, Sort, Term, from_portable,
                              meta, obj_var)
from repro.rewrite.pattern import build_chain, canon
from repro.rules.registry import standard_rulebase
from repro.workloads.queries import paper_queries


def _sample_terms() -> list[Term]:
    queries = paper_queries()
    samples = [queries.kg1, queries.kg2, queries.t1k_source,
               queries.t2k_target, queries.k4, queries.k4_code_moved,
               C.id_(), C.lit(frozenset({1, 2, 3})),
               parse_obj("iterate(Kp(T), city o addr) ! P"),
               meta("f", Sort.FUN), obj_var("x")]
    for one_rule in standard_rulebase().all_rules():
        samples.append(one_rule.lhs)
        samples.append(one_rule.rhs)
    return samples


class TestRoundTrip:
    def test_identity_and_caches(self):
        for term in _sample_terms():
            back = from_portable(term.to_portable())
            assert back is term
            assert back.size() == term.size()
            assert back.depth() == term.depth()
            assert back.ops == term.ops
            assert back.is_ground() == term.is_ground()

    def test_payload_is_deterministic(self):
        for term in _sample_terms():
            assert term.to_portable() == term.to_portable()

    def test_payload_is_memoized_on_the_term(self):
        # Repeat shipping of the same query is the batch hot path: the
        # payload is built once and cached on the (immutable) term.
        term = paper_queries().kg1
        assert term.to_portable() is term.to_portable()

    def test_decode_memo_is_transparent(self):
        # A memo hit must return exactly what a cold decode returns.
        from repro.core import terms as terms_module
        term = paper_queries().kg1
        payload = term.to_portable()
        terms_module._DECODE_MEMO.clear()
        cold = from_portable(payload)
        assert payload in terms_module._DECODE_MEMO
        assert from_portable(payload) is cold is term
        # List-form (unhashable) payloads still decode, uncached.
        listy = [payload[0], payload[1], payload[2]]
        assert from_portable(listy) is term

    def test_payload_is_builtin_only(self):
        def check(node):
            assert isinstance(node, (tuple, str, int, float, bool,
                                     type(None)))
            if isinstance(node, tuple):
                for item in node:
                    check(item)
        check(paper_queries().kg1.to_portable())

    def test_shared_subterms_encoded_once(self):
        shared = parse_obj("iterate(Kp(T), age) ! P")
        term = Term("pairobj", (shared, shared))
        tag, version, table = term.to_portable()
        assert tag == "kola-term" and version == PORTABLE_VERSION
        # One table row per *distinct* subterm, not per occurrence —
        # strictly fewer rows than the occurrence count ``size()``.
        assert len(table) == len(set(term.subterms())) < term.size()

    def test_deep_chain_roundtrip_and_pickle(self):
        deep = build_chain([C.prim(f"a{i % 7}") for i in range(4000)])
        assert from_portable(deep.to_portable()) is deep
        assert pickle.loads(pickle.dumps(deep)) is deep

    def test_pickle_roundtrip_is_identity(self):
        for term in _sample_terms():
            assert pickle.loads(pickle.dumps(term)) is term

    def test_value_labels_roundtrip(self):
        from repro.core.bags import KBag
        from repro.core.lists import KList
        from repro.core.values import KPair
        for payload in (KBag.of([1, 1, 2]), KList([3, 1, 2]),
                        KPair(1, "x"), frozenset({frozenset({1})}),
                        (1, (2, 3)), 2.5, True, "name"):
            term = C.lit(payload)
            assert from_portable(term.to_portable()) is term

    def test_random_rule_applications_roundtrip(self):
        """Fuzz: every form reachable by a short random rewrite walk
        round-trips to the identical interned term."""
        rng = random.Random(2026)
        from repro.rewrite.engine import Engine
        engine = Engine()
        base = standard_rulebase()
        rules = base.group("simplify")
        current = paper_queries().kg1
        for _ in range(12):
            assert from_portable(current.to_portable()) is current
            successors = engine.successors(current, rules)
            if not successors:
                break
            current = rng.choice(successors).term


def _spawn_probe(payload):
    """Runs in a spawn worker: re-intern, check invariants, echo back."""
    term = from_portable(payload)
    again = from_portable(payload)
    return {
        "same_object": term is again,
        "size": term.size(),
        "depth": term.depth(),
        "ops": sorted(term.ops),
        "ground": term.is_ground(),
        "echo": term.to_portable(),
        "canon_is_identity": canon(term) is term,
    }


class TestSpawnRoundTrip:
    @pytest.fixture(scope="class")
    def pool(self):
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            yield pool

    def test_spawn_roundtrip(self, pool):
        queries = paper_queries()
        for term in (queries.kg1, queries.kg2, queries.t2k_source):
            report = pool.apply(_spawn_probe, (term.to_portable(),))
            assert report["same_object"], "worker-side interning broken"
            assert report["size"] == term.size()
            assert report["depth"] == term.depth()
            assert report["ops"] == sorted(term.ops)
            assert report["ground"] == term.is_ground()
            assert report["canon_is_identity"] == (canon(term) is term)
            assert from_portable(report["echo"]) is term

    def test_spawn_pickle_of_term_itself(self, pool):
        """Terms embedded in pickled arguments/results cross the
        boundary transparently via ``__reduce__``."""
        term = paper_queries().t1k_target
        back = pool.apply(canon, (term,))
        assert back is canon(term)


class TestRejection:
    @pytest.mark.parametrize("payload", [
        None,
        42,
        "kola-term",
        ("kola-term", PORTABLE_VERSION),
        ("not-a-term", PORTABLE_VERSION, (("id", (), None),)),
        ("kola-term", PORTABLE_VERSION + 1, (("id", (), None),)),
        ("kola-term", PORTABLE_VERSION, ()),
        ("kola-term", PORTABLE_VERSION, "junk"),
        ("kola-term", PORTABLE_VERSION, (("id", (), None, "extra"),)),
        ("kola-term", PORTABLE_VERSION, ((7, (), None),)),
        ("kola-term", PORTABLE_VERSION, (("no-such-op", (), None),)),
        ("kola-term", PORTABLE_VERSION, (("compose", (), None),)),
        ("kola-term", PORTABLE_VERSION, (("prim", (), None),)),
        ("kola-term", PORTABLE_VERSION, (("id", (), "stray-label"),)),
        ("kola-term", PORTABLE_VERSION, (("id", (0,), None),)),
        ("kola-term", PORTABLE_VERSION,
         (("id", (), None), ("compose", (0, 9), None))),
        ("kola-term", PORTABLE_VERSION, (("id", ("x",), None),)),
        ("kola-term", PORTABLE_VERSION, (("lit", (), ("sort", "bogus")),)),
        ("kola-term", PORTABLE_VERSION, (("lit", (), ("weird", ())),)),
        ("kola-term", PORTABLE_VERSION, (("lit", (), ("bag", ((1, -1),))),)),
        ("kola-term", PORTABLE_VERSION, (("lit", (), ("bag", ((1, "2"),))),)),
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(PortableTermError) as excinfo:
            from_portable(payload)
        assert str(excinfo.value)  # a real message, not an empty raise

    def test_sort_mismatch_rejected(self):
        # invoke expects (FUN, OBJ); hand it two OBJ children.
        setname = ("setname", (), "P")
        payload = ("kola-term", PORTABLE_VERSION,
                   (setname, ("invoke", (0, 0), None)))
        with pytest.raises(PortableTermError, match="invoke"):
            from_portable(payload)

    def test_unportable_label_rejected_on_encode(self):
        class Weird:
            pass
        term = Term("lit", (), None)  # placeholder for a direct call
        del term
        with pytest.raises(PortableTermError, match="no portable"):
            from repro.core.terms import _encode_label
            _encode_label(Weird())
