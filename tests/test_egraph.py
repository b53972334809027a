"""Unit tests for the e-graph: hashcons sharing, union-find, congruence
closure, bounded members, representative sampling, and the
represented-term counting that the saturation benchmark relies on."""

import pytest

from repro.core.errors import ParseError
from repro.core.parser import parse_fun, parse_obj
from repro.rewrite.pattern import canon
from repro.saturate.egraph import COUNT_CAP, EGraph


def _t(text):
    # function syntax first: bare names like "age" are primitives here,
    # not setnames
    try:
        return canon(parse_fun(text))
    except ParseError:
        return canon(parse_obj(text))


class TestAdd:
    def test_same_term_same_class(self):
        egraph = EGraph()
        a = egraph.add(_t("age o addr"))
        b = egraph.add(_t("age o addr"))
        assert a == b

    def test_subterms_get_classes(self):
        egraph = EGraph()
        egraph.add(_t("age o addr"))
        assert egraph.class_of(_t("age")) is not None
        assert egraph.class_of(_t("addr")) is not None

    def test_shared_subterms_share_classes(self):
        egraph = EGraph()
        egraph.add(_t("age o addr"))
        before = egraph.enodes_allocated
        egraph.add(_t("city o addr"))
        # `addr` is re-used: only `city` and the new compose are fresh.
        assert egraph.enodes_allocated == before + 2

    def test_unknown_term_has_no_class(self):
        egraph = EGraph()
        egraph.add(_t("age"))
        assert egraph.class_of(_t("addr")) is None

    def test_add_is_idempotent(self):
        egraph = EGraph()
        egraph.add(_t("iterate(Kp(T), age) ! P"))
        enodes = egraph.enodes_allocated
        egraph.add(_t("iterate(Kp(T), age) ! P"))
        assert egraph.enodes_allocated == enodes


class TestMergeAndCongruence:
    def test_merge_unions_classes(self):
        egraph = EGraph()
        a = egraph.add(_t("age"))
        b = egraph.add(_t("addr"))
        egraph.merge(a, b)
        assert egraph.find(a) == egraph.find(b)

    def test_congruence_propagates_upward(self):
        """age ≡ addr must force (age o id) ≡ (addr o id) after rebuild."""
        egraph = EGraph()
        fa = egraph.add(_t("age o pi1"))
        fb = egraph.add(_t("addr o pi1"))
        assert egraph.find(fa) != egraph.find(fb)
        egraph.merge(egraph.class_of(_t("age")),
                     egraph.class_of(_t("addr")))
        egraph.rebuild()
        assert egraph.find(fa) == egraph.find(fb)

    def test_congruence_propagates_transitively(self):
        """Two levels of context: g(f(a)) ≡ g(f(b)) from a ≡ b."""
        egraph = EGraph()
        ga = egraph.add(_t("city o (age o pi1)"))
        gb = egraph.add(_t("city o (addr o pi1)"))
        egraph.merge(egraph.class_of(_t("age")),
                     egraph.class_of(_t("addr")))
        egraph.rebuild()
        assert egraph.find(ga) == egraph.find(gb)

    def test_merge_is_idempotent(self):
        egraph = EGraph()
        a = egraph.add(_t("age"))
        merges_before = egraph.merges
        egraph.merge(a, a)
        assert egraph.merges == merges_before

    def test_members_survive_merge(self):
        egraph = EGraph()
        a = egraph.add(_t("age"))
        b = egraph.add(_t("addr"))
        root = egraph.merge(a, b)
        members = egraph.members_of(root)
        assert _t("age") in members and _t("addr") in members

    def test_members_bounded(self):
        egraph = EGraph(max_members_per_class=3)
        root = egraph.add(_t("age"))
        for name in ("addr", "city", "cars", "grgs", "child"):
            root = egraph.merge(root, egraph.add(_t(name)))
        assert len(egraph.members_of(root)) == 3

    def test_smallest_members_kept(self):
        egraph = EGraph(max_members_per_class=1)
        big = egraph.add(_t("age o (addr o pi1)"))
        small = egraph.add(_t("pi2"))
        root = egraph.merge(big, small)
        assert egraph.members_of(root) == [_t("pi2")]


class TestRepresentatives:
    def test_best_terms_is_total(self):
        egraph = EGraph()
        egraph.add(_t("iterate(Kp(T), age o addr) ! P"))
        best = egraph.best_terms()
        assert set(best) == set(egraph.class_ids())

    def test_best_terms_improve_after_merge(self):
        """Merging a subterm with a smaller equal makes enclosing
        classes report the recombined (smaller) best term."""
        egraph = EGraph()
        outer = egraph.add(_t("city o (id o addr)"))
        egraph.merge(egraph.class_of(_t("id o addr")),
                     egraph.add(_t("addr")))
        egraph.rebuild()
        best = egraph.best_terms()
        assert best[egraph.find(outer)] == _t("city o addr")

    def test_best_terms_computed_once_per_version(self):
        """An unchanged graph returns the same map; a re-added term or
        a rebuild with no merges changes nothing, and a merge does."""
        egraph = EGraph()
        outer = egraph.add(_t("city o (id o addr)"))
        egraph.rebuild()
        best = egraph.best_terms()
        assert egraph.best_terms() is best
        egraph.add(_t("id o addr"))
        egraph.rebuild()
        assert egraph.best_terms() is best
        egraph.merge(egraph.class_of(_t("id o addr")),
                     egraph.add(_t("addr")))
        merged = egraph.best_terms()
        assert merged is not best
        egraph.rebuild()
        assert egraph.best_terms()[egraph.find(outer)] \
            == _t("city o addr")

    def test_sample_terms_include_recombinations(self):
        egraph = EGraph()
        outer = egraph.add(_t("city o (id o addr)"))
        egraph.merge(egraph.class_of(_t("id o addr")),
                     egraph.add(_t("addr")))
        egraph.rebuild()
        samples = egraph.sample_terms(outer, 4)
        assert _t("city o addr") in samples
        assert _t("city o (id o addr)") in samples


class TestRepresentedCounts:
    def test_single_term_counts_one(self):
        egraph = EGraph()
        root = egraph.add(_t("age o addr"))
        assert egraph.represented_counts()[egraph.find(root)] == 1

    def test_cross_product_of_choices(self):
        """2 spellings of each child under one parent = 4 terms from a
        handful of e-nodes — the compression saturation banks on."""
        egraph = EGraph()
        root = egraph.add(_t("age o addr"))
        egraph.merge(egraph.class_of(_t("age")), egraph.add(_t("city")))
        egraph.merge(egraph.class_of(_t("addr")), egraph.add(_t("cars")))
        egraph.rebuild()
        counts = egraph.represented_counts()
        # the compose class: 2 x 2 child choices; plus each child class
        # stands for 2 leaves itself
        assert counts[egraph.find(root)] == 4

    def test_cyclic_class_saturates_at_cap(self):
        """x ≡ id o x makes the class represent unboundedly many terms;
        counting must report the cap, not loop."""
        egraph = EGraph()
        x = egraph.add(_t("age"))
        wrapped = egraph.add(_t("id o age"))
        egraph.merge(x, wrapped)
        egraph.rebuild()
        counts = egraph.represented_counts(cap=1000)
        assert counts[egraph.find(x)] == 1000
        assert egraph.represented_total(cap=1000) <= 1000 * len(counts)

    def test_default_cap_is_large(self):
        assert COUNT_CAP >= 10 ** 12


class TestDeterminism:
    def test_class_ids_sorted(self):
        egraph = EGraph()
        egraph.add(_t("iterate(in @ (id >< cars), pi2) ! P"))
        ids = egraph.class_ids()
        assert ids == sorted(ids)

    def test_identical_builds_identical_graphs(self):
        runs = []
        for _ in range(2):
            egraph = EGraph()
            root = egraph.add(_t("flat o iter(Kp(T), grgs o pi2)"))
            egraph.merge(egraph.class_of(_t("grgs")),
                         egraph.add(_t("cars")))
            egraph.rebuild()
            runs.append((egraph.enodes_allocated, egraph.class_count(),
                         sorted(egraph.represented_counts().values()),
                         egraph.best_terms()[egraph.find(root)]))
        assert runs[0] == runs[1]
