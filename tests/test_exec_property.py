"""Property suite: fused execution is observationally identical to the
direct operational-semantics evaluator.

Three sources of queries:

* Hypothesis draws from :func:`repro.fuzz.strategies.kola_queries` —
  the same grammar-directed generator the fuzz oracle replays, run
  against the generator-closure path, the columnar fast path, and the
  codegen kernels (compiled from the concrete query, and from its
  constant-abstracted skeleton run with the query's values, as the
  optimizer's kernel cache runs them);
* a fixed-seed generated stream, the same on every run;
* every anchor in ``tests/corpus/`` — the regression corpus of
  queries that once exposed a divergence anywhere in the stack.

Identity is *type-strict*: a ``KBag`` result must come back as a
``KBag`` with the same multiplicities, an ``int`` must not come back as
a ``bool``, and a query that raises ``EvalError`` under direct
evaluation must raise ``EvalError`` through the fused pipeline too.
"""

import pytest
from hypothesis import given, settings

from repro.core.errors import EvalError
from repro.core.eval import eval_obj
from repro.core.terms import abstract_constants
from repro.exec import compile_executable, compile_kernel
from repro.fuzz.corpus import load_all
from repro.fuzz.generator import generate_queries
from repro.fuzz.strategies import kola_queries
from repro.schema.generator import tiny_database

DB = tiny_database()


def _identical(a, b):
    return type(a) is type(b) and a == b


def _direct(query):
    """(outcome, value) under the tree-walking evaluator."""
    try:
        return "ok", eval_obj(query, DB)
    except EvalError as err:
        return "error", type(err)


def _fused(query, columnar):
    try:
        return "ok", compile_executable(query, columnar=columnar).run(DB)
    except EvalError as err:
        return "error", type(err)


def _codegen(query, skeleton):
    try:
        term, values = (abstract_constants(query) if skeleton
                        else (query, ()))
        return "ok", compile_kernel(term).run(DB, values)
    except EvalError as err:
        return "error", type(err)


def _assert_agrees(query, run=_fused, label="fused", **mode):
    expected_outcome, expected = _direct(query)
    outcome, got = run(query, **mode)
    assert outcome == expected_outcome, (
        f"outcome diverged on {query!r}: direct={expected_outcome} "
        f"{label}={outcome} ({got!r})")
    if expected_outcome == "ok":
        assert _identical(got, expected), (
            f"value diverged on {query!r}: direct={expected!r} "
            f"{label}={got!r}")


def _assert_codegen_agrees(query, skeleton):
    _assert_agrees(query, run=_codegen, label="codegen", skeleton=skeleton)


class TestGeneratedQueries:
    @settings(max_examples=150, deadline=None)
    @given(query=kola_queries())
    def test_fused_matches_eval(self, query):
        _assert_agrees(query, columnar=False)

    @settings(max_examples=150, deadline=None)
    @given(query=kola_queries())
    def test_columnar_matches_eval(self, query):
        _assert_agrees(query, columnar=True)

    @settings(max_examples=150, deadline=None)
    @given(query=kola_queries())
    def test_codegen_matches_eval(self, query):
        _assert_codegen_agrees(query, skeleton=False)

    @settings(max_examples=150, deadline=None)
    @given(query=kola_queries())
    def test_codegen_skeleton_matches_eval(self, query):
        _assert_codegen_agrees(query, skeleton=True)


class TestFixedSeedStream:
    """The same property over one fixed 500-query stream, so a
    divergence there reproduces on every run, whatever examples
    Hypothesis draws."""

    STREAM = generate_queries(500, seed=2026)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_fused_matches_eval(self, columnar):
        for query in self.STREAM:
            _assert_agrees(query, columnar=columnar)

    def test_codegen_matches_eval(self):
        for query in self.STREAM:
            _assert_codegen_agrees(query, skeleton=False)


def _corpus_anchors():
    anchors = load_all()
    assert anchors, "tests/corpus/ must hold at least one anchor"
    return anchors


@pytest.mark.parametrize(
    "anchor", _corpus_anchors(), ids=lambda anchor: anchor.name)
class TestCorpusAnchors:
    def test_fused_matches_eval(self, anchor):
        _assert_agrees(anchor.term(), columnar=False)

    def test_columnar_matches_eval(self, anchor):
        _assert_agrees(anchor.term(), columnar=True)

    def test_codegen_matches_eval(self, anchor):
        _assert_codegen_agrees(anchor.term(), skeleton=False)

    def test_codegen_skeleton_matches_eval(self, anchor):
        _assert_codegen_agrees(anchor.term(), skeleton=True)
