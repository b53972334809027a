"""Rule-block dispatch compiles once per rule-base generation.

COKO blocks reference rules as tuples such as ``("r17", "r17b",
"group:cleanup")``; the rule base caches each tuple's index and
compiled discrimination tree per generation, so repeated optimizations
reuse one trie (and its normal-form cache entries) instead of compiling
a fresh one per run.  Also here: the parameterized plan entry's shared
abstraction memo, and which modules the optimizer's import path loads.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

import repro
from repro.coko.blocks import run_blocks
from repro.coko.hidden_join import hidden_join_blocks
from repro.coko.strategy import Context
from repro.core.terms import abstract_constants, abstract_with
from repro.fuzz.generator import generate_queries
from repro.optimizer.optimizer import Optimizer
from repro.rewrite.discrimination import CompiledRuleSet
from repro.rewrite.engine import Engine
from repro.rewrite.rule import rule
from repro.rules.registry import standard_rulebase

#: Every reference tuple the hidden-join blocks dispatch through.
_BLOCK_REFS = (("r17", "r17b", "group:cleanup"), ("r19", "group:cleanup"),
               ("r20", "r21", "group:cleanup"),
               ("r22", "r22b", "r23", "group:cleanup"),
               ("r24", "group:cleanup"),
               ("group:cleanup", "group:pair-to-cross"))

#: A pack that replaces the ``cleanup`` rule ``r18`` (same equation,
#: new ``Rule`` object, no new group memberships).
_REPLACE_R18 = """\
pack replace-r18
version 1

rule r18
    number 18
    safety exhaustive
    citation "Figure 8"
    lhs iterate(Kp(T), id)
    rhs id
"""


@pytest.fixture()
def count_compilations(monkeypatch):
    """A list that gains one entry per :class:`CompiledRuleSet` built."""
    built = []
    original = CompiledRuleSet.__init__

    def counting(self, index):
        built.append(index)
        original(self, index)

    monkeypatch.setattr(CompiledRuleSet, "__init__", counting)
    return built


class TestCompileOnce:
    def test_fresh_skeletons_compile_no_trie(self, db, queries,
                                             count_compilations):
        optimizer = Optimizer(rulebase=standard_rulebase())
        optimizer.optimize(queries.kg1, db)          # warm-up
        count_compilations.clear()
        stream = generate_queries(25, seed=1801)
        for query in stream:
            optimizer.optimize(query, db)
        assert optimizer.plan_cache_info()["misses"] == 1 + len(stream)
        assert count_compilations == []

    def test_second_block_run_hits_the_nf_cache(self, rulebase, queries):
        engine = Engine()
        first = run_blocks(hidden_join_blocks(), queries.kg1, rulebase,
                           engine)
        hits = engine.stats.nf_cache_hits
        misses = engine.stats.nf_cache_misses
        second = run_blocks(hidden_join_blocks(), queries.kg1, rulebase,
                            engine)
        assert first == queries.kg2
        assert second is first
        # one Exhaust per block, two in absorb-join: all six now hit
        assert engine.stats.nf_cache_hits == hits + len(_BLOCK_REFS)
        assert engine.stats.nf_cache_misses == misses

    def test_every_block_ref_is_cached(self, rulebase):
        ctx = Context(Engine(), rulebase)
        for refs in _BLOCK_REFS:
            compiled = ctx.dispatch(refs)
            assert ctx.dispatch(refs) is compiled
            assert list(compiled.rules) == rulebase.resolve(refs)
        linear = Context(Engine(indexed=False), rulebase)
        assert linear.dispatch(_BLOCK_REFS[0]) \
            == rulebase.resolve(_BLOCK_REFS[0])

    @pytest.mark.parametrize("mutation", ["add", "extend_group",
                                          "load_pack"])
    def test_mutation_recompiles_dispatch(self, queries, mutation):
        base = standard_rulebase()
        engine = Engine()
        before = [base.resolve_compiled(refs) for refs in _BLOCK_REFS]
        run_blocks(hidden_join_blocks(), queries.kg1, base, engine)
        hits = engine.stats.nf_cache_hits
        if mutation == "add":
            base.add(rule("demo-cleanup", "id o id o $f", "$f"),
                     ["cleanup"])
            fresh = "demo-cleanup"
        elif mutation == "extend_group":
            base.extend_group("cleanup", ["r11"])
            fresh = "r11"
        else:
            base.load_pack(_REPLACE_R18, verify=False)
            fresh = "r18"
        new_rule = base.get(fresh)
        for refs, old in zip(_BLOCK_REFS, before):
            compiled = base.resolve_compiled(refs)
            assert compiled is not old
            assert compiled.generation != old.generation
            assert any(one is new_rule for one in compiled.rules)
        run_blocks(hidden_join_blocks(), queries.kg1, base, engine)
        # keyed on the new tries' generations: no stale normal form
        assert engine.stats.nf_cache_hits == hits


class TestParamEntryMemo:
    def test_shared_memo_matches_per_form_abstraction(self, db):
        optimizer = Optimizer(rulebase=standard_rulebase())
        entries = steps = 0
        for query in generate_queries(60, seed=1802):
            result = optimizer.optimize(query, db)
            _, values = abstract_constants(result.initial)
            if not values:
                continue
            entry = optimizer._make_param_entry(result, values, "greedy")
            assert entry.simplified is abstract_with(result.simplified,
                                                     values)
            assert entry.untangled is abstract_with(result.untangled,
                                                    values)
            assert entry.chosen is None
            assert len(entry.steps) == len(result.derivation.steps)
            for stored, step in zip(entry.steps, result.derivation.steps):
                assert stored[0] is step.rule and stored[3] == step.path
                assert stored[1] is abstract_with(step.before, values)
                assert stored[2] is abstract_with(step.after, values)
            entries += 1
            steps += len(entry.steps)
        assert entries >= 20 and steps >= 100


def test_optimizer_import_leaves_gate_and_numpy_unloaded():
    """Building and serving the standard optimizer needs neither the
    rule-pack admission gate (nor the Larch checker behind it), numpy
    nor the batch layer, so none of them may load on its import
    path."""
    code = ("import sys\n"
            "import repro.optimizer.optimizer, repro.rules.registry, "
            "repro.serve.daemon\n"
            "print(sorted(name for name in ('numpy', 'repro.larch', "
            "'repro.rulepacks.gate', 'repro.parallel.batch') "
            "if name in sys.modules))\n")
    assert _loaded_by(code) == "[]"


def test_in_process_path_leaves_the_pool_unloaded():
    """What an in-process run imports — the optimizer, the database
    generator and the worker's result encoding and caches — loads
    neither the serving pool nor ``multiprocessing``."""
    code = ("import sys\n"
            "import repro.optimizer.optimizer, repro.rules.registry, "
            "repro.core.parser, repro.schema.generator, "
            "repro.parallel.cache, repro.parallel.portable, "
            "repro.parallel.worker\n"
            "print(sorted(name for name in ('multiprocessing', "
            "'repro.serve.pool') if name in sys.modules))\n")
    assert _loaded_by(code) == "[]"


def _loaded_by(code: str) -> str:
    """What ``code`` prints, run in a fresh interpreter on ``src/``."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()
