"""Unit tests for the runtime value domain."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.errors import EvalError
from repro.core.values import (EMPTY_SET, Instance, KPair, as_bool, as_pair,
                               as_set, freeze, kset, value_repr)


class TestKPair:
    def test_equality(self):
        assert KPair(1, 2) == KPair(1, 2)
        assert KPair(1, 2) != KPair(2, 1)

    def test_hash_consistency(self):
        assert hash(KPair(1, 2)) == hash(KPair(1, 2))

    def test_not_a_tuple(self):
        assert KPair(1, 2) != (1, 2)

    def test_iteration(self):
        fst, snd = KPair("a", "b")
        assert (fst, snd) == ("a", "b")

    def test_nested_pairs_hashable(self):
        outer = KPair(KPair(1, 2), frozenset({3}))
        assert outer in {outer}


class TestInstance:
    def test_identity_by_adt_and_oid(self):
        a, b = Instance("Person", 1), Instance("Person", 1)
        assert a == b and hash(a) == hash(b)
        assert a != Instance("Vehicle", 1)
        assert a != Instance("Person", 2)

    def test_attributes(self):
        person = Instance("Person", 1)
        person.set_attr("age", 30)
        assert person.get("age") == 30
        assert person.attrs() == {"age": 30}

    def test_missing_attribute(self):
        with pytest.raises(EvalError, match="no attribute"):
            Instance("Person", 1).get("age")

    def test_repr(self):
        assert repr(Instance("Person", 3)) == "Person#3"

    def test_error_names_one_element_under_every_hash_seed(self):
        """Set order over instances does not depend on the process's
        hash seed, so a failing query names the same element in a
        daemon worker as in an in-process replay."""
        script = (
            "from repro.core.eval import eval_obj\n"
            "from repro.core.parser import parse_obj\n"
            "from repro.schema.generator import tiny_database\n"
            "eval_obj(parse_obj('iterate(Kp(T), iterate(Kp(T), age)"
            " o cars) ! P'), tiny_database())\n")
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        messages = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONPATH=str(src),
                       PYTHONHASHSEED=seed)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True,
                                 timeout=120)
            assert run.returncode != 0
            messages.add(run.stderr.strip().splitlines()[-1])
        assert len(messages) == 1, messages
        assert "not applicable to Vehicle#" in messages.pop()


class TestCoercions:
    def test_as_pair(self):
        assert as_pair(KPair(1, 2)).fst == 1
        with pytest.raises(EvalError, match="expected a pair in pi1"):
            as_pair(3, "pi1")

    def test_as_set(self):
        assert as_set(frozenset({1})) == {1}
        with pytest.raises(EvalError, match="expected a set"):
            as_set([1])

    def test_as_bool(self):
        assert as_bool(True) is True
        with pytest.raises(EvalError, match="expected a boolean"):
            as_bool(1)


class TestFreeze:
    def test_list_becomes_frozenset(self):
        assert freeze([1, 2, 2]) == frozenset({1, 2})

    def test_tuple_becomes_pair(self):
        assert freeze((1, 2)) == KPair(1, 2)

    def test_nested(self):
        value = freeze([(1, [2, 3])])
        assert value == frozenset({KPair(1, frozenset({2, 3}))})

    def test_bad_tuple_length(self):
        with pytest.raises(EvalError):
            freeze((1, 2, 3))

    def test_scalars_pass_through(self):
        assert freeze(7) == 7


class TestValueRepr:
    def test_deterministic_set_order(self):
        value = kset([3, 1, 2])
        assert value_repr(value) == "{1, 2, 3}"

    def test_truncation(self):
        value = kset(range(20))
        text = value_repr(value, limit=3)
        assert text.endswith(", ...}")

    def test_pair(self):
        assert value_repr(KPair(1, kset([2]))) == "[1, {2}]"

    def test_empty_set_constant(self):
        assert EMPTY_SET == frozenset()
