"""Tests of the benchmark's own helpers (host-speed calibration,
percentiles, self time, result fingerprints).  They import nothing from
the program under test::

    python3 -m pytest perfbench/test_measure.py
"""

from __future__ import annotations

import gc
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from digest import encode, fingerprint, plan_digest  # noqa: E402
from measure import (PROBE_INTERVAL_S, REFERENCE_PROBE_MS,  # noqa: E402
                     TAIL_BEYOND, SpeedMarks, Tracer, at_reference_speed,
                     calibrate, median_or_zero, per_request_median,
                     speed_probe, summarize, tail_or_zero)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_tail_has_exactly_ten_samples_beyond_it():
    values = list(range(1, 101))           # 1..100, shuffled below
    values = values[::2] + values[1::2]
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert summary["tail"] == 90           # 91..100 lie beyond it
    assert summary["tail_pct"] == 90.0
    assert sum(1 for value in values if value > summary["tail"]) \
        == TAIL_BEYOND


def test_tail_never_below_median_at_the_smallest_sample():
    values = [5.0] * 10 + [1.0] * 11       # n = 21
    summary = summarize(values)
    assert summary["tail"] >= summary["p50"]
    assert summary["tail_pct"] == pytest.approx(100 * 11 / 21, abs=0.01)


def test_too_few_samples_for_a_tail_is_an_error():
    with pytest.raises(ValueError):
        summarize(list(range(20)))
    assert tail_or_zero(list(range(20))) == 0.0
    assert median_or_zero([]) == 0.0


def test_calibrate_scales_each_request_by_the_probes_around_it():
    ref = REFERENCE_PROBE_MS
    # Requests 0-1 lie between probes at the reference speed, request 2
    # between a reference probe and one twice as slow (mean 1.5x), and
    # request 3 after that slow probe and before the final one.
    marks = [(0, ref), (2, ref), (3, 2 * ref), (4, 2 * ref)]
    out = calibrate([0.001, 0.002, 0.003, 0.004], marks)
    assert out == pytest.approx([1.0, 2.0, 2.0, 2.0])


def test_speed_marks_probe_after_each_interval_and_after_the_last():
    clock = FakeClock()

    def probe():
        clock.now += 0.005
        return 4.0

    probes = SpeedMarks(probe=probe, clock=clock)
    # Requests 0-2 are short (the third ends past the interval),
    # request 3 is long, request 4 short.
    short, long = 0.4 * PROBE_INTERVAL_S, 6 * PROBE_INTERVAL_S
    for index, seconds in enumerate((short, short, short, long, short)):
        probes.before(index)
        clock.now += seconds
    probes.after(5)
    assert probes.marks == [(0, 4.0), (3, 4.0), (4, 4.0), (5, 4.0)]
    assert probes.spent == pytest.approx(0.02)
    assert len(calibrate([0.001] * 5, probes.marks)) == 5


def test_calibrate_needs_probes_at_both_ends():
    with pytest.raises(ValueError):
        calibrate([0.001, 0.002], [(0, 1.0), (1, 1.0)])
    with pytest.raises(ValueError):
        calibrate([0.001], [(1, 1.0)])
    assert calibrate([], [(0, 1.0)]) == []


def test_at_reference_speed_uses_the_mean_probe():
    ref = REFERENCE_PROBE_MS
    assert at_reference_speed(3.0, (ref, 2 * ref)) == pytest.approx(2.0)


def test_per_request_median_is_taken_request_by_request():
    rounds = [[1.0, 9.0, 5.0], [2.0, 8.0, 50.0], [3.0, 7.0, 6.0]]
    assert per_request_median(rounds) == [2.0, 8.0, 6.0]


def test_speed_probe_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert speed_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_span_counted_once_under_its_own_layer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def normalize():
        clock.now += 3.0

    traced_normalize = tracer.wrap("rewrite.normalize", normalize)

    def untangle():
        clock.now += 1.0
        traced_normalize()
        clock.now += 2.0
        traced_normalize()

    tracer.wrap("coko.untangle", untangle)()
    assert tracer.self_s["rewrite.normalize"] == 6.0
    assert tracer.self_s["coko.untangle"] == 3.0
    assert tracer.calls == {"rewrite.normalize": 2, "coko.untangle": 1}
    # Only the outermost span counts toward covered wall time.
    assert tracer.covered == 9.0


def test_recursive_span_self_time_is_not_double_counted():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    holder = {}

    def walk(depth):
        clock.now += 1.0
        if depth:
            holder["fn"](depth - 1)

    holder["fn"] = tracer.wrap("rewrite.normalize", walk)
    holder["fn"](3)
    assert tracer.self_s["rewrite.normalize"] == 4.0
    assert tracer.covered == 4.0


def test_span_closes_when_the_callable_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.now += 2.0
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap("exec.run", failing)()
    assert tracer.self_s["exec.run"] == 2.0
    assert tracer.covered == 2.0


def test_patch_and_restore_module_and_class_attributes():
    module = types.SimpleNamespace(parse=lambda text: text.upper())

    class Plan:
        def run(self):
            return 7

    tracer = Tracer()
    original = module.parse
    tracer.patch(module, "parse", "core.parse")
    tracer.patch(Plan, "run", "exec.run")
    assert module.parse("ab") == "AB"
    assert Plan().run() == 7
    assert tracer.calls == {"core.parse": 1, "exec.run": 1}
    tracer.restore()
    assert module.parse is original
    assert Plan.__dict__["run"].__name__ == "run"


def test_encoding_keeps_types_apart():
    assert encode(True) != encode(1)
    assert encode(frozenset({True})) != encode(frozenset({1}))
    assert encode(frozenset({"b", "a"})) == encode(frozenset({"a", "b"}))
    assert fingerprint(frozenset({3, 1, 2})) \
        == fingerprint(frozenset({2, 3, 1}))
    with pytest.raises(TypeError):
        encode(object())


def test_plan_digest_survives_a_json_round_trip():
    import json
    encoded = {"chosen": None, "untangled": (("setname", "P"), (0,)),
               "estimated_cost": 1401.0,
               "steps": [("r1", "before", "after", (0, 1))]}
    assert plan_digest(encoded) \
        == plan_digest(json.loads(json.dumps(encoded)))
    changed = dict(encoded, estimated_cost=1400.0)
    assert plan_digest(changed) != plan_digest(encoded)
