"""Timing helpers shared by every perfbench process.

Three things live here, all free of any import from the program under
test so they can be unit-tested on their own (``test_measure.py``):

* host-speed calibration — :func:`speed_probe` times a fixed
  pure-Python loop between requests, and :func:`calibrate` scales each
  request's latency to the host speed at which that loop takes
  :data:`REFERENCE_PROBE_MS`;
* percentile summaries — the median plus the *tail*, which is the
  highest percentile that still has at least :data:`TAIL_BEYOND`
  samples above it, reported together with that percentile and the
  sample count;
* :class:`Tracer` — span wrappers installed from outside the program
  around the public callables each layer exposes.  A span's *self
  time* is its duration minus the time covered by the spans it
  directly encloses, so a ``normalize`` span nested inside an
  ``untangle`` span is counted once, under ``rewrite.normalize``.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10

#: :func:`speed_probe` on the 2-vCPU virtual machine the benchmark was
#: tuned on, in one of its fast stretches.  Timings are reported at
#: this host speed.
REFERENCE_PROBE_MS = 0.85

#: Longest stretch of timed requests between two host-speed probes; a
#: probe takes about 5 ms.
PROBE_INTERVAL_S = 0.05


def _mixed_loop() -> None:
    memo: dict = {}
    total = 0
    for index in range(3_000):
        key = (index % 97, index % 13, "k")
        node = memo.get(key)
        if node is None:
            node = memo[key] = [key, index, {"a": index}]
        total += len(node[2]) + node[0][1]


def _integer_loop() -> None:
    total = 0
    for value in range(12_000):
        total += value * value % 7


def speed_probe() -> float:
    """How fast this CPU runs Python right now, in ms: the geometric
    mean of the best of three timings of two fixed loops, one of dict,
    tuple and list work and one of integer arithmetic.  On the host
    this was tuned on, slow stretches slowed the first loop more than
    the program and the second less, and their geometric mean tracked
    the program most closely of the loops tried.  The loops are the
    benchmark's, not the program's, so only the host changes their
    time.  The collector is
    held off while they run and every object they make is freed, so
    they move no garbage collection of the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        product = 1.0
        for loop in (_mixed_loop, _integer_loop):
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                loop()
                best = min(best, time.perf_counter() - started)
            product *= 1000 * best
    finally:
        if enabled:
            gc.enable()
    return product ** 0.5


class SpeedMarks:
    """Host-speed probes in a timed request loop, as the ``marks``
    :func:`calibrate` takes: one before the first request, one before
    any request that starts :data:`PROBE_INTERVAL_S` or more after the
    last probe ended, and one after the last request.  So a long
    request lies between two probes taken just before and just after
    it.  ``spent`` is the time the probes took.

    How many probes a round takes depends on the host's speed, so
    taking one must leave no object the collector tracks: the marks are
    kept as plain numbers and paired up only when read.  Otherwise the
    program's full collections would fall on different requests in
    different rounds of the same stream."""

    def __init__(self, probe=speed_probe, clock=time.perf_counter) -> None:
        self.probe = probe
        self.clock = clock
        self.spent = 0.0
        self._indices: list[int] = []
        self._values: list[float] = []
        self._last: float | None = None

    @property
    def marks(self) -> list[tuple[int, float]]:
        return list(zip(self._indices, self._values))

    def before(self, index: int) -> None:
        if self._last is None \
                or self.clock() - self._last >= PROBE_INTERVAL_S:
            self._take(index)

    def after(self, count: int) -> None:
        self._take(count)

    def _take(self, index: int) -> None:
        started = self.clock()
        self._values.append(self.probe())
        self._indices.append(index)
        self._last = self.clock()
        self.spent += self._last - started


def calibrate(latencies_s, marks) -> list[float]:
    """Latencies in ms at the reference host speed.

    ``marks`` are ``(index, probe_ms)`` pairs in request order: a probe
    timed just before request ``index`` (``index == len(latencies_s)``:
    after the last one).  The first mark is at 0 and the last at the
    end, so every request lies between two probes; it is scaled by
    :data:`REFERENCE_PROBE_MS` over their mean.
    """
    if not marks or marks[0][0] != 0 or marks[-1][0] != len(latencies_s):
        raise ValueError("probe marks must start at request 0 and end "
                         "after the last request")
    out = []
    for (first, before), (last, after) in zip(marks, marks[1:]):
        scale = 1000 * REFERENCE_PROBE_MS / ((before + after) / 2)
        out.extend(value * scale for value in latencies_s[first:last])
    return out


def at_reference_speed(seconds: float, probes) -> float:
    """A time measured between ``probes`` scaled like :func:`calibrate`."""
    return seconds * REFERENCE_PROBE_MS / statistics.mean(probes)


def per_request_median(rounds) -> list[float]:
    """Per-request median over rounds of the same request stream."""
    return [statistics.median(values) for values in zip(*rounds)]


def summarize(values) -> dict:
    """Median and tail of ``values`` with the sample count.

    The tail is the sorted value with exactly :data:`TAIL_BEYOND`
    samples after it, labelled with its percentile ``100*(n-10)/n``.
    It needs at least ``2*TAIL_BEYOND + 1`` samples, so that it can
    never sit below the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 2 * TAIL_BEYOND + 1:
        raise ValueError(f"a tail needs at least {2 * TAIL_BEYOND + 1} "
                         f"samples, got {count}")
    median = statistics.median(ordered)
    tail = ordered[count - TAIL_BEYOND - 1]
    if tail < median:
        raise AssertionError(f"tail {tail} below median {median}")
    return {"p50": median, "tail": tail,
            "tail_pct": round(100.0 * (count - TAIL_BEYOND) / count, 2),
            "n": count}


def median_or_zero(values) -> float:
    """The median, or 0.0 for an empty sample (a layer that never ran)."""
    return statistics.median(values) if values else 0.0


def tail_or_zero(values) -> float:
    """The tail of :func:`summarize`, or 0.0 when the sample is too
    small to have one (a layer that never ran)."""
    if len(values) < 2 * TAIL_BEYOND + 1:
        return 0.0
    return summarize(values)["tail"]


class Tracer:
    """Self-time accounting for wrapped callables.

    :meth:`patch` replaces ``owner.name`` with a wrapper that records a
    span under ``layer``; :meth:`restore` puts every original back.
    ``covered`` accumulates the duration of outermost spans only, so
    ``1 - covered / wall`` is the share of wall time no layer claimed.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.covered = 0.0
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        """``fn`` wrapped in a span recorded under ``layer``."""
        clock = self.clock
        children = self._children

        def traced(*args, **kwargs):
            started = clock()
            children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                self.self_s[layer] += duration - children.pop()
                self.calls[layer] += 1
                if children:
                    children[-1] += duration
                else:
                    self.covered += duration

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, name: str, layer: str) -> None:
        """Wrap the attribute ``name`` of a module or class in place."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
