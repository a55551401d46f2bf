"""LatencyRecorder keeps raw doubles and no sorted view.

The reference below is the recorder (and its percentile interpolation)
as it was before samples became an ``array('d')``: a list of floats plus
a sorted copy cached until the next ``record()``.  Every statistic the array-backed recorder publishes must be
bit-identical to it.
"""

import math
import struct
import tracemalloc
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.sim.metrics import LatencyRecorder


def _interpolate(ordered: List[float], pct: float) -> float:
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    if ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    value = ordered[low] + frac * (ordered[high] - ordered[low])
    return min(max(value, ordered[low]), ordered[high])


class ListRecorder:
    """The list-plus-cache recorder, kept as the reference implementation."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("negative latency sample")
        self.samples.append(latency)
        self._sorted = None

    def _ordered(self) -> List[float]:
        ordered = self._sorted
        if ordered is None or len(ordered) != len(self.samples):
            ordered = self._sorted = sorted(self.samples)
        return ordered

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def maximum(self) -> float:
        ordered = self._ordered()
        return ordered[-1] if ordered else 0.0

    @property
    def minimum(self) -> float:
        ordered = self._ordered()
        return ordered[0] if ordered else 0.0

    def percentile(self, pct: float) -> float:
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile out of range: %r" % pct)
        return _interpolate(self._ordered(), pct)

    def summary(self):
        ordered = self._ordered()
        if not ordered:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": float(len(ordered)),
            "mean": self.mean,
            "p50": _interpolate(ordered, 50),
            "p95": _interpolate(ordered, 95),
            "p99": _interpolate(ordered, 99),
            "max": ordered[-1],
        }


def bits(value):
    """A float's exact bit pattern (dicts compared key by key)."""
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    assert isinstance(value, float), value
    return struct.pack("<d", value)


# Non-negative finite doubles; -0.0 is left out because max() keeps the
# first of two equal samples and the sorted tail the last.
latencies = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
steps = st.one_of(
    st.tuples(st.just("record"), latencies),
    st.tuples(st.just("append"), latencies),
    st.tuples(st.just("extend"), st.lists(latencies, max_size=8)),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("read"), st.floats(min_value=0.0, max_value=100.0)),
)


@settings(max_examples=300)
@given(st.lists(steps, max_size=40))
def test_array_recorder_matches_list_reference(program):
    registry = MetricsRegistry()
    rec = registry.latency("lat")
    ref = ListRecorder("lat")
    for op, arg in program:
        if op == "record":
            rec.record(arg)
            ref.record(arg)
        elif op == "append":
            rec.samples.append(arg)
            ref.samples.append(arg)
        elif op == "extend":
            rec.samples.extend(arg)
            ref.samples.extend(arg)
        elif op == "clear":
            del rec.samples[:]
            # The reference drops its cache too: a cleared list refilled
            # to its old length by direct appends would otherwise read the
            # stale sorted copy (see the test below).
            ref.samples.clear()
            ref._sorted = None
        else:
            assert bits(rec.percentile(arg)) == bits(ref.percentile(arg))
            assert bits(rec.summary()) == bits(ref.summary())
        assert rec.count == ref.count == len(rec) and bool(rec.samples) == bool(ref.samples)
        assert list(rec.samples) == ref.samples
        if rec.samples:
            assert bits(rec.samples[-1]) == bits(ref.samples[-1])
    assert bits(rec.mean) == bits(ref.mean)
    assert bits(rec.maximum) == bits(ref.maximum)
    assert bits(rec.minimum) == bits(ref.minimum)
    for pct in (0, 50, 95, 99, 100):
        assert bits(rec.percentile(pct)) == bits(ref.percentile(pct))
    assert bits(registry.snapshot()["lat"]) == bits(ref.summary())
    tail = len(rec.samples) // 2
    assert list(rec.samples[tail:]) == ref.samples[tail:]


def test_record_rejects_nan():
    rec = LatencyRecorder("x")
    rec.record(1.0)
    with pytest.raises(ValueError):
        rec.record(math.nan)
    with pytest.raises(ValueError):
        rec.record(-1e-9)
    assert list(rec.samples) == [1.0]
    assert rec.p50 == 1.0


def test_cleared_then_refilled_samples_are_read_fresh():
    rec = LatencyRecorder("x")
    for value in (1.0, 2.0, 3.0):
        rec.record(value)
    assert rec.maximum == 3.0
    del rec.samples[:]
    rec.samples.extend([7.0, 8.0, 9.0])  # same length as before the clear
    assert rec.maximum == 9.0
    assert rec.p50 == 8.0
    assert rec.summary()["max"] == 9.0


def test_int_zero_sample_is_stored_as_a_double():
    rec = LatencyRecorder("x")
    rec.record(0)  # env.now - start at time 0 is the int 0
    assert type(rec.samples[-1]) is float
    assert bits(rec.summary()) == bits(
        {"count": 1.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0})


def test_samples_cost_eight_bytes_each_after_summary():
    count = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = LatencyRecorder("x")
        for i in range(count):
            rec.record((i * 7919 % 100_003) * 1e-7)
        summary = rec.summary()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert summary["count"] == float(count)
    assert retained / count <= 10.0, "%.1f B per sample" % (retained / count)
