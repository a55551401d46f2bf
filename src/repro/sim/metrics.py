"""Measurement utilities: latency recorders, percentiles, throughput.

Everything the benchmark harness reports (P95/P99 latency, TPS/QPS,
bandwidth) is computed here from raw per-operation samples recorded in
virtual time.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Optional

__all__ = ["LatencyRecorder", "ThroughputMeter", "Counter", "summarize", "geomean"]


def _interpolate(ordered: List[float], pct: float) -> float:
    """Linear-interpolated percentile over an already-sorted sample list."""
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
    # a + f*(b-a) keeps interpolation monotone in f under floats.
    value = ordered[low] + frac * (ordered[high] - ordered[low])
    return min(max(value, ordered[low]), ordered[high])


class LatencyRecorder:
    """Collects latency samples (seconds) and reports summary statistics.

    ``samples`` is an ``array('d')``: 8 bytes a sample, no boxed float.
    Nothing sorted is kept; each :meth:`percentile` and :meth:`summary`
    sorts a throwaway copy (``summary`` once for all its statistics).
    ``mean`` sums the samples in insertion order: summing the sorted copy
    would change the rounding of published reports.  Readers may append
    to, extend, slice and ``del samples[:]`` the array directly.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples = array("d")

    def record(self, latency: float) -> None:
        if not latency >= 0:
            raise ValueError("negative or NaN latency sample: %r" % latency)
        self.samples.append(latency)

    def __len__(self) -> int:
        return len(self.samples)

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
        return max(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, pct in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile out of range: %r" % pct)
        return _interpolate(sorted(self.samples), pct)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        """All summary statistics from one sort."""
        ordered = sorted(self.samples)
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


class ThroughputMeter:
    """Counts completed operations over a virtual-time window."""

    def __init__(self, name: str = ""):
        self.name = name
        self.completed = 0
        self.bytes_moved = 0
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    def start(self, now: float) -> None:
        self.start_time = now

    def record(self, now: float, nbytes: int = 0) -> None:
        if self.start_time is None:
            self.start_time = now
        self.completed += 1
        self.bytes_moved += nbytes
        self.end_time = now

    @property
    def elapsed(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def rate(self) -> float:
        """Operations per second of virtual time.

        An empty window (no samples recorded) or a zero/negative-length
        window (all samples at one instant, or a start() after the last
        record) yields 0.0 - never a ZeroDivisionError or ``inf``.
        """
        if self.completed == 0 or self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed

    def bandwidth_mb_s(self) -> float:
        if self.bytes_moved == 0 or self.elapsed <= 0:
            return 0.0
        return self.bytes_moved / self.elapsed / (1024.0 * 1024.0)


class Counter:
    """A named bag of monotonically increasing counters."""

    def __init__(self):
        self._values: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)


def summarize(samples: Iterable[float]) -> Dict[str, float]:
    """One-shot summary of a latency sample iterable.

    Canonical entry point: the summary is produced by a
    :class:`repro.obs.MetricsRegistry` snapshot, so this function, the
    tracer-adjacent bench exports, and ``harness.stats`` reports all share
    exactly one latency schema (count/mean/p50/p95/p99/max).
    """
    from ..obs.registry import MetricsRegistry  # local: obs builds on us

    registry = MetricsRegistry()
    recorder = registry.latency("samples")
    for sample in samples:
        recorder.record(sample)
    return registry.snapshot()["samples"]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports push-down speedups this way."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
