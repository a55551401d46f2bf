"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import statistics
from typing import List, Optional, Tuple

from repro.sim.metrics import LatencyRecorder

#: Percentiles the tail helper may pick, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def tail_percentile(samples: int, cap: int = 99) -> Optional[int]:
    """The highest percentile up to ``cap`` with ten samples beyond it."""
    for pct in TAIL_LADDER:
        if pct <= cap and samples * (100 - pct) >= MIN_SAMPLES_BEYOND * 100:
            return pct
    return None


def percentile(samples: List[float], pct: float) -> float:
    """Linear-interpolated percentile (the repo's one latency schema)."""
    recorder = LatencyRecorder()
    recorder.samples.extend(samples)
    return recorder.percentile(pct)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
