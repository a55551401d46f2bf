"""Metric names, units, directions and bounds.

``BENCHMARK.json`` at the repository root is the one list of what the
benchmark reports on every workload; this module reads it.  Two more
end-to-end metrics are printed and compared here but cannot be listed
there, because that file's metrics must exist, non-zero, on every
workload: ``sim_max_rate_in_slo`` exists on ``mux_point`` only and
``failed_op_share`` is 0 when nothing fails.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: End-to-end metrics outside BENCHMARK.json.  ``bound`` is a share of
#: the parent's median, as in that file; ``bound_abs`` an absolute rise.
LOCAL_END_TO_END: Dict[str, Dict[str, Any]] = {
    # One step down the rate ladder: its widest step, r80 -> r60, is 25 %.
    "sim_max_rate_in_slo": {"unit": "1/s", "better": "higher", "bound": 0.26},
    "failed_op_share": {
        "unit": "share", "better": "lower", "bound_abs": 0.002,
    },
}
#: Reported with the untraced run (it needs several reps), so not among
#: the per-layer metrics a single traced run can print.
LOCAL_PER_LAYER: Dict[str, Dict[str, Any]] = {
    "bench.rep_spread_pct": {"unit": "%", "better": "lower"},
}


def load() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def end_to_end(benchmark: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric by name, BENCHMARK.json's first."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    metrics.update(LOCAL_END_TO_END)
    return metrics


def per_layer(benchmark: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    metrics = {m["name"]: m for m in benchmark["per_layer"]}
    metrics.update(LOCAL_PER_LAYER)
    return metrics


def bound_text(metric: Dict[str, Any]) -> str:
    if "bound" in metric:
        return "%g%%" % (100.0 * metric["bound"])
    return "+%g abs" % metric["bound_abs"]
