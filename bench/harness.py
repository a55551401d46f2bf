"""Run one workload: reps on fresh same-seed deployments, then metrics.

Every number names its clock.  ``sim_*`` and every layer *count* are
virtual-time statistics that repeat exactly for a fixed seed, so the reps
of one run double as the determinism check: any difference between them
fails the run.  ``host_*`` and ``setup_s`` are wall time of this Python
process.  ``setup_s`` is the median over reps.  ``host_ops_per_s`` is the
*fastest* rep: on the shared 2-core sandbox interference from other
tenants only ever slows a rep down (30 reps of one window ran at 298-617
tx/s on tpcc_log and 20.9k-36.8k stmt/s on mux_point), so across ten runs
the median of three reps wanders by 8-15 % and the best of three by 6-7 %.
``bench.rep_spread_pct`` says how disturbed a run was.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from . import layers, trace
from .stats import percentile, spread, tail_percentile

__all__ = ["run_workload"]

#: Timed windows are fixed work, calibrated to about this much wall time on
#: the reference sandbox; ``--seconds`` is turned into a rep count with it,
#: so that every run of a workload takes the best of equally many reps.
NOMINAL_WINDOW_S = 3.0
MIN_REPS_FOR_SECONDS = 3


def digest_of(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def calibration_mops() -> float:
    """Millions of iterations per second of a fixed pure-Python loop.

    Lets host numbers from different machines be compared as ratios.
    """
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(400000):
            total += i & 7
        best = max(best, 0.4 / (time.perf_counter() - start))
    return best


def _run_rep(workload, seed: int, quick: bool, traced: bool) -> Dict[str, Any]:
    """One repetition: build, load, warm up, time the window, check."""
    gc.collect()
    setup_start = time.perf_counter()
    spec = workload.build_spec(seed, quick)
    if traced:
        spec = spec.with_tracing()
    dep = spec.build()
    dep.start()
    state = workload.setup(dep, quick)
    setup_s = time.perf_counter() - setup_start

    gc.collect()
    if traced:
        dep.tracer.clear()
    window = layers.WindowProbe(dep)
    profiler = trace.start_profile() if traced else None
    wall_start = time.perf_counter()
    outcome = workload.window(dep, state, quick)
    wall_s = time.perf_counter() - wall_start
    if profiler is not None:
        profiler.disable()
    counts = window.close(outcome)
    errors = workload.check(dep, state, outcome)

    sim: Dict[str, Any] = {
        "sim_ops_per_s": (
            outcome.sim_ops_per_s if outcome.sim_ops_per_s is not None
            else outcome.ops / outcome.virtual_s
        ),
        "sim_lat_p50_ms": percentile(outcome.latencies, 50) * 1e3,
        "failed_op_share": outcome.failed / outcome.attempted,
    }
    tail = tail_percentile(len(outcome.latencies), outcome.tail_cap)
    if tail is not None:
        sim["sim_lat_tail_ms"] = percentile(outcome.latencies, tail) * 1e3
    if "max_rate_in_slo" in outcome.extra:
        sim["sim_max_rate_in_slo"] = outcome.extra["max_rate_in_slo"]
    rep = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "errors": errors,
        "ops": outcome.ops,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "samples": len(outcome.latencies),
        "tail_pct": tail,
        "virtual_s": outcome.virtual_s,
        "sim": sim,
        "counts": counts,
        "digest": digest_of(
            {"outputs": outcome.digest, "sim": sim, "counts": counts}
        ),
    }
    if traced:
        rep["times"] = trace.layer_times(profiler, dep.tracer.spans)
        rep["chrome_trace"] = dep.tracer.export_chrome()
    return rep


def run_workload(
    workload,
    seed: int,
    quick: bool = False,
    traced: bool = False,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """All reps of one (workload, seed); returns the run's result dict.

    Untraced: ``reps`` repetitions, or with ``seconds`` that many nominal
    3 s windows (at least three).
    Traced: one untraced rep for the wall-clock base and the digest, then
    one rep with ``spec.with_tracing()`` and cProfile around the window.
    """
    done: List[Dict[str, Any]] = []
    if traced:
        done.append(_run_rep(workload, seed, quick, traced=False))
    else:
        if seconds is not None:
            reps = max(MIN_REPS_FOR_SECONDS,
                       round(seconds / NOMINAL_WINDOW_S))
        for _ in range(reps or 1):
            done.append(_run_rep(workload, seed, quick, traced=False))
    first = done[0]
    errors = list(first["errors"])
    for index, rep in enumerate(done[1:], start=2):
        if rep["digest"] != first["digest"]:
            errors.append(
                "rep %d differs from rep 1 on the same seed: %s"
                % (index, _first_difference(first, rep))
            )
    rates = [rep["ops"] / rep["wall_s"] for rep in done]
    end_to_end = dict(first["sim"])
    end_to_end.update({
        "host_ops_per_s": max(rates),
        "setup_s": import_s + statistics.median(
            rep["setup_s"] for rep in done),
    })
    per_layer = dict(first["counts"])
    per_layer["bench.rep_spread_pct"] = 100.0 * spread(rates)
    result = {
        "workload": workload.NAME,
        "op": workload.OP,
        "loop": workload.LOOP,
        "seed": seed,
        "quick": quick,
        "traced": traced,
        "reps": len(done),
        "ops": first["ops"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "samples": first["samples"],
        "tail_pct": first["tail_pct"],
        "virtual_s": first["virtual_s"],
        "digest": first["digest"],
        "window_wall_s": [rep["wall_s"] for rep in done],
        "rep_setup_s": [rep["setup_s"] for rep in done],
        "import_s": import_s,
    }
    if traced:
        traced_rep = _run_rep(workload, seed, quick, traced=True)
        errors.extend(traced_rep["errors"])
        if traced_rep["digest"] != first["digest"]:
            errors.append(
                "the traced rep differs from the untraced one: %s"
                % _first_difference(first, traced_rep)
            )
        per_layer.update(trace.per_op(
            traced_rep["times"], first["ops"], first["wall_s"],
            first["counts"].get("sim.events_per_op", 0.0),
        ))
        per_layer["bench.trace_overhead_x"] = (
            traced_rep["wall_s"] / first["wall_s"])
        result["traced_wall_s"] = traced_rep["wall_s"]
        result["chrome_trace"] = traced_rep["chrome_trace"]
    per_layer["bench.calibration_mops"] = calibration_mops()
    end_to_end["host_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result.update({
        "correct": not errors,
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
    return result


def _first_difference(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    for block in ("sim", "counts"):
        for name in sorted(set(a[block]) | set(b[block])):
            if a[block].get(name) != b[block].get(name):
                return "%s %r vs %r" % (
                    name, a[block].get(name), b[block].get(name))
    return "outputs digest"
