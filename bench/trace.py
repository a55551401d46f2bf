"""Time-type layer metrics from one traced rep.

Host time: ``cProfile`` around the timed window, self time (``tottime``)
bucketed by the ``src/repro`` package of each function's file.  Builtins
and stdlib functions have no package of their own, so their time is
charged to the packages that called them, in proportion to the time the
caller table attributes to each caller.  cProfile costs about 2.9x wall
on this code (a Python-level ``sys.setprofile`` callback about 6.2x, with
the same split), so shares are taken from the profile and scaled to the
*untraced* wall time of the same window.

Virtual time: the deployment's own Tracer spans, summed by layer.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Iterable, Tuple

__all__ = ["LAYERS", "start_profile", "layer_times", "bucket_profile",
           "per_op"]

#: The ``src/repro`` packages reported as layers.
LAYERS = ("sim", "frontend", "query", "engine", "astore", "storage",
          "views", "obs", "workloads")
#: Benchmark driver code, and repro modules outside the nine layers
#: (``harness``, ``shard``, ``common``) plus anything left unresolved.
BENCH, OTHER = "bench", "other"
#: Layers that open Tracer spans, by the span name's first component.
SPAN_LAYER = {
    "device": "sim", "net": "sim", "rdma": "sim",
    "astore": "astore",
    "engine": "engine", "ebp": "engine",
    "pq": "query",
}
SPAN_LAYERS = ("sim", "astore", "engine", "query")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + "repro" + os.sep


def package_of(filename: str) -> str:
    """The layer a source file belongs to ("" for builtins and stdlib)."""
    if filename.startswith(_BENCH_DIR):
        return BENCH
    cut = filename.rfind(_REPRO_MARK)
    if cut < 0:
        return ""
    rest = filename[cut + len(_REPRO_MARK):]
    package = rest.split(os.sep, 1)[0]
    return package if package in LAYERS else OTHER


def start_profile() -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def bucket_profile(stats: Dict[Tuple, Tuple], package=package_of):
    """Bucket a ``pstats`` table by package.

    Returns ``(self_s, calls_in, total_s)``: self seconds per package
    (summing to ``total_s``, the profiled total) and, per package, the
    number of calls that entered it from another package.
    """
    own = {func: package(func[0]) for func in stats}
    # share[func]: how a function's self time splits over packages.
    share: Dict[Tuple, Dict[str, float]] = {
        func: {pkg: 1.0} for func, pkg in own.items() if pkg
    }

    def resolve(func, wait_for_callers: bool):
        weights: Dict[str, float] = {}
        total = 0.0
        for caller, (_nc, _cc, tt, _ct) in stats[func][4].items():
            split = share.get(caller)
            if split is None:
                if wait_for_callers and caller in own:
                    return None
                continue
            total += tt
            for pkg, part in split.items():
                weights[pkg] = weights.get(pkg, 0.0) + tt * part
        if total <= 0.0:
            return {OTHER: 1.0}
        return {pkg: weight / total for pkg, weight in weights.items()}

    # A chain of package-less callers (stdlib calling builtins) resolves
    # one level per pass; the last pass settles call cycles among them
    # from whichever of their callers did resolve.
    unresolved = [func for func, pkg in own.items() if not pkg]
    for last in (False,) * 8 + (True,):
        waiting = []
        for func in unresolved:
            split = resolve(func, wait_for_callers=not last)
            if split is None:
                waiting.append(func)
            else:
                share[func] = split
        unresolved = waiting

    self_s: Dict[str, float] = {}
    calls_in: Dict[str, float] = {}
    total_s = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total_s += tt
        for pkg, part in share[func].items():
            self_s[pkg] = self_s.get(pkg, 0.0) + tt * part
        pkg = own[func]
        if not pkg:
            continue
        # A generator resumed by the kernel is entered through the builtin
        # ``send``; such a caller counts as the packages that called it.
        for caller, (nc, _cc2, _tt2, _ct2) in callers.items():
            outside = sum(
                part for caller_pkg, part in share.get(caller, {}).items()
                if caller_pkg != pkg
            )
            if outside:
                calls_in[pkg] = calls_in.get(pkg, 0.0) + nc * outside
    return self_s, calls_in, total_s


def span_seconds(spans: Iterable) -> Dict[str, float]:
    """Virtual seconds inside Tracer spans, summed by layer."""
    out = {layer: 0.0 for layer in SPAN_LAYERS}
    for span in spans:
        layer = SPAN_LAYER.get(span.name.split(".", 1)[0])
        if layer is not None:
            out[layer] += span.duration
    return out


def layer_times(profiler: cProfile.Profile, spans: Iterable):
    """Everything the traced rep measured, still in totals."""
    self_s, calls_in, total_s = bucket_profile(pstats.Stats(profiler).stats)
    return {
        "self_s": self_s,
        "calls_in": calls_in,
        "profiled_s": total_s,
        "span_s": span_seconds(spans),
    }


def per_op(times, ops: int, untraced_wall_s: float,
           events_per_op: float) -> Dict[str, float]:
    """The traced rep's totals as per-operation layer metrics."""
    metrics: Dict[str, float] = {}
    profiled = times["profiled_s"] or 1.0
    for layer in LAYERS + (BENCH, OTHER):
        share = times["self_s"].get(layer, 0.0) / profiled
        metrics["%s.host_self_us_per_op" % layer] = (
            share * untraced_wall_s * 1e6 / ops
        )
        metrics["%s.calls_in_per_op" % layer] = (
            times["calls_in"].get(layer, 0) / ops
        )
    for layer in SPAN_LAYERS:
        metrics["%s.sim_span_us_per_op" % layer] = (
            times["span_s"][layer] * 1e6 / ops
        )
    metrics["sim.host_us_per_event"] = (
        metrics["sim.host_self_us_per_op"] / events_per_op
        if events_per_op else 0.0
    )
    return metrics
