"""What every benchmark workload shares: the outcome record and drivers.

A workload module defines ``NAME``, ``OP``, ``LOOP`` and four functions the
harness calls in order, each rep on a fresh deployment (why each workload
was chosen is recorded in ``BENCHMARK.json`` and ``bench/README.md``)::

    build_spec(seed, quick)       -> DeploymentSpec
    setup(dep, quick)             -> state   (load + virtual warm-up)
    window(dep, state, quick)     -> Outcome (the timed region)
    check(dep, state, outcome)    -> [error strings] (untimed)

The seed reaches the system only through ``DeploymentSpec(seed=...)``
and the inputs drawn from ``dep.seeds`` streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.core import AllOf


@dataclass
class Outcome:
    """What one timed window did, in virtual time."""

    ops: int                 #: completed operations
    attempted: int           #: operations issued
    failed: int              #: aborted + shed + timed out + wrong answer
    virtual_s: float         #: length of the window on the virtual clock
    latencies: List[float]   #: virtual seconds, one per completed op
    #: JSON-able summary of the outputs; equal across same-seed reps.
    digest: Any = None
    #: Workload-specific sim metrics (flat ``{name: number}``).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Set by open-loop workloads, where ops / virtual_s restates the offer.
    sim_ops_per_s: Optional[float] = None
    #: Highest percentile ``sim_lat_tail_ms`` may use for these samples.
    tail_cap: int = 99


def run(dep, gen, name: str = "bench-step"):
    """Run one generator to completion on the deployment's clock."""
    proc = dep.env.process(gen, name=name)
    dep.run_until(proc)
    return proc.value


def drive(dep, gens, name: str = "bench-client") -> float:
    """Run generators concurrently to completion; returns virtual seconds."""
    start = dep.env.now
    procs = [
        dep.env.process(gen, name="%s-%d" % (name, index))
        for index, gen in enumerate(gens)
    ]
    dep.run_until(AllOf(dep.env, procs))
    return dep.env.now - start
