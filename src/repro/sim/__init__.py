"""Discrete-event simulation substrate for the veDB/AStore reproduction.

Public surface:

- :mod:`repro.sim.core` - event loop, processes, composite events
- :mod:`repro.sim.resources` - contended resources on one waiter queue (CPU pools, slots, message queues)
- :mod:`repro.sim.devices` - PMem / SSD / DRAM device models
- :mod:`repro.sim.network` - kernel RPC path vs one-sided RDMA fabric
- :mod:`repro.sim.rand` - deterministic named random streams
- :mod:`repro.sim.metrics` - latency/throughput measurement
"""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .devices import DramDevice, PMemDevice, SsdDevice, StorageDevice
from .metrics import Counter, LatencyRecorder, ThroughputMeter, geomean, summarize
from .network import RdmaFabric, RdmaVerb, RpcNetwork
from .rand import Rng, SeedSequence, ZipfGenerator, nurand
from .resources import CpuPool, Resource, Store, WaitQueue

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "StorageDevice",
    "PMemDevice",
    "SsdDevice",
    "DramDevice",
    "RpcNetwork",
    "RdmaFabric",
    "RdmaVerb",
    "Rng",
    "SeedSequence",
    "ZipfGenerator",
    "nurand",
    "Resource",
    "Store",
    "WaitQueue",
    "CpuPool",
    "LatencyRecorder",
    "ThroughputMeter",
    "Counter",
    "summarize",
    "geomean",
]
