"""LogStore: the baseline SSD/TCP REDO log service that AStore replaces.

Paper Sections III and V list its bottlenecks explicitly, and this model
reproduces each one:

1. *SSD + TCP write path is high latency*: every append is an RPC to each
   of three replica data servers, which persist to an NVMe blob before
   acknowledging.
2. *CPU is needed to schedule every I/O*: the client pays a submit/complete
   thread-scheduling cost per request, and contention on the submission
   path queues under load (``submit_threads``).
3. *Periodic latency spikes*: the data servers' SSDs run the spike process,
   and the RPC network has a scheduling-stall tail.

Calibration target: Table II reports 0.638 ms average latency for
single-threaded 4 KB appends (1,527 IOPS, 5.97 MB/s).
"""

from __future__ import annotations

from typing import List

from ..common import US
from ..sim.core import Environment, FanOut
from ..sim.devices import SsdDevice
from ..sim.network import RpcNetwork
from ..sim.rand import Rng, SeedSequence
from ..sim.resources import CpuPool, Resource
from .blob import BlobGroup

__all__ = ["LogStore", "LogStoreServer"]


class LogStoreServer:
    """One replica data server: RPC handling + BlobGroup persistence."""

    #: Server-side work to accept, journal, and fsync a log append before
    #: acknowledging (filesystem + blob-store bookkeeping); dominates the
    #: media write itself on this path.
    COMMIT_OVERHEAD = 170 * US

    def __init__(self, env: Environment, rng: Rng, server_id: str):
        self.env = env
        self.rng = rng
        self.server_id = server_id
        self.device = SsdDevice(env, rng, name="%s-ssd" % server_id)
        self.device.start_spike_process()
        self.cpu = CpuPool(env, cores=16)
        self.blob_group = BlobGroup(env, [self.device])
        self.alive = True

    def persist(self, nbytes: int):
        """Generator: durably append ``nbytes`` (striped over the group)."""
        if not self.alive:
            raise RuntimeError("logstore server %s down" % self.server_id)
        yield from self.cpu.consume(12 * US)  # request handling
        yield from self.blob_group.append(nbytes)
        yield self.env.timeout(self.rng.lognormal_around(self.COMMIT_OVERHEAD, 0.25))


class LogStore:
    """The replicated REDO log service (client-side view).

    ``append`` returns only when every replica acknowledged - the paper's
    LogStore persists and replicates "before acknowledging DBEngine".
    """

    #: Client-side thread scheduling: async submit + completion callback
    #: dispatch (paper: "latency from thread scheduling and contention").
    SUBMIT_OVERHEAD = 55 * US
    CALLBACK_OVERHEAD = 45 * US

    def __init__(
        self,
        env: Environment,
        seeds: SeedSequence,
        replicas: int = 3,
        submit_threads: int = 8,
    ):
        self.env = env
        self.rng = seeds.stream("logstore-client")
        self.network = RpcNetwork(env, seeds.stream("logstore-net"))
        self.servers: List[LogStoreServer] = [
            LogStoreServer(env, seeds.stream("logstore-%d" % index), "log-%d" % index)
            for index in range(replicas)
        ]
        # The submission path is a shared thread pool: under concurrency the
        # scheduling work itself queues, which is bottleneck (2) above.
        self._submit_slots = Resource(env, capacity=submit_threads)
        self.appends = 0
        self.bytes_appended = 0

    def _replica_write(self, server: LogStoreServer, nbytes: int):
        yield from self.network.send(nbytes)
        yield from server.persist(nbytes)
        yield from self.network.send(64)  # ack

    def append(self, nbytes: int):
        """Generator: replicate one log append; returns total latency."""
        start = self.env.now
        grant = self._submit_slots.acquire()
        try:
            if grant is not None:
                yield grant
            yield self.env.timeout(
                self.rng.lognormal_around(self.SUBMIT_OVERHEAD, 0.35)
            )
            yield FanOut(self.env, [
                self._replica_write(server, nbytes)
                for server in self.servers
                if server.alive
            ])
            yield self.env.timeout(
                self.rng.lognormal_around(self.CALLBACK_OVERHEAD, 0.35)
            )
        finally:
            self._submit_slots.release(grant)
        self.appends += 1
        self.bytes_appended += nbytes
        return self.env.now - start
