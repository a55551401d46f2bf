"""Storage device models: PMem, NVMe SSD, DRAM.

Each device is a queueing station: a fixed number of channels (internal
parallelism), a per-operation base latency, a bandwidth term, multiplicative
log-normal jitter, and - for PMem - a concurrency-degradation knee.

The paper (Section VII-A) observes that PMem read/write performance drops as
concurrent access rises, causing veDB+AStore throughput to peak at 64 clients
where the SSD deployment peaks at 128.  ``congestion_knee``/
``congestion_slope`` reproduce that: once more requests are in flight than
the knee, service time stretches linearly with the excess.

All latencies are seconds; sizes are bytes.
"""

from __future__ import annotations

from ..obs import obs_of
from .core import Environment
from .rand import Rng
from .resources import Resource

__all__ = ["StorageDevice", "PMemDevice", "SsdDevice", "DramDevice"]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024
US = 1e-6
MS = 1e-3


class StorageDevice:
    """A generic storage device with read/write queueing semantics."""

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        name: str,
        read_latency: float,
        write_latency: float,
        read_bandwidth: float,
        write_bandwidth: float,
        channels: int = 8,
        jitter_sigma: float = 0.10,
        congestion_knee: int = 0,
        congestion_slope: float = 0.0,
    ):
        self.env = env
        self.rng = rng
        self.name = name
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.jitter_sigma = jitter_sigma
        self.congestion_knee = congestion_knee
        self.congestion_slope = congestion_slope
        self._channels = Resource(env, capacity=channels)
        self.reads = 0
        self.writes = 0
        self.obs = obs_of(env)
        # Pre-computed metric/span names keep the per-I/O cost to dict ops.
        self._qw_key = "sim.device.%s.queue_wait_s" % name
        self._read_span = "device.%s.read" % name
        self._write_span = "device.%s.write" % name
        self.obs.registry.add(self._qw_key, 0.0)

    # -- service-time model -------------------------------------------------
    def _congestion_factor(self) -> float:
        if self.congestion_knee <= 0:
            return 1.0
        in_flight = self._channels.count + self._channels.queue_length
        excess = in_flight - self.congestion_knee
        if excess <= 0:
            return 1.0
        return 1.0 + self.congestion_slope * (excess / float(self.congestion_knee))

    def _service_time(self, base: float, nbytes: int, bandwidth: float) -> float:
        transfer = nbytes / bandwidth if bandwidth > 0 else 0.0
        nominal = base + transfer
        jittered = (
            self.rng.lognormal_around(nominal, self.jitter_sigma)
            if self.jitter_sigma > 0
            else nominal
        )
        return jittered * self._congestion_factor()

    # -- operations ----------------------------------------------------------
    def read(self, nbytes: int):
        """Generator: perform a read of ``nbytes``; returns the latency."""
        service = self._service_time(self.read_latency, nbytes, self.read_bandwidth)
        tracer = self.obs.tracer
        span = (
            tracer.span(self._read_span, tags={"bytes": nbytes})
            if tracer.enabled
            else None
        )
        start = self.env.now
        # A free channel is taken on the spot: only a queued access waits
        # for (and pays the event of) a grant.
        grant = self._channels.acquire()
        try:
            if grant is not None:
                yield grant
                wait = self.env.now - start
                if wait > 0:
                    self.obs.registry.add(self._qw_key, wait)
            yield self.env.timeout(service)
        finally:
            self._channels.release(grant)
            if span is not None:
                span.finish()
        self.reads += 1
        return self.env.now - start

    def write(self, nbytes: int):
        """Generator: perform a durable write of ``nbytes``; returns latency."""
        service = self._service_time(self.write_latency, nbytes, self.write_bandwidth)
        tracer = self.obs.tracer
        span = (
            tracer.span(self._write_span, tags={"bytes": nbytes})
            if tracer.enabled
            else None
        )
        start = self.env.now
        # A free channel is taken on the spot: only a queued access waits
        # for (and pays the event of) a grant.
        grant = self._channels.acquire()
        try:
            if grant is not None:
                yield grant
                wait = self.env.now - start
                if wait > 0:
                    self.obs.registry.add(self._qw_key, wait)
            yield self.env.timeout(service)
        finally:
            self._channels.release(grant)
            if span is not None:
                span.finish()
        self.writes += 1
        return self.env.now - start


class PMemDevice(StorageDevice):
    """Intel Optane PMem (AppDirect, ADR domain).

    Media latencies follow published Optane characterisation (~170 ns read,
    ~100 ns ADR-domain write at media level; we charge the slightly higher
    DIMM-queue figure).  Bandwidth asymmetry (reads ~3x writes) and the
    concurrency knee reproduce the behaviour cited by the paper's
    references [20], [21].
    """

    def __init__(self, env: Environment, rng: Rng, name: str = "pmem",
                 capacity: int = 1024 * GB, channels: int = 16):
        super().__init__(
            env,
            rng,
            name,
            read_latency=0.3 * US,
            write_latency=0.6 * US,
            read_bandwidth=6.0 * GB,
            write_bandwidth=2.0 * GB,
            channels=channels,
            jitter_sigma=0.05,
            congestion_knee=channels,
            congestion_slope=0.8,
        )
        self.capacity = capacity


class SsdDevice(StorageDevice):
    """Datacenter NVMe SSD behind a blob-store data server.

    ``write_latency`` includes the flush to media that a replicated blob
    store performs before acknowledging (the paper's LogStore persists every
    append).  Periodic latency *spikes* from I/O scheduling and background
    GC - which the paper blames for veDB's latency fluctuation - are driven
    by a background process started with :meth:`start_spike_process`.
    """

    def __init__(self, env: Environment, rng: Rng, name: str = "ssd",
                 capacity: int = 4 * 1024 * GB, channels: int = 32):
        super().__init__(
            env,
            rng,
            name,
            read_latency=90 * US,
            write_latency=60 * US,
            read_bandwidth=3.0 * GB,
            write_bandwidth=1.8 * GB,
            channels=channels,
            jitter_sigma=0.18,
        )
        self.capacity = capacity
        self._spiking = False
        self._spike_penalty = 0.0

    def start_spike_process(
        self,
        period: float = 0.050,
        duration: float = 0.004,
        penalty: float = 6.0,
    ) -> None:
        """Begin periodic latency spikes (scheduling/GC stalls).

        Every ``period`` seconds the device enters a ``duration``-second
        window in which service times are multiplied by ``penalty``.
        """
        self._spike_penalty = penalty

        def spike_loop():
            while True:
                gap = self.rng.lognormal_around(period, 0.3)
                yield self.env.timeout(gap)
                self._spiking = True
                yield self.env.timeout(self.rng.lognormal_around(duration, 0.3))
                self._spiking = False

        self.env.process(spike_loop(), name="%s-spikes" % self.name)

    def _service_time(self, base: float, nbytes: int, bandwidth: float) -> float:
        service = super()._service_time(base, nbytes, bandwidth)
        if self._spiking:
            service *= self._spike_penalty
        return service


class DramDevice(StorageDevice):
    """Plain DRAM; used for buffer-pool accounting, effectively free."""

    def __init__(self, env: Environment, rng: Rng, name: str = "dram",
                 capacity: int = 128 * GB):
        super().__init__(
            env,
            rng,
            name,
            read_latency=0.08 * US,
            write_latency=0.08 * US,
            read_bandwidth=20.0 * GB,
            write_bandwidth=20.0 * GB,
            channels=64,
            jitter_sigma=0.0,
        )
        self.capacity = capacity
