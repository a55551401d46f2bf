"""Network models: kernel TCP/RPC path and one-sided RDMA fabric.

The distinction between the two paths is the heart of the paper:

- :class:`RpcNetwork` models the classic path (LogStore, PageStore, control
  plane).  Every message crosses the kernel on both ends, costs server CPU
  for handling, suffers scheduling jitter, and occasionally hits multi-
  millisecond scheduling spikes.
- :class:`RdmaFabric` models one-sided verbs on a 25 Gbps lossless fabric.
  A verb costs a few microseconds, no remote CPU, and several verbs posted
  as a chain pay the doorbell/MMIO cost once (the paper chains
  WRITE+WRITE+READ for persistent AStore writes).

All latencies are seconds; sizes are bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..obs import obs_of
from .core import Environment
from .rand import Rng
from .resources import CpuPool

__all__ = ["RpcNetwork", "RdmaFabric", "RdmaVerb"]

US = 1e-6
MS = 1e-3
GBPS = 1e9 / 8.0  # bytes per second per Gbps


class RpcNetwork:
    """Kernel TCP/RPC transport with server-side CPU involvement.

    Parameters are calibrated so that a small RPC costs ~100-200 us end to
    end before any storage work, matching the paper's statement that
    "traditional storage systems usually have a latency of a hundred
    microseconds" and that segment creation RPCs take "a few milliseconds"
    once control-plane queueing is included.
    """

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        base_rtt: float = 80 * US,
        bandwidth: float = 25 * GBPS,
        kernel_overhead: float = 15 * US,
        jitter_sigma: float = 0.25,
        spike_probability: float = 0.004,
        spike_scale: float = 3.0 * MS,
        name: str = "",
    ):
        self.env = env
        self.rng = rng
        self.name = name
        self.base_rtt = base_rtt
        self.bandwidth = bandwidth
        self.kernel_overhead = kernel_overhead
        self.jitter_sigma = jitter_sigma
        self.spike_probability = spike_probability
        self.spike_scale = spike_scale
        self.messages = 0
        self.bytes_moved = 0
        self.spikes = 0
        self.obs = obs_of(env)
        self._call_span = "net.rpc.call" if not name else "net.%s.call" % name
        if name:
            # Named transports surface their counters in the registry.
            prefix = "sim.network.%s" % name
            self.obs.registry.gauge("%s.messages" % prefix, lambda: self.messages)
            self.obs.registry.gauge(
                "%s.bytes_moved" % prefix, lambda: self.bytes_moved
            )
            self.obs.registry.gauge("%s.spikes" % prefix, lambda: self.spikes)

    def _one_way(self, nbytes: int) -> float:
        nominal = self.base_rtt / 2.0 + self.kernel_overhead + nbytes / self.bandwidth
        latency = self.rng.lognormal_around(nominal, self.jitter_sigma)
        if self.rng.bernoulli(self.spike_probability):
            # Thread-scheduling / softirq stall: the long-tail driver of
            # the latency fluctuation the paper sets out to remove.
            latency += self.rng.lognormal_around(self.spike_scale, 0.5)
            self.spikes += 1
        return latency

    def send(self, nbytes: int):
        """Generator: one-way message transfer of ``nbytes``."""
        delay = self._one_way(nbytes)
        yield self.env.timeout(delay)
        self.messages += 1
        self.bytes_moved += nbytes
        return delay

    def call(
        self,
        request_bytes: int,
        response_bytes: int,
        server_cpu: Optional[CpuPool] = None,
        server_cpu_seconds: float = 8 * US,
    ):
        """Generator: full RPC round trip, charging server CPU for handling.

        Returns total latency.  ``server_cpu_seconds`` covers syscall +
        dispatch + handler bookkeeping; the actual storage work is done by
        the callee between our two hops and is *not* included here.
        """
        tracer = self.obs.tracer
        span = (
            tracer.span(
                self._call_span,
                tags={"req_bytes": request_bytes, "resp_bytes": response_bytes},
            )
            if tracer.enabled
            else None
        )
        start = self.env.now
        try:
            yield from self.send(request_bytes)
            if server_cpu is not None and server_cpu_seconds > 0:
                yield from server_cpu.consume(server_cpu_seconds)
            yield from self.send(response_bytes)
        finally:
            if span is not None:
                span.finish()
        return self.env.now - start


class RdmaVerb:
    """A single one-sided work request: ('write'|'read', nbytes)."""

    __slots__ = ("op", "nbytes")

    def __init__(self, op: str, nbytes: int):
        if op not in ("write", "read"):
            raise ValueError("unknown RDMA verb %r" % op)
        if nbytes < 0:
            raise ValueError("negative size")
        self.op = op
        self.nbytes = nbytes


class RdmaFabric:
    """One-sided RDMA over a 25 Gbps lossless fabric.

    Calibration anchors from the paper:

    - small READ completes in ~10 us including PMem media time;
    - persistent write (2 WRITEs + flushing READ, chained) ~20 us;
    - a 256 KB WRITE takes ~0.1 ms (Section V-A), i.e. wire time dominates
      at 25 Gbps (256 KB / 3.125 GB/s = 84 us) plus per-verb overhead.

    One-sided verbs never consume remote CPU; that idle CPU is exactly what
    the push-down framework later exploits.
    """

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        verb_latency: float = 3.0 * US,
        doorbell_cost: float = 1.0 * US,
        bandwidth: float = 25 * GBPS,
        jitter_sigma: float = 0.08,
        name: str = "",
    ):
        self.env = env
        self.rng = rng
        self.name = name
        self.verb_latency = verb_latency
        self.doorbell_cost = doorbell_cost
        self.bandwidth = bandwidth
        self.jitter_sigma = jitter_sigma
        self.verbs_posted = 0
        self.bytes_moved = 0
        self.obs = obs_of(env)
        self._verb_span = "rdma.verb" if not name else "rdma.%s.verb" % name
        self._chain_span = "rdma.chain" if not name else "rdma.%s.chain" % name
        if name:
            prefix = "sim.rdma.%s" % name
            self.obs.registry.gauge(
                "%s.verbs_posted" % prefix, lambda: self.verbs_posted
            )
            self.obs.registry.gauge(
                "%s.bytes_moved" % prefix, lambda: self.bytes_moved
            )

    def _verb_time(self, nbytes: int) -> float:
        nominal = self.verb_latency + nbytes / self.bandwidth
        return self.rng.lognormal_around(nominal, self.jitter_sigma)

    def post(self, verb: RdmaVerb):
        """Generator: post a single verb (its own doorbell). Returns latency."""
        total = self.doorbell_cost + self._verb_time(verb.nbytes)
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span(
                self._verb_span, tags={"op": verb.op, "bytes": verb.nbytes}
            ):
                yield self.env.timeout(total)
        else:
            yield self.env.timeout(total)
        self.verbs_posted += 1
        self.bytes_moved += verb.nbytes
        return total

    def post_chain(self, verbs: Iterable[RdmaVerb]):
        """Generator: post a chained list of verbs with a single doorbell.

        The verbs execute back to back on the wire; chaining is the paper's
        trick to reduce MMIO cost on the persistent-write path.
        Returns total latency.
        """
        return self._chain([verb.nbytes for verb in verbs])

    def _chain(self, sizes: Sequence[int]):
        """Generator: one doorbell, then a verb of each size in ``sizes``
        back to back on the wire.  Returns total latency."""
        if not sizes:
            return 0.0
        # One pass for the wire time (left to right from 0, as ``sum``
        # adds it) and the byte count.
        wire = 0
        nbytes = 0
        for size in sizes:
            wire += self._verb_time(size)
            nbytes += size
        total = self.doorbell_cost + wire
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span(
                self._chain_span,
                tags={"verbs": len(sizes), "bytes": nbytes},
            ):
                yield self.env.timeout(total)
        else:
            yield self.env.timeout(total)
        self.verbs_posted += len(sizes)
        self.bytes_moved += nbytes
        return total

    def write(self, nbytes: int):
        """Generator: convenience single WRITE."""
        return (yield from self.post(RdmaVerb("write", nbytes)))

    def read(self, nbytes: int):
        """Generator: convenience single READ."""
        return (yield from self.post(RdmaVerb("read", nbytes)))

    def persistent_write(self, nbytes: int):
        """Generator: the paper's durable write to PMem over RDMA.

        With DDIO disabled on the server, persistence is achieved by
        chaining:  WRITE (payload) + WRITE (length/commit word) + READ
        (flush to the PMem controller's ADR domain).  Returns latency.

        Every log flush and EBP page write comes through here once per
        replica: the chain runs in one generator frame, with no verb
        objects.
        """
        if nbytes < 0:
            raise ValueError("negative size")
        return self._chain((nbytes, 8, 8))
