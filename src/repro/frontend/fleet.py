"""ReplicaFleet: N standby replicas with health sweeps and LSN gating.

The fleet owns the :class:`repro.engine.standby.StandbyReplica` pool the
proxy routes reads to.  Each replica is wrapped in a
:class:`ReplicaHandle` carrying its admission state: a replica that
crashes keeps its handle, but :meth:`health_sweep` (called by the AStore
:class:`repro.astore.failure_detector.FailureDetector` each heartbeat
round, or by the fleet's own sweep loop on stock deployments) *drains*
it - no new reads are routed there until :meth:`restart` has replayed
PageStore and the replica rejoins.

Read-your-writes gating goes through here too: :meth:`wait_for_lsn`
times the chosen replica's applier wait (bounded, so the proxy can
bounce the read to the primary instead of stalling) into the fleet's
latency series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common import MS, StorageError
from ..engine.standby import StandbyReplica
from ..obs import obs_of
from ..sim.core import Environment
from .policies import RoutingPolicy

__all__ = ["ReplicaHandle", "ReplicaFleet"]


class ReplicaHandle:
    """One fleet slot: the replica plus its routing/admission state."""

    def __init__(self, index: int, replica: StandbyReplica):
        self.index = index
        self.replica_id = "replica-%d" % index
        self.replica = replica
        #: False while drained (crashed and not yet recovered).
        self.admitted = True
        self.inflight = 0
        self.reads_served = 0

    @property
    def routable(self) -> bool:
        return self.admitted and self.replica.applier.alive

    def __repr__(self) -> str:
        return "<ReplicaHandle %s admitted=%s lag=%d>" % (
            self.replica_id, self.admitted, self.replica.lag_lsn
        )


class ReplicaFleet:
    """The standby pool behind the proxy's read path."""

    def __init__(
        self,
        env: Environment,
        primary,
        count: int,
        policy: RoutingPolicy,
        use_ebp: bool = True,
        buffer_pool_bytes: int = 16 * 1024 * 1024,
        cores: int = 8,
        apply_intervals: Optional[Sequence[float]] = None,
    ):
        if count < 1:
            raise ValueError("a replica fleet needs at least one replica")
        if apply_intervals is None:
            apply_intervals = [2 * MS] * count
        apply_intervals = list(apply_intervals)
        if len(apply_intervals) != count:
            raise ValueError(
                "need one apply interval per replica (%d != %d)"
                % (len(apply_intervals), count)
            )
        if any(interval <= 0 for interval in apply_intervals):
            raise ValueError("apply intervals must be positive")
        self.env = env
        self.primary = primary
        self.policy = policy
        self.handles: List[ReplicaHandle] = [
            ReplicaHandle(
                index,
                StandbyReplica(
                    env, primary,
                    buffer_pool_bytes=buffer_pool_bytes,
                    cores=cores,
                    use_ebp=use_ebp,
                ),
            )
            for index in range(count)
        ]
        for handle, interval in zip(self.handles, apply_intervals):
            handle.replica.applier.poll_interval = interval
        self._by_id: Dict[str, ReplicaHandle] = {
            handle.replica_id: handle for handle in self.handles
        }
        self.drains = 0
        self.rejoins = 0
        self.failed_restarts = 0
        self._started = False
        self._wait_latency = obs_of(env).registry.latency(
            "frontend.fleet_lsn_wait"
        )

    def __len__(self) -> int:
        return len(self.handles)

    def __iter__(self):
        return iter(self.handles)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, self_sweep_interval: Optional[float] = None) -> None:
        """Subscribe every replica to the REDO feed.

        Pass ``self_sweep_interval`` on deployments without a
        FailureDetector; otherwise the detector calls
        :meth:`health_sweep` on its own heartbeat cadence.
        """
        if self._started:
            return
        self._started = True
        for handle in self.handles:
            handle.replica.applier.start()
        if self_sweep_interval is not None:
            self.env.process(
                self._sweep_loop(self_sweep_interval), name="fleet-health"
            )

    def _sweep_loop(self, interval: float):
        while True:
            yield self.env.timeout(interval)
            self.health_sweep()

    def health_sweep(self) -> int:
        """Drain handles whose replica died; returns how many."""
        drained = 0
        for handle in self.handles:
            if handle.admitted and not handle.replica.applier.alive:
                handle.admitted = False
                self.drains += 1
                drained += 1
        return drained

    # ------------------------------------------------------------------
    # Chaos entry points
    # ------------------------------------------------------------------
    def handle_of(self, replica_id: str) -> ReplicaHandle:
        try:
            return self._by_id[replica_id]
        except KeyError:
            raise KeyError(
                "no replica %r (have %s)"
                % (replica_id, ", ".join(sorted(self._by_id)))
            )

    def crash(self, replica_id: str) -> None:
        """Power-fail one replica (the next health sweep drains it)."""
        self.handle_of(replica_id).replica.applier.crash()

    def restart(self, replica_id: str) -> None:
        """Kick off background recovery; the replica rejoins when done."""
        handle = self.handle_of(replica_id)
        self.env.process(
            self._restart(handle), name="%s-recover" % replica_id
        )

    def _restart(self, handle: ReplicaHandle):
        try:
            pages = yield from handle.replica.applier.recover()
        except StorageError:
            # PageStore could not serve the rebuild (e.g. total outage
            # mid-recovery): stay drained rather than rejoin half-built.
            self.failed_restarts += 1
            return
        if pages is None:
            return  # Crashed again, or an earlier restart is rebuilding.
        handle.admitted = True
        self.rejoins += 1

    # ------------------------------------------------------------------
    # Routing support
    # ------------------------------------------------------------------
    def routable_handles(self) -> List[ReplicaHandle]:
        return [handle for handle in self.handles if handle.routable]

    def choose(self, session=None) -> Optional[ReplicaHandle]:
        """Policy pick among routable replicas (None -> use the primary)."""
        return self.policy.choose(self.routable_handles(), session)

    @property
    def lsn_waits(self) -> int:
        return sum(h.replica.applier.lsn_waits for h in self.handles)

    @property
    def lsn_wait_timeouts(self) -> int:
        return sum(h.replica.applier.lsn_wait_timeouts for h in self.handles)

    def wait_for_lsn(self, handle: ReplicaHandle, lsn: int, max_wait: float):
        """Generator: the replica applier's wait, timed."""
        start = self.env.now
        caught_up = yield from handle.replica.applier.wait_for_lsn(
            lsn, max_wait
        )
        self._wait_latency.record(self.env.now - start)
        return caught_up

    def sync_catalogs(self) -> None:
        """Mirror tables created on the primary after fleet construction."""
        for handle in self.handles:
            handle.replica.sync_catalog()
