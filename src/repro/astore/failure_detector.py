"""Automatic failure detection and recovery for an AStore deployment.

The paper's availability story (Sections IV-C, V-E) has three moving
parts that previously had to be driven by hand from test code:

1. the CM's ``heartbeat_sweep()`` - declaring dead servers failed and
   rebuilding their multi-copy segments (bumping route epochs);
2. client lease renewal and route refresh on the virtual clock;
3. EBP reaction to server churn - purging index entries on a dead
   server immediately (reads then transparently fall back to PageStore)
   and re-adopting surviving PMem pages when the server returns.

:class:`FailureDetector` owns all three as background daemon processes.
It is constructed by :class:`repro.harness.deployment.Deployment` (with
the EBP hook wired) or by ``AStoreCluster.start_maintenance`` (bare),
and exports its activity through ``repro.obs`` gauges under
``astore.detector.*``.
"""

from __future__ import annotations

from ..common import StorageError
from ..obs import obs_of

__all__ = ["FailureDetector"]


class FailureDetector:
    """Background heartbeat / lease / recovery daemons for one cluster.

    ``ebp`` is duck-typed: anything with ``purge_server(server_id) -> int``
    and a ``reclaim_server(server_id)`` generator returning a count (in
    practice :class:`repro.engine.ebp.ExtendedBufferPool`).
    """

    def __init__(self, env, cluster, ebp=None, cleanup_period: float = 5.0):
        self.env = env
        self.cluster = cluster
        self.cm = cluster.cm
        self.ebp = ebp
        self.cleanup_period = cleanup_period
        self.sweeps = 0
        self.failures_detected = 0
        self.recoveries = 0
        self.pages_purged = 0
        self.pages_reclaimed = 0
        self.route_pushes = 0
        self._started = False
        registry = obs_of(env).registry
        for name, fn in (
            ("astore.detector.sweeps", lambda: self.sweeps),
            ("astore.detector.failures_detected",
             lambda: self.failures_detected),
            ("astore.detector.recoveries", lambda: self.recoveries),
            ("astore.detector.pages_purged", lambda: self.pages_purged),
            ("astore.detector.pages_reclaimed",
             lambda: self.pages_reclaimed),
            ("astore.detector.route_pushes", lambda: self.route_pushes),
        ):
            try:
                registry.gauge(name, fn)
            except ValueError:
                pass  # a second detector on this env; first one wins

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the daemon processes (idempotent)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._sweep_loop(), name="failure-detector")
        self.env.process(self._cleanup_loop(), name="astore-cleanup")
        for client in self.cluster.clients:
            self.env.process(
                self._client_loop(client),
                name="client-maint-%s" % client.client_id,
            )

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------
    def _sweep_loop(self):
        """Heartbeat sweeps + the EBP purge/reclaim reactions.

        After a sweep that declared failures, the detector pushes fresh
        routes to every client immediately - the rebuild bumped route
        epochs, and waiting out each client's refresh period would leave
        a wider stale-route window than necessary.
        """
        while True:
            yield self.env.timeout(self.cm.heartbeat_interval)
            if not self.cm.alive:
                continue
            failed_before = set(self.cm.failed_servers)
            newly_failed = self.cm.heartbeat_sweep()
            self.sweeps += 1
            returned = failed_before - self.cm.failed_servers
            if newly_failed:
                self.failures_detected += len(newly_failed)
                if self.ebp is not None:
                    for server_id in newly_failed:
                        self.pages_purged += self.ebp.purge_server(server_id)
                for client in self.cluster.clients:
                    try:
                        yield from client.refresh_routes()
                        self.route_pushes += 1
                    except StorageError:
                        pass  # client will catch up on its own period
            for server_id in sorted(returned):
                self.recoveries += 1
                if self.ebp is not None:
                    try:
                        self.pages_reclaimed += yield from (
                            self.ebp.reclaim_server(server_id)
                        )
                    except StorageError:
                        pass  # server flapped; next return retries

    def _cleanup_loop(self):
        """Deferred stale-segment cleanup on every live server."""
        while True:
            yield self.env.timeout(self.cleanup_period)
            for server in self.cluster.servers.values():
                if server.alive:
                    server.run_cleanup_cycle()

    def _client_loop(self, client):
        """Lease renewal + route refresh on the client's short period.

        ``renew_lease`` re-grants after expiry (zombie re-admission), so
        this loop never has to special-case a lapsed lease; a CM outage
        simply makes the round fail and the next period tries again.
        """
        while True:
            yield self.env.timeout(client.route_refresh_period)
            try:
                yield from client.renew_lease()
                yield from client.refresh_routes()
            except StorageError:
                continue
