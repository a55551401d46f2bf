"""Cluster Manager (CM): the AStore control plane.

Responsibilities (paper Section IV-A):

- storage node registration and heartbeat-based fault detection;
- segment placement by capacity/load when clients create segments;
- routing: clients fetch {segment -> replica set} and cache it;
- leases: a client owns its segments only while its lease is live, closing
  the "client A returns from the dead and writes to a reclaimed segment"
  inconsistency (Section IV-C);
- rebuild: when a node dies, re-replicate its multi-copy segments onto
  healthy nodes, bump the route epoch, and schedule stale-copy cleanup.

The CM is an RPC service: every client interaction pays control-plane RPC
latency (milliseconds, vs the microsecond data plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..common import (
    LeaseExpiredError,
    SegmentNotFoundError,
    StorageError,
)
from ..sim.core import Environment
from ..sim.rand import Rng
from .server import AStoreServer

__all__ = ["ClusterManager", "SegmentRoute", "Lease"]


@dataclass
class SegmentRoute:
    """Routing entry a client caches: where a segment's replicas live."""

    segment_id: int
    size: int
    replicas: List[str]
    epoch: int
    owner: Optional[str] = None

    def copy(self) -> "SegmentRoute":
        return SegmentRoute(
            self.segment_id, self.size, list(self.replicas), self.epoch, self.owner
        )


@dataclass
class Lease:
    """A client's ownership lease, renewed by heartbeat."""

    client_id: str
    expires_at: float


class ClusterManager:
    """Central coordinator for an AStore deployment."""

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        lease_duration: float = 10.0,
        heartbeat_interval: float = 1.0,
        failure_timeout: float = 3.0,
    ):
        self.env = env
        self.rng = rng
        self.lease_duration = lease_duration
        self.heartbeat_interval = heartbeat_interval
        self.failure_timeout = failure_timeout
        self.servers: Dict[str, AStoreServer] = {}
        self.routes: Dict[int, SegmentRoute] = {}
        self.leases: Dict[str, Lease] = {}
        self._next_segment_id = 1
        self._last_heartbeat: Dict[str, float] = {}
        self.failed_servers: Set[str] = set()
        self.rebuilds = 0
        self.alive = True

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the CM down: control RPCs fail until :meth:`restart`.

        The data plane is unaffected (one-sided verbs never touch the CM),
        but leases cannot be renewed, segments cannot be created, and
        failure detection pauses - exactly the paper's control/data split.
        """
        self.alive = False

    def restart(self) -> None:
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise StorageError("cluster manager is down")

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def register_server(self, server: AStoreServer) -> None:
        if server.server_id in self.servers:
            raise StorageError("server %s already registered" % server.server_id)
        self.servers[server.server_id] = server
        self._last_heartbeat[server.server_id] = self.env.now

    def heartbeat_sweep(self) -> List[str]:
        """One heartbeat round: poll servers, detect failures, rebuild.

        Returns the ids of servers newly declared failed.  Called by the
        failure detector's background process.  A dead CM detects nothing.
        A server that is powered on but partitioned from the CM misses its
        heartbeats and is declared failed just like a crashed one.
        """
        if not self.alive:
            return []
        newly_failed: List[str] = []
        now = self.env.now
        for server_id, server in self.servers.items():
            if server.reachable_from("cm"):
                self._last_heartbeat[server_id] = now
                if server_id in self.failed_servers:
                    # Node returned: its local segments are stale copies.
                    self.failed_servers.discard(server_id)
                    for segment_id in list(server.segments):
                        route = self.routes.get(segment_id)
                        if route is None or server_id not in route.replicas:
                            server.mark_stale(segment_id)
            elif (
                server_id not in self.failed_servers
                and now - self._last_heartbeat[server_id] >= self.failure_timeout
            ):
                self.failed_servers.add(server_id)
                newly_failed.append(server_id)
        for server_id in newly_failed:
            self._rebuild_after_failure(server_id)
        return newly_failed

    def _healthy_servers(self) -> List[AStoreServer]:
        return [
            server
            for server in self.servers.values()
            if server.alive and server.server_id not in self.failed_servers
        ]

    def _placement(self, count: int, exclude: Set[str]) -> List[AStoreServer]:
        """Pick ``count`` servers by free capacity (most-free first)."""
        candidates = [
            server
            for server in self._healthy_servers()
            if server.server_id not in exclude
        ]
        candidates.sort(key=lambda s: (-s.bitmap.free, s.server_id))
        if len(candidates) < count:
            raise StorageError(
                "need %d healthy servers, have %d" % (count, len(candidates))
            )
        return candidates[:count]

    def _rebuild_after_failure(self, failed_id: str) -> None:
        """Re-replicate every multi-copy segment that lived on ``failed_id``.

        Single-copy segments (EBP pages) are simply dropped from routing:
        the paper treats their loss as a cache-hit-ratio event, never a
        correctness event.
        """
        for route in list(self.routes.values()):
            if failed_id not in route.replicas:
                continue
            survivors = [r for r in route.replicas if r != failed_id]
            if not survivors:
                # All replicas lost (replication factor 1): drop the route.
                del self.routes[route.segment_id]
                continue
            # Exactly ONE epoch bump per rebuild, shared by the stored
            # route, the replacement replica, and the survivors' local
            # copies - so a client still holding the pre-rebuild route is
            # fenced (StaleRouteError) on every replica, not just the new
            # one.
            new_epoch = route.epoch + 1
            try:
                replacement = self._placement(1, exclude=set(route.replicas))[0]
            except StorageError:
                # No spare node: degrade to the surviving replicas.
                route.replicas = survivors
                route.epoch = new_epoch
                self._fence_survivors(route, new_epoch)
                continue
            source = self.servers[survivors[0]]
            if route.segment_id in replacement.segments:
                # The candidate still holds a stale copy from an earlier
                # membership (deferred cleanup has not fired yet): reclaim
                # it now instead of refusing the allocation.
                replacement.release_segment(route.segment_id)
            replacement.allocate_segment(
                route.segment_id, route.size, epoch=new_epoch
            )
            # Copy the surviving replica's contents (background traffic;
            # not on any client's critical path, so not timed here).
            src_segment = source.segments.get(route.segment_id)
            dst_segment = replacement.segments[route.segment_id]
            if src_segment is not None:
                dst_segment.entries = dict(src_segment.entries)
                dst_segment.write_offset = src_segment.write_offset
                dst_segment.frozen = src_segment.frozen
            route.replicas = survivors + [replacement.server_id]
            route.epoch = new_epoch
            self._fence_survivors(route, new_epoch)
            self.rebuilds += 1

    def _fence_survivors(self, route: SegmentRoute, new_epoch: int) -> None:
        for server_id in route.replicas:
            server = self.servers.get(server_id)
            if server is None:
                continue
            segment = server.segments.get(route.segment_id)
            if segment is not None and segment.epoch < new_epoch:
                segment.epoch = new_epoch

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def grant_lease(self, client_id: str) -> Lease:
        self._check_alive()
        lease = Lease(client_id, self.env.now + self.lease_duration)
        self.leases[client_id] = lease
        return lease

    def renew_lease(self, client_id: str) -> Lease:
        """Extend a *live* lease.  An expired lease cannot be renewed -
        the client must re-grant (and refresh its routes, since the fleet
        may have been rebuilt around it while it was considered dead).

        The boundary is ``now >= expires_at``: a lease renewed exactly at
        its expiry instant is already dead, matching :meth:`check_lease`
        which treats ``expires_at == now`` as not live.
        """
        self._check_alive()
        lease = self.leases.get(client_id)
        if lease is None:
            raise LeaseExpiredError("client %s holds no lease" % client_id)
        if self.env.now >= lease.expires_at:
            raise LeaseExpiredError(
                "client %s lease expired at %.3f (now %.3f)"
                % (client_id, lease.expires_at, self.env.now)
            )
        lease.expires_at = self.env.now + self.lease_duration
        return lease

    def check_lease(self, client_id: str) -> bool:
        lease = self.leases.get(client_id)
        return lease is not None and lease.expires_at > self.env.now

    def transfer_ownership(self, segment_id: int, new_owner: str) -> None:
        """Reassign a segment to a new client (takeover after client death)."""
        self._check_alive()
        route = self.routes.get(segment_id)
        if route is None:
            raise SegmentNotFoundError("segment %d unknown" % segment_id)
        route.owner = new_owner
        route.epoch += 1

    # ------------------------------------------------------------------
    # Segment lifecycle (RPC handlers)
    # ------------------------------------------------------------------
    def create_segment(
        self, client_id: str, size: int, replication: int = 3
    ) -> SegmentRoute:
        """Choose placement and record the route.  The client then RPCs the
        chosen servers to actually allocate PMem."""
        self._check_alive()
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if not self.check_lease(client_id):
            raise LeaseExpiredError("client %s lease invalid" % client_id)
        chosen = self._placement(replication, exclude=set())
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        route = SegmentRoute(
            segment_id=segment_id,
            size=size,
            replicas=[s.server_id for s in chosen],
            epoch=1,
            owner=client_id,
        )
        self.routes[segment_id] = route
        return route.copy()

    def readopt_segment(self, segment_id: int, server_id: str, size: int,
                        owner: Optional[str] = None) -> SegmentRoute:
        """Re-register a segment that survived on a restarted server's PMem.

        Future-work item from the paper (Section VIII): single-replica EBP
        segments whose routes were dropped when their server failed can be
        re-adopted after the server returns, instead of being rebuilt from
        PageStore traffic.  Fails if the id is routed again already.
        """
        self._check_alive()
        if segment_id in self.routes:
            raise StorageError("segment %d already routed" % segment_id)
        server = self.servers.get(server_id)
        if server is None or not server.alive:
            raise StorageError("server %s not available" % server_id)
        if segment_id not in server.segments:
            raise SegmentNotFoundError(
                "segment %d not on server %s" % (segment_id, server_id)
            )
        route = SegmentRoute(
            segment_id=segment_id,
            size=size,
            replicas=[server_id],
            epoch=server.segments[segment_id].epoch + 1,
            owner=owner,
        )
        server.segments[segment_id].epoch = route.epoch
        self.routes[segment_id] = route
        return route.copy()

    def lookup_route(self, segment_id: int) -> SegmentRoute:
        self._check_alive()
        route = self.routes.get(segment_id)
        if route is None:
            raise SegmentNotFoundError("segment %d unknown" % segment_id)
        return route.copy()

    def delete_segment(self, client_id: str, segment_id: int) -> SegmentRoute:
        """Remove the segment from routing; caller releases server space."""
        self._check_alive()
        route = self.routes.pop(segment_id, None)
        if route is None:
            raise SegmentNotFoundError("segment %d unknown" % segment_id)
        if route.owner not in (None, client_id):
            self.routes[segment_id] = route
            raise StorageError(
                "segment %d owned by %s, not %s" % (segment_id, route.owner, client_id)
            )
        return route
