"""AStore Client: the access module embedded in the storage SDK.

The client exposes read/write over an append-only segment space (paper
Section IV-B).  The critical property it implements is the *two-speed*
architecture:

- control operations (create/delete/open) are CM RPCs costing milliseconds;
- data operations are one-sided RDMA verbs costing tens of microseconds,
  using routes cached in client memory - no CM involvement.

Consistency with one-sided verbs (Section IV-C) rests on two timers whose
relationship the constructor enforces: the client refreshes cached routes
every ``route_refresh_period`` seconds, while servers defer stale-segment
cleaning by ``cleanup_delay`` >> refresh period, so a client can never act
on a route so old that the memory behind it was reclaimed.  Ownership is
additionally guarded by a CM lease.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..common import (
    DeadlineExceededError,
    LeaseExpiredError,
    RetryPolicy,
    SegmentFrozenError,
    SegmentNotFoundError,
    StaleRouteError,
    StorageError,
)
from ..obs import obs_of
from ..sim.core import Environment, FanOut, with_timeout
from ..sim.network import RpcNetwork
from ..sim.rand import Rng
from .cluster_manager import ClusterManager, SegmentRoute
from .server import AStoreServer

__all__ = ["AStoreClient", "ClientSegmentMeta"]

#: Serialized size of a control RPC message (routing info, ids).
_CONTROL_MSG_BYTES = 256

#: Client-side storage-SDK cost per write: request setup, segment-meta
#: bookkeeping, payload checksum, completion polling.  Together with the
#: chained-verb fabric time this calibrates the full single-threaded 4 KB
#: log-append path to the paper's measured 0.086 ms (Table II) - the raw
#: one-sided write itself is ~20 us.
SDK_WRITE_BASE = 58e-6
SDK_WRITE_PER_BYTE = 0.25e-9
#: Read-side SDK cost is much smaller (no checksum on read; the paper
#: reports 10 us small reads / 20 us for a 16 KB page end to end).
SDK_READ_BASE = 3e-6
SDK_READ_PER_BYTE = 0.35e-9


class ClientSegmentMeta:
    """Client-side record of an open segment: route + written length."""

    def __init__(self, route: SegmentRoute):
        self.route = route
        self.written = 0
        self.frozen = False

    @property
    def segment_id(self) -> int:
        return self.route.segment_id

    @property
    def free_space(self) -> int:
        return self.route.size - self.written


class AStoreClient:
    """One DBEngine's handle onto the AStore cluster."""

    def __init__(
        self,
        env: Environment,
        rng: Rng,
        client_id: str,
        cluster_manager: ClusterManager,
        servers: Dict[str, AStoreServer],
        control_network: Optional[RpcNetwork] = None,
        route_refresh_period: float = 1.0,
    ):
        self.env = env
        self.rng = rng
        self.client_id = client_id
        self.cm = cluster_manager
        self.servers = servers
        self.control_net = control_network or RpcNetwork(env, rng)
        self.route_refresh_period = route_refresh_period
        self.retry_policy = RetryPolicy()
        min_cleanup = min(
            (server.cleanup_delay for server in servers.values()), default=None
        )
        if min_cleanup is not None and route_refresh_period * 5 > min_cleanup:
            raise ValueError(
                "route refresh period (%.3fs) too close to server cleanup "
                "delay (%.3fs); one-sided consistency requires refresh << "
                "cleanup" % (route_refresh_period, min_cleanup)
            )
        self.open_segments: Dict[int, ClientSegmentMeta] = {}
        self.lease = self.cm.grant_lease(client_id)
        self.writes = 0
        self.reads = 0
        self.write_failures = 0
        self.retries = 0
        self.lease_regrants = 0
        self.deadlines_exceeded = 0
        # Observability: write-chain / read / segment-create latency
        # recorders live in the environment's shared registry, so the
        # harness report gets per-client percentiles for free.
        self.obs = obs_of(env)
        prefix = "astore.client.%s" % client_id
        self._lat_write = self.obs.registry.latency("%s.write" % prefix)
        self._lat_read = self.obs.registry.latency("%s.read" % prefix)
        self._lat_create = self.obs.registry.latency("%s.segment_create" % prefix)
        self.obs.registry.gauge("%s.writes" % prefix, lambda: self.writes)
        self.obs.registry.gauge("%s.reads" % prefix, lambda: self.reads)
        self.obs.registry.gauge(
            "%s.write_failures" % prefix, lambda: self.write_failures
        )
        self.obs.registry.gauge("%s.retries" % prefix, lambda: self.retries)
        self.obs.registry.gauge(
            "%s.lease_regrants" % prefix, lambda: self.lease_regrants
        )
        self.obs.registry.gauge(
            "%s.deadlines_exceeded" % prefix, lambda: self.deadlines_exceeded
        )

    # ------------------------------------------------------------------
    # Retry machinery
    # ------------------------------------------------------------------
    def _retrying(self, attempt_factory, what: str):
        """Generator: run ``attempt_factory()`` under the retry policy.

        Each attempt is a fresh generator wrapped in the per-operation
        timeout; transient :class:`StorageError`\\ s back off (jitter from
        this client's deterministic stream) and retry until the attempt or
        deadline budget runs out, then the last error propagates.
        Protocol-level outcomes (:class:`LeaseExpiredError`,
        :class:`SegmentFrozenError`) are not retried here - their handling
        belongs to the caller.
        """
        policy = self.retry_policy
        start = self.env.now
        last_exc: Optional[StorageError] = None
        for attempt in range(policy.max_attempts):
            try:
                return (yield from with_timeout(
                    self.env, attempt_factory(), policy.op_timeout, what=what
                ))
            except (LeaseExpiredError, SegmentFrozenError,
                    SegmentNotFoundError):
                # Protocol outcomes, not transient faults: never retried.
                raise
            except DeadlineExceededError as exc:
                last_exc = exc
                self.deadlines_exceeded += 1
            except StorageError as exc:
                last_exc = exc
            if (attempt + 1 >= policy.max_attempts
                    or self.env.now - start >= policy.deadline):
                break
            self.retries += 1
            yield self.env.timeout(policy.backoff(attempt, self.rng))
        raise last_exc  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Lease and route maintenance
    # ------------------------------------------------------------------
    def renew_lease(self):
        """Generator: heartbeat the CM to extend the ownership lease.

        A client whose lease already lapsed (it was considered dead - a
        "zombie") is re-admitted: the renewal fails with
        :class:`LeaseExpiredError`, so it re-grants a fresh lease and
        refreshes every cached route before touching data again - the
        fleet may have been rebuilt around it in the meantime.
        """
        def attempt():
            yield from self.control_net.call(_CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES)
            try:
                self.lease = self.cm.renew_lease(self.client_id)
            except LeaseExpiredError:
                self.lease = self.cm.grant_lease(self.client_id)
                self.lease_regrants += 1
                yield from self._refresh_routes_once()

        yield from self._retrying(attempt, "lease renewal")

    def refresh_routes(self):
        """Generator: re-fetch routes for all open segments from the CM.

        Segments the CM no longer knows about (total loss) are dropped from
        the cache; epoch changes replace the cached replica set.  Retries
        transient CM unavailability under the retry policy.
        """
        yield from self._retrying(self._refresh_routes_once, "route refresh")

    def _refresh_routes_once(self):
        self.cm._check_alive()
        yield from self.control_net.call(_CONTROL_MSG_BYTES, 4096)
        for segment_id in list(self.open_segments):
            try:
                fresh = self.cm.lookup_route(segment_id)
            except SegmentNotFoundError:
                del self.open_segments[segment_id]
                continue
            cached = self.open_segments[segment_id]
            if fresh.epoch != cached.route.epoch:
                cached.route = fresh

    def _require_lease(self) -> None:
        """Data-plane lease check against the *cached* lease.

        One-sided operations must not RPC the CM (that is the whole point
        of the two-speed architecture), so the client trusts its local
        copy of the lease; the CM-side expiry plus deferred cleanup fence
        a zombie whose cached lease is stale.
        """
        if self.lease.expires_at <= self.env.now:
            raise LeaseExpiredError(
                "client %s lease expired or revoked" % self.client_id
            )

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def create(self, size: int, replication: int = 3):
        """Generator: create a segment (CM RPC + per-replica allocation RPC).

        Milliseconds end to end, per the paper - which is why SegmentRing
        pre-creates its whole ring at initialization time.  Retries
        transient failures under the retry policy (each attempt undoes its
        partial allocations, so a retry cannot leak CM routes or PMem
        slots).  Returns the new segment's id.
        """
        self._require_lease()
        start = self.env.now
        with self.obs.tracer.span(
            "astore.segment.create", tags={"client": self.client_id, "size": size}
        ):
            route = yield from self._retrying(
                lambda: self._create_attempt(size, replication), "segment create"
            )
        self.open_segments[route.segment_id] = ClientSegmentMeta(route)
        self._lat_create.record(self.env.now - start)
        return route.segment_id

    def _create_attempt(self, size: int, replication: int):
        yield from self.control_net.call(_CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES)
        route = self.cm.create_segment(self.client_id, size, replication)
        allocated = []
        try:
            for server_id in route.replicas:
                server = self.servers[server_id]
                if not server.reachable_from(self.client_id):
                    raise StorageError("replica %s unreachable" % server_id)
                yield from self.control_net.call(
                    _CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES, server_cpu=server.cpu
                )
                server.allocate_segment(route.segment_id, size, epoch=route.epoch)
                allocated.append(server)
        except BaseException:
            # Undo (synchronously, best effort) so a retry or an abandoned
            # timed-out attempt does not leak the half-created segment.
            try:
                self.cm.delete_segment(self.client_id, route.segment_id)
            except StorageError:
                pass
            for server in allocated:
                try:
                    server.release_segment(route.segment_id)
                except StorageError:
                    pass
            raise
        return route

    def open(self, segment_id: int):
        """Generator: fetch the route for an existing segment and cache it."""
        def attempt():
            yield from self.control_net.call(_CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES)
            return self.cm.lookup_route(segment_id)

        route = yield from self._retrying(attempt, "segment open")
        meta = ClientSegmentMeta(route)
        # Effective length is known from the replicas' write offsets.
        lengths = []
        for server_id in route.replicas:
            segment = self.servers[server_id].segments.get(segment_id)
            if segment is not None:
                lengths.append(segment.write_offset)
        meta.written = min(lengths) if lengths else 0
        self.open_segments[segment_id] = meta
        return meta

    def delete(self, segment_id: int):
        """Generator: delete a segment via CM + server release RPCs."""
        yield from self.control_net.call(_CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES)
        route = self.cm.delete_segment(self.client_id, segment_id)
        for server_id in route.replicas:
            server = self.servers.get(server_id)
            if server is None or not server.reachable_from(self.client_id):
                continue
            yield from self.control_net.call(
                _CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES, server_cpu=server.cpu
            )
            try:
                server.release_segment(segment_id)
            except StorageError:
                pass
        self.open_segments.pop(segment_id, None)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _meta(self, segment_id: int) -> ClientSegmentMeta:
        meta = self.open_segments.get(segment_id)
        if meta is None:
            raise StorageError("segment %d is not open" % segment_id)
        return meta

    def write(self, segment_id: int, length: int, payload: Any,
              offset: Optional[int] = None):
        """Generator: write ``payload`` to the segment on every replica.

        Replica writes are issued in parallel (the client posts to each
        server's NIC) and carry the cached route epoch, so replicas fence
        writes from a client acting on a pre-rebuild route.  A fenced
        write refreshes routes and retries under the retry policy; an
        unreachable replica or per-operation timeout freezes the segment
        with its current effective length and raises
        :class:`SegmentFrozenError` - the caller reacts by opening a
        fresh segment (paper Section IV-B).

        With no ``offset`` the write is an append: it lands on the tail
        it finds, so it suits a segment with one appender (SegmentRing).
        Several concurrent writers into one segment each reserve their
        own slot and pass its ``offset``: the write is one-sided at that
        offset, nothing orders it against the others, and the servers
        refuse it if the slot was written since the segment's last reset
        or a reset lands while it is in flight.

        Returns (offset, length).
        """
        self._require_lease()
        meta = self._meta(segment_id)
        if offset is None:
            if length > meta.free_space:
                raise StorageError("segment %d full" % segment_id)
        elif offset < 0 or offset + length > meta.route.size:
            raise StorageError(
                "write (%d, %d) past the end of segment %d"
                % (offset, length, segment_id)
            )
        start = self.env.now
        tracer = self.obs.tracer
        span = (
            tracer.span(
                "astore.write",
                tags={
                    "client": self.client_id,
                    "segment": segment_id,
                    "bytes": length,
                },
            )
            if tracer.enabled
            else None
        )
        policy = self.retry_policy
        positional = offset is not None
        try:
            yield self.env.timeout(
                self.rng.lognormal_around(
                    SDK_WRITE_BASE + SDK_WRITE_PER_BYTE * length, 0.20
                )
            )
            for attempt in range(policy.max_attempts):
                if meta.frozen:
                    raise SegmentFrozenError("segment %d frozen" % segment_id)
                at = offset if positional else meta.written
                for server_id in meta.route.replicas:
                    server = self.servers.get(server_id)
                    if server is None or not server.reachable_from(self.client_id):
                        self._freeze(meta)
                        self.write_failures += 1
                        raise SegmentFrozenError(
                            "replica %s unreachable; segment %d frozen at %d"
                            % (server_id, segment_id, meta.written)
                        )
                try:
                    yield self._replica_fanout_write(
                        meta, segment_id, at, length, payload, positional
                    )
                except StaleRouteError:
                    # Fenced: the CM rebuilt this segment since we cached
                    # the route.  Refresh and retry the append.
                    if attempt + 1 >= policy.max_attempts:
                        self._freeze(meta)
                        self.write_failures += 1
                        raise SegmentFrozenError(
                            "stale route persisted; segment %d frozen at %d"
                            % (segment_id, meta.written)
                        )
                    self.retries += 1
                    yield self.env.timeout(policy.backoff(attempt, self.rng))
                    try:
                        yield from self._refresh_routes_once()
                    except StorageError:
                        pass  # CM unreachable: retry on the cached route
                    continue
                except DeadlineExceededError:
                    self.deadlines_exceeded += 1
                    self._freeze(meta)
                    self.write_failures += 1
                    raise SegmentFrozenError(
                        "replica write timed out; segment %d frozen at %d"
                        % (segment_id, meta.written)
                    )
                except StorageError:
                    self._freeze(meta)
                    self.write_failures += 1
                    raise SegmentFrozenError(
                        "replica write failed; segment %d frozen at %d"
                        % (segment_id, meta.written)
                    )
                if meta.written < at + length:
                    meta.written = at + length
                self.writes += 1
                self._lat_write.record(self.env.now - start)
                return (at, length)
        finally:
            if span is not None:
                span.finish()

    def _replica_fanout_write(self, meta: ClientSegmentMeta, segment_id: int,
                              offset: int, length: int, payload: Any,
                              positional: bool = False):
        """One parallel replica fan-out under the per-op deadline: an event
        that fires once every replica acknowledged."""
        servers = self.servers
        epoch = meta.route.epoch
        return FanOut(
            self.env,
            [
                servers[server_id].one_sided_write(
                    segment_id, offset, length, payload, epoch=epoch,
                    positional=positional,
                )
                for server_id in meta.route.replicas
            ],
            deadline=self.retry_policy.op_timeout,
            what="replica write fan-out",
        )

    def _freeze(self, meta: ClientSegmentMeta) -> None:
        meta.frozen = True
        for server_id in meta.route.replicas:
            server = self.servers.get(server_id)
            if server is None or not server.alive:
                continue
            segment = server.segments.get(meta.segment_id)
            if segment is not None:
                segment.frozen = True

    def read(self, segment_id: int, offset: int, length: int):
        """Generator: one-sided READ from one online replica.

        The client validates parameters then picks a healthy replica
        (paper: "selects an online copy").  When every replica fails, the
        retry policy kicks in: refresh routes (the CM may have rebuilt
        the segment onto new nodes), back off, and try again until the
        attempt budget runs out.  Returns the payload.
        """
        meta = self._meta(segment_id)
        if offset < 0 or length <= 0 or offset + length > meta.route.size:
            raise StorageError("read (%d, %d) out of bounds" % (offset, length))
        start = self.env.now
        tracer = self.obs.tracer
        span = (
            tracer.span(
                "astore.read",
                tags={
                    "client": self.client_id,
                    "segment": segment_id,
                    "bytes": length,
                },
            )
            if tracer.enabled
            else None
        )
        policy = self.retry_policy
        try:
            yield self.env.timeout(
                self.rng.lognormal_around(
                    SDK_READ_BASE + SDK_READ_PER_BYTE * length, 0.20
                )
            )
            last_error: Optional[StorageError] = None
            for attempt in range(policy.max_attempts):
                try:
                    payload = yield from with_timeout(
                        self.env,
                        self._read_attempt(meta, segment_id, offset, length),
                        policy.op_timeout,
                        what="segment read",
                    )
                except DeadlineExceededError as exc:
                    last_error = exc
                    self.deadlines_exceeded += 1
                except StorageError as exc:
                    last_error = exc
                else:
                    self.reads += 1
                    self._lat_read.record(self.env.now - start)
                    return payload
                if (attempt + 1 >= policy.max_attempts
                        or self.env.now - start >= policy.deadline):
                    break
                self.retries += 1
                yield self.env.timeout(policy.backoff(attempt, self.rng))
                try:
                    yield from self._refresh_routes_once()
                except StorageError:
                    pass  # CM unreachable: retry on the cached route
                # The refresh may have dropped the segment entirely.
                meta = self._meta(segment_id)
            raise last_error  # type: ignore[misc]
        finally:
            if span is not None:
                span.finish()

    def _read_attempt(self, meta: ClientSegmentMeta, segment_id: int,
                      offset: int, length: int):
        last_error: Optional[StorageError] = None
        for server_id in meta.route.replicas:
            server = self.servers.get(server_id)
            if server is None or not server.reachable_from(self.client_id):
                continue
            try:
                return (yield from server.one_sided_read(
                    segment_id, offset, length
                ))
            except StorageError as exc:
                last_error = exc
        raise last_error or StorageError(
            "no online replica for segment %d" % segment_id
        )

    def read_entries(self, segment_id: int):
        """Generator: bulk-read all entries of a segment from one replica.

        Used by crash recovery (SegmentRing tail scan, EBP rebuild).
        Returns [(offset, length, payload)] in offset order.
        """
        meta = self._meta(segment_id)
        last_error: Optional[StorageError] = None
        for server_id in meta.route.replicas:
            server = self.servers.get(server_id)
            if server is None or not server.reachable_from(self.client_id):
                continue
            try:
                return (yield from server.scan_entries(segment_id))
            except StorageError as exc:
                last_error = exc
        raise last_error or StorageError(
            "no online replica for segment %d" % segment_id
        )

    def reset(self, segment_id: int):
        """Generator: recycle a segment in place on every replica (ring wrap)."""
        self._require_lease()
        meta = self._meta(segment_id)
        for server_id in meta.route.replicas:
            server = self.servers.get(server_id)
            if server is None or not server.reachable_from(self.client_id):
                raise SegmentFrozenError("replica %s down during reset" % server_id)
            yield from self.control_net.call(
                _CONTROL_MSG_BYTES, _CONTROL_MSG_BYTES, server_cpu=server.cpu
            )
            server.reset_segment(segment_id)
        meta.written = 0
        meta.frozen = False

    def write_header(self, segment_id: int, length: int, payload: Any):
        """Generator: in-place header rewrite on all replicas (SegmentRing)."""
        self._require_lease()
        meta = self._meta(segment_id)
        try:
            yield FanOut(self.env, [
                self.servers[server_id].overwrite_header(
                    segment_id, length, payload)
                for server_id in meta.route.replicas
                if server_id in self.servers
            ])
        except StorageError:
            self._freeze(meta)
            raise SegmentFrozenError("header write failed on %d" % segment_id)
        if meta.written < length:
            meta.written = length
