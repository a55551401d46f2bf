"""Deployment builder: wire a complete veDB system in one call.

:class:`DeploymentSpec` is the construction API: a dataclass of named,
validated fields plus chainable builder methods -

    spec = (DeploymentSpec(seed=7)
            .with_astore(servers=4)
            .with_ebp(128 * MB)
            .with_pushdown())
    deployment = spec.build()

Four deployment shapes cover every experiment in the paper:

============================  ==========  =====  ===========
name                          log path    EBP    push-down
============================  ==========  =====  ===========
``stock``                     LogStore    no     no
``astore-log``                SegmentRing no     no
``astore-ebp``                SegmentRing yes    no
``astore-pq``                 SegmentRing yes    yes
============================  ==========  =====  ===========

(The PQ flag only marks intent; the query layer checks
``deployment.config.enable_pushdown``.)

Every deployment owns an :class:`repro.obs.Observability` (exposed as
``deployment.obs`` / ``.registry`` / ``.tracer``): component counters are
registered as registry gauges here, which is what makes
``harness.stats.collect_stats`` a pure ``registry.snapshot()``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..astore.cluster import AStoreCluster
from ..astore.failure_detector import FailureDetector
from ..astore.segment_ring import SegmentRing
from ..common import GB, MB, RetryPolicy
from ..engine.dbengine import DBEngine, EngineConfig
from ..engine.ebp import ExtendedBufferPool
from ..engine.logbackends import AStoreLogBackend, SsdLogBackend
from ..obs import obs_of
from ..sim.core import Environment
from ..sim.rand import SeedSequence
from ..storage.logstore import LogStore
from ..storage.pagestore import PageStoreService

__all__ = ["Deployment", "DeploymentSpec", "ShardStack"]

#: Copies of every log segment in the SegmentRing, so an AStore log
#: needs at least this many servers.
LOG_REPLICATION = 3


@dataclass
class DeploymentSpec:
    """Everything needed to stand up one veDB deployment.

    All fields are named and validated at construction; the ``with_*``
    builder methods return modified *copies*, so a base spec can be shared
    and specialised per experiment.  A field exists because some caller
    outside this module sets it: a value nobody changes is a constant of
    the component that uses it (the log's ``LOG_REPLICATION``, the
    engine's CPU costs), and the sharded plane's deadlock detector,
    fenced scatters and write retries are plain behaviour, not switches.
    """

    seed: int = 42
    # Feature switches (the paper's experimental axes).
    use_astore_log: bool = False
    use_ebp: bool = False
    enable_pushdown: bool = False
    #: Record virtual-time spans (Chrome trace export) for this deployment.
    trace: bool = False
    #: Hash-shard the keyspace across this many independent primaries,
    #: each with its own REDO log, PageStore and replica chain (1 = the
    #: classic single-primary deployment, byte-identical to the
    #: pre-sharding construction).
    shards: int = 1
    # Engine.
    engine: EngineConfig = field(default_factory=EngineConfig)
    # EBP.
    ebp_capacity_bytes: int = 64 * MB
    ebp_segment_bytes: int = 4 * MB
    # AStore cluster.
    astore_servers: int = 3
    # Fault tolerance: failure-detector cadence.
    astore_heartbeat_interval: float = 1.0
    astore_failure_timeout: float = 3.0
    astore_cleanup_period: float = 5.0
    astore_lease_duration: float = 10.0
    astore_route_refresh_period: float = 1.0
    # SegmentRing for the log.  Tiny rings force segment recycling in
    # ``test_log_recycling.py`` and ``test_deployment.py``.
    log_ring_segments: int = 8
    log_segment_bytes: int = 4 * MB
    # Serving layer (repro.frontend): replica fleet + proxy.
    replicas: int = 0
    replica_policy: str = "least-lag"
    replica_cores: int = 8
    #: One REDO-poll interval per replica; None = 2 ms for all.
    replica_apply_intervals: Optional[Tuple[float, ...]] = None
    #: How long a routed read waits for the replica to reach the
    #: session's commit LSN before bouncing to the primary
    #: (``test_proxy.py``'s bounce and ``test_fleet_chaos.py`` shorten it).
    replica_wait_timeout: float = 0.02
    # Admission control (active whenever replicas > 0).
    admission_read_limit: int = 64
    admission_queue_limit: int = 64
    admission_queue_timeout: float = 0.02
    # Session multiplexing (repro.frontend.mux): dormant sessions are
    # parked descriptors; statements run over this many execution lanes
    # shared by weighted-fair queueing (0 = no mux).
    mux_lanes: int = 0
    #: ``((tenant, weight), ...)`` admission classes; None = one
    #: "default" tenant with weight 1.
    mux_tenants: Optional[Tuple[Tuple[str, int], ...]] = None
    #: Per-tenant lane-wait queue bound and deadline.
    mux_queue_limit: int = 512
    mux_queue_timeout: float = 0.05
    # Incremental materialized views (repro.views; single-shard only):
    # ``((name, SELECT sql), ...)`` maintained from the REDO feed.
    views: Optional[Tuple[Tuple[str, str], ...]] = None
    #: Per-view REDO feed queue bound (overflow forces a rescan).
    view_feed_bound: int = 65536

    def __post_init__(self) -> None:
        positive = (
            ("ebp_capacity_bytes", self.ebp_capacity_bytes),
            ("ebp_segment_bytes", self.ebp_segment_bytes),
            ("astore_servers", self.astore_servers),
            ("log_ring_segments", self.log_ring_segments),
            ("log_segment_bytes", self.log_segment_bytes),
            ("astore_heartbeat_interval", self.astore_heartbeat_interval),
            ("astore_failure_timeout", self.astore_failure_timeout),
            ("astore_cleanup_period", self.astore_cleanup_period),
            ("astore_lease_duration", self.astore_lease_duration),
            ("astore_route_refresh_period", self.astore_route_refresh_period),
        )
        for name, value in positive:
            if value <= 0:
                raise ValueError("%s must be positive, got %r" % (name, value))
        if self.use_ebp and self.ebp_capacity_bytes < self.ebp_segment_bytes:
            raise ValueError(
                "ebp_capacity_bytes (%d) below one segment (%d)"
                % (self.ebp_capacity_bytes, self.ebp_segment_bytes)
            )
        if (self.use_ebp
                and self.ebp_capacity_bytes // self.ebp_segment_bytes < 3):
            raise ValueError(
                "ebp_capacity_bytes (%d) holds %d segment(s) of %d bytes; the "
                "EBP cleaner keeps one segment spare, so fewer than 3 leaves "
                "at most one segment of cache (raise the capacity or shrink "
                "ebp_segment_bytes)"
                % (self.ebp_capacity_bytes,
                   self.ebp_capacity_bytes // self.ebp_segment_bytes,
                   self.ebp_segment_bytes)
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1, got %r" % self.shards)
        if self.astore_servers < LOG_REPLICATION:
            raise ValueError(
                "astore_servers (%d) below the log's %d replicas"
                % (self.astore_servers, LOG_REPLICATION)
            )
        if self.replicas < 0:
            raise ValueError(
                "replicas must be >= 0, got %r" % self.replicas
            )
        # A feature's settings without the feature would be dropped
        # unread: refuse them and name the builder that sets both.
        if self.replica_apply_intervals is not None and not self.replicas:
            raise ValueError(
                "replica_apply_intervals without replicas; build the spec "
                "with .with_replicas(n, apply_intervals=...)"
            )
        if self.mux_tenants is not None and not self.mux_lanes:
            raise ValueError(
                "mux_tenants without mux_lanes; build the spec with "
                ".with_multiplexing(lanes, tenants)"
            )
        if self.replicas:
            from ..frontend.policies import POLICY_NAMES

            if self.replica_policy not in POLICY_NAMES:
                raise ValueError(
                    "replica_policy must be one of %s, got %r"
                    % (", ".join(POLICY_NAMES), self.replica_policy)
                )
            for name, value in (
                ("replica_cores", self.replica_cores),
                ("replica_wait_timeout", self.replica_wait_timeout),
                ("admission_read_limit", self.admission_read_limit),
                ("admission_queue_timeout", self.admission_queue_timeout),
            ):
                if value <= 0:
                    raise ValueError(
                        "%s must be positive, got %r" % (name, value)
                    )
            if self.admission_queue_limit < 0:
                raise ValueError("admission_queue_limit must be >= 0")
            if self.replica_apply_intervals is not None:
                if len(self.replica_apply_intervals) != self.replicas:
                    raise ValueError(
                        "need one apply interval per replica (%d != %d)"
                        % (len(self.replica_apply_intervals), self.replicas)
                    )
                if any(i <= 0 for i in self.replica_apply_intervals):
                    raise ValueError("apply intervals must be positive")
        if self.mux_lanes:
            if self.mux_lanes < 0:
                raise ValueError(
                    "mux_lanes must be >= 0, got %r" % self.mux_lanes
                )
            if self.replicas <= 0:
                raise ValueError(
                    "session multiplexing needs a serving frontend; build "
                    "the spec with .with_replicas(n) as well"
                )
            if self.mux_queue_limit < 0:
                raise ValueError("mux_queue_limit must be >= 0")
            if self.mux_queue_timeout <= 0:
                raise ValueError("mux_queue_timeout must be positive")
            if self.mux_tenants is not None:
                if not self.mux_tenants:
                    raise ValueError("mux_tenants must name at least one")
                seen = set()
                for tenant, weight in self.mux_tenants:
                    if tenant in seen:
                        raise ValueError("duplicate tenant %r" % tenant)
                    seen.add(tenant)
                    if weight < 1:
                        raise ValueError(
                            "tenant weight for %r must be >= 1, got %r"
                            % (tenant, weight)
                        )
        if self.views is not None:
            if self.shards != 1:
                raise ValueError(
                    "materialized views require shards == 1 (view state "
                    "would need cross-shard merge)"
                )
            if not self.views:
                raise ValueError("views must register at least one view")
            if self.view_feed_bound <= 0:
                raise ValueError(
                    "view_feed_bound must be positive, got %r"
                    % self.view_feed_bound
                )
            # Parse + validate every definition eagerly so spec errors
            # surface at construction, like every other spec field.
            from ..common import QueryError
            from ..views.definition import ViewDefinition

            seen = set()
            for view_name, sql in self.views:
                if view_name in seen:
                    raise ValueError("duplicate view name %r" % view_name)
                seen.add(view_name)
                try:
                    ViewDefinition(view_name, sql)
                except QueryError as exc:
                    raise ValueError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Builder methods (each returns a modified copy)
    # ------------------------------------------------------------------
    def with_seed(self, seed: int) -> "DeploymentSpec":
        return dataclasses.replace(self, seed=seed)

    def with_shards(self, n: int) -> "DeploymentSpec":
        """Hash-shard the keyspace across ``n`` primaries.

        Each shard gets its own full vertical stack (REDO log, PageStore,
        engine, and - with ``with_replicas`` - its own standby chain);
        cross-shard transactions run as two-phase commit through
        ``deployment.coordinator``.  ``n=1`` is the classic single-primary
        deployment, unchanged.
        """
        return dataclasses.replace(self, shards=n)

    def with_astore(self, servers: Optional[int] = None) -> "DeploymentSpec":
        """Route the REDO log through an AStore SegmentRing."""
        changes: Dict[str, object] = {"use_astore_log": True}
        if servers is not None:
            changes["astore_servers"] = servers
        return dataclasses.replace(self, **changes)

    def with_ebp(
        self,
        size: Optional[int] = None,
        segment_bytes: Optional[int] = None,
    ) -> "DeploymentSpec":
        """Attach an Extended Buffer Pool of ``size`` bytes."""
        changes: Dict[str, object] = {"use_ebp": True}
        if size is not None:
            changes["ebp_capacity_bytes"] = size
        if segment_bytes is not None:
            changes["ebp_segment_bytes"] = segment_bytes
        return dataclasses.replace(self, **changes)

    def with_pushdown(self) -> "DeploymentSpec":
        """Enable storage-side push-down query execution."""
        return dataclasses.replace(self, enable_pushdown=True)

    def with_engine(self, **overrides) -> "DeploymentSpec":
        """Override EngineConfig fields (e.g. ``buffer_pool_bytes=...``)."""
        return dataclasses.replace(
            self, engine=dataclasses.replace(self.engine, **overrides)
        )

    def with_tracing(self, enabled: bool = True) -> "DeploymentSpec":
        """Record virtual-time spans for Chrome trace export."""
        return dataclasses.replace(self, trace=enabled)

    def with_fault_tolerance(
        self,
        heartbeat_interval: Optional[float] = None,
        failure_timeout: Optional[float] = None,
        lease_duration: Optional[float] = None,
    ) -> "DeploymentSpec":
        """Tune the failure detector's cadence and the lease length."""
        changes: Dict[str, object] = {}
        if heartbeat_interval is not None:
            changes["astore_heartbeat_interval"] = heartbeat_interval
        if failure_timeout is not None:
            changes["astore_failure_timeout"] = failure_timeout
        if lease_duration is not None:
            changes["astore_lease_duration"] = lease_duration
        return dataclasses.replace(self, **changes)

    def with_replicas(
        self,
        n: int,
        policy: Optional[str] = None,
        cores: Optional[int] = None,
        apply_intervals: Optional[Sequence[float]] = None,
        wait_timeout: Optional[float] = None,
    ) -> "DeploymentSpec":
        """Attach a serving-layer fleet of ``n`` standby replicas.

        ``policy`` picks the read-balancing policy (round-robin,
        least-lag, or p2c); ``apply_intervals`` sets per-replica REDO
        poll cadence (heterogeneous values model unevenly-lagged
        replicas); ``wait_timeout`` bounds the read-your-writes wait
        before a read bounces to the primary.
        """
        if n < 1:
            raise ValueError("replicas must be >= 1, got %r" % n)
        changes: Dict[str, object] = {"replicas": n}
        if policy is not None:
            changes["replica_policy"] = policy
        if cores is not None:
            changes["replica_cores"] = cores
        if apply_intervals is not None:
            changes["replica_apply_intervals"] = tuple(apply_intervals)
        if wait_timeout is not None:
            changes["replica_wait_timeout"] = wait_timeout
        return dataclasses.replace(self, **changes)

    def with_views(
        self,
        views,
        feed_bound: Optional[int] = None,
    ) -> "DeploymentSpec":
        """Register incremental materialized views (single-shard only).

        ``views`` maps view names to SELECT definitions (a dict or
        ``(name, sql)`` pairs); definitions must use only the linear
        operator subset (filter / project / group-by aggregates — see
        :mod:`repro.views.definition`).  The deployment runs one
        ``ViewMaintainer`` daemon folding the primary's REDO feed into
        each view, and the proxy serves matching SELECTs from view
        state in O(result), honoring session read-your-writes tokens
        against the view watermark.
        """
        if isinstance(views, dict):
            pairs = tuple(views.items())
        else:
            pairs = tuple((name, sql) for name, sql in views)
        changes: Dict[str, object] = {"views": pairs}
        if feed_bound is not None:
            changes["view_feed_bound"] = feed_bound
        return dataclasses.replace(self, **changes)

    def with_multiplexing(
        self,
        lanes: int,
        tenants=None,
        queue_limit: Optional[int] = None,
        queue_timeout: Optional[float] = None,
    ) -> "DeploymentSpec":
        """Multiplex parked sessions over ``lanes`` execution lanes.

        Dormant sessions cost a descriptor (token vector + prepared SQL
        texts), not a live engine session, so session count scales far
        past the lane pool; lanes are granted per statement by
        weighted-fair queueing over ``tenants`` (a ``{name: weight}``
        dict or ``(name, weight)`` pairs; omitted = one "default"
        tenant).  Requires ``with_replicas`` (the mux rides the proxy).
        """
        if lanes < 1:
            raise ValueError("mux lanes must be >= 1, got %r" % lanes)
        if isinstance(tenants, dict):
            pairs = tuple(tenants.items())
        elif tenants is not None:
            pairs = tuple((name, weight) for name, weight in tenants)
        else:
            pairs = None
        changes: Dict[str, object] = {"mux_lanes": lanes}
        if pairs is not None:
            changes["mux_tenants"] = pairs
        if queue_limit is not None:
            changes["mux_queue_limit"] = queue_limit
        if queue_timeout is not None:
            changes["mux_queue_timeout"] = queue_timeout
        return dataclasses.replace(self, **changes)

    def with_admission(
        self,
        read_limit: Optional[int] = None,
        queue_limit: Optional[int] = None,
        queue_timeout: Optional[float] = None,
    ) -> "DeploymentSpec":
        """Tune the proxy's read admission limit and queue bound."""
        changes: Dict[str, object] = {}
        if read_limit is not None:
            changes["admission_read_limit"] = read_limit
        if queue_limit is not None:
            changes["admission_queue_limit"] = queue_limit
        if queue_timeout is not None:
            changes["admission_queue_timeout"] = queue_timeout
        return dataclasses.replace(self, **changes)

    def build(self) -> "Deployment":
        """Stand the deployment up (construction only; call ``start()``)."""
        return Deployment(self)

    # ------------------------------------------------------------------
    # The paper's four canonical shapes
    # ------------------------------------------------------------------
    @classmethod
    def stock(cls, **overrides) -> "DeploymentSpec":
        return cls(**overrides)

    @classmethod
    def astore_log(cls, **overrides) -> "DeploymentSpec":
        return cls(use_astore_log=True, **overrides)

    @classmethod
    def astore_ebp(cls, **overrides) -> "DeploymentSpec":
        return cls(use_astore_log=True, use_ebp=True, **overrides)

    @classmethod
    def astore_pq(cls, **overrides) -> "DeploymentSpec":
        return cls(
            use_astore_log=True, use_ebp=True, enable_pushdown=True, **overrides
        )


class ShardStack:
    """One shard's full vertical stack, constructed by :class:`Deployment`.

    Fields are populated in construction order, so ``engine`` is still
    None while the log ring's recycle callback is being wired (the
    callback tolerates that, exactly like the single-shard path).
    """

    __slots__ = ("index", "seeds", "pagestore", "astore", "logstore",
                 "ring", "ebp", "engine", "fleet", "admission")

    def __init__(self, index: int, seeds: SeedSequence):
        self.index = index
        self.seeds = seeds
        self.pagestore: Optional[PageStoreService] = None
        self.astore: Optional[AStoreCluster] = None
        self.logstore: Optional[LogStore] = None
        self.ring: Optional[SegmentRing] = None
        self.ebp: Optional[ExtendedBufferPool] = None
        self.engine: Optional[DBEngine] = None
        self.fleet = None
        self.admission = None


class Deployment:
    """A fully wired veDB system on one simulation environment."""

    def __init__(self, config: Optional[DeploymentSpec] = None):
        self.config = config or DeploymentSpec()
        self.env = Environment()
        self.obs = obs_of(self.env)
        if self.config.trace:
            self.obs.enable_tracing(self.env)
        self.seeds = SeedSequence(self.config.seed)
        self._needs_astore = self.config.use_astore_log or self.config.use_ebp
        # Local import: repro.shard pulls in the query layer, which must
        # not import the harness back at module load.
        from ..shard import Coordinator, ShardMap

        #: One vertical stack (log + PageStore + engine + fleet) per shard.
        self.shards = []
        for index in range(self.config.shards):
            if index == 0 and self.config.shards == 1:
                # A single-shard deployment consumes self.seeds directly,
                # keeping construction byte-identical to the pre-sharding
                # builder; sharded stacks derive independent sequences.
                seeds = self.seeds
            else:
                seeds = SeedSequence(self.seeds.seed_for("shard-%d" % index))
            self.shards.append(self._build_stack(index, seeds))
        primary = self.shards[0]
        # Shard-0 aliases: the single-shard API surface is unchanged.
        self.pagestore = primary.pagestore
        self.astore = primary.astore
        self.logstore = primary.logstore
        self.ring = primary.ring
        self.ebp = primary.ebp
        self.engine = primary.engine
        self.fleet = primary.fleet
        self.admission = primary.admission
        self.shardmap = ShardMap(self.config.shards)
        self.coordinator = Coordinator(
            self.env, self.shardmap, [stack.engine for stack in self.shards]
        )
        #: The view maintainer daemon (``with_views``), else None.
        self.views = None
        if self.config.views is not None:
            from ..views.definition import ViewDefinition
            from ..views.maintainer import ViewMaintainer

            self.views = ViewMaintainer(
                self.env,
                self.engine,
                [ViewDefinition(name, sql) for name, sql in self.config.views],
                feed_bound=self.config.view_feed_bound,
            )
        self.frontend = None
        if self.config.replicas > 0:
            from ..frontend.proxy import SqlProxy

            # Sharded planes see transient aborts a single primary never
            # produces (global deadlock victims, presumed aborts), so
            # their proxy retries writes; a single primary's does not.
            write_retry = RetryPolicy() if self.config.shards > 1 else None
            self.frontend = SqlProxy(
                self.env,
                self.engine,
                self.fleet,
                admission=self.admission,
                wait_timeout=self.config.replica_wait_timeout,
                shardmap=self.shardmap,
                coordinator=self.coordinator,
                shard_targets=[
                    (stack.engine, stack.fleet, stack.admission)
                    for stack in self.shards
                ],
                write_retry=write_retry,
                retry_rng=(
                    self.seeds.stream("proxy-write-retry")
                    if write_retry is not None else None
                ),
                views=self.views,
            )
        #: The session mux (``with_multiplexing``), else None.
        self.mux = None
        if self.config.mux_lanes > 0:
            from ..frontend.mux import SessionMux

            tenants = (
                dict(self.config.mux_tenants)
                if self.config.mux_tenants is not None else None
            )
            self.mux = SessionMux(
                self.env,
                self.frontend,
                lanes=self.config.mux_lanes,
                tenants=tenants,
                queue_limit=self.config.mux_queue_limit,
                queue_timeout=self.config.mux_queue_timeout,
            )
        self.detector: Optional[FailureDetector] = None
        self.deadlock_detector = None
        self._started = False
        self._register_gauges()

    def _build_stack(self, index: int, seeds: SeedSequence) -> ShardStack:
        """Construct one shard's stack on the shared environment."""
        config = self.config
        stack = ShardStack(index, seeds)
        stack.pagestore = PageStoreService(self.env, seeds)
        if self._needs_astore:
            stack.astore = AStoreCluster(
                self.env,
                seeds,
                num_servers=config.astore_servers,
                pmem_capacity=1 * GB,
                segment_slot_size=max(
                    4 * MB, config.log_segment_bytes, config.ebp_segment_bytes
                ),
                lease_duration=config.astore_lease_duration,
                route_refresh_period=config.astore_route_refresh_period,
                heartbeat_interval=config.astore_heartbeat_interval,
                failure_timeout=config.astore_failure_timeout,
            )
        if config.use_astore_log:
            client = stack.astore.new_client("log-client")
            stack.ring = SegmentRing(
                client,
                ring_size=config.log_ring_segments,
                segment_size=config.log_segment_bytes,
                replication=LOG_REPLICATION,
                # A FULL segment recycles once this shard's REDO reached
                # its PageStore: the ring demands that ship and waits.  No
                # more than is durable - the log writer is the one waiting.
                reclaim=lambda lsn, stack=stack: stack.engine.ship_through(
                    min(lsn, stack.engine.log.persistent_lsn), "ring"),
            )
            log_backend = AStoreLogBackend(stack.ring)
        else:
            stack.logstore = LogStore(self.env, seeds)
            log_backend = SsdLogBackend(stack.logstore)
        if config.use_ebp:
            ebp_client = stack.astore.new_client("ebp-client")
            stack.ebp = ExtendedBufferPool(
                self.env,
                ebp_client,
                capacity_bytes=config.ebp_capacity_bytes,
                segment_size=config.ebp_segment_bytes,
            )
        stack.engine = DBEngine(
            self.env,
            seeds,
            config.engine,
            log_backend,
            stack.pagestore,
            ebp=stack.ebp,
        )
        if config.replicas > 0:
            # Local imports: repro.frontend pulls in the query layer,
            # which must not import the harness back at module load.
            from ..frontend.admission import AdmissionController
            from ..frontend.fleet import ReplicaFleet
            from ..frontend.policies import make_policy

            policy = make_policy(
                config.replica_policy, rng=seeds.stream("frontend-policy")
            )
            stack.fleet = ReplicaFleet(
                self.env,
                stack.engine,
                count=config.replicas,
                policy=policy,
                cores=config.replica_cores,
                apply_intervals=config.replica_apply_intervals,
            )
            stack.admission = AdmissionController(
                self.env,
                limits={
                    "read": config.admission_read_limit,
                    "write": 32,
                },
                queue_limit=config.admission_queue_limit,
                queue_timeout=config.admission_queue_timeout,
            )
        return stack

    @property
    def registry(self):
        """The deployment-wide :class:`repro.obs.MetricsRegistry`."""
        return self.obs.registry

    @property
    def engines(self):
        """Per-shard primary engines (``engines[0] is deployment.engine``)."""
        return [stack.engine for stack in self.shards]

    @property
    def tracer(self):
        """The deployment-wide span tracer (no-op unless ``trace=True``)."""
        return self.obs.tracer

    def _register_gauges(self) -> None:
        """Expose every component counter through the metrics registry.

        This is the single rendering of deployment state:
        ``harness.stats.collect_stats`` is just ``registry.snapshot()``.
        A single-shard deployment keeps the historical unprefixed names;
        a sharded one nests each stack under ``shardK.`` and re-exposes
        cross-shard engine totals at the historical names.
        """
        reg = self.obs.registry
        for stack in self.shards:
            prefix = "" if self.config.shards == 1 else "shard%d." % stack.index
            self._register_stack_gauges(reg, prefix, stack)
        if self.views is not None:
            maintainer = self.views
            reg.gauge("views.maintainer", lambda: maintainer.counters())
            for view in maintainer.views.values():
                reg.gauge(
                    "views.%s" % view.definition.name,
                    lambda v=view: dict(
                        v.stats(), rescan_causes=dict(v.applier.scans)
                    ),
                )
        if self.config.enable_pushdown:
            # PushdownRuntime increments these; pre-register so the report
            # shows zeros even before the first PQ session runs.
            for name in (
                "fragments",
                "tasks_dispatched",
                "pages_via_ebp",
                "pages_via_pagestore",
                "pages_local",
                "fallback_pages",
                "cost_rejected",
            ):
                reg.incr("query.pushdown." + name, 0)
        if self.config.shards > 1:
            engines = [stack.engine for stack in self.shards]
            coordinator = self.coordinator
            reg.gauge("engine.committed",
                      lambda: sum(e.committed for e in engines))
            reg.gauge("engine.aborted",
                      lambda: sum(e.aborted for e in engines))
            reg.gauge("engine.statements",
                      lambda: sum(e.statements for e in engines))
            # Contention totals next to the coordinator block: lock
            # timeouts and deadlock aborts are the sharded plane's
            # primary robustness signals.
            reg.gauge("engine.lock_waits",
                      lambda: sum(e.locks.waits for e in engines))
            reg.gauge("engine.lock_timeouts",
                      lambda: sum(e.locks.timeouts for e in engines))
            reg.gauge("engine.deadlocks",
                      lambda: sum(e.locks.deadlocks for e in engines))
            reg.gauge("coordinator", lambda: coordinator.counters())
            reg.gauge("shard.commit_fence",
                      lambda: coordinator.fence.counters())
            reg.gauge("shard.deadlock_detector", lambda: (
                self.deadlock_detector.counters()
                if self.deadlock_detector is not None
                else {"sweeps": 0, "cycles_found": 0, "victims_aborted": 0}
            ))

    def _register_stack_gauges(self, reg, prefix: str,
                               stack: ShardStack) -> None:
        engine = stack.engine
        reg.gauge(prefix + "engine.committed", lambda: engine.committed)
        reg.gauge(prefix + "engine.aborted", lambda: engine.aborted)
        reg.gauge(prefix + "engine.statements", lambda: engine.statements)
        reg.gauge(prefix + "engine.shipped_lsn", lambda: engine.shipped_lsn)
        reg.gauge(prefix + "engine.persistent_lsn",
                  lambda: engine.log.persistent_lsn)
        reg.gauge(prefix + "engine.log_flushes", lambda: engine.log.flushes)
        reg.gauge(prefix + "engine.records_flushed",
                  lambda: engine.log.records_flushed)
        # Why each group-commit flush happened, and what still sits in
        # the log buffer waiting for a demand.
        reg.gauge(prefix + "engine.log.flush_demand",
                  lambda: dict(engine.log.flush_demand))
        # Why each PageStore ship happened (the causes sum to its ships).
        reg.gauge(prefix + "engine.ship_demand",
                  lambda: dict(engine.ship_demand))
        reg.gauge(prefix + "engine.log.pending_bytes",
                  lambda: engine.log.pending_bytes)
        reg.gauge(prefix + "engine.lock_waits", lambda: engine.locks.waits)
        reg.gauge(prefix + "engine.lock_timeouts",
                  lambda: engine.locks.timeouts)
        reg.gauge(prefix + "engine.deadlocks", lambda: engine.locks.deadlocks)
        reg.gauge(prefix + "engine.degraded", lambda: engine.degraded)
        reg.gauge(prefix + "engine.flush_retries",
                  lambda: engine.flush_retries)
        reg.gauge(prefix + "engine.degraded_episodes",
                  lambda: engine.degraded_episodes)
        # Per-subscriber REDO feed pressure: queue depth and overflow
        # counts (an overflow silently costs the subscriber a rescan).
        reg.gauge(prefix + "engine.redo_feed",
                  lambda: engine.redo_feed_stats())
        bp = engine.buffer_pool
        reg.gauge(prefix + "buffer_pool.hits", lambda: bp.hits)
        reg.gauge(prefix + "buffer_pool.misses", lambda: bp.misses)
        reg.gauge(prefix + "buffer_pool.hit_ratio",
                  lambda: round(bp.hit_ratio, 4))
        reg.gauge(prefix + "buffer_pool.evictions", lambda: bp.evictions)
        reg.gauge(prefix + "buffer_pool.used_pages", lambda: bp.used_pages)
        reg.gauge(prefix + "buffer_pool.capacity_pages",
                  lambda: bp.capacity_pages)
        ps = stack.pagestore
        reg.gauge(prefix + "pagestore.page_reads", lambda: ps.page_reads)
        reg.gauge(prefix + "pagestore.ships", lambda: ps.ships)
        reg.gauge(prefix + "pagestore.gossip_rounds",
                  lambda: ps.gossip_rounds)
        for server in ps.servers:
            reg.gauge(
                prefix + "pagestore.servers.%s" % server.server_id,
                lambda s=server: {
                    "records_received": s.records_received,
                    "gossip_served": s.gossip_served,
                    "cpu_busy_s": round(s.cpu.busy_time, 6),
                },
            )
        if stack.ebp is not None:
            ebp = stack.ebp
            reg.gauge(prefix + "ebp.hits", lambda: ebp.hits)
            reg.gauge(prefix + "ebp.misses", lambda: ebp.misses)
            reg.gauge(prefix + "ebp.stale_hits", lambda: ebp.stale_hits)
            reg.gauge(prefix + "ebp.hit_ratio",
                      lambda: round(ebp.hit_ratio, 4))
            reg.gauge(prefix + "ebp.pages_written", lambda: ebp.pages_written)
            reg.gauge(prefix + "ebp.evictions", lambda: ebp.evictions)
            reg.gauge(prefix + "ebp.dropped_dead", lambda: ebp.dropped_dead)
            reg.gauge(prefix + "ebp.dropped_resident",
                      lambda: ebp.dropped_resident)
            reg.gauge(prefix + "ebp.compactions", lambda: ebp.compactions)
            reg.gauge(prefix + "ebp.segments_released",
                      lambda: ebp.segments_released)
            reg.gauge(prefix + "ebp.writes_dropped",
                      lambda: ebp.writes_dropped)
            reg.gauge(prefix + "ebp.append_failures",
                      lambda: ebp.append_failures)
            reg.gauge(prefix + "ebp.cleaner_waits",
                      lambda: ebp.cleaner_waits)
            reg.gauge(prefix + "ebp.index_entries", lambda: len(ebp.index))
            reg.gauge(prefix + "ebp.live_bytes", lambda: ebp.live_bytes)
            reg.gauge(prefix + "ebp.allocated_bytes",
                      lambda: ebp.allocated_bytes)
            reg.gauge(prefix + "ebp.pages_purged", lambda: ebp.pages_purged)
            reg.gauge(prefix + "ebp.pages_reclaimed",
                      lambda: ebp.pages_reclaimed)
        if stack.astore is not None:
            astore = stack.astore
            reg.gauge(prefix + "astore.rebuilds", lambda: astore.cm.rebuilds)
            for server in astore.servers.values():
                reg.gauge(
                    prefix + "astore.servers.%s" % server.server_id,
                    lambda s=server: dict(
                        {"alive": s.alive},
                        **s.capacity_report,
                        pmem_reads=s.pmem.reads,
                        pmem_writes=s.pmem.writes,
                        rdma_verbs=s.fabric.verbs_posted,
                        cpu_busy_s=round(s.cpu.busy_time, 6),
                    ),
                )
        if stack.fleet is not None:
            fleet = stack.fleet
            reg.gauge(prefix + "frontend.fleet", lambda: {
                "size": len(fleet.handles),
                "routable": len(fleet.routable_handles()),
                "rejoins": fleet.rejoins,
                "failed_restarts": fleet.failed_restarts,
                "lsn_waits": fleet.lsn_waits,
                "lsn_wait_timeouts": fleet.lsn_wait_timeouts,
            })
            # Per-replica lag is first-class observability (satellite of
            # the paper's standby future-work): applied/lag LSN gauges
            # land in every harness.stats snapshot.
            for handle in fleet.handles:
                reg.gauge(
                    prefix + "frontend.replicas.%s" % handle.replica_id,
                    lambda h=handle: {
                        "alive": h.replica.applier.alive,
                        "applied_lsn": h.replica.applied_lsn,
                        "lag_lsn": h.replica.lag_lsn,
                        "records_applied": h.replica.records_applied,
                        "pages": len(h.replica.pages),
                        "reads_served": h.reads_served,
                        "crashes": h.replica.applier.crashes,
                        "recoveries": h.replica.applier.recoveries,
                        "rescans": h.replica.applier.rescans,
                        "rescan_causes": dict(h.replica.applier.scans),
                    },
                )
        if stack.ring is not None:
            ring = stack.ring
            reg.gauge(prefix + "segment_ring.appends", lambda: ring.appends)
            reg.gauge(prefix + "segment_ring.advances",
                      lambda: ring.segment_advances)
            reg.gauge(prefix + "segment_ring.segments",
                      lambda: len(ring.segment_ids))
        if stack.logstore is not None:
            ls = stack.logstore
            reg.gauge(prefix + "logstore.appends", lambda: ls.appends)
            reg.gauge(prefix + "logstore.bytes", lambda: ls.bytes_appended)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Initialise storage (ring pre-creation) and start all daemons.

        Runs the environment until initialisation completes; afterwards the
        deployment is ready for workload processes.
        """
        if self._started:
            return
        self._started = True
        for stack in self.shards:
            if stack.ring is not None:
                init = self.env.process(stack.ring.initialize(first_lsn=0))
                self.env.run_until_event(init)
            stack.engine.start()
            if stack.astore is not None:
                stack.astore.start_maintenance(
                    cleanup_period=self.config.astore_cleanup_period,
                    ebp=stack.ebp,
                )
            if stack.fleet is not None:
                stack.fleet.start()
        if self.views is not None:
            self.views.start()
        if self.astore is not None:
            self.detector = self.astore.detector
        if self.config.shards > 1:
            from ..shard import GlobalDeadlockDetector

            self.deadlock_detector = GlobalDeadlockDetector(
                self.env, self.coordinator
            )
            self.deadlock_detector.start()

    def run_until(self, event):
        """Run until ``event`` fires; returns its value."""
        return self.env.run_until_event(event)

    def run_for(self, seconds: float) -> None:
        self.env.run(until=self.env.now + seconds)

    # ------------------------------------------------------------------
    # Query sessions
    # ------------------------------------------------------------------
    def frontend_session(self, name: Optional[str] = None):
        """A proxied client session (requires ``with_replicas``)."""
        if self.frontend is None:
            raise ValueError(
                "this deployment has no serving frontend; build the spec "
                "with .with_replicas(n)"
            )
        return self.frontend.session(name)

    def mux_session(self, name: Optional[str] = None,
                    tenant: str = "default"):
        """A parked multiplexed session (requires ``with_multiplexing``)."""
        if self.mux is None:
            raise ValueError(
                "this deployment has no session mux; build the spec with "
                ".with_multiplexing(lanes, tenants)"
            )
        return self.mux.open(name, tenant)

    def shard_session(self, home: int = 0):
        """An engine-shaped session routing DML through the coordinator.

        ``home`` picks the shard that answers local reads of replicated
        tables and engine-level scans (TPC-C pins it to the client's
        home warehouse's shard).
        """
        from ..shard import CoordinatorSession

        return CoordinatorSession(self.coordinator, home=home)

    def new_session(
        self,
        enable_pushdown: Optional[bool] = None,
        force_hash_joins: Optional[bool] = None,
        pushdown_row_threshold: Optional[int] = None,
        batch_mode: bool = True,
        shard: int = 0,
    ):
        """A SQL session against one shard's engine (default: shard 0).

        Push-down defaults to the deployment's ``enable_pushdown`` flag;
        ``force_hash_joins`` defaults to following push-down (the paper's
        observation that PQ steers the optimizer toward hash joins).
        ``pushdown_row_threshold=None`` selects the planner's cost-based
        eligibility estimate; pass an explicit row count to restore the
        flat-threshold behaviour.  ``batch_mode`` is accepted and ignored:
        there is one executor, but the frozen ``bench/workloads/
        ch_analytics.py`` still passes the keyword; it goes when a
        ``benchmark`` PR drops it there (ROADMAP 2c).
        """
        from ..query.executor import QuerySession
        from ..query.planner import PlannerConfig
        from ..query.pushdown import PushdownRuntime

        stack = self.shards[shard]
        pushdown = (
            self.config.enable_pushdown if enable_pushdown is None else enable_pushdown
        )
        hash_joins = pushdown if force_hash_joins is None else force_hash_joins
        runtime = None
        if pushdown:
            runtime = PushdownRuntime(
                self.env,
                stack.engine,
                stack.pagestore,
                ebp=stack.ebp,
            )
        return QuerySession(
            stack.engine,
            planner_config=PlannerConfig(
                enable_pushdown=pushdown,
                force_hash_joins=hash_joins,
                pushdown_row_threshold=pushdown_row_threshold,
            ),
            pushdown_runtime=runtime,
        )
