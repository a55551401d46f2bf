"""SQL-aware serving proxy: session ownership and statement routing.

:class:`SqlProxy` sits between clients and the deployment:

- **classification**: the proxy's :class:`repro.shard.ShardMap` names
  the shard(s) each statement touches; a 1-shard proxy is an N-shard
  proxy with N = 1, so every statement kind has one path.  A SELECT on
  one shard is a routed read to that shard's replica fleet, a SELECT on
  several scatters and merges, and DML (one shard: a local transaction,
  several: two-phase commit) and explicit transactions go to the
  primaries;
- **session consistency**: every :class:`ProxySession` carries its last
  commit LSN per shard as a *wait-for-LSN token*.  A routed read first
  parks on the chosen replica until ``applied_lsn`` catches the token
  (``ReplicaFleet.wait_for_lsn``); if the replica cannot catch up within
  the bounded wait - or dies mid-read (epoch bump) - the read is
  rerouted, ultimately bouncing to the primary, so a session can never
  observe a version older than its own writes;
- **admission control**: reads and writes are admitted through the
  :class:`repro.frontend.admission.AdmissionController` per-class
  queues; shed requests surface as :class:`repro.common.OverloadError`
  without touching the engine.  One wrapper, ``SqlProxy._admitted``,
  admits, times, counts and releases every statement; a mux lane's
  reads skip the read-class admit (the lane checkout admitted them).

The statement fast path: a bounded LRU :class:`repro.query.ParseCache`
is shared by classification, every primary and replica session, and
prepared statements, so each distinct SQL text is parsed once per proxy
while warm; ``session.prepare(sql)`` returns a
:class:`PreparedProxyStatement` that keeps one plan template per
destination session (its parameters only pick the shard).  Routing is
allocation-lean: each statement kind has one pre-bound pair of
destination legs taking the shard as an argument (no per-read closure),
and the LSN gate is checked inline before paying the ``wait_for_lsn``
generator hop.

Routing decisions, bounces, and per-replica serve counts are exposed via
the ``frontend.proxy`` gauge; reads/writes record latency at
``frontend.proxy_read`` / ``frontend.proxy_write``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common import (
    QueryError,
    RetryPolicy,
    StorageError,
    TransactionAborted,
)
from ..obs import obs_of
from ..query.ast import Delete, Insert, Select, Update
from ..query.cache import ParseCache, bind_statement
from ..query.executor import PreparedStatement, QueryResult, QuerySession
from ..query.planner import PlannerConfig
from ..shard import InDoubtTransaction, ShardMap, ShardVectorToken, merge
from .admission import AdmissionController
from .fleet import ReplicaFleet, ReplicaHandle

__all__ = ["SqlProxy", "ProxySession", "PreparedProxyStatement"]

#: Why a read landed on the primary instead of a replica.
BOUNCE_REASONS = ("no_replica", "lag_timeout", "rerouted")


class ProxySession:
    """One client's session: its consistency token and route history."""

    def __init__(self, proxy: "SqlProxy", name: str,
                 tenant: str = "default"):
        self.proxy = proxy
        self.name = name
        #: Admission/QoS class this session's statements bill against.
        self.tenant = tenant
        #: Mux lanes pin their replica choice: the handle picked for the
        #: lane's first read is reused until it stops being routable,
        #: replacing a fleet.choose policy call per statement with one
        #: attribute check.  Correctness is unchanged - the LSN gate and
        #: epoch check still run against the pinned replica every read.
        self.pin_route = False
        self._pinned_handle: Optional[ReplicaHandle] = None
        #: True when an execution lane owns this session: lane checkout
        #: already passed weighted-fair admission, so the per-statement
        #: read-class admit is skipped (lanes never exceed the read cap).
        self.lane_managed = False
        #: Wait-for-LSN token: one durable commit LSN per shard.  A read
        #: routed to shard k must not observe anything older than
        #: component k; single-shard proxies carry a one-entry vector,
        #: so the scalar ``last_commit_lsn`` surface survives as a view.
        self.token = ShardVectorToken(proxy.nshards)
        #: Where the last read landed ("primary" or a replica id).
        self.last_route: Optional[str] = None
        self.reads = 0
        self.writes = 0

    @property
    def last_commit_lsn(self) -> int:
        """Scalar view of the token (max component; exact on 1 shard)."""
        return self.token.max_lsn()

    def note_commit_lsn(self, lsn: int, shard: int = 0) -> None:
        self.token.note(shard, lsn)

    def note_commit_map(self, lsns) -> None:
        """Advance the token by a ``{shard: lsn}`` commit map."""
        self.token.note_map(lsns)

    # -- read path -----------------------------------------------------
    def read_row(self, table: str, key):
        """Routed point read honouring the session token (generator)."""
        proxy = self.proxy
        return proxy._routed_read(
            self, proxy._replica_read_row, proxy._primary_read_row,
            (table, key), proxy.shardmap.read_shard_of(table, key)
        )

    def execute(self, sql: str):
        """Classify one SQL statement and route it (generator).

        A statement with unbound ``?`` placeholders raises
        :class:`repro.common.QueryError` here, before admission.
        """
        proxy = self.proxy
        statement, nparams = proxy.parse_cache.entry(sql)
        if nparams:
            raise QueryError(
                "statement has %d unbound parameter(s); use prepare()"
                % nparams
            )
        if type(statement) is not Select:
            return proxy.distributed_dml(self, statement)
        if proxy.views is not None:
            match = proxy.views.match(statement)
            if match is not None:
                return proxy.view_read(self, sql, statement, match)
        shards = proxy.shardmap.shards_for_select(
            statement, proxy.engine.catalog
        )
        if len(shards) == 1:
            return proxy._routed_read(
                self, proxy._replica_select, proxy._primary_select,
                (sql,), next(iter(shards))
            )
        return proxy._scatter(self, statement, sorted(shards), sql)

    def prepare(self, sql: str) -> "PreparedProxyStatement":
        """Parse/classify once; returns a routable prepared handle."""
        statement, nparams = self.proxy.parse_cache.entry(sql)
        return PreparedProxyStatement(self, sql, statement, nparams)

    # -- write path ----------------------------------------------------
    def write(self, work):
        """Generator: run ``work(txn)`` in a primary transaction.

        Commits on success (advancing the session token to the commit
        record's LSN), rolls back and re-raises on failure - including a
        failure of the commit itself, which must not leave the
        transaction open holding locks.

        With a proxy-level :class:`repro.common.RetryPolicy`
        (``write_retry``), transient aborts - lock timeouts, deadlock
        victims, 2PC presumed aborts - are retried with bounded, seeded
        backoff, re-running ``work`` against a fresh transaction.
        :class:`InDoubtTransaction` is **never** retried: its outcome is
        a durable commit, so re-running ``work`` would double-apply.
        """
        proxy = self.proxy
        policy = proxy.write_retry
        if policy is None:
            return (yield from self._write_once(work))
        deadline = proxy.env.now + policy.deadline
        attempt = 0
        while True:
            try:
                return (yield from self._write_once(work))
            except InDoubtTransaction:
                raise
            except TransactionAborted:
                attempt += 1
                if (attempt >= policy.max_attempts
                        or proxy.env.now >= deadline):
                    proxy.write_retry_giveups += 1
                    raise
                proxy.write_retries += 1
                yield proxy.env.timeout(
                    policy.backoff(attempt - 1, proxy.retry_rng)
                )

    def _write_once(self, work):
        """Generator: one attempt of the transactional write path."""
        return self.proxy._admitted(
            self, SqlProxy.WRITE_CLASS, 0, self._transaction(work)
        )

    def _transaction(self, work):
        engine = self.proxy.write_engine
        txn = engine.begin()
        try:
            result = yield from work(txn)
        except Exception:
            yield from engine.rollback(txn)
            raise
        try:
            yield from engine.commit(txn)
        except Exception:
            yield from engine.rollback(txn)
            raise
        commit_lsns = getattr(txn, "commit_lsns", None)
        if commit_lsns is not None:
            self.note_commit_map(commit_lsns)
        else:
            self.note_commit_lsn(
                max((record.lsn for record in txn.records),
                    default=engine.log.persistent_lsn)
            )
        return result

    def run_write(self, gen):
        """Generator: admit an opaque write generator (e.g. a TPC-C
        transaction that begins/commits internally) as this session's
        write; the token advances to the durable tail afterwards."""
        return self.proxy._admitted(
            self, SqlProxy.WRITE_CLASS, 0, self._opaque_write(gen)
        )

    def _opaque_write(self, gen):
        result = yield from gen
        # Opaque writes may have touched any shard: advance the token to
        # every durable tail (conservative but correct).
        for shard, engine in enumerate(self.proxy.engines):
            self.note_commit_lsn(engine.log.persistent_lsn, shard)
        return result


class PreparedProxyStatement:
    """A prepared statement routed like any other proxy statement.

    A SELECT keeps one :class:`repro.query.PreparedStatement` - its plan
    template - per destination :class:`QuerySession` (primary or
    replica, any shard), built on first use there; the bound parameters
    only choose the shard.  DML binds and runs through the proxy's DML
    path like a text statement.
    """

    def __init__(self, session: ProxySession, sql: str, statement,
                 param_count: int):
        self.session = session
        self.sql = sql
        self.statement = statement
        self.param_count = param_count
        self.is_select = type(statement) is Select
        self._prepared: Dict[QuerySession, PreparedStatement] = {}
        self._replica_leg = self._execute_on_replica
        self._primary_leg = self._execute_on_primary

    def _execute_on(self, qsession: QuerySession, params):
        prepared = self._prepared.get(qsession)
        if prepared is None:
            prepared = self._prepared[qsession] = qsession.prepare(self.sql)
        return prepared.execute(*params)

    def _execute_on_replica(self, handle: ReplicaHandle, shard: int, params):
        proxy = self.session.proxy
        return self._execute_on(proxy.replica_session(handle, shard), params)

    def _execute_on_primary(self, shard: int, params):
        proxy = self.session.proxy
        return self._execute_on(proxy.primary_session_for(shard), params)

    def execute(self, *params):
        """Route one execution with ``params`` bound (generator)."""
        if len(params) != self.param_count:
            raise QueryError(
                "prepared statement wants %d parameter(s), got %d"
                % (self.param_count, len(params))
            )
        session = self.session
        proxy = session.proxy
        if not self.is_select:
            return proxy.distributed_dml(
                session, bind_statement(self.statement, params)
            )
        shards = proxy.shardmap.shards_for_select(
            self.statement, proxy.engine.catalog, params
        )
        if len(shards) == 1:
            return proxy._routed_read(
                session, self._replica_leg, self._primary_leg, (params,),
                next(iter(shards))
            )
        return proxy._scatter(
            session, bind_statement(self.statement, params), sorted(shards),
            None
        )


class SqlProxy:
    """The serving frontend over one deployment."""

    READ_CLASS = "read"
    WRITE_CLASS = "write"

    def __init__(
        self,
        env,
        engine,
        fleet: Optional[ReplicaFleet],
        admission: Optional[AdmissionController] = None,
        wait_timeout: float = 0.02,
        parse_cache_size: int = 256,
        shardmap=None,
        coordinator=None,
        shard_targets=None,
        consistent_scatter: bool = True,
        scatter_fence_timeout: float = 0.5,
        write_retry: Optional[RetryPolicy] = None,
        retry_rng=None,
        views=None,
    ):
        if wait_timeout <= 0:
            raise ValueError("wait_timeout must be positive")
        if scatter_fence_timeout <= 0:
            raise ValueError("scatter_fence_timeout must be positive")
        if write_retry is not None and retry_rng is None:
            raise ValueError(
                "write_retry needs a retry_rng (a seeded Rng stream) so "
                "backoff jitter stays deterministic"
            )
        self.env = env
        self.engine = engine
        self.fleet = fleet
        self.wait_timeout = wait_timeout
        #: Scatter SELECTs take the coordinator's commit fence plus a
        #: per-shard durable-LSN cut, making them atomic w.r.t. 2PC.
        self.consistent_scatter = consistent_scatter
        self.scatter_fence_timeout = scatter_fence_timeout
        self.write_retry = write_retry
        self.retry_rng = retry_rng
        #: The deployment's ViewMaintainer (``with_views``, single-shard
        #: only), else None.  Eligible text SELECTs are answered from
        #: view state; prepared statements keep their per-session plan
        #: templates and skip view routing.
        self.views = views
        # Shard routing: one (engine, fleet, admission) target per shard.
        # An unsharded proxy is the one-target degenerate case, so every
        # routing path below is uniform over shard indices.
        if shard_targets is None:
            shard_targets = [(engine, fleet, admission)]
        self.nshards = len(shard_targets)
        if self.nshards > 1 and (shardmap is None or coordinator is None):
            raise ValueError(
                "a sharded proxy needs both a shardmap and a coordinator"
            )
        self.shardmap = ShardMap(1) if shardmap is None else shardmap
        self.coordinator = coordinator
        self.engines = [target[0] for target in shard_targets]
        self.fleets = [target[1] for target in shard_targets]
        self.admissions = [target[2] for target in shard_targets]
        self.parse_cache = ParseCache(capacity=parse_cache_size)
        self.sessions = []
        self._session_names = set()
        self.reads_replica = 0
        self.reads_primary = 0
        self.writes = 0
        self.reroutes = 0
        self.scatter_selects = 0
        self.scatter_fenced = 0
        self.scatter_cut_waits = 0
        self.distributed_writes = 0
        self.write_retries = 0
        self.write_retry_giveups = 0
        self.views_served = 0
        self.views_bounced = 0
        self.bounces = {reason: 0 for reason in BOUNCE_REASONS}
        self.per_replica_reads: Dict[str, int] = {}
        for shard, shard_fleet in enumerate(self.fleets):
            if shard_fleet is not None:
                for handle in shard_fleet.handles:
                    key = self._replica_key(shard, handle.replica_id)
                    self.per_replica_reads[key] = 0
        self._replica_sessions: Dict[str, QuerySession] = {}
        self._primary_sessions: Dict[int, QuerySession] = {}
        # Unsharded proxies write straight at the primary; sharded ones
        # build a CoordinatorSession lazily on first write.
        self._write_engine = engine if self.nshards == 1 else None
        # One pre-bound leg pair per statement kind, shared by every
        # session: the shard and the statement travel as arguments.
        self._replica_read_row = self._read_row_on_replica
        self._primary_read_row = self._read_row_on_primary
        self._replica_select = self._select_on_replica
        self._primary_select = self._select_on_primary
        self._replica_partial = self._partial_on_replica
        self._primary_partial = self._partial_on_primary
        registry = obs_of(env).registry
        self._latency = {
            self.READ_CLASS: registry.latency("frontend.proxy_read"),
            self.WRITE_CLASS: registry.latency("frontend.proxy_write"),
        }
        registry.gauge("frontend.proxy", lambda: {
            "sessions": len(self.sessions),
            "reads_replica": self.reads_replica,
            "reads_primary": self.reads_primary,
            "writes": self.writes,
            "reroutes": self.reroutes,
            "scatter_selects": self.scatter_selects,
            "scatter_fenced": self.scatter_fenced,
            "scatter_cut_waits": self.scatter_cut_waits,
            "distributed_writes": self.distributed_writes,
            "write_retries": self.write_retries,
            "write_retry_giveups": self.write_retry_giveups,
            "views_served": self.views_served,
            "views_bounced": self.views_bounced,
            "bounces": dict(self.bounces),
            "per_replica_reads": dict(self.per_replica_reads),
        })

    def _replica_key(self, shard: int, replica_id: str) -> str:
        """Stable id for one replica; unprefixed on a 1-shard proxy."""
        if self.nshards == 1:
            return replica_id
        return "s%d:%s" % (shard, replica_id)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, name: Optional[str] = None,
                tenant: str = "default") -> ProxySession:
        if name is None:
            # Default names must not collide with earlier explicit names
            # (an explicit "session-1" used to shadow the next default).
            index = len(self.sessions)
            name = "session-%d" % index
            while name in self._session_names:
                index += 1
                name = "session-%d" % index
        session = ProxySession(self, name, tenant)
        self._session_names.add(name)
        self.sessions.append(session)
        return session

    @property
    def primary_session(self) -> QuerySession:
        """A plain (no push-down) SQL session against shard 0's primary."""
        return self.primary_session_for(0)

    @property
    def write_engine(self):
        """The engine-shaped surface session writes run against.

        Unsharded: the primary DBEngine.  Sharded: a cached
        CoordinatorSession, so ``ProxySession.write`` transactions route
        rows to their home shards (and 2PC when they cross shards)."""
        if self._write_engine is None:
            from ..shard import CoordinatorSession

            self._write_engine = CoordinatorSession(self.coordinator, home=0)
        return self._write_engine

    def primary_session_for(self, shard: int) -> QuerySession:
        """The cached SQL session against one shard's primary."""
        session = self._primary_sessions.get(shard)
        if session is None:
            session = QuerySession(
                self.engines[shard],
                planner_config=PlannerConfig(enable_pushdown=False),
                parse_cache=self.parse_cache,
            )
            self._primary_sessions[shard] = session
        return session

    def replica_session(self, handle: ReplicaHandle,
                        shard: int = 0) -> QuerySession:
        """The per-replica SQL session (SELECT-only, replica-local).

        ``QuerySession``'s read path only touches ``engine.catalog``,
        ``engine.fetch_page``, and ``engine.cpu``, all of which the
        standby provides, so the same executor serves replica reads.
        """
        key = self._replica_key(shard, handle.replica_id)
        session = self._replica_sessions.get(key)
        if session is None:
            handle.replica.sync_catalog()
            session = QuerySession(
                handle.replica,
                planner_config=PlannerConfig(enable_pushdown=False),
                parse_cache=self.parse_cache,
            )
            self._replica_sessions[key] = session
        return session

    # ------------------------------------------------------------------
    # The one statement wrapper
    # ------------------------------------------------------------------
    def _admitted(self, session: ProxySession, cls: str, shard: int, body):
        """Generator: run ``body`` as one ``cls`` statement of ``session``.

        The only place a statement is admitted (on ``shard``'s
        controller, once however many shards it touches), timed, counted
        and released.  A mux lane's read skips the admit: the lane's
        weighted-fair checkout already admitted it.
        """
        admission = self.admissions[shard]
        reading = cls == self.READ_CLASS
        ticket = None
        if admission is not None and not (reading and session.lane_managed):
            ticket = yield from admission.admit(cls)
        start = self.env.now
        try:
            result = yield from body
            if reading:
                session.reads += 1
            else:
                session.writes += 1
                self.writes += 1
            return result
        finally:
            self._latency[cls].record(self.env.now - start)
            if ticket is not None:
                admission.release(cls, ticket)

    # ------------------------------------------------------------------
    # Destination legs: ``replica(handle, shard, *args)`` and
    # ``primary(shard, *args)`` return the statement's generator there
    # ------------------------------------------------------------------
    def _read_row_on_replica(self, handle: ReplicaHandle, shard: int,
                             table: str, key):
        return handle.replica.read_row(table, key)

    def _read_row_on_primary(self, shard: int, table: str, key):
        return self.engines[shard].read_row(None, table, key)

    def _select_on_replica(self, handle: ReplicaHandle, shard: int,
                           sql: str):
        return self.replica_session(handle, shard).execute(sql)

    def _select_on_primary(self, shard: int, sql: str):
        return self.primary_session_for(shard).execute(sql)

    # Each scatter leg runs its shard's share (an aggregate statement's
    # stops at partial groups); the merge shapes the one answer.
    def _partial_on_replica(self, handle: ReplicaHandle, shard: int,
                            statement: Select, sql: Optional[str]):
        return self.replica_session(handle, shard).execute_partial_select(
            statement, sql)

    def _partial_on_primary(self, shard: int, statement: Select,
                            sql: Optional[str]):
        return self.primary_session_for(shard).execute_partial_select(
            statement, sql)

    # ------------------------------------------------------------------
    # Read routing
    # ------------------------------------------------------------------
    def _routed_read(self, session: ProxySession, replica_fn, primary_fn,
                     args, shard: int):
        """Generator: admit, route and consistency-gate one read aimed at
        ``shard``'s fleet and primary (``args`` carry the statement)."""
        return self._admitted(
            session, self.READ_CLASS, shard,
            self._route(session, replica_fn, primary_fn, args, shard),
        )

    def _route(self, session: ProxySession, replica_fn, primary_fn, args,
               shard: int, min_lsn: Optional[int] = None):
        fleet = self.fleets[shard]
        token = session.token.lsns[shard]
        # A scatter cut can demand more than the session's own writes:
        # the leg must observe at least the shard's durable tail as of
        # the fence acquisition, or a lagging replica could hide one
        # side of an already-committed cross-shard transaction.
        cut_forced = min_lsn is not None and min_lsn > token
        if cut_forced:
            token = min_lsn
        for _attempt in range(2):
            if fleet is None:
                handle = None
            elif session.pin_route:
                handle = session._pinned_handle
                if handle is None or not handle.routable:
                    handle = fleet.choose(session)
                    session._pinned_handle = handle
            else:
                handle = fleet.choose(session)
            if handle is None:
                return (yield from self._primary_read(
                    session, primary_fn, "no_replica", shard, args))
            applier = handle.replica.applier
            if applier.watermark < token:
                if cut_forced:
                    self.scatter_cut_waits += 1
                # Only pay the wait generator when actually behind; the
                # caught-up case records no wait metrics either way.
                caught_up = yield from fleet.wait_for_lsn(
                    handle, token, self.wait_timeout
                )
                if not caught_up:
                    if session.pin_route:
                        # Do not stay pinned to a chronic laggard.
                        session._pinned_handle = None
                    return (yield from self._primary_read(
                        session, primary_fn, "lag_timeout", shard, args))
            epoch = applier.epoch
            handle.inflight += 1
            failed = False
            result = None
            try:
                result = yield from replica_fn(handle, shard, *args)
            except (QueryError, StorageError, KeyError):
                # A crash mid-read can yank catalog/index state out from
                # under the executor; treat it like any other dead read.
                failed = True
            finally:
                handle.inflight -= 1
            if failed or applier.epoch != epoch or not applier.alive:
                # The replica died under us: the result (even a
                # non-exceptional one) may predate the crash or come from
                # half-rebuilt state - discard and try the next route.
                self.reroutes += 1
                if session.pin_route:
                    session._pinned_handle = None
                continue
            handle.reads_served += 1
            self.reads_replica += 1
            key = self._replica_key(shard, handle.replica_id)
            self.per_replica_reads[key] += 1
            session.last_route = key
            return result
        return (yield from self._primary_read(
            session, primary_fn, "rerouted", shard, args))

    def _primary_read(self, session: ProxySession, primary_fn, reason: str,
                      shard: int, args):
        """The primary leg's generator, counted as a ``reason`` bounce."""
        self.bounces[reason] += 1
        self.reads_primary += 1
        session.last_route = "primary"
        return primary_fn(shard, *args)

    def view_read(self, session: ProxySession, sql: str, statement, match):
        """Generator: serve an eligible SELECT from maintained view state.

        Admitted as a read, like any routed SELECT.  Read-your-writes
        holds against the *view watermark*: the read waits (bounded by
        ``wait_timeout``) for the maintainer to fold the session's last
        commit LSN before serving in O(result).  If the maintainer is
        down, cannot catch up in time, or crashes mid-serve, the read
        falls back to the ordinary replica/primary route — the answer is
        never stale, only the fast path is lost.
        """
        return self._admitted(
            session, self.READ_CLASS, 0,
            self._serve_view(session, sql, statement, match),
        )

    def _serve_view(self, session: ProxySession, sql: str, statement,
                    match):
        view, item_map = match
        result = None
        fresh = yield from view.applier.wait_for_lsn(
            session.token.lsns[0], self.wait_timeout
        )
        if fresh:
            result = yield from self.views.serve(view, statement, item_map)
        if result is not None:
            self.views_served += 1
            session.last_route = "view:%s" % view.definition.name
            return result
        self.views_bounced += 1
        return (yield from self._route(
            session, self._replica_select, self._primary_select, (sql,), 0))

    def _scatter(self, session: ProxySession, statement, shards, sql):
        """Generator: run one SELECT per target shard, merge the results.

        Admission is charged once (on the lowest target shard), not once
        per shard; each per-shard leg still gets the full routed-read
        treatment (token wait, reroute, primary bounce).  ``sql`` keys
        the legs' plan caches (None: a bound prepared AST, re-planned).

        With ``consistent_scatter`` the fan-out is *atomic* w.r.t. every
        multi-shard commit: the read side of the coordinator's
        :class:`repro.shard.CommitFence` is held across all legs (no 2PC
        commit can land between them), and each leg is forced to observe
        at least its shard's durable tail as captured at fence entry (a
        per-shard LSN cut), so a commit that completed *before* the
        scatter cannot be visible on one shard's leg yet missing on
        another's lagging replica.  A scatter that cannot enter the
        fence within ``scatter_fence_timeout`` (a 2PC write is stuck in
        doubt) fails with :class:`repro.shard.FenceTimeout` rather than
        returning a torn result.
        """
        return self._admitted(
            session, self.READ_CLASS, shards[0],
            self._scatter_legs(session, statement, shards, sql),
        )

    def _scatter_legs(self, session: ProxySession, statement, shards, sql):
        fence = (
            self.coordinator.fence
            if self.consistent_scatter and self.coordinator is not None
            else None
        )
        fenced = False
        try:
            cut = None
            if fence is not None:
                yield from fence.acquire_read(
                    max_wait=self.scatter_fence_timeout
                )
                fenced = True
                self.scatter_fenced += 1
                cut = [
                    engine.log.persistent_lsn for engine in self.engines
                ]
            legs = []
            for shard in shards:
                legs.append((
                    yield from self._route(
                        session, self._replica_partial,
                        self._primary_partial, (statement, sql), shard,
                        min_lsn=None if cut is None else cut[shard],
                    )
                ))
            self.scatter_selects += 1
            return merge(statement, legs, obs_of(self.env).registry)
        finally:
            if fenced:
                fence.release_read()

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def distributed_dml(self, session: ProxySession, statement):
        """Generator: route one DML statement by its shard set.

        A statement pinned to one shard (every statement, on a 1-shard
        proxy) runs as a plain local transaction there - no prepare, no
        decision record - while anything touching several shards runs
        through the coordinator as two-phase commit.  Admission is
        charged once, on the lowest target shard, so a multi-shard
        statement does not consume a write slot per participant.
        """
        shards = sorted(self.shardmap.shards_for_dml(
            statement, self.engine.catalog
        ))
        if len(shards) == 1:
            body = self._local_dml(session, statement, shards[0])
        else:
            body = self._two_phase_dml(session, statement, shards)
        return self._admitted(session, self.WRITE_CLASS, shards[0], body)

    def _local_dml(self, session: ProxySession, statement, shard: int):
        result = yield from self.primary_session_for(
            shard).execute_statement(statement)
        session.note_commit_lsn(
            self.engines[shard].log.persistent_lsn, shard
        )
        return result

    def _two_phase_dml(self, session: ProxySession, statement, shards):
        """Generator: run one multi-shard DML as a distributed txn.

        INSERT rows route individually through the coordinator (which
        broadcasts replicated tables); UPDATE/DELETE first collect
        matching primary keys from every target shard's scan, then apply
        the writes through the coordinator so each row lands on - and
        locks - its home shard.
        """
        coordinator = self.coordinator
        catalog = self.engine.catalog
        dtxn = coordinator.begin()
        try:
            if isinstance(statement, Insert):
                table = catalog.table(statement.table)
                inserted = 0
                for row in statement.rows:
                    if statement.columns is not None:
                        values = [None] * len(table.schema)
                        for column, value in zip(statement.columns, row):
                            values[table.schema.position(column)] = value
                    else:
                        values = list(row)
                    yield from coordinator.insert(
                        dtxn, statement.table, values
                    )
                    inserted += 1
                result = QueryResult(["inserted"], [(inserted,)])
            elif isinstance(statement, (Update, Delete)):
                table = catalog.table(statement.table)
                # Replicated tables hold the same rows everywhere: scan
                # one shard for keys, let the coordinator broadcast.
                scan_shards = (
                    shards[:1]
                    if self.shardmap.spec_of(statement.table).replicated
                    else shards
                )
                keys = []
                seen = set()
                for shard in scan_shards:
                    found = yield from self.primary_session_for(
                        shard)._matching_keys(table, statement.where)
                    for key in found:
                        if key not in seen:
                            seen.add(key)
                            keys.append(key)
                if isinstance(statement, Update):
                    for key in keys:
                        current = yield from coordinator.read_row(
                            dtxn, statement.table, key, for_update=True
                        )
                        row = {
                            "%s.%s" % (table.name, name): value
                            for name, value in zip(
                                table.schema.names, current
                            )
                        }
                        changes = {
                            column: expr.eval(row)
                            for column, expr in statement.assignments.items()
                        }
                        yield from coordinator.update(
                            dtxn, statement.table, key, changes
                        )
                    result = QueryResult(["updated"], [(len(keys),)])
                else:
                    for key in keys:
                        yield from coordinator.delete(
                            dtxn, statement.table, key
                        )
                    result = QueryResult(["deleted"], [(len(keys),)])
            else:
                raise QueryError("unsupported statement %r" % statement)
            yield from coordinator.commit(dtxn)
        except BaseException:
            # Harmless for decided txns: coordinator.rollback leaves
            # those to resume_decided()/recovery.
            yield from coordinator.rollback(dtxn)
            raise
        self.distributed_writes += 1
        session.note_commit_map(dtxn.commit_lsns)
        return result
