"""Session multiplexing: million-session serving over a small lane pool.

A classic proxy keeps one live :class:`~repro.frontend.proxy.ProxySession`
(engine sessions, prepared plan templates, an admission-fleet presence)
per connected client - O(total sessions) memory and bookkeeping even
when almost every session is idle, which is exactly the state a
cloud-native serving tier lives in (the paper's frontend terminates
huge connection counts against a small compute footprint).

:class:`SessionMux` splits the session into two parts:

- a **descriptor** (:class:`MuxSession`): the durable identity of one
  client session - tenant, consistency-token vector, prepared-statement
  texts, counters.  A dormant session is *only* this: no engine
  session, no plan templates, no fleet slot, no process.  Measured cost
  is ~350 B per session: the 104 B slotted object, a 64 B token list
  and ~250 B for the ``prepared_sql`` dict and its handle.  A served
  statement leaves 8 B per latency recorder behind (one raw double in
  its ``array('d')``) and nothing else.
- an **execution lane** (:class:`Lane`): one live ``ProxySession`` plus
  its per-destination prepared plan templates.  The pool holds a fixed
  handful of lanes (``lanes`` ≪ sessions); a descriptor is *bound* to a
  lane only for the duration of one statement, then parked again.
  Everything that is per-statement expensive (plan templates, replica
  pinning, admission presence) is per-lane, so serving cost is
  O(active statements), never O(total sessions).

Binding restores the descriptor's token vector into the lane's session
**in place** and copies it back at park, so read-your-writes gating and
prepared-statement results are byte-identical to a never-parked session
(the property test in ``tests/frontend/test_mux_properties.py`` drives
random park/write/read interleavings against a live control session).

Lanes are handed out by :class:`~repro.frontend.admission.TenantAdmission`
- weighted fair queueing with deficit round robin - so a bursty bronze
tenant cannot starve a gold tenant's lane share, and per-tenant queue
waits / statement latencies surface at ``frontend.tenant.<name>.*``.
Lane sessions skip the proxy's per-statement read-class admit (the WFQ
checkout *is* their admission) and pin their replica choice, which is
what pays for the mux's fast path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common import QueryError
from ..obs import obs_of
from .admission import TenantAdmission
from .proxy import ProxySession, SqlProxy

__all__ = ["SessionMux", "MuxSession", "MuxPrepared", "Lane"]


class MuxSession:
    """A parked session: descriptor only, no live serving state."""

    __slots__ = (
        "name", "tenant", "lsns", "last_route", "prepared_sql",
        "statements", "reads", "writes", "binds",
    )

    def __init__(self, name: str, tenant: str, nshards: int):
        self.name = name
        self.tenant = tenant
        #: Parked copy of the session's wait-for-LSN token vector.
        self.lsns: List[int] = [0] * nshards
        self.last_route: Optional[str] = None
        #: sql text -> MuxPrepared handle (arity-checked at prepare
        #: time; the plan templates themselves live on the lanes).
        self.prepared_sql: Dict[str, "MuxPrepared"] = {}
        self.statements = 0
        self.reads = 0
        self.writes = 0
        self.binds = 0

    @property
    def last_commit_lsn(self) -> int:
        return max(self.lsns)


class MuxPrepared:
    """A prepared-statement handle owned by a parked session.

    Holds only the SQL text and its arity; executing routes through
    whichever lane the session binds to, reusing that lane's cached
    plan template for the text.
    """

    __slots__ = ("mux", "mux_session", "sql", "param_count")

    def __init__(self, mux: "SessionMux", mux_session: MuxSession,
                 sql: str, param_count: int):
        self.mux = mux
        self.mux_session = mux_session
        self.sql = sql
        self.param_count = param_count

    def execute(self, *params):
        """Generator factory: run one bound execution on a lane."""
        if len(params) != self.param_count:
            raise QueryError(
                "prepared statement wants %d parameters, got %d"
                % (self.param_count, len(params))
            )
        return self.mux._on_lane(
            self.mux_session, self.mux._prepared_leg, self.sql, params
        )


class Lane:
    """One live execution slot: a pinned ProxySession + plan templates."""

    __slots__ = ("index", "session", "prepared", "bound")

    def __init__(self, index: int, session: ProxySession):
        self.index = index
        self.session = session
        #: sql text -> PreparedProxyStatement (lane-local template cache).
        self.prepared: Dict[str, object] = {}
        #: The descriptor currently bound, None when the lane is free.
        self.bound: Optional[MuxSession] = None


class SessionMux:
    """Multiplexes many parked sessions over a fixed lane pool."""

    def __init__(
        self,
        env,
        proxy: SqlProxy,
        lanes: int,
        tenants: Optional[Dict[str, int]] = None,
        queue_limit: int = 512,
        queue_timeout: float = 0.05,
    ):
        if lanes < 1:
            raise ValueError("need at least one lane")
        if tenants is None:
            tenants = {"default": 1}
        self.env = env
        self.proxy = proxy
        self.tenants = dict(tenants)
        self.lanes: List[Lane] = []
        for index in range(lanes):
            session = proxy.session("mux-lane-%d" % index)
            session.pin_route = True
            session.lane_managed = True
            self.lanes.append(Lane(index, session))
        self.wfq = TenantAdmission(
            env, tenants, self.lanes,
            queue_limit=queue_limit, queue_timeout=queue_timeout,
        )
        self.sessions: Dict[str, MuxSession] = {}
        self.binds = 0
        self.statements = 0
        self._active = 0
        registry = obs_of(env).registry
        self._latency = {
            name: registry.latency("frontend.tenant.%s.statement" % name)
            for name in tenants
        }
        registry.gauge("frontend.mux", lambda: {
            "sessions": len(self.sessions),
            "lanes": len(self.lanes),
            "active": self._active,
            "dormant": len(self.sessions) - self._active,
            "queued": self.wfq.queue_depth,
            "binds": self.binds,
            "statements": self.statements,
            "admitted": dict(self.wfq.admitted),
            "shed": dict(self.wfq.shed),
        })

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open(self, name: Optional[str] = None,
             tenant: str = "default") -> MuxSession:
        """Register one parked session descriptor (no live state)."""
        if tenant not in self.tenants:
            raise ValueError("unknown tenant %r" % tenant)
        if name is None:
            name = "mux-%d" % len(self.sessions)
        if name in self.sessions:
            raise ValueError("session %r already open" % name)
        descriptor = MuxSession(name, tenant, self.proxy.nshards)
        self.sessions[name] = descriptor
        return descriptor

    def prepare(self, mux_session: MuxSession, sql: str) -> MuxPrepared:
        """Prepare ``sql`` for a parked session.

        Parses (via the proxy's shared parse cache) to fix the bind
        arity now; the plan template is built lazily per lane on first
        execution there.
        """
        handle = mux_session.prepared_sql.get(sql)
        if handle is None:
            _statement, count = self.proxy.parse_cache.entry(sql)
            handle = MuxPrepared(self, mux_session, sql, count)
            mux_session.prepared_sql[sql] = handle
        return handle

    # ------------------------------------------------------------------
    # Statement surface (all generator factories)
    # ------------------------------------------------------------------
    def read_row(self, mux_session: MuxSession, table: str, key):
        return self._on_lane(mux_session, self._read_row_leg, table, key)

    def execute(self, mux_session: MuxSession, sql: str):
        return self._on_lane(mux_session, self._execute_leg, sql)

    def write(self, mux_session: MuxSession, work):
        return self._on_lane(mux_session, self._write_leg, work)

    @staticmethod
    def _read_row_leg(lane: Lane, table, key):
        return lane.session.read_row(table, key)

    @staticmethod
    def _execute_leg(lane: Lane, sql):
        return lane.session.execute(sql)

    @staticmethod
    def _write_leg(lane: Lane, work):
        return lane.session.write(work)

    @staticmethod
    def _prepared_leg(lane: Lane, sql, params):
        prepared = lane.prepared.get(sql)
        if prepared is None:
            prepared = lane.session.prepare(sql)
            lane.prepared[sql] = prepared
        return prepared.execute(*params)

    # ------------------------------------------------------------------
    # Bind / unbind
    # ------------------------------------------------------------------
    def _on_lane(self, mux_session: MuxSession, leg, *args):
        """Generator: checkout a lane, run one statement, park again.

        ``leg(lane, *args)`` returns the statement generator.  The lane
        is acquired through weighted-fair admission (OverloadError
        propagates to the caller on shed); the descriptor's token is
        restored before the statement and captured after it, even when
        the statement itself raises.
        """
        lane = yield from self.wfq.acquire(mux_session.tenant)
        start = self.env.now
        self._bind(lane, mux_session)
        try:
            result = yield from leg(lane, *args)
            mux_session.statements += 1
            self.statements += 1
            return result
        finally:
            self._unbind(lane, mux_session)
            self.wfq.release(lane)
            self._latency[mux_session.tenant].record(self.env.now - start)

    def _bind(self, lane: Lane, mux_session: MuxSession) -> None:
        session = lane.session
        # In-place restore: the lane session's token list object is
        # shared with its pre-bound routing legs, so it must never be
        # replaced, only overwritten.
        session.token.lsns[:] = mux_session.lsns
        session.last_route = mux_session.last_route
        session.tenant = mux_session.tenant
        lane.bound = mux_session
        mux_session.binds += 1
        self.binds += 1
        self._active += 1

    def _unbind(self, lane: Lane, mux_session: MuxSession) -> None:
        session = lane.session
        mux_session.lsns[:] = session.token.lsns
        mux_session.last_route = session.last_route
        mux_session.reads = mux_session.reads + session.reads
        mux_session.writes = mux_session.writes + session.writes
        session.reads = 0
        session.writes = 0
        lane.bound = None
        self._active -= 1
