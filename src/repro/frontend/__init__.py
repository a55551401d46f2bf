"""Serving frontend: SQL proxy, replica fleet, and admission control.

The paper stops at the storage/engine boundary; this package adds the
serving path its future-work section gestures at ("stand-by instances
that serve read-only queries"; here each one is a full page copy):

- :mod:`repro.frontend.fleet` - a :class:`ReplicaFleet` of
  :class:`repro.engine.standby.StandbyReplica` instances with health
  sweeps, crash/restart cycling, and wait-for-LSN gating;
- :mod:`repro.frontend.policies` - lag-aware balancing policies
  (round-robin, least-lag, bounded-staleness power-of-two-choices);
- :mod:`repro.frontend.admission` - per-class concurrency limits with a
  deadline-bounded admission queue that sheds load via
  :class:`repro.common.OverloadError`, plus :class:`TenantAdmission`:
  weighted fair (deficit-round-robin) hand-out of the mux's execution
  lanes across tenants;
- :mod:`repro.frontend.proxy` - the SQL-aware :class:`SqlProxy` that
  owns client sessions, classifies statements, and enforces
  read-your-writes session consistency with wait-for-LSN tokens;
- :mod:`repro.frontend.mux` - :class:`SessionMux`: million-session
  multiplexing; dormant sessions are parked descriptors and statements
  run over a small pool of execution lanes (cost O(active statements),
  not O(total sessions));
- :mod:`repro.frontend.serve` - the ``python -m repro serve`` scenario:
  mixed write/read traffic through the proxy under replica chaos, with a
  deterministic routing/lag/shed report (``--mux`` adds the
  multi-tenant multiplexed variant).
"""

from .admission import AdmissionController, TenantAdmission
from .fleet import ReplicaFleet, ReplicaHandle
from .mux import Lane, MuxPrepared, MuxSession, SessionMux
from .policies import (
    LeastLagPolicy,
    PowerOfTwoChoicesPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    make_policy,
)
from .proxy import ProxySession, SqlProxy

__all__ = [
    "AdmissionController",
    "TenantAdmission",
    "ReplicaFleet",
    "ReplicaHandle",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLagPolicy",
    "PowerOfTwoChoicesPolicy",
    "make_policy",
    "SqlProxy",
    "ProxySession",
    "SessionMux",
    "MuxSession",
    "MuxPrepared",
    "Lane",
]
