"""Lag-aware replica balancing policies for the serving proxy.

Each policy picks one :class:`repro.frontend.fleet.ReplicaHandle` from
the currently routable set, or ``None`` to send the read to the primary.
Replication lag is observable per replica (``lag_lsn``, in REDO bytes
behind the primary's durable tail), so policies can trade balance
against staleness:

- ``round-robin`` - classic rotation, lag-blind (the baseline the
  serving benchmark beats);
- ``least-lag`` - always the most caught-up replica, minimising
  wait-for-LSN stalls for sessions carrying fresh commit tokens;
- ``p2c`` - power-of-two-choices: the less-lagged of two random
  choices - near-least-lag quality without herding every read onto one
  node.

Policies are deterministic given the fleet state (``p2c`` draws from a
named seed stream), so routed workloads replay bit-identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.rand import Rng

__all__ = [
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLagPolicy",
    "PowerOfTwoChoicesPolicy",
    "POLICY_NAMES",
    "make_policy",
]

POLICY_NAMES = ("round-robin", "least-lag", "p2c")


class RoutingPolicy:
    """Picks a replica handle for one read (or None for the primary)."""

    name = "abstract"

    def choose(self, handles: Sequence, session=None):
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, self.name)


class RoundRobinPolicy(RoutingPolicy):
    """Rotate through routable replicas regardless of lag."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def choose(self, handles: Sequence, session=None):
        if not handles:
            return None
        handle = handles[self._cursor % len(handles)]
        self._cursor += 1
        return handle


class LeastLagPolicy(RoutingPolicy):
    """Route to the most caught-up replica (ties break by replica index)."""

    name = "least-lag"

    def choose(self, handles: Sequence, session=None):
        if not handles:
            return None
        return min(handles, key=lambda h: (h.replica.lag_lsn, h.index))


class PowerOfTwoChoicesPolicy(RoutingPolicy):
    """Power-of-two-choices: the less-lagged of two seeded random picks
    wins - the classic balanced-allocations compromise."""

    name = "p2c"

    def __init__(self, rng: Rng):
        self.rng = rng

    def choose(self, handles: Sequence, session=None):
        if not handles:
            return None
        if len(handles) == 1:
            return handles[0]
        first, second = self.rng.sample(handles, 2)
        if second.replica.lag_lsn < first.replica.lag_lsn:
            return second
        return first


def make_policy(name: str, rng: Optional[Rng] = None) -> RoutingPolicy:
    """Build a policy by CLI/spec name."""
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "least-lag":
        return LeastLagPolicy()
    if name == "p2c":
        if rng is None:
            raise ValueError("p2c policy needs a seeded Rng stream")
        return PowerOfTwoChoicesPolicy(rng)
    raise ValueError(
        "unknown routing policy %r (choose from %s)"
        % (name, ", ".join(POLICY_NAMES))
    )
