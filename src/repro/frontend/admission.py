"""Admission control: per-class concurrency limits with load shedding.

The proxy admits each request into a class ("read", "write", ...) whose
concurrency is capped by a FIFO semaphore.  Requests beyond the cap wait
in a *bounded* admission queue with a deadline; a request is shed with
:class:`repro.common.OverloadError` - never queued unboundedly - when

- the class's queue already holds ``queue_limit`` waiters, or
- the request has waited ``queue_timeout`` without being granted a slot
  (measured from enqueue; a grant racing the deadline onto the same tick
  is shed, not executed).

Shedding is visible through the ``frontend.shedding`` gauge (the paper's
serving tier must degrade predictably, not collapse), and admission wait
time is recorded at ``frontend.admission_wait``.

:class:`TenantAdmission` layers *weighted fair queueing* on top for the
session mux: each tenant owns a bounded FIFO of waiters and a weight;
free execution lanes are handed out by deficit round robin (one
statement = one unit of deficit, ``weight`` units refilled per round),
so under contention each backlogged tenant receives lane time in
proportion to its weight while idle tenants cost nothing
(work-conserving).  Per-tenant sheds, queue waits, and admitted counts
are exposed at ``frontend.tenant.<name>``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from ..common import OverloadError
from ..obs import obs_of
from ..sim.core import AnyOf, Environment, Timeout
from ..sim.resources import Resource, WaitQueue

__all__ = ["AdmissionController", "TenantAdmission"]

#: Sentinel a TenantAdmission dispatcher hands to an expired waiter in
#: place of a slot (the waiter raises OverloadError on seeing it).
_SHED = object()


class AdmissionController:
    """Deadline-bounded admission queues, one per request class."""

    def __init__(
        self,
        env: Environment,
        limits: Dict[str, int],
        queue_limit: int = 64,
        queue_timeout: float = 0.02,
    ):
        if not limits:
            raise ValueError("need at least one admission class")
        for cls, limit in limits.items():
            if limit < 1:
                raise ValueError(
                    "admission limit for %r must be >= 1, got %r" % (cls, limit)
                )
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if queue_timeout <= 0:
            raise ValueError("queue_timeout must be positive")
        self.env = env
        self.limits = dict(limits)
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout
        self._slots = {
            cls: Resource(env, capacity=limit) for cls, limit in limits.items()
        }
        self.admitted = {cls: 0 for cls in limits}
        self.shed = {cls: 0 for cls in limits}
        self.shed_queue_full = 0
        self.shed_deadline = 0
        registry = obs_of(env).registry
        self._wait = registry.latency("frontend.admission_wait")
        registry.gauge("frontend.shedding", lambda: {
            "active": int(self.is_shedding),
            "rejects": self.rejects,
            "queue_full": self.shed_queue_full,
            "deadline": self.shed_deadline,
        })
        registry.gauge("frontend.admission", lambda: {
            cls: {
                "limit": self.limits[cls],
                "in_flight": self._slots[cls].count,
                "queued": self._slots[cls].queue_length,
                "admitted": self.admitted[cls],
                "shed": self.shed[cls],
            }
            for cls in sorted(self.limits)
        })

    @property
    def rejects(self) -> int:
        """Total requests shed across all classes."""
        return sum(self.shed.values())

    @property
    def is_shedding(self) -> bool:
        """True while any class's admission queue is at its bound."""
        return any(
            slot.queue_length >= self.queue_limit
            for slot in self._slots.values()
        )

    def queue_length(self, cls: str) -> int:
        return self._slots[cls].queue_length

    def admit(self, cls: str):
        """Generator: returns an admission ticket or raises OverloadError.

        The ticket (the class's slot pool; never None) goes back to
        :meth:`release` when the request leaves.  A free slot is taken
        without an event.
        """
        try:
            slots = self._slots[cls]
        except KeyError:
            raise ValueError("unknown admission class %r" % cls)
        if slots.queue_length >= self.queue_limit:
            self.shed[cls] += 1
            self.shed_queue_full += 1
            raise OverloadError(
                "admission queue for %r full (%d waiting)"
                % (cls, slots.queue_length)
            )
        start = self.env.now
        grant = slots.acquire()
        if grant is not None:
            deadline = Timeout(self.env, self.queue_timeout)
            expired = True
            try:
                yield AnyOf(self.env, [grant, deadline])
                # Queue wait is measured from enqueue: a waiter whose
                # grant raced the deadline onto the same tick has already
                # waited the full timeout and must be shed, not executed.
                expired = (not grant.triggered
                           or self.env.now - start >= self.queue_timeout)
            finally:
                deadline.cancel()
                if expired:
                    # Withdrawn, or the raced slot goes on to the next
                    # waiter in FIFO order - also when interrupted.
                    slots.release(grant)
            if expired:
                self.shed[cls] += 1
                self.shed_deadline += 1
                raise OverloadError(
                    "admission wait for %r exceeded %.3fs"
                    % (cls, self.queue_timeout)
                )
        self._wait.record(self.env.now - start)
        self.admitted[cls] += 1
        return slots

    def release(self, cls: str, ticket) -> None:
        """Return the concurrency slot ``admit`` handed out as ``ticket``."""
        ticket.release()


class TenantAdmission:
    """Weighted fair hand-out of a fixed slot pool across tenants.

    Used by the session mux to share its execution lanes: ``slots`` is
    the lane pool, ``tenants`` maps tenant name to an integer weight.
    :meth:`acquire` returns a free slot immediately when nobody is
    queued; under contention each tenant waits in its own bounded
    :class:`~repro.sim.resources.WaitQueue` and a deficit-round-robin scheduler grants freed slots so that
    backlogged tenants receive them in weight proportion.  Waiters are
    shed with :class:`~repro.common.OverloadError` when their tenant
    queue is full or their deadline passes.

    The deadline is measured from enqueue (like
    :class:`AdmissionController`) but *enforced at dispatch*: each
    waiter parks on a single event and the dispatcher - which runs on
    every enqueue and every release - sheds expired waiters instead of
    granting them.  An expired waiter is therefore never executed, it
    just learns of the shed at the next grant opportunity rather than
    on a per-waiter timer.  That keeps the hot path at one sim event
    per queued statement (no deadline Timeout + AnyOf pair per waiter),
    which matters when a few lanes absorb tens of thousands of queued
    statements.
    """

    def __init__(
        self,
        env: Environment,
        tenants: Dict[str, int],
        slots: Sequence[Any],
        queue_limit: int = 512,
        queue_timeout: float = 0.05,
    ):
        if not tenants:
            raise ValueError("need at least one tenant")
        for name, weight in tenants.items():
            if weight < 1:
                raise ValueError(
                    "tenant weight for %r must be >= 1, got %r" % (name, weight)
                )
        if not slots:
            raise ValueError("need at least one slot")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if queue_timeout <= 0:
            raise ValueError("queue_timeout must be positive")
        self.env = env
        self.weights = dict(tenants)
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout
        self._order: List[str] = list(tenants)
        self._cursor = 0
        self._free: Deque[Any] = deque(slots)
        self.capacity = len(slots)
        # The dispatcher passes each waiter a slot, or _SHED once its
        # grant's ``since`` is ``queue_timeout`` old.
        self._queues: Dict[str, WaitQueue] = {
            name: WaitQueue() for name in tenants
        }
        self._waiting = 0
        # Dispatch ring: (name, queue, weight) in declaration order, so
        # the DRR scan does no dict lookups on the grant hot path.
        self._ring: List[Tuple[str, WaitQueue, int]] = [
            (name, self._queues[name], self.weights[name])
            for name in self._order
        ]
        self._deficit = {name: 0.0 for name in tenants}
        self.admitted = {name: 0 for name in tenants}
        self.shed = {name: 0 for name in tenants}
        self.shed_queue_full = 0
        self.shed_deadline = 0
        registry = obs_of(env).registry
        self._wait = {
            name: registry.latency("frontend.tenant.%s.wait" % name)
            for name in tenants
        }
        registry.gauge("frontend.wfq", lambda: {
            "free_slots": len(self._free),
            "queued": self.queue_depth,
            "tenants": {
                name: {
                    "weight": self.weights[name],
                    "queued": self.pending(name),
                    "admitted": self.admitted[name],
                    "shed": self.shed[name],
                }
                for name in self._order
            },
        })

    @property
    def queue_depth(self) -> int:
        """Waiters across all tenant queues."""
        return self._waiting

    def pending(self, tenant: str) -> int:
        """Waiters queued for ``tenant``."""
        return len(self._queues[tenant])

    def acquire(self, tenant: str):
        """Generator: returns a slot for ``tenant`` or raises OverloadError."""
        try:
            queue = self._queues[tenant]
        except KeyError:
            raise ValueError("unknown tenant %r" % tenant)
        start = self.env.now
        if self._free and not self._waiting:
            # Work-conserving fast path: an idle pool never queues.
            slot = self._free.popleft()
            self._wait[tenant].record(0.0)
            self.admitted[tenant] += 1
            return slot
        if len(queue) >= self.queue_limit:
            self.shed[tenant] += 1
            self.shed_queue_full += 1
            raise OverloadError(
                "tenant %r admission queue full (%d waiting)"
                % (tenant, len(queue))
            )
        grant = queue.join(self.env)
        self._waiting += 1
        self._dispatch()
        try:
            # Granted synchronously when a slot freed during enqueue (a
            # brand-new waiter can never be expired, so this is a grant).
            slot = grant.value if grant.triggered else (yield grant)
        except BaseException:
            # Interrupted: withdraw, or hand back a lane granted in the
            # same instant.
            if queue.leave(grant):
                self._waiting -= 1
            elif grant.value is not _SHED:
                self.release(grant.value)
            raise
        if slot is _SHED:
            raise OverloadError(
                "tenant %r admission wait exceeded %.3fs"
                % (tenant, self.queue_timeout)
            )
        self._wait[tenant].record(self.env.now - start)
        self.admitted[tenant] += 1
        return slot

    def release(self, slot: Any) -> None:
        """Return ``slot`` to the pool and dispatch queued tenants."""
        self._free.append(slot)
        self._dispatch()

    def _dispatch(self) -> None:
        """Deficit round robin: grant free slots to queued tenants.

        The cursor *parks* on a tenant while it has deficit credit and
        queued waiters, so the per-round weight share survives the
        common serving pattern where slots free up one at a time (one
        ``release`` per statement): a weight-4 tenant takes four
        consecutive grants - spread over four dispatch calls - before
        the cursor moves on.  A tenant's deficit refills by its weight
        only when the cursor *arrives* at it, giving each tenant
        w_i / sum(w) of the grants over a contended lap.  Before
        granting, the visited tenant's expired waiters are shed
        (deadline measured from enqueue; per-tenant FIFO plus a uniform
        timeout makes the expired set a queue prefix) - an expired
        waiter is never granted a slot.  A tenant whose queue drains
        forfeits leftover deficit (no banking credit while idle -
        standard DRR).
        """
        free = self._free
        if not free or not self._waiting:
            return
        ring = self._ring
        count = len(ring)
        deficit = self._deficit
        now = self.env.now
        timeout = self.queue_timeout
        cursor = self._cursor
        idle_visits = 0
        while free and self._waiting:
            name, queue, weight = ring[cursor]
            while queue and (now - queue[0].since) >= timeout:
                self._waiting -= 1
                self.shed[name] += 1
                self.shed_deadline += 1
                queue.pass_on(_SHED)
            if queue and deficit[name] >= 1.0:
                deficit[name] -= 1.0
                self._waiting -= 1
                queue.pass_on(free.popleft())
                idle_visits = 0
                continue  # stay parked here while credit lasts
            # Out of credit (or queue empty): forfeit idle credit,
            # advance, refill the next tenant on arrival.
            if not queue:
                deficit[name] = 0.0
            cursor += 1
            if cursor == count:
                cursor = 0
            deficit[ring[cursor][0]] += ring[cursor][2]
            idle_visits += 1
            if idle_visits > count:
                # A full lap granted nothing (every backlogged queue is
                # all-expired or empty): nothing more to do now.
                break
        self._cursor = cursor
