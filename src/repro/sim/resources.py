"""Contended resources for the simulation kernel.

These model the queueing points of the system: CPU cores, device channels,
latches, and message queues.

One waiter queue
----------------
Every place a process queues behind a holder - a core, a device channel,
the EBP index mutex, a row lock, an admission slot, a mux lane, a
message - is a :class:`WaitQueue` of grant events.  A waiter
*joins* (and yields on its pending grant); whoever lets go *passes on* to
the oldest waiter, whose grant takes its sequence number right there; a
waiter that gives up *leaves*.  :class:`Resource` is a slot count over one
such queue, :class:`CpuPool` is a :class:`Resource`, and
:class:`~repro.engine.txn.LockManager` and
:class:`~repro.frontend.admission.TenantAdmission` keep one per contended
key and per tenant.

The usage pattern is::

    grant = resource.acquire()
    try:
        if grant is not None:
            yield grant
        ... hold the resource ...
    finally:
        resource.release(grant)

A free slot is taken on the spot: ``acquire`` returns None, and nothing is
scheduled or allocated.  ``release`` in the ``finally`` is what keeps an
interrupted waiter from leaking its slot: a grant still pending is
withdrawn, and a grant that landed in the same instant as the interrupt
counts as held and is passed on.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Any, Deque

from .core import PENDING as _PENDING
from .core import Environment, Event, SimulationError
from .core import _FAST_BOUND

__all__ = ["Resource", "Store", "CpuPool", "WaitQueue", "Grant"]


class Grant(Event):
    """A waiter's place in a :class:`WaitQueue`; fires with what it is
    handed.  ``since`` is the instant it joined."""

    __slots__ = ("since",)


class WaitQueue(deque):
    """A FIFO of pending :class:`Grant` events, one per waiter."""

    __slots__ = ()

    def join(self, env: Environment) -> Grant:
        """Queue a waiter; returns the grant it yields on."""
        grant = Grant(env)
        grant.since = env._now
        self.append(grant)
        return grant

    def pass_on(self, value: Any = None) -> None:
        """Hand ``value`` to the oldest waiter (the queue is not empty)."""
        self.popleft().succeed(value)

    def leave(self, grant: Grant) -> bool:
        """Withdraw ``grant`` if it is still pending.

        False means it was granted - perhaps in the very instant its waiter
        was interrupted - so the waiter holds what it was handed and must
        pass it on.
        """
        if grant._value is not _PENDING:
            return False
        self.remove(grant)
        return True


class Resource:
    """``capacity`` slots and a :class:`WaitQueue` of processes waiting
    for one (device channels, latches, submission threads)."""

    __slots__ = ("env", "capacity", "count", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        #: Slots held, including one just handed to a waiter not yet resumed.
        self.count = 0
        self._waiters = WaitQueue()

    @property
    def queue_length(self) -> int:
        """Number of waiters queued for a slot."""
        return len(self._waiters)

    def acquire(self):
        """Take a free slot now (returns None) or queue for one (returns
        the pending grant to yield on)."""
        if self.count < self.capacity:
            self.count += 1
            return None
        return self._waiters.join(self.env)

    def release(self, grant=None) -> None:
        """Let go of what :meth:`acquire` returned; call it from a ``finally``.

        A grant still pending is withdrawn (nothing was held).  Otherwise
        the slot goes to the oldest waiter or back to the pool.
        """
        waiters = self._waiters
        if grant is not None and waiters.leave(grant):
            return
        if waiters:
            waiters.pass_on()
        elif self.count:
            self.count -= 1
        else:
            raise SimulationError("release of a slot that is not held")


class Store:
    """An unbounded FIFO message queue between processes."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters = WaitQueue()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes one waiting getter immediately."""
        if self._getters:
            self._getters.pass_on(item)
        else:
            self._items.append(item)

    def put_many(self, items) -> None:
        """Deposit a batch of items in order; equivalent to repeated
        :meth:`put` but with one call and (in the common uncontended
        case) a single ``deque.extend`` instead of per-item appends."""
        getters = self._getters
        index = 0
        count = len(items)
        while getters and index < count:
            getters.pass_on(items[index])
            index += 1
        if index < count:
            self._items.extend(items[index:] if index else items)

    def get(self, _new=object.__new__) -> Event:
        """Return an event that fires with the next item."""
        if not self._items:
            return self._getters.join(self.env)
        # Inlined succeed() on the uncontended take.
        env = self.env
        event = _new(Event)
        event.env = env
        event.callbacks = []
        event._value = self._items.popleft()
        event._ok = True
        event._defused = False
        seq = env._seq
        env._seq = seq + 1
        if len(env._fast) < _FAST_BOUND:
            env._fast.append((env._now, seq, event, None))
        else:
            _heappush(env._queue, (env._now, seq, event))
        return event


class CpuPool(Resource):
    """A pool of CPU cores with a work-consumption helper.

    ``yield from pool.consume(seconds)`` occupies one core for ``seconds`` of
    virtual time, queueing FIFO when all cores are busy.  This is how the
    reproduction charges per-operation CPU cost (parsing, page application,
    I/O scheduling) and is what produces the CPU-bound throughput plateaus
    the paper reports.  An idle-core ``consume`` allocates nothing but its
    timeout.
    """

    __slots__ = ("busy_time",)

    def __init__(self, env: Environment, cores: int):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        super().__init__(env, cores)
        self.busy_time = 0.0

    @property
    def cores(self) -> int:
        return self.capacity

    def consume(self, seconds: float):
        """Generator: hold one core for ``seconds`` of virtual time."""
        if seconds < 0:
            raise ValueError("negative CPU time")
        grant = self.acquire()
        try:
            if grant is not None:
                yield grant
            yield self.env.timeout(seconds)
            self.busy_time += seconds
        finally:
            self.release(grant)

    def utilization(self, elapsed: float) -> float:
        """Fraction of total core-seconds consumed over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)
