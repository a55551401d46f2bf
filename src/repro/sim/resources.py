"""Contended resources for the simulation kernel.

These model the queueing points of the system: CPU cores, device channels,
mutexes, and message queues.  All of them hand out :class:`~repro.sim.core.Event`
objects that a process yields on.

The canonical usage pattern is::

    req = resource.request()
    yield req
    try:
        ... hold the resource ...
    finally:
        resource.release(req)

or the :meth:`Resource.locked` context-generator helper used throughout the
code base.

Grant fast path: an uncontended ``request()`` (and every grant in
``release``) triggers the request inline — setting ``_ok``/``_value``
directly instead of going through :meth:`Event.succeed`'s already-triggered
guard — and the kernel routes the resulting delay-0 schedule through its
same-tick trampoline.  The grant still consumes a sequence number at exactly
the same point, so FIFO order and same-tick tie-breaks are byte-identical to
the slow path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Any, Deque, List

from .core import PENDING as _PENDING
from .core import Environment, Event, SimulationError
from .core import _FAST_BOUND

__all__ = ["Resource", "Store", "CpuPool", "Mutex"]


class _Request(Event):
    """A pending claim on a resource; fires when the claim is granted.

    The request object is the token to pass to ``release``; the value it
    fires with is None.  (It used to be the request itself - a reference
    cycle, so every grant lived until the next pass of the cycle
    collector.)
    """

    __slots__ = ("resource", "cancelled")

    def __init__(self, env: Environment, resource: "Resource"):
        # Flattened Event.__init__: requests are created on every
        # resource/CPU acquisition.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.cancelled = False

    def cancel(self) -> None:
        """Withdraw an ungranted request (granted ones must be released).

        Leaves the wait queue immediately so ``queue_length`` only counts
        live waiters (admission control bounds its queue on it).
        """
        self.cancelled = True
        try:
            self.resource._waiting.remove(self)
        except ValueError:
            pass  # already granted (in _users) or already drained


class Resource:
    """A FIFO resource with fixed capacity (e.g. device channels)."""

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: List[_Request] = []
        self._waiting: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted, unreleased requests."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a free slot."""
        return len(self._waiting)

    def request(self, _new=object.__new__, _len=len) -> _Request:
        # Built via object.__new__ (one Python frame, not two) — requests
        # are churned on every CPU/device acquisition.
        env = self.env
        req = _new(_Request)
        req.env = env
        req.callbacks = []
        req._value = _PENDING
        req._ok = True
        req._defused = False
        req.resource = self
        req.cancelled = False
        if _len(self._users) < self.capacity:
            # Uncontended grant: trigger inline (the request is freshly
            # created, so succeed()'s double-trigger guard is redundant)
            # and schedule straight onto the same-tick trampoline.
            self._users.append(req)
            req._value = None
            seq = env._seq
            env._seq = seq + 1
            if _len(env._fast) < _FAST_BOUND:
                env._fast.append((env._now, seq, req, None))
            else:
                _heappush(env._queue, (env._now, seq, req))
        else:
            self._waiting.append(req)
        return req

    def try_acquire(self, _new=object.__new__, _len=len):
        """Uncontended grant without scheduling any event, else None.

        The token is a granted :class:`_Request` (pass it to
        :meth:`release` or :meth:`give_back` as usual) that was never
        yielded on, so the acquisition costs zero trips through the event
        loop.  Device channels, the EBP index mutex and the EBP append
        latch are all taken this way; only when the resource is busy do
        they fall back to :meth:`request` + yield.
        """
        if _len(self._users) >= self.capacity:
            return None
        env = self.env
        req = _new(_Request)
        req.env = env
        req.callbacks = []
        req._value = None
        req._ok = True
        req._defused = False
        req.resource = self
        req.cancelled = False
        self._users.append(req)
        return req

    def release(self, request: _Request, _len=len) -> None:
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("release of a request that is not held")
        # Grant inline: release is as hot as request(), and the common
        # case grants zero or one waiter.
        waiting = self._waiting
        users = self._users
        env = self.env
        while waiting and _len(users) < self.capacity:
            req = waiting.popleft()
            if req.cancelled:
                continue
            users.append(req)
            req._value = None
            seq = env._seq
            env._seq = seq + 1
            if _len(env._fast) < _FAST_BOUND:
                env._fast.append((env._now, seq, req, None))
            else:
                _heappush(env._queue, (env._now, seq, req))

    def give_back(self, request: _Request) -> None:
        """Release ``request`` if it was granted, withdraw it if it still
        waits - what a ``finally`` needs when an interrupt (or a
        ``with_timeout`` deadline) may land while the request is queued.

        A grant scheduled in the same instant as the interrupt counts as
        granted, so the slot is released straight on to the next waiter.
        """
        if request._value is _PENDING:
            request.cancel()
        else:
            self.release(request)

    def locked(self, inner):
        """Run generator ``inner`` while holding one slot of the resource.

        Usage: ``result = yield from resource.locked(some_generator())``.
        """
        req = self.request()
        try:
            yield req
            result = yield from inner
        finally:
            self.give_back(req)
        return result


class Mutex(Resource):
    """A capacity-1 resource; named for readability at call sites."""

    __slots__ = ()

    def __init__(self, env: Environment):
        super().__init__(env, capacity=1)


class _StoreGet(Event):
    """A pending take from a :class:`Store` (real slot for ``cancelled``).

    ``batched`` marks a :meth:`Store.get_upto` waiter, whose value is a
    list of items rather than a single item.
    """

    __slots__ = ("cancelled", "batched")

    def __init__(self, env: Environment):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.cancelled = False
        self.batched = False


class Store:
    """An unbounded FIFO message queue between processes."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[_StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes one waiting getter immediately."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.cancelled:
                continue
            # Inlined succeed(): the getter is pending by construction.
            getter._value = [item] if getter.batched else item
            env = self.env
            seq = env._seq
            env._seq = seq + 1
            if len(env._fast) < _FAST_BOUND:
                env._fast.append((env._now, seq, getter, None))
            else:
                _heappush(env._queue, (env._now, seq, getter))
            return
        self._items.append(item)

    def put_many(self, items) -> None:
        """Deposit a batch of items in order; equivalent to repeated
        :meth:`put` but with one call and (in the common uncontended
        case) a single ``deque.extend`` instead of per-item appends."""
        getters = self._getters
        if not getters:
            self._items.extend(items)
            return
        index = 0
        count = len(items)
        env = self.env
        while getters and index < count:
            getter = getters.popleft()
            if getter.cancelled:
                continue
            item = items[index]
            index += 1
            getter._value = [item] if getter.batched else item
            seq = env._seq
            env._seq = seq + 1
            if len(env._fast) < _FAST_BOUND:
                env._fast.append((env._now, seq, getter, None))
            else:
                _heappush(env._queue, (env._now, seq, getter))
        if index < count:
            self._items.extend(items[index:] if index else items)

    def get(self, _new=object.__new__) -> Event:
        """Return an event that fires with the next item."""
        event = _new(_StoreGet)
        event.env = self.env
        event.callbacks = []
        event._value = _PENDING
        event._ok = True
        event._defused = False
        event.cancelled = False
        event.batched = False
        if self._items:
            # Inlined succeed() on the uncontended take.
            event._value = self._items.popleft()
            env = event.env
            seq = env._seq
            env._seq = seq + 1
            if len(env._fast) < _FAST_BOUND:
                env._fast.append((env._now, seq, event, None))
            else:
                _heappush(env._queue, (env._now, seq, event))
        else:
            self._getters.append(event)
        return event

    def get_upto(self, limit: int, _new=object.__new__) -> Event:
        """Return an event firing with a list of 1..``limit`` items.

        Fires immediately (inline succeed) with everything queued, up to
        ``limit``; otherwise parks like :meth:`get` and fires with a
        single-item list on the next put.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        event = _new(_StoreGet)
        event.env = self.env
        event.callbacks = []
        event._value = _PENDING
        event._ok = True
        event._defused = False
        event.cancelled = False
        event.batched = True
        items = self._items
        if items:
            take = len(items)
            if take > limit:
                take = limit
            event._value = [items.popleft() for _ in range(take)]
            env = event.env
            seq = env._seq
            env._seq = seq + 1
            if len(env._fast) < _FAST_BOUND:
                env._fast.append((env._now, seq, event, None))
            else:
                _heappush(env._queue, (env._now, seq, event))
        else:
            self._getters.append(event)
        return event


class CpuPool:
    """A pool of CPU cores with a work-consumption helper.

    ``yield from pool.consume(seconds)`` occupies one core for ``seconds`` of
    virtual time, queueing FIFO when all cores are busy.  This is how the
    reproduction charges per-operation CPU cost (parsing, page application,
    I/O scheduling) and is what produces the CPU-bound throughput plateaus
    the paper reports.

    A core is not an object: the pool keeps a busy count and a FIFO of
    grant events, one per queued ``consume``.  A release with waiters hands
    its core to the oldest of them (the count does not move, and the grant
    takes its sequence number at the release, as a ``Resource`` grant
    would); an idle-core ``consume`` allocates nothing but its timeout.
    """

    __slots__ = ("env", "cores", "_busy", "_grants", "busy_time")

    def __init__(self, env: Environment, cores: int):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.env = env
        self.cores = cores
        self._busy = 0
        self._grants: Deque[Event] = deque()
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        """Cores held, including one just handed to a waiter not yet resumed."""
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._grants)

    def consume(self, seconds: float):
        """Generator: hold one core for ``seconds`` of virtual time."""
        if seconds < 0:
            raise ValueError("negative CPU time")
        grant = None
        if self._busy < self.cores:
            self._busy += 1
        else:
            grant = Event(self.env)
            self._grants.append(grant)
        try:
            if grant is not None:
                yield grant
            yield self.env.timeout(seconds)
            self.busy_time += seconds
        finally:
            if grant is not None and grant._value is _PENDING:
                # Interrupted while still queued (a ``with_timeout``
                # deadline does exactly this): withdraw, no core was held.
                # A grant that landed in the same instant counts as held
                # and is passed on below.
                self._grants.remove(grant)
            elif self._grants:
                self._grants.popleft().succeed()
            else:
                self._busy -= 1

    def utilization(self, elapsed: float) -> float:
        """Fraction of total core-seconds consumed over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)
