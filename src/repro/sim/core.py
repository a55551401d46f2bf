"""Discrete-event simulation kernel.

This module provides the virtual-time substrate on which every hardware and
network component of the reproduction runs.  The design follows the classic
process-interaction style (cf. SimPy): a *process* is a Python generator that
yields :class:`Event` objects; the :class:`Environment` resumes the generator
when the yielded event fires.

The kernel is deliberately small and deterministic:

- Events scheduled for the same virtual time fire in schedule order (a
  monotonically increasing sequence number breaks ties), so a simulation with
  a fixed RNG seed always produces byte-identical results.
- There is no wall-clock anywhere; ``env.now`` is a float number of seconds.

Fast path
---------
Most of the event traffic in a database simulation is *same-tick* control
flow: resource grants, process bootstraps, interrupts, and resumptions of
processes that yielded an already-processed event.  All of these are
scheduled with delay 0 at the current virtual time, which means their
``(time, seq)`` keys are appended in already-sorted order.  The kernel
therefore routes them into a bounded FIFO trampoline (a plain ``deque``)
instead of the heap, and :meth:`Environment.step` services whichever of
{trampoline front, heap top} has the smaller ``(time, seq)`` key.

Because sequence numbers are allocated at exactly the same points as before
and both containers drain in global ``(time, seq)`` order, the service order
— and therefore every simulated result — is byte-identical to a pure-heap
kernel.  The trampoline only removes per-event ``heappush``/``heappop`` work
and (for process resumptions) the throwaway ``Event`` allocation.  If the
trampoline is full, entries overflow to the heap, which is merely slower,
never different.

Fan-out
-------
Parallel work that a caller joins - a replicated append, a quorum ship,
striped I/O, dispatched query fragments - goes through one primitive,
:class:`FanOut`: the legs are plain generators, started inside the
constructor and driven by event callbacks, joined on k of N with an
optional deadline.  A fan schedules one event of its own (its completion)
on top of whatever moves the clock inside its legs; a spawned
:class:`Process` per leg would add a bootstrap and a completion event
each, plus a condition event for the join.  :func:`with_timeout` is the
deadline alone, armed on the calling process.  The rule for removing an
event: **only the event count may be able to see it** - same clock, same
RNG draws, same resource order, same outputs on every seed.

Cancelled timers
----------------
A deadline that is met has nobody left to wake: :meth:`Timeout.cancel`
withdraws it, and every waiter that stops waiting on a timer of its own
(``with_timeout``, a :class:`FanOut` deadline, a row-lock, admission or
commit-fence wait) calls it.  A cancelled timer never fires and never
moves the clock, in ``run()``, ``step()`` and ``peek()`` alike.  It
keeps the sequence number it took at creation, so every other event
keeps its ``(time, seq)`` key and ``env._seq`` counts exactly what it
counted before: the cancel rule is the removal rule above with the event
count held fixed.  Its heap entry is deleted lazily, as asyncio's event
loop does: skipped when it reaches the top, and dropped by a ``heapify``
rebuild once cancelled entries outnumber live ones (above
:data:`_CANCEL_FLOOR`).

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return "done at %.1f" % env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
'done at 1.5'
"""

from __future__ import annotations

from collections import deque
from heapq import heapify as _heapify, heappop as _heappop
from heapq import heappush as _heappush
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "FanOut",
    "Interrupt",
    "SimulationError",
    "with_timeout",
]

#: Trampoline bound: beyond this many queued same-tick entries, scheduling
#: falls back to the heap (identical order, just O(log n) again).  The bound
#: only guards pathological same-tick storms from growing an unbounded deque
#: next to an already-bounded heap.
_FAST_BOUND = 8192

#: Cancelled heap entries always tolerated before a rebuild; above it the
#: heap is rebuilt as soon as cancelled entries outnumber live ones, so it
#: holds at most this many, or as many as live ones, that nobody waits for.
_CANCEL_FLOOR = 64


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, yield of non-event)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


PENDING = object()
#: The ``_value`` of a cancelled timer: its heap entry is skipped, never fired.
CANCELLED = object()


class Event:
    """A condition that may happen at some point in virtual time.

    An event starts *pending*; it is *triggered* once it has a value (or an
    exception) and a scheduled callback flush.  Processes wait on events by
    yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    # -- inspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0,
                _len=len) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        # Inlined _schedule: succeed() fires on every process completion,
        # store hand-off, and condition resolution.
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        if delay == 0.0 and _len(env._fast) < _FAST_BOUND:
            env._fast.append((env._now, seq, self, None))
        else:
            _heappush(env._queue, (env._now + delay, seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._value is not PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        # Flattened Event.__init__ and _schedule — a Timeout is born
        # triggered, and timeouts are the single most common schedule.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        if delay == 0.0 and len(env._fast) < _FAST_BOUND:
            env._fast.append((env._now, seq, self, None))
        else:
            _heappush(env._queue, (env._now + delay, seq, self))

    def cancel(self) -> None:
        """Withdraw the timer: it never fires and never moves the clock.

        Its callbacks go at once; its heap entry keeps its ``(time, seq)``
        key and is deleted lazily (see the module docstring).  Idempotent,
        and a no-op once the timer has fired.  A zero-delay timer fires in
        this very tick, so cancelling it only drops its callbacks.
        """
        callbacks = self.callbacks
        if callbacks is None or self._value is CANCELLED:
            return
        callbacks.clear()
        if self.delay == 0.0:
            return
        self._value = CANCELLED
        env = self.env
        env._cancelled += 1
        if (env._cancelled > _CANCEL_FLOOR
                and 2 * env._cancelled > len(env._queue)):
            env._compact()


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The process value is the generator's ``return`` value; if the generator
    raises, the process fails with that exception (propagated to waiters, or
    re-raised by :meth:`Environment.run` if nobody waits).
    """

    __slots__ = ("_generator", "_send", "_throw", "_name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        # Flattened Event.__init__ — short-lived processes are churned by
        # the thousand in fan-out paths.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError("process requires a generator, got %r" % (generator,))
        self._generator = generator
        self._name = name
        self._target: Optional[Event] = None
        # Bootstrap: resume the generator at the current time (same-tick
        # trampoline entry; consumes one sequence number like the old
        # bootstrap Event did).
        seq = env._seq
        env._seq = seq + 1
        if len(env._fast) < _FAST_BOUND:
            env._fast.append((env._now, seq, self, (True, None, False)))
        else:
            env._schedule_overflow(self, seq, True, None, False)

    @property
    def name(self) -> str:
        """Diagnostic name, resolved lazily (off the spawn hot path)."""
        return self._name or getattr(self._generator, "__name__", "process")

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:
            return
        # Pre-defused: the interrupt is consumed by the interrupted process,
        # or dropped silently if the process terminated in the meantime.
        self.env._schedule_resume(self, False, Interrupt(cause), True)

    def _resume(self, event: Event, _PENDING=PENDING) -> None:
        # An interrupt may race with the target event; if we already
        # terminated, drop it silently.
        if self._value is not _PENDING:
            return
        # Detach from the event we were waiting on (relevant for interrupts).
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:
                pass
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event._defused = True
                result = self._throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None
        try:
            rcb = result.callbacks
        except AttributeError:
            self._generator.throw(
                SimulationError("process yielded non-event %r" % (result,))
            )
            return
        if rcb is None:
            # Already processed: resume next tick (same time) via the
            # trampoline — no follow Event, no heap round-trip.
            if not result._ok:
                result._defused = True
            env._schedule_resume(self, result._ok, result._value, False)
        else:
            # The process object itself is the waiter registration: flush
            # sites recognise ``cb.__class__ is Process`` and resume it,
            # so no bound-method object is ever allocated.
            rcb.append(self)
            self._target = result

    def _resume_fast(self, ok: bool, value: Any, defused: bool) -> None:
        """Service a trampoline resume entry.

        Semantically identical to :meth:`Environment.step` flushing a
        one-callback Event whose sole callback is :meth:`_resume`: a dead
        process swallows the resume unless it carries an undefused failure,
        which then propagates out of the event loop exactly as an unwaited
        failed event would.
        """
        if self._value is not PENDING:
            if not ok and not defused:
                raise value
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:
                pass
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if ok:
                result = self._send(value)
            else:
                result = self._throw(value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None
        try:
            rcb = result.callbacks
        except AttributeError:
            self._generator.throw(
                SimulationError("process yielded non-event %r" % (result,))
            )
            return
        if rcb is None:
            if not result._ok:
                result._defused = True
            env._schedule_resume(self, result._ok, result._value, False)
        else:
            rcb.append(self)
            self._target = result


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        # Flattened Event.__init__ (conditions are churned in fan-out and
        # with_timeout paths).
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.events = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        self._init_state()
        check = self._check  # bind once, not once per constituent
        for event in self.events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)
        if not self.events and self._value is PENDING:
            self.succeed({})

    def _init_state(self) -> None:
        """Subclass hook run before any ``_check`` can fire."""

    def _collect(self) -> dict:
        # ``callbacks is None`` is the processed check, inlined past the
        # property (this runs once per firing over every constituent).
        return {
            event: event._value
            for event in self.events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ("_pending",)

    def _init_state(self) -> None:
        # Countdown of constituents still outstanding: each one calls
        # ``_check`` exactly once (at construction if already processed,
        # else as its callback), so total fan-in work is O(n), not the
        # O(n^2) of rescanning ``self.events`` on every arrival.
        self._pending = len(self.events)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as one constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class _Leg:
    """One generator of a :class:`FanOut`, driven by event callbacks.

    A leg is what a :class:`Process` would be without its two bookkeeping
    events: it starts in the tick (and the host call) that creates it, and
    its return goes straight to the join instead of through a completion
    event of its own.  It registers *itself* in the callbacks of whatever
    its generator yields, so a flush resumes it through ``__call__``.
    """

    __slots__ = ("fan", "index", "_send", "_throw", "_target")

    def __init__(self, fan: "FanOut", index: int, generator: Generator):
        self.fan = fan
        self.index = index
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError("fan-out leg requires a generator, got %r"
                            % (generator,))
        self._target: Optional[Event] = None

    def _detach(self) -> None:
        """Stop waiting on the current target."""
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:
                pass
        self._target = None

    def __call__(self, event: Event) -> None:
        # Fired by the awaited event - or by a ``with_timeout`` expiry the
        # leg armed, in which case it still sits in its target's callbacks.
        if self._target is event:
            self._target = None
        else:
            self._detach()
        if event._ok:
            self._advance(self._send, event._value)
        else:
            event._defused = True
            self._advance(self._throw, event._value)

    def _advance(self, step, value) -> None:
        """Run the generator to its next pending event, or to its end."""
        fan = self.fan
        env = fan.env
        outer = env._active_process
        env._active_process = self
        try:
            while True:
                try:
                    result = step(value)
                except StopIteration as stop:
                    fan._leg_done(self.index, stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - the join decides
                    fan._leg_failed(exc)
                    return
                try:
                    callbacks = result.callbacks
                except AttributeError:
                    step = self._throw
                    value = SimulationError(
                        "fan-out leg yielded non-event %r" % (result,))
                    continue
                if callbacks is not None:
                    callbacks.append(self)
                    self._target = result
                    return
                # Already processed: its outcome goes straight back in.
                if result._ok:
                    step = self._send
                else:
                    result._defused = True
                    step = self._throw
                value = result._value
        finally:
            env._active_process = outer

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the leg where it waits, now."""
        if self._target is None:
            return  # returned already (or is the leg running right now)
        self._detach()
        self._advance(self._throw, Interrupt(cause))


class FanOut(Event):
    """Start generator ``legs`` now and join on ``need`` of them.

    The one fan-out primitive: every leg runs to its first pending event
    inside the constructor (no bootstrap event), a leg's return is counted
    by the join directly (no completion event), and the fan itself fires
    exactly once - the single event a caller pays on top of whatever
    moves the clock inside the legs.

    - Succeeds, with the list of leg return values in leg order, as soon
      as ``need`` legs have returned (default: all of them).  Legs still
      running then run on in the background; ``values`` holds ``None``
      for them, and a failure of theirs is survivable by definition.
    - Fails with the exception of the leg whose failure left fewer than
      ``need`` able to return, or with ``DeadlineExceededError`` once
      ``deadline`` virtual seconds have passed.  Either way every leg
      still waiting is interrupted on the spot - :class:`Interrupt` is
      thrown where it waits, so its ``finally`` blocks hand channels,
      cores and latches back - and legs not yet started never are.

    The failure is delivered to whoever yields on the fan, whenever that
    is (it is born defused): a caller may do other work between starting
    the legs and joining them.
    """

    __slots__ = ("values", "_legs", "_need", "_spare", "_deadline", "_what")

    def __init__(self, env: "Environment", legs: Iterable[Generator],
                 need: Optional[int] = None,
                 deadline: Optional[float] = None,
                 what: str = "operation"):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = True
        generators = list(legs)
        count = len(generators)
        if need is None:
            need = count
        elif not 0 <= need <= count:
            raise ValueError("need %d of %d legs" % (need, count))
        self._need = need
        self._spare = count - need
        self._what = what
        self.values: List[Any] = [None] * count
        self._legs: List[_Leg] = []
        self._deadline: Optional[Timeout] = None
        if need == 0:
            self.succeed(self.values)
        elif deadline is not None:
            self._deadline = timer = env.timeout(deadline)
            timer.callbacks.append(self._expire)
        for index, generator in enumerate(generators):
            if self._value is not PENDING and not self._ok:
                generator.close()  # never started: nothing to unwind
                continue
            leg = _Leg(self, index, generator)
            self._legs.append(leg)
            leg._advance(leg._send, None)

    def _leg_done(self, index: int, value: Any) -> None:
        if self._value is not PENDING:
            return  # a straggler behind a join that already fired
        self.values[index] = value
        self._need -= 1
        if self._need == 0:
            self._disarm()
            self._legs = []  # legs point back here: leave no cycle behind
            self.succeed(self.values)

    def _leg_failed(self, exc: BaseException) -> None:
        if self._value is not PENDING:
            return
        if self._spare:
            self._spare -= 1
            return
        self._abort(exc)

    def _expire(self, _event: Event) -> None:
        from ..common import DeadlineExceededError

        self._abort(DeadlineExceededError(
            "%s exceeded %.6fs deadline" % (self._what, self._deadline.delay)
        ))

    def _disarm(self) -> None:
        if self._deadline is not None:
            self._deadline.cancel()

    def _abort(self, exc: BaseException) -> None:
        self._disarm()
        self.fail(exc)
        legs, self._legs = self._legs, []
        for leg in legs:
            leg.interrupt(self._what)


def with_timeout(env: "Environment", target: Generator,
                 seconds: Optional[float], what: str = "operation"):
    """Generator: run ``target`` inline, for at most ``seconds`` virtual
    seconds.

    ``target`` is a plain generator and runs in the *calling* process (or
    fan-out leg): no process is spawned for it, the only event this costs
    is the deadline itself.  When the deadline passes first,
    :class:`Interrupt` is thrown into the caller where it waits inside
    ``target`` - unwinding it through its ``finally`` blocks - and
    surfaces from here as ``DeadlineExceededError``.  The throw happens
    one same-tick hop after the deadline fires, so a target that completes
    in the deadline's own tick still wins.  ``seconds=None`` waits without
    a deadline.
    """
    if seconds is None:
        return (yield from target)
    from ..common import DeadlineExceededError

    owner = env._active_process
    if owner is None:
        raise SimulationError("with_timeout outside a process")
    signal = Interrupt("deadline exceeded")
    expiries: List[Event] = []

    def expire(_event: Event) -> None:
        expiry = Event(env)
        expiry._ok = False
        expiry._value = signal
        expiry._defused = True
        expiry.callbacks.append(owner)
        expiries.append(expiry)
        env._schedule(expiry)

    deadline = env.timeout(seconds)
    deadline.callbacks.append(expire)
    try:
        return (yield from target)
    except Interrupt as interrupt:
        if interrupt is not signal:
            raise
        raise DeadlineExceededError(
            "%s exceeded %.6fs deadline" % (what, seconds)
        ) from None
    finally:
        # A deadline not yet passed leaves the heap; an expiry already
        # scheduled in this tick fires into nothing.
        deadline.cancel()
        for expiry in expiries:
            if expiry.callbacks is not None:
                expiry.callbacks.clear()


class Environment:
    """Virtual-time event loop.

    Two internal containers hold scheduled work, both keyed by
    ``(time, seq)``:

    - ``_queue``: the classic binary heap, for events with a positive delay.
    - ``_fast``: the same-tick FIFO trampoline (see module docstring), for
      delay-0 schedules.  Entries are ``(time, seq, obj, payload)`` where
      ``payload`` is ``None`` for a plain event flush or an
      ``(ok, value, defused)`` triple for an allocation-free process resume.

    ``step`` services the globally smallest ``(time, seq)`` key across both,
    so the drain order is identical to a single-heap kernel.  ``_cancelled``
    counts the heap entries of cancelled timers not yet deleted.
    """

    # Hot attributes live in slots; ``__dict__`` stays available as the
    # extension point upper layers rely on (``env.obs``, ``env._txn_ids``).
    __slots__ = ("_now", "_queue", "_fast", "_seq", "_active_process",
                 "_cancelled", "__dict__")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List = []  # heap of (time, seq, event)
        self._fast: deque = deque()  # sorted (time, seq, obj, payload)
        self._seq = 0
        self._cancelled = 0
        #: The process - or fan-out leg - whose generator is running.
        self._active_process: Any = None

    #: Current virtual time in seconds.  Read on every statement, span and
    #: latency sample, so the getter is C-level: no Python frame per read.
    now = property(attrgetter("_now"), doc="Current virtual time in seconds.")

    @property
    def active_process(self) -> Any:
        return self._active_process

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                _new=object.__new__, _len=len) -> Timeout:
        # Builds the Timeout inline (object.__new__ is a C call) so the
        # hottest factory in the codebase costs one Python frame, not two.
        if delay < 0:
            raise ValueError("negative delay: %r" % delay)
        t = _new(Timeout)
        t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0 and _len(self._fast) < _FAST_BOUND:
            self._fast.append((self._now, seq, t, None))
        else:
            _heappush(self._queue, (self._now + delay, seq, t))
        return t

    def process(self, generator: Generator, name: str = "",
                _new=object.__new__, _len=len) -> Process:
        # Same single-frame construction as timeout(); Process.__init__
        # stays for direct instantiation.
        p = _new(Process)
        p.env = self
        p.callbacks = []
        p._value = PENDING
        p._ok = True
        p._defused = False
        try:
            p._send = generator.send
            p._throw = generator.throw
        except AttributeError:
            raise TypeError("process requires a generator, got %r" % (generator,))
        p._generator = generator
        p._name = name
        p._target = None
        seq = self._seq
        self._seq = seq + 1
        if _len(self._fast) < _FAST_BOUND:
            self._fast.append((self._now, seq, p, (True, None, False)))
        else:
            self._schedule_overflow(p, seq, True, None, False)
        return p

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, _len=len) -> None:
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            fast = self._fast
            if _len(fast) < _FAST_BOUND:
                # Appended keys are nondecreasing (time never goes backward,
                # seq is monotone), so the deque stays sorted by (time, seq).
                fast.append((self._now, seq, event, None))
                return
        _heappush(self._queue, (self._now + delay, seq, event))

    def _schedule_resume(self, process: Process, ok: bool, value: Any,
                         defused: bool, _len=len) -> None:
        """Schedule a same-tick process resume without allocating an Event."""
        seq = self._seq
        self._seq = seq + 1
        fast = self._fast
        if _len(fast) < _FAST_BOUND:
            fast.append((self._now, seq, process, (ok, value, defused)))
            return
        self._schedule_overflow(process, seq, ok, value, defused)

    def _schedule_overflow(self, process: Process, seq: int, ok: bool,
                           value: Any, defused: bool) -> None:
        """Trampoline overflow: heap-schedule a resume event (same key,
        same semantics, just slower)."""
        event = Event(self)
        event._ok = ok
        event._value = value
        event._defused = defused
        event.callbacks.append(process)
        _heappush(self._queue, (self._now, seq, event))

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        In place: the running event loop holds the list.  Keys are unique,
        so the rebuilt heap pops the live entries in the same order.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[2]._value is not CANCELLED]
        _heapify(queue)
        self._cancelled = 0

    def _drop_cancelled(self) -> None:
        """Pop cancelled entries off the top of the heap."""
        queue = self._queue
        while queue and queue[0][2]._value is CANCELLED:
            _heappop(queue)
            self._cancelled -= 1

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        self._drop_cancelled()
        fast = self._fast
        queue = self._queue
        if fast:
            if queue and queue[0][0] < fast[0][0]:
                return queue[0][0]
            return fast[0][0]
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        self._drop_cancelled()
        fast = self._fast
        queue = self._queue
        if fast:
            entry = fast[0]
            if not queue or entry[0] < queue[0][0] or (
                entry[0] == queue[0][0] and entry[1] < queue[0][1]
            ):
                del fast[0]
                self._now = entry[0]
                obj = entry[2]
                payload = entry[3]
                if payload is None:
                    callbacks, obj.callbacks = obj.callbacks, None
                    for callback in callbacks:
                        if callback.__class__ is Process:
                            callback._resume(obj)
                        else:
                            callback(obj)
                    if not obj._ok and not obj._defused:
                        raise obj._value
                else:
                    obj._resume_fast(payload[0], payload[1], payload[2])
                return
        time, _, event = _heappop(queue)
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            if callback.__class__ is Process:
                callback._resume(event)
            else:
                callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` fires; needed when daemon loops never drain.

        Returns the event's value (raises if the event failed and the value
        is an exception).
        """
        if not event.processed:
            self._run_core(None, event)
        if not event._ok:
            raise event._value
        return event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError("until (%r) is in the past (now=%r)" % (until, self._now))
        self._run_core(until, None)

    def _run_core(self, until: Optional[float], stop: Optional[Event],
                  _PENDING=PENDING, _CANCELLED=CANCELLED, _len=len) -> None:
        """The event loop shared by :meth:`run` and :meth:`run_until_event`.

        One inlined body services both containers and — for the dominant
        case of an event with exactly one waiter (a process, registered in
        ``callbacks`` as the object itself) — drives the generator directly,
        skipping callback dispatch and the ``_resume`` frame.  The inline
        path replicates :meth:`Process._resume` and the post-flush failure
        check of :meth:`step` statement for statement; any other callback
        shape falls back to the generic flush.
        """
        fast = self._fast
        queue = self._queue
        _Process = Process
        while True:
            if stop is not None and stop.callbacks is None:
                return
            # -- pick the globally smallest (time, seq) entry --------------
            if fast:
                entry = fast.popleft()
                if queue:
                    head = queue[0]
                    if head[0] < entry[0] or (
                        head[0] == entry[0] and head[1] < entry[1]
                    ):
                        fast.appendleft(entry)  # heap wins this round
                        entry = None
            elif queue:
                entry = None
            else:
                if stop is not None:
                    raise SimulationError("queue drained before event fired")
                break
            event = None
            if entry is not None:
                # Trampoline entries live at the current time, which never
                # exceeds ``until`` while heap service below guards it.
                self._now = entry[0]
                payload = entry[3]
                if payload is None:
                    event = entry[2]
                else:
                    proc = entry[2]
                    ok, value, defused = payload
            else:
                head = queue[0]
                if until is not None and head[0] > until:
                    self._now = until
                    return
                _heappop(queue)
                event = head[2]
                if event._value is _CANCELLED:
                    self._cancelled -= 1
                    continue
                self._now = head[0]
            # -- flush -----------------------------------------------------
            if event is not None:
                callbacks = event.callbacks
                event.callbacks = None
                if _len(callbacks) == 1:
                    cb = callbacks[0]
                    if cb.__class__ is _Process:
                        # Single waiter is a process: resume inline.
                        proc = cb
                        ok = event._ok
                        value = event._value
                        defused = False
                    else:
                        cb(event)
                        if not event._ok and not event._defused:
                            raise event._value
                        continue
                else:
                    for cb in callbacks:
                        if cb.__class__ is _Process:
                            cb._resume(event)
                        else:
                            cb(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    continue
            # -- inline resume (mirrors Process._resume / _resume_fast) ----
            if proc._value is not _PENDING:
                # Dead process: drop the resume; an undefused failure
                # propagates exactly as an unwaited failed event would.
                if event is None:
                    if not ok and not defused:
                        raise value
                elif not ok and not event._defused:
                    raise value
                continue
            target = proc._target
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(proc)
                except ValueError:
                    pass
            proc._target = None
            self._active_process = proc
            try:
                if ok:
                    result = proc._send(value)
                else:
                    if event is not None:
                        event._defused = True
                    result = proc._throw(value)
            except StopIteration as stop_exc:
                self._active_process = None
                # Inlined succeed(): the process is alive (checked above),
                # so the double-trigger guard is redundant.
                proc._value = stop_exc.value
                seq = self._seq
                self._seq = seq + 1
                if _len(fast) < _FAST_BOUND:
                    fast.append((self._now, seq, proc, None))
                else:
                    _heappush(queue, (self._now, seq, proc))
                continue
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._active_process = None
                proc.fail(exc)
                continue
            self._active_process = None
            # Duck check instead of isinstance: yielding anything without
            # ``callbacks`` is the non-event misuse case (try/except is
            # zero-cost on the happy path), and one attribute load serves
            # both the processed check and the waiter registration.
            try:
                rcb = result.callbacks
            except AttributeError:
                proc._generator.throw(
                    SimulationError("process yielded non-event %r" % (result,))
                )
                continue
            if rcb is None:
                if not result._ok:
                    result._defused = True
                self._schedule_resume(proc, result._ok, result._value, False)
            else:
                rcb.append(proc)
                proc._target = result
        if until is not None:
            self._now = until
