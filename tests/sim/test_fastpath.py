"""Kernel-semantics tests pinning the fast-path behaviour.

The same-tick trampoline, the inline process resume, the on-the-spot
resource slot, and the AllOf countdown are pure optimisations: this file
pins the externally observable semantics they must preserve — schedule
order for simultaneous events, interrupt races, ``with_timeout`` defuse
behaviour, linear AllOf fan-in work, and byte-identical same-seed reports.
"""

import gc
import json
import weakref

import pytest

from repro.common import DeadlineExceededError
from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Timeout,
    _FAST_BOUND,
    with_timeout,
)
from repro.sim.metrics import LatencyRecorder
from repro.sim.resources import CpuPool, Resource


# ---------------------------------------------------------------------------
# Same-tick ordering
# ---------------------------------------------------------------------------

def test_same_tick_schedule_order_preserved():
    env = Environment()
    order = []

    def recorder(env, tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    env.process(recorder(env, "a", 0.0))
    env.process(recorder(env, "b", 0.0))
    env.process(recorder(env, "c", 0.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_tick_heap_and_trampoline_merge_by_seq():
    """Zero-delay (trampoline) and positive-delay (heap) events landing on
    the same virtual time must still fire in schedule (seq) order."""
    env = Environment()
    order = []

    def at_one_via_heap(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    def at_one_via_trampoline(env, tag):
        yield env.timeout(1.0 - env.now)  # still heap: scheduled at t=0
        order.append(tag)
        yield env.timeout(0.0)  # trampoline entry at t=1.0
        order.append(tag + "'")

    env.process(at_one_via_heap(env, "h1"))
    env.process(at_one_via_trampoline(env, "t"))
    env.process(at_one_via_heap(env, "h2"))
    env.run()
    assert order == ["h1", "t", "h2", "t'"]


def test_trampoline_overflow_preserves_order():
    """Past _FAST_BOUND same-tick entries, scheduling overflows to the heap
    — order must stay exactly seq order across the boundary."""
    env = Environment()
    order = []

    def leaf(env, i):
        if False:
            yield
        order.append(i)

    n = _FAST_BOUND + 500
    for i in range(n):
        env.process(leaf(env, i))
    env.run()
    assert order == list(range(n))


def test_uncontended_grants_fifo_with_timeouts():
    """Free slots taken on the spot, a queued grant and zero-delay
    timeouts interleave in schedule order."""
    env = Environment()
    res = Resource(env, capacity=2)
    order = []

    def user(env, tag):
        grant = res.acquire()
        if grant is not None:
            yield grant
        order.append("got-" + tag)
        yield env.timeout(0.0)
        res.release(grant)
        order.append("rel-" + tag)

    env.process(user(env, "a"))
    env.process(user(env, "b"))
    env.process(user(env, "c"))
    env.run()
    assert order == ["got-a", "got-b", "rel-a", "rel-b", "got-c", "rel-c"]


# ---------------------------------------------------------------------------
# CpuPool: a Resource of cores, no per-consume token
# ---------------------------------------------------------------------------

def test_cpu_pool_contention_fifo_and_counters():
    """Queueing order, ``in_use``, ``queue_length`` and ``busy_time`` as
    the Resource-backed pool reported them."""
    env = Environment()
    pool = CpuPool(env, cores=2)
    log = []

    def job(env, tag, seconds):
        yield from pool.consume(seconds)
        log.append((tag, env.now, pool.count, pool.queue_length))

    def probe(env):
        yield env.timeout(0.5)
        log.append(("probe", env.now, pool.count, pool.queue_length))

    for tag, seconds in (("a", 1.0), ("b", 2.0), ("c", 1.0), ("d", 1.0),
                         ("e", 0.5)):
        env.process(job(env, tag, seconds))
    env.process(probe(env))
    env.run()
    assert log == [
        ("probe", 0.5, 2, 3),
        # A finishing job hands its core to the oldest waiter: the count
        # it reads back still includes that core.
        ("a", 1.0, 2, 2),   # -> c
        ("b", 2.0, 2, 1),   # -> d   (b before c: its timeout is older)
        ("c", 2.0, 2, 0),   # -> e
        ("e", 2.5, 1, 0),
        ("d", 3.0, 0, 0),
    ]
    assert pool.busy_time == 5.5
    assert pool.utilization(3.0) == 5.5 / 6.0


def test_cpu_pool_idle_consume_schedules_one_event_and_no_grant():
    env = Environment()
    pool = CpuPool(env, cores=1)

    def job(env):
        before = env._seq
        yield from pool.consume(1.0)
        return env._seq - before

    p = env.process(job(env))
    env.run()
    assert p.value == 1  # the timeout, nothing else
    assert pool.count == 0 and pool.queue_length == 0


def test_cpu_pool_grant_takes_its_sequence_number_at_the_release():
    """A contended consume costs one more event than an idle one, and
    that event is scheduled when the holder lets go - not at the request."""
    env = Environment()
    pool = CpuPool(env, cores=1)
    seqs = {}

    def holder(env):
        yield from pool.consume(1.0)
        seqs["holder-done"] = env._seq

    def waiter(env):
        seqs["before-request"] = env._seq
        gen = pool.consume(1.0)
        grant = next(gen)  # queued: a pending event, no sequence number
        seqs["after-request"] = env._seq
        assert not grant.triggered
        yield grant
        yield from gen

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert seqs["after-request"] == seqs["before-request"]
    # holder's release scheduled the grant (one number) before it returned
    assert seqs["holder-done"] == seqs["after-request"] + 1
    assert env.now == 2.0 and pool.busy_time == 2.0


def test_cpu_pool_waiter_interrupted_while_queued_withdraws():
    """Seed bug: the interrupted waiter's token stayed queued, was granted
    at the release and never given back - ``in_use == 1`` forever and the
    next consume never ran."""
    env = Environment()
    pool = CpuPool(env, cores=1)
    done = []

    def job(env, tag, seconds):
        try:
            yield from pool.consume(seconds)
            done.append((tag, env.now))
        except Interrupt:
            done.append((tag + "-interrupted", env.now))

    def killer(env, victim):
        yield env.timeout(0.5)
        assert pool.queue_length == 1
        victim.interrupt("deadline")

    def late(env):
        yield env.timeout(2.0)
        yield from job(env, "late", 1.0)

    env.process(job(env, "holder", 1.0))
    victim = env.process(job(env, "waiter", 1.0))
    env.process(killer(env, victim))
    env.process(late(env))
    env.run()
    assert done == [("waiter-interrupted", 0.5), ("holder", 1.0),
                    ("late", 3.0)]
    assert pool.count == 0 and pool.queue_length == 0
    assert pool.busy_time == 2.0


def test_cpu_pool_grant_and_interrupt_in_one_instant_passes_the_core_on():
    env = Environment()
    pool = CpuPool(env, cores=1)
    procs = {}
    done = []

    def job(env, tag, seconds):
        try:
            yield from pool.consume(seconds)
            done.append((tag, env.now))
        except Interrupt:
            done.append((tag + "-interrupted", env.now, pool.count))

    def killer(env):
        # Spawned first, so at t=1.0 it resumes before the holder: the
        # interrupt is scheduled, *then* the holder's release grants the
        # victim, and the interrupt reaches a process whose grant has
        # triggered but not fired.
        yield env.timeout(1.0)
        procs["victim"].interrupt("deadline")

    env.process(killer(env))
    env.process(job(env, "holder", 1.0))
    procs["victim"] = env.process(job(env, "victim", 1.0))
    env.process(job(env, "third", 1.0))
    env.run()
    # The victim held the core for an instant and handed it to ``third``.
    assert done == [("holder", 1.0), ("victim-interrupted", 1.0, 1),
                    ("third", 2.0)]
    assert pool.count == 0 and pool.queue_length == 0
    assert pool.busy_time == 2.0


def test_with_timeout_deadline_on_a_target_waiting_for_cpu():
    env = Environment()
    pool = CpuPool(env, cores=1)

    def hog(env):
        yield from pool.consume(10.0)

    def rpc(env):
        yield from pool.consume(0.1)
        return "served"

    def caller(env):
        try:
            yield from with_timeout(env, rpc(env), 1.0, "rpc")
        except DeadlineExceededError:
            pass
        yield env.timeout(10.0)  # the hog is done by now
        return (yield from with_timeout(env, rpc(env), 1.0, "rpc"))

    env.process(hog(env))
    p = env.process(caller(env))
    env.run()
    assert p.value == "served"
    assert pool.count == 0 and pool.queue_length == 0


def test_resource_locked_interrupted_while_queued_withdraws():
    env = Environment()
    res = Resource(env, capacity=1)
    done = []

    def hold(env, seconds):
        grant = res.acquire()
        try:
            if grant is not None:
                yield grant
            yield env.timeout(seconds)
        finally:
            res.release(grant)

    def job(env, tag, seconds):
        try:
            yield from hold(env, seconds)
            done.append((tag, env.now))
        except Interrupt:
            done.append((tag + "-interrupted", env.now))

    def killer(env, victim):
        yield env.timeout(0.5)
        victim.interrupt("deadline")

    def late(env):
        yield env.timeout(2.0)
        yield from job(env, "late", 1.0)

    env.process(job(env, "holder", 1.0))
    victim = env.process(job(env, "waiter", 1.0))
    env.process(killer(env, victim))
    env.process(late(env))
    env.run()
    assert done == [("waiter-interrupted", 0.5), ("holder", 1.0),
                    ("late", 3.0)]
    assert res.count == 0 and res.queue_length == 0


def test_granted_request_is_freed_without_the_cycle_collector():
    """A grant's value is None, not the grant itself: a grant that
    points at itself lives until the next cyclic GC pass, and every row
    lock and device access used to leave one behind."""
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def user(env):
        for _ in range(50):
            grant = res.acquire()
            try:
                if grant is not None:
                    value = yield grant
                    assert value is None
                    granted.append(1)
                yield env.timeout(1.0)
            finally:
                res.release(grant)

    gc.collect()
    gc.disable()
    try:
        env.process(user(env))
        env.process(user(env))
        env.run()
        assert len(granted) >= 50  # the two users queued behind each other
        assert gc.collect() == 0  # nothing only the collector could free
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Interrupt races
# ---------------------------------------------------------------------------

def test_interrupt_of_process_completed_same_tick_is_dropped():
    env = Environment()

    def quick(env):
        yield env.timeout(0.1)
        return "done"

    def killer(env, proc):
        yield env.timeout(0.1)  # resumes after quick (later seq), same tick
        proc.interrupt("too late")

    p = env.process(quick(env))
    env.process(killer(env, p))
    env.run()  # must not raise: the dead-process interrupt is pre-defused
    assert p.value == "done"


def test_pending_flush_beats_same_tick_interrupt():
    """An interrupt scheduled at the same tick as the target's wakeup loses
    to the wakeup if the wakeup's event has the earlier sequence number."""
    env = Environment()
    got = []

    def killer(env):
        yield env.timeout(0.1)
        got.append("interrupting")
        sleeper_proc.interrupt("race")

    def sleeper(env):
        try:
            yield env.timeout(0.1)
            got.append("completed")
        except Interrupt as exc:
            got.append("interrupted:%s" % exc.cause)

    env.process(killer(env))  # spawned first: earlier timeout seq
    sleeper_proc = env.process(sleeper(env))
    env.run()
    # killer resumes first at t=0.1, but sleeper's own timeout (already
    # triggered, earlier seq than the interrupt's resume) flushes first.
    assert got == ["interrupting", "completed"]


def test_interrupt_wakes_waiter_and_detaches_target():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(10.0)
            return "overslept"
        except Interrupt as exc:
            return "interrupted:%s" % exc.cause

    def killer(env, p):
        yield env.timeout(0.5)
        p.interrupt("now")

    p = env.process(sleeper(env))
    env.process(killer(env, p))
    env.run()  # the detached 10s timeout fires with no waiters: harmless
    assert p.value == "interrupted:now"
    assert env.now == 10.0


# ---------------------------------------------------------------------------
# with_timeout defuse behaviour
# ---------------------------------------------------------------------------

def test_with_timeout_deadline_interrupt_defused():
    env = Environment()

    def slow(env):
        yield env.timeout(5.0)

    def caller(env):
        try:
            yield from with_timeout(env, slow(env), 1.0, "slow-op")
        except DeadlineExceededError:
            return "deadline"
        return "no-deadline"

    p = env.process(caller(env))
    env.run()  # interrupted target fails with Interrupt; must be defused
    assert p.value == "deadline"


def test_with_timeout_same_tick_completion_wins():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)
        return "payload"

    def caller(env):
        result = yield from with_timeout(env, quick(env), 1.0, "op")
        return result

    p = env.process(caller(env))
    env.run()
    # target completes at the deadline tick with the earlier seq: it wins.
    assert p.value == "payload"


def test_with_timeout_propagates_early_failure():
    env = Environment()

    def failing(env):
        yield env.timeout(0.5)
        raise RuntimeError("boom")

    def caller(env):
        try:
            yield from with_timeout(env, failing(env), 1.0, "op")
        except RuntimeError as exc:
            return "caught:%s" % exc
        return "no-failure"

    p = env.process(caller(env))
    env.run()
    assert p.value == "caught:boom"


def test_with_timeout_completed_ops_do_not_pin_their_payload():
    """A won race leaves the deadline in the heap for its full second;
    it must not keep the finished process and its payload alive."""
    env = Environment()

    class Payload:
        pass

    def op(env):
        yield env.timeout(20e-6)
        return Payload()

    def caller(env):
        refs = []
        for _ in range(1000):
            payload = yield from with_timeout(env, op(env), 1.0, "op")
            refs.append(weakref.ref(payload))
            del payload
        return refs

    p = env.process(caller(env))
    env.run_until_event(p)
    assert env.now < 1.0  # every deadline is still pending
    gc.collect()
    assert not any(ref() is not None for ref in p.value)


# ---------------------------------------------------------------------------
# AllOf fan-in is linear
# ---------------------------------------------------------------------------

class _SpyEvent(Event):
    """Event that counts ``processed``-property reads (the O(n^2) rescan of
    the old AllOf implementation went through exactly this property)."""

    reads = 0

    @property
    def processed(self):
        _SpyEvent.reads += 1
        return self.callbacks is None


class _CountingAllOf(AllOf):
    __slots__ = ("checks",)

    def _init_state(self):
        self.checks = 0
        super()._init_state()

    def _check(self, event):
        self.checks += 1
        super()._check(event)


def test_allof_1k_events_linear_callback_work():
    env = Environment()
    n = 1000
    _SpyEvent.reads = 0
    events = [_SpyEvent(env) for _ in range(n)]
    condition = _CountingAllOf(env, events)
    waiter = {}

    def wait(env):
        waiter["result"] = yield condition

    env.process(wait(env))
    for i, event in enumerate(events):
        event.succeed(i)
    env.run()
    assert len(waiter["result"]) == n
    # Each constituent triggers exactly one O(1) check...
    assert condition.checks == n
    # ...and nothing rescans the full list through `processed` (the old
    # implementation performed ~n^2/2 such reads for this workload).
    assert _SpyEvent.reads <= 3 * n


def test_allof_failure_still_defuses_and_fails_fast():
    env = Environment()
    events = [Event(env) for _ in range(10)]
    condition = _CountingAllOf(env, events)
    result = {}

    def wait(env):
        try:
            yield condition
        except RuntimeError as exc:
            result["error"] = str(exc)

    env.process(wait(env))
    events[3].fail(RuntimeError("constituent failed"))
    for i, event in enumerate(events):
        if i != 3:
            event.succeed(i)
    env.run()
    assert result["error"] == "constituent failed"


# ---------------------------------------------------------------------------
# LatencyRecorder sorted-cache
# ---------------------------------------------------------------------------

def test_latency_recorder_cache_invalidated_by_record():
    rec = LatencyRecorder("x")
    for value in (3.0, 1.0, 2.0):
        rec.record(value)
    assert rec.p50 == 2.0  # populates the sorted cache
    rec.record(10.0)  # must invalidate it
    assert rec.maximum == 10.0
    assert rec.percentile(100) == 10.0
    summary = rec.summary()
    assert summary["count"] == 4.0
    assert summary["max"] == 10.0


def test_latency_recorder_direct_append_is_still_seen():
    rec = LatencyRecorder("x")
    rec.record(1.0)
    assert rec.p50 == 1.0
    rec.samples.append(5.0)  # bypasses record(): length check must catch it
    assert rec.maximum == 5.0
    assert rec.summary()["count"] == 2.0


def test_latency_recorder_summary_matches_per_call_percentiles():
    rec = LatencyRecorder("x")
    for value in (0.004, 0.001, 0.003, 0.009, 0.002, 0.007, 0.005):
        rec.record(value)
    summary = rec.summary()
    assert summary["p50"] == rec.percentile(50)
    assert summary["p95"] == rec.percentile(95)
    assert summary["p99"] == rec.percentile(99)
    assert summary["max"] == rec.maximum
    assert summary["mean"] == rec.mean


# ---------------------------------------------------------------------------
# Same-seed double-run determinism over a serve slice
# ---------------------------------------------------------------------------

def test_serve_same_seed_double_run_byte_identical():
    from repro.frontend.serve import run_serving

    kwargs = dict(
        seed=3, replicas=2, duration=0.1, write_terminals=1,
        mixed_sessions=1, read_sessions=2, chaos=False,
    )
    first = run_serving(**kwargs)
    second = run_serving(**kwargs)
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
