"""Cancelled timers: a deadline nobody waits for leaves the event heap.

A cancelled :class:`Timeout` never fires and never moves the clock, keeps
the sequence number it took at creation (so no other event's ``(time,
seq)`` key moves), and is deleted lazily: skipped at the top of the heap,
dropped by a rebuild once cancelled entries outnumber live ones.  The
second half covers each waiter that arms a timer of its own - a
``with_timeout`` caller, a fan-out deadline, a row-lock wait, an
admission wait, a commit-fence gate - and checks it leaves nothing behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import OverloadError, TransactionAborted
from repro.engine.txn import LockManager, Transaction
from repro.frontend.admission import AdmissionController
from repro.shard.robustness import CommitFence
from repro.sim.core import (
    CANCELLED,
    Environment,
    FanOut,
    Interrupt,
    _CANCEL_FLOOR,
    with_timeout,
)


def live_entries(env):
    """Heap entries of events that will still fire."""
    return sorted(entry[:2] for entry in env._queue
                  if entry[2]._value is not CANCELLED)


def drive(env, gen):
    proc = env.process(gen)
    env.run_until_event(proc)
    return proc.value


# -- the kernel ------------------------------------------------------------

def test_a_cancelled_timer_never_fires_and_never_moves_the_clock():
    env = Environment()
    fired = []
    keep = env.timeout(1.0)
    keep.callbacks.append(lambda event: fired.append(("keep", env.now)))
    gone = env.timeout(5.0)
    gone.callbacks.append(lambda event: fired.append(("gone", env.now)))
    gone.cancel()
    assert gone.callbacks == []  # nothing pinned from here on
    assert env.peek() == 1.0
    env.step()
    assert fired == [("keep", 1.0)] and env.now == 1.0
    assert env.peek() == float("inf")  # peek skips (and drops) the dead entry
    assert env._queue == [] and env._cancelled == 0
    env.run()
    assert env.now == 1.0


def test_a_draining_run_ends_at_the_last_live_event():
    env = Environment()
    env.timeout(2.0)
    for delay in (3.0, 4.0, 9.0):
        env.timeout(delay).cancel()
    env.run()
    assert env.now == 2.0 and env._queue == []

    env = Environment()
    env.timeout(3.0).cancel()
    assert env.peek() == float("inf")
    env.run()
    assert env.now == 0.0


def test_run_until_stops_at_until_past_a_cancelled_head():
    env = Environment()
    env.timeout(1.0).cancel()
    env.timeout(4.0)
    env.run(until=2.0)
    assert env.now == 2.0 and live_entries(env) == [(4.0, 1)]


def test_cancel_keeps_every_sequence_number():
    def run(cancel):
        env = Environment()
        order = []
        timers = [env.timeout(float(delay)) for delay in (3, 1, 2, 1)]
        for index, timer in enumerate(timers):
            timer.callbacks.append(
                lambda event, index=index: order.append((env.now, index)))
        cancel(timers[1])
        late = env.timeout(1.0)  # takes the next seq either way
        late.callbacks.append(lambda event: order.append((env.now, "late")))
        env.run()
        return order, env._seq

    cancelled, seq = run(lambda timer: timer.cancel())
    cleared, ref_seq = run(lambda timer: timer.callbacks.clear())
    assert cancelled == cleared == [
        (1.0, 3), (1.0, "late"), (2.0, 2), (3.0, 0)]
    assert seq == ref_seq == 5


def test_cancel_is_idempotent_and_a_no_op_once_fired():
    env = Environment()
    timer = env.timeout(1.0, value="v")
    timer.cancel()
    timer.cancel()
    assert env._cancelled == 1
    env.run()
    assert env._cancelled == 0 and env.now == 0.0

    fired = env.timeout(1.0, value="v")
    env.run()
    fired.cancel()
    assert fired.processed and fired.value == "v" and env._cancelled == 0


def test_a_zero_delay_timer_only_loses_its_callbacks():
    env = Environment()
    seen = []
    timer = env.timeout(0.0)
    timer.callbacks.append(seen.append)
    timer.cancel()
    env.run()
    assert seen == [] and timer.processed and env._cancelled == 0


def test_cancelled_entries_never_outnumber_live_ones_above_the_floor():
    env = Environment()
    live = [env.timeout(10.0 + index) for index in range(10)]
    doomed = [env.timeout(5.0 + index) for index in range(3 * _CANCEL_FLOOR)]
    for timer in doomed:
        timer.cancel()
        dead = env._cancelled
        assert dead <= max(_CANCEL_FLOOR, len(env._queue) - dead)
    assert len(env._queue) <= _CANCEL_FLOOR + len(live)
    fired = []
    for timer in live:
        timer.callbacks.append(lambda event: fired.append(env.now))
    env.run()
    assert fired == [10.0 + index for index in range(10)]


# One step of a plan: (gap before arming a timer, its delay, and how many
# timers back from the newest one to cancel right after - none if
# negative); times in milliseconds.  Mostly no gap and mostly a
# cancellation, so cancelled timers come to outnumber live ones well over
# the floor and the heap is rebuilt mid-run.
timers = st.lists(
    st.tuples(
        st.sampled_from((0, 0, 0, 0, 0, 0, 0, 1)),
        st.integers(1, 60),
        st.integers(-10, 30),
    ),
    min_size=100, max_size=400,
)


def _replay(plan, cancel):
    """Arm and cancel the plan's timers from one process; return every
    live timer's (now, index) firing, ``env._seq``, and each cancel that
    left more cancelled entries in the heap than the floor and the live
    entries allow."""
    env = Environment()
    fired = []
    breaches = []

    def script():
        armed = []
        for index, (gap, delay, victim) in enumerate(plan):
            if gap:
                yield env.timeout(gap * 1e-3)
            timer = env.timeout(delay * 1e-3)
            timer.callbacks.append(
                lambda event, index=index: fired.append((env.now, index)))
            armed.append(timer)
            if victim >= 0:
                cancel(armed[-1 - victim % len(armed)])
                dead = env._cancelled
                if dead > max(_CANCEL_FLOOR, len(env._queue) - dead):
                    breaches.append(dead)

    env.process(script())
    env.run()
    return fired, env._seq, breaches


@settings(max_examples=60)
@given(timers)
def test_cancelling_matches_a_kernel_that_only_clears_callbacks(plan):
    fired, seq, breaches = _replay(plan, lambda timer: timer.cancel())
    reference, ref_seq, _ = _replay(
        plan,
        lambda timer: timer.callbacks is not None and timer.callbacks.clear())
    assert fired == reference
    assert seq == ref_seq
    assert breaches == []


def test_ten_thousand_met_deadlines_leave_a_small_heap():
    env = Environment()
    env.timeout(50.0)  # the one live entry besides the caller's own

    def quick():
        yield env.timeout(1e-6)
        return "ok"

    def caller():
        for _ in range(10000):
            assert (yield from with_timeout(env, quick(), 1.0)) == "ok"
            assert len(env._queue) <= _CANCEL_FLOOR + 2

    drive(env, caller())
    assert env.now == pytest.approx(1e-2)
    assert live_entries(env) == [(50.0, 0)]


# -- every waiter that arms a timer leaves nothing behind -------------------

def test_a_fan_out_whose_deadline_is_met_cancels_it():
    env = Environment()

    def caller():
        def leg():
            yield env.timeout(1.0)
            return "leg"

        values = yield FanOut(env, [leg()], deadline=5.0)
        return values, live_entries(env)

    assert drive(env, caller()) == (["leg"], [])
    env.run()
    assert env.now == 1.0


def test_a_with_timeout_caller_interrupted_cancels_its_deadline():
    env = Environment()

    def caller():
        try:
            yield from with_timeout(env, _sleep(env, 3.0), 5.0)
        except Interrupt:
            return env.now

    proc = env.process(caller())

    def killer():
        yield env.timeout(1.0)
        proc.interrupt("crash")

    env.process(killer())
    env.run()
    assert proc.value == 1.0
    assert env.now == 3.0  # the abandoned sleep, never the 5 s deadline


def _sleep(env, seconds):
    yield env.timeout(seconds)


def _lock_race(outcome):
    """A holder takes a row lock for 1 s; a waiter queues behind it and is
    granted, killed as the deadlock victim at 0.5 s, or interrupted at
    0.5 s.  Returns the waiter's outcome and the clock after a full drain."""
    env = Environment()
    locks = LockManager(env, wait_timeout=5.0)
    key = ("t", 1)

    def holder():
        txn = Transaction(env)
        yield from locks.acquire(txn, key)
        yield env.timeout(1.0)
        locks.release_all(txn)

    def waiter(txn):
        try:
            yield from locks.acquire(txn, key)
        except (TransactionAborted, Interrupt) as exc:
            return type(exc).__name__, env.now
        locks.release_all(txn)
        return "granted", env.now

    env.process(holder())
    txn = Transaction(env)
    proc = env.process(waiter(txn))

    def chaos():
        yield env.timeout(0.5)
        if outcome == "victim":
            assert locks.kill_waiter(txn.txn_id)
        else:
            proc.interrupt("crash")

    if outcome != "granted":
        env.process(chaos())
    env.run()
    return proc.value, env.now


@pytest.mark.parametrize("outcome, result", [
    ("granted", ("granted", 1.0)),
    ("victim", ("TransactionAborted", 0.5)),
    ("crash", ("Interrupt", 0.5)),
])
def test_a_lock_wait_leaves_no_timer(outcome, result):
    waited, end = _lock_race(outcome)
    assert waited == result
    assert end == 1.0  # not 5.0: the wait timer left the heap


def _admission(queue_timeout, hold):
    env = Environment()
    controller = AdmissionController(
        env, limits={"read": 1}, queue_timeout=queue_timeout)
    outcomes = []

    def worker(tag):
        try:
            ticket = yield from controller.admit("read")
        except OverloadError:
            outcomes.append((tag, "shed", env.now))
            return
        outcomes.append((tag, "admitted", env.now))
        yield env.timeout(hold)
        controller.release("read", ticket)

    env.process(worker("first"))
    env.process(worker("second"))
    env.run()
    return outcomes, env.now


def test_an_admission_wait_granted_cancels_its_deadline():
    outcomes, end = _admission(queue_timeout=5.0, hold=1.0)
    assert outcomes == [
        ("first", "admitted", 0.0), ("second", "admitted", 1.0)]
    assert end == 2.0  # not 5.0: the granted waiter's deadline left the heap


def test_an_admission_wait_shed_leaves_nothing_behind():
    outcomes, end = _admission(queue_timeout=1.0, hold=3.0)
    assert outcomes == [("first", "admitted", 0.0), ("second", "shed", 1.0)]
    assert end == 3.0


@pytest.mark.parametrize("side", ["reader", "writer"])
def test_a_commit_fence_gate_that_opens_early_cancels_its_deadline(side):
    env = Environment()
    fence = CommitFence(env)
    entered = []

    def blocker():
        if side == "reader":
            yield from fence.acquire_write()
            yield env.timeout(1.0)
            fence.release_write()
        else:
            yield from fence.acquire_read()
            yield env.timeout(1.0)
            fence.release_read()

    def waiter():
        if side == "reader":
            yield from fence.acquire_read(max_wait=5.0)
            entered.append(env.now)
            fence.release_read()
        else:
            yield from fence.acquire_write(max_wait=5.0)
            entered.append(env.now)
            fence.release_write()

    env.process(blocker())
    env.process(waiter())
    env.run()
    assert entered == [1.0]
    assert env.now == 1.0  # not 5.0
