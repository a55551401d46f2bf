"""FanOut: N legs started inline, joined on k, one completion event.

Covers what the six fan-out sites rely on: value order, k-of-N with
stragglers running on, failure and deadline interrupting every leg that
still waits (resources handed back), legs nesting fans and arming
``with_timeout``, and the event arithmetic - a fan costs its legs' own
events plus exactly one.
"""

import pytest

from repro.common import DeadlineExceededError, StorageError
from repro.sim.core import (
    Environment,
    FanOut,
    Interrupt,
    SimulationError,
    with_timeout,
)
from repro.sim.resources import CpuPool, Resource


def drive(env, gen):
    proc = env.process(gen)
    env.run_until_event(proc)
    return proc.value


def sleeper(env, seconds, value=None, log=None):
    try:
        yield env.timeout(seconds)
    except Interrupt as interrupt:
        if log is not None:
            log.append(("interrupted", value, env.now, interrupt.cause))
        raise
    if log is not None:
        log.append(("done", value, env.now))
    return value


def failing(env, seconds, exc):
    yield env.timeout(seconds)
    raise exc


def test_all_legs_join_with_values_in_leg_order_and_one_extra_event():
    env = Environment()

    def caller():
        before = env._seq
        values = yield FanOut(
            env, [sleeper(env, 3.0, "a"), sleeper(env, 1.0, "b"),
                  sleeper(env, 2.0, "c")])
        return values, env.now, env._seq - before

    # Three timeouts and the fan's own completion: no bootstrap, no
    # per-leg completion, no condition event.
    assert drive(env, caller()) == (["a", "b", "c"], 3.0, 4)


def test_legs_start_in_the_constructor_in_leg_order():
    env = Environment()
    started = []

    def leg(tag):
        started.append((tag, env.now))
        yield env.timeout(1.0)

    def caller():
        yield env.timeout(5.0)
        fan = FanOut(env, [leg("x"), leg("y")])
        assert started == [("x", 5.0), ("y", 5.0)]  # before any yield
        yield fan
        return env.now

    assert drive(env, caller()) == 6.0


def test_quorum_fires_on_the_kth_return_and_stragglers_run_on():
    env = Environment()
    log = []

    def caller():
        values = yield FanOut(
            env,
            [sleeper(env, 1.0, "fast", log), sleeper(env, 2.0, "mid", log),
             sleeper(env, 9.0, "slow", log)],
            need=2,
        )
        return values, env.now

    values, when = drive(env, caller())
    assert (values, when) == (["fast", "mid", None], 2.0)
    env.run()
    assert log[-1] == ("done", "slow", 9.0)  # never interrupted


def test_quorum_survives_failures_it_can_spare_before_and_after_the_join():
    env = Environment()

    def caller():
        values = yield FanOut(
            env,
            [failing(env, 0.5, StorageError("early")), sleeper(env, 1.0, 1),
             sleeper(env, 2.0, 2)],
            need=2,
        )
        return values, env.now

    assert drive(env, caller()) == ([None, 1, 2], 2.0)

    env = Environment()

    def late():
        values = yield FanOut(
            env,
            [sleeper(env, 1.0, 1), sleeper(env, 2.0, 2),
             failing(env, 3.0, StorageError("late"))],
            need=2,
        )
        return values, env.now

    assert drive(env, late()) == ([1, 2, None], 2.0)
    env.run()  # the third leg's failure behind the join is swallowed


def test_failure_beyond_the_spare_fails_the_fan_and_interrupts_the_rest():
    env = Environment()
    log = []
    pool = CpuPool(env, cores=1)
    res = Resource(env, capacity=1)

    def holder():
        yield from pool.consume(10.0)

    def queued_for_cpu():
        try:
            yield from pool.consume(1.0)
        finally:
            log.append(("cpu-leg-out", env.now))

    def locked(inner):
        grant = res.acquire()
        try:
            if grant is not None:
                yield grant
            return (yield from inner)
        finally:
            res.release(grant)

    def caller():
        try:
            yield FanOut(env, [
                sleeper(env, 5.0, "slow", log),
                locked(sleeper(env, 5.0, "locked", log)),
                queued_for_cpu(),
                failing(env, 1.0, StorageError("boom")),
            ], what="test fan")
        except StorageError as exc:
            return str(exc), env.now

    env.process(holder())
    assert drive(env, caller()) == ("boom", 1.0)
    # Every other leg was interrupted in that instant, where it waited.
    assert ("interrupted", "slow", 1.0, "test fan") in log
    assert ("interrupted", "locked", 1.0, "test fan") in log
    assert ("cpu-leg-out", 1.0) in log
    assert res.count == 0 and res.queue_length == 0
    assert pool.queue_length == 0
    env.run()
    assert pool.count == 0


def test_a_leg_failing_at_its_start_leaves_later_legs_unstarted():
    env = Environment()
    started = []

    def stillborn():
        raise StorageError("down")
        yield  # pragma: no cover

    def leg(tag):
        started.append(tag)
        yield env.timeout(1.0)

    def caller():
        try:
            yield FanOut(env, [leg("first"), stillborn(), leg("never")])
        except StorageError:
            return env.now

    assert drive(env, caller()) == 0.0
    assert started == ["first"]
    env.run()
    assert env.now == 1.0  # only the detached timeout of "first" was left


def test_deadline_interrupts_every_leg_and_costs_nothing_when_met():
    env = Environment()
    log = []

    def caller():
        try:
            yield FanOut(
                env, [sleeper(env, 5.0, "a", log), sleeper(env, 7.0, "b", log)],
                deadline=2.0, what="slow pair")
        except DeadlineExceededError as exc:
            return str(exc), env.now

    message, when = drive(env, caller())
    assert when == 2.0 and "slow pair exceeded 2.000000s" in message
    assert log == [("interrupted", "a", 2.0, "slow pair"),
                   ("interrupted", "b", 2.0, "slow pair")]

    env = Environment()

    def met():
        before = env._seq
        yield FanOut(env, [sleeper(env, 1.0)], deadline=2.0)
        return env.now, env._seq - before

    # One timeout, the (cancelled) deadline, the completion.
    assert drive(env, met()) == (1.0, 3)
    env.run()  # the met deadline left the heap: nothing fires, nothing moves
    assert env.now == 1.0  # was 2.0 while a met deadline fired into nothing
    assert env._queue == []


def test_failure_reaches_a_caller_that_joins_late():
    env = Environment()

    def caller():
        fan = FanOut(env, [failing(env, 1.0, StorageError("lost"))])
        yield env.timeout(5.0)  # the fan failed, unwaited, four seconds ago
        try:
            yield fan
        except StorageError as exc:
            return str(exc), env.now

    assert drive(env, caller()) == ("lost", 5.0)


def test_fans_nest_and_a_leg_may_arm_with_timeout():
    env = Environment()

    def inner(tag):
        values = yield FanOut(
            env, [sleeper(env, 1.0, tag + "1"), sleeper(env, 2.0, tag + "2")])
        return values

    def guarded():
        try:
            yield from with_timeout(env, sleeper(env, 9.0), 3.0, "guarded leg")
        except DeadlineExceededError:
            return "timed out at %.1f" % env.now

    def caller():
        values = yield FanOut(env, [inner("x"), inner("y"), guarded()])
        return values, env.now

    assert drive(env, caller()) == (
        [["x1", "x2"], ["y1", "y2"], "timed out at 3.0"], 3.0)


def test_empty_fan_and_zero_need_succeed_at_once():
    env = Environment()

    def caller():
        empty = yield FanOut(env, [])
        none_needed = yield FanOut(env, [sleeper(env, 4.0, "bg")], need=0)
        return empty, none_needed, env.now

    assert drive(env, caller()) == ([], [None], 0.0)


def test_a_leg_yielding_a_processed_event_continues_in_the_same_step():
    env = Environment()
    done = env.event()
    done.succeed("ready")

    def leg():
        first = yield done
        second = yield done  # processed by now: fed straight back in
        return first, second

    def caller():
        yield env.timeout(1.0)  # let ``done`` be processed
        before = env._seq
        values = yield FanOut(env, [leg()])
        return values, env._seq - before

    assert drive(env, caller()) == ([("ready", "ready")], 1)


def test_bad_arguments_and_non_event_yields():
    env = Environment()
    with pytest.raises(ValueError):
        FanOut(env, [sleeper(env, 1.0)], need=2)
    with pytest.raises(TypeError):
        FanOut(env, [42])

    def bad_leg():
        yield "not an event"

    def caller():
        try:
            yield FanOut(env, [bad_leg()])
        except SimulationError as exc:
            return str(exc)

    assert "non-event" in drive(env, caller())


def test_with_timeout_runs_its_target_in_the_calling_process():
    env = Environment()

    def target():
        assert env.active_process is caller_proc
        yield env.timeout(1.0)
        return "inline"

    def caller():
        before = env._seq
        value = yield from with_timeout(env, target(), 5.0, "op")
        return value, env._seq - before

    caller_proc = env.process(caller())
    env.run_until_event(caller_proc)
    # The target's timeout and the deadline: no process, no condition.
    assert caller_proc.value == ("inline", 2)
