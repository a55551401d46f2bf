"""Tests for Resource, Store, CpuPool."""

import pytest

from repro.sim.core import Environment
from repro.sim.resources import CpuPool, Resource, Store


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.acquire(), res.acquire(), res.acquire()
    assert r1 is None and r2 is None  # taken on the spot
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1
    assert env._seq == 0  # nothing scheduled


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, hold):
        grant = res.acquire()
        if grant is not None:
            yield grant
        order.append(("start", name, env.now))
        yield env.timeout(hold)
        res.release(grant)

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.process(user(env, "c", 1.0))
    env.run()
    assert order == [("start", "a", 0.0), ("start", "b", 2.0), ("start", "c", 3.0)]


def test_resource_release_unheld_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    grant = res.acquire()
    res.release(grant)
    from repro.sim.core import SimulationError

    with pytest.raises(SimulationError):
        res.release(grant)


def test_resource_locked_helper_releases_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)

    def inner_fail(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def locked(inner):
        grant = res.acquire()
        try:
            if grant is not None:
                yield grant
            return (yield from inner)
        finally:
            res.release(grant)

    def proc(env):
        try:
            yield from locked(inner_fail(env))
        except ValueError:
            pass
        return res.count

    p = env.process(proc(env))
    env.run()
    assert p.value == 0


def test_cancelled_request_is_skipped():
    """Releasing a grant that is still pending withdraws it: the slot
    passes over it to the next waiter."""
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.acquire()
    r2 = res.acquire()
    r3 = res.acquire()
    res.release(r2)
    assert res.queue_length == 1
    res.release(r1)
    assert r3.triggered
    assert not r2.triggered
    assert res.count == 1 and res.queue_length == 0


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("x")

    def getter(env):
        item = yield store.get()
        return item

    p = env.process(getter(env))
    env.run()
    assert p.value == "x"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def getter(env):
        item = yield store.get()
        return (env.now, item)

    def putter(env):
        yield env.timeout(4.0)
        store.put("late")

    p = env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert p.value == (4.0, "late")


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    for i in range(5):
        store.put(i)
    got = []

    def getter(env):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    env.process(getter(env))
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_cpu_pool_serializes_beyond_cores():
    env = Environment()
    pool = CpuPool(env, cores=2)
    finish_times = []

    def job(env):
        yield from pool.consume(1.0)
        finish_times.append(env.now)

    for _ in range(4):
        env.process(job(env))
    env.run()
    # 2 cores, 4 unit jobs: finish at 1,1,2,2.
    assert finish_times == [1.0, 1.0, 2.0, 2.0]
    assert pool.busy_time == 4.0
    assert pool.utilization(2.0) == 1.0


def test_cpu_pool_rejects_negative_time():
    env = Environment()
    pool = CpuPool(env, cores=1)

    def job(env):
        yield from pool.consume(-1.0)

    env.process(job(env))
    with pytest.raises(ValueError):
        env.run()


def test_mutex_is_exclusive():
    env = Environment()
    mutex = Resource(env)
    active = []
    max_active = []

    def critical(env):
        grant = mutex.acquire()
        if grant is not None:
            yield grant
        active.append(1)
        max_active.append(len(active))
        yield env.timeout(1.0)
        active.pop()
        mutex.release(grant)

    for _ in range(5):
        env.process(critical(env))
    env.run()
    assert max(max_active) == 1


def test_store_put_many_uncontended_extends_in_order():
    env = Environment()
    store = Store(env)
    store.put_many([1, 2, 3])
    store.put_many((4, 5))
    got = []

    def getter(env):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    env.process(getter(env))
    env.run()
    assert got == [1, 2, 3, 4, 5]


def test_store_put_many_wakes_waiting_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def getter(env, name):
        item = yield store.get()
        got.append((name, item))

    env.process(getter(env, "a"))
    env.process(getter(env, "b"))

    def putter(env):
        yield env.timeout(1.0)
        store.put_many([10, 20, 30])

    env.process(putter(env))
    env.run()
    assert got == [("a", 10), ("b", 20)]
    assert store.get().value == 30
