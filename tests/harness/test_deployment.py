"""Tests for the deployment builder and log backends."""

import pytest

from repro.common import KB, MB
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.engine.logbackends import AStoreLogBackend, SsdLogBackend
from repro.harness.deployment import Deployment, DeploymentSpec


def simple_schema():
    return Schema([Column("id", INT()), Column("v", VARCHAR(16))])


def test_stock_deployment_has_logstore_no_astore():
    dep = Deployment(DeploymentSpec.stock())
    assert dep.logstore is not None
    assert dep.astore is None
    assert dep.ring is None
    assert dep.ebp is None
    assert isinstance(dep.engine.log_backend, SsdLogBackend)


def test_astore_log_deployment_has_ring():
    dep = Deployment(DeploymentSpec.astore_log())
    assert dep.logstore is None
    assert dep.astore is not None
    assert dep.ring is not None
    assert dep.ebp is None
    assert isinstance(dep.engine.log_backend, AStoreLogBackend)


def test_astore_ebp_deployment_has_both():
    dep = Deployment(DeploymentSpec.astore_ebp())
    assert dep.ring is not None
    assert dep.ebp is not None
    assert dep.engine.ebp is dep.ebp


def test_pq_config_flag():
    assert DeploymentSpec.astore_pq().enable_pushdown
    assert not DeploymentSpec.astore_ebp().enable_pushdown


def test_start_initializes_ring_segments():
    dep = Deployment(DeploymentSpec.astore_log(log_ring_segments=4))
    dep.start()
    assert len(dep.ring.segment_ids) == 4
    dep.start()  # idempotent


def test_session_defaults_follow_deployment():
    dep = Deployment(DeploymentSpec.astore_pq())
    dep.start()
    session = dep.new_session()
    assert session.planner_config.enable_pushdown
    assert session.pushdown_runtime is not None
    off = dep.new_session(enable_pushdown=False)
    assert off.pushdown_runtime is None


def test_same_seed_same_virtual_timing():
    """Determinism: identical runs produce identical virtual clocks."""
    results = []
    for _ in range(2):
        dep = Deployment(DeploymentSpec.astore_ebp(seed=123))
        dep.start()
        engine = dep.engine
        engine.create_table("t", simple_schema(), ["id"])

        def work(env):
            txn = engine.begin()
            for i in range(40):
                yield from engine.insert(txn, "t", [i, "v%d" % i])
            yield from engine.commit(txn)
            return env.now

        proc = dep.env.process(work(dep.env))
        dep.env.run_until_event(proc)
        results.append(proc.value)
    assert results[0] == results[1]


def test_different_seeds_differ():
    results = []
    for seed in (1, 2):
        dep = Deployment(DeploymentSpec.astore_log(seed=seed))
        dep.start()
        engine = dep.engine
        engine.create_table("t", simple_schema(), ["id"])

        def work(env):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [1, "x"])
            yield from engine.commit(txn)
            return env.now

        proc = dep.env.process(work(dep.env))
        dep.env.run_until_event(proc)
        results.append(proc.value)
    assert results[0] != results[1]


def test_log_recycling_gated_on_shipping():
    dep = Deployment(DeploymentSpec.astore_log())
    dep.start()
    engine = dep.engine
    # Before the engine ships anything, recycling is permissive; afterwards
    # it requires shipped_lsn to cover the segment: the ring demands the
    # ship and waits for it.
    assert list(dep.ring.reclaim(0)) == []
    engine.create_table("t", simple_schema(), ["id"])

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "t", [1, "x"])
        yield from engine.commit(txn)

    dep.run_until(dep.env.process(work(dep.env)))
    durable = engine.log.persistent_lsn
    assert engine.shipped_lsn < durable
    demand = dep.env.process(dep.ring.reclaim(durable))
    dep.run_until(demand)
    assert engine.shipped_lsn >= durable
    assert list(dep.ring.reclaim(durable)) == []
    assert engine.ship_demand["ring"] == 1 == dep.pagestore.ships


def test_ssd_log_backend_recovery_returns_retained_records():
    dep = Deployment(DeploymentSpec.stock())
    dep.start()
    engine = dep.engine
    engine.create_table("t", simple_schema(), ["id"])

    def work(env):
        txn = engine.begin()
        for i in range(5):
            yield from engine.insert(txn, "t", [i, "v"])
        yield from engine.commit(txn)

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)

    def recover(env):
        return (yield from engine.log_backend.recover())

    proc = dep.env.process(recover(dep.env))
    dep.env.run_until_event(proc)
    records = proc.value
    assert any(r.commit for r in records)
    assert sum(1 for r in records if not r.is_marker) >= 5


def test_stock_crash_recovery_roundtrip():
    """Recovery works on the SSD backend too, not just AStore."""
    dep = Deployment(DeploymentSpec.stock())
    dep.start()
    engine = dep.engine
    engine.create_table("t", simple_schema(), ["id"])

    def work(env):
        txn = engine.begin()
        for i in range(20):
            yield from engine.insert(txn, "t", [i, "v%d" % i])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    engine.crash()

    def recover(env):
        stats = yield from engine.recover()
        row = yield from engine.read_row(None, "t", (7,))
        return stats, row

    proc = dep.env.process(recover(dep.env))
    dep.env.run_until_event(proc)
    stats, row = proc.value
    assert row == [7, "v7"]
