"""The contract of group commit on demand.

A record leaves the log buffer when someone waits on it, when the buffer
is full, or when the WAL rule, a fresh read, a rollback or recovery asks
for its LSN - never merely because the writer is idle.  Everything else
about a flush (FIFO, batch cap, one wake-up per waiter) is as it was.
"""

import pytest

from repro.common import KB, MB, PageId, StorageError
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.engine.page import PageOp
from repro.engine.wal import LogBuffer, RedoRecord
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.sim.core import AllOf, Environment
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase


def record(lsn, txn=1):
    op = PageOp("insert", slot=0, row=b"x" * 100)
    return RedoRecord(lsn=lsn, txn_id=txn, page_id=PageId(1, 1), op=op)


SIZE = record(1).log_bytes


def make_log(env, **kwargs):
    flushes = []

    def flush(records, nbytes):
        flushes.append([r.lsn for r in records])
        yield env.timeout(0.001)

    log = LogBuffer(env, flush, **kwargs)
    log.start()
    env.run(until=env.now + 0.01)  # the writer has parked itself
    return log, flushes


def no_demand_except(log, **counts):
    expected = dict.fromkeys(LogBuffer.DEMANDS, 0)
    expected.update(counts)
    return log.flush_demand == expected


# ---------------------------------------------------------------------------
# The log buffer alone
# ---------------------------------------------------------------------------

def test_unwaited_appends_schedule_nothing_and_ride_with_the_commit():
    env = Environment()
    log, flushes = make_log(env)
    before = env._seq
    for lsn in range(1, 8):
        assert log.append(record(lsn)) is None
    assert env._seq == before  # host bookkeeping only
    assert env.peek() == float("inf")  # an idle log schedules no event
    assert log.flushes == 0 and log.queue_depth == 7
    assert log.pending_bytes == 7 * SIZE

    waiters = [log.append(record(8 + i), wait=True) for i in range(3)]
    # One writer wake-up, however many committers arrive together.
    assert env._seq == before + 1
    env.run(until=env.now + 0.01)
    assert flushes == [list(range(1, 11))]  # one flush, LSN order
    assert [w.value for w in waiters] == [10, 10, 10]
    # ... the flush's own timeout, and one wake-up per waiter.
    assert env._seq == before + 1 + 1 + 3
    assert log.flushes == 1 and log.records_flushed == 10
    assert log.pending_bytes == 0 and log.taken_lsn == 10
    assert no_demand_except(log, commit=1)


def test_a_full_buffer_flushes_with_no_waiter_and_splits_fifo():
    env = Environment()
    log, flushes = make_log(env, max_batch_bytes=2 * SIZE)
    log.append(record(1))
    env.run(until=env.now + 0.01)
    assert flushes == []  # half full: stays
    for lsn in (2, 3, 4, 5):
        log.append(record(lsn))
    env.run(until=env.now + 0.01)
    # Two capped batches; the remainder is below the cap and waits.
    assert flushes == [[1, 2], [3, 4]]
    assert log.queue_depth == 1 and log.pending_bytes == SIZE
    assert no_demand_except(log, full=2)


def test_flush_through_takes_the_queue_without_blocking_the_caller():
    env = Environment()
    log, flushes = make_log(env)
    for lsn in (1, 2, 3):
        log.append(record(lsn))
    assert log.flush_through(2, "rollback") is None
    env.run(until=env.now + 0.01)
    assert flushes == [[1, 2, 3]]  # everything queued, not just up to 2
    assert log.persistent_lsn == 3
    # Durable or in flight already: nothing to do, no event.
    before = env._seq
    log.flush_through(3, "wal_evict")
    log.append(record(4))
    log.flush_through(3, "wal_evict")
    assert env._seq == before
    env.run(until=env.now + 0.01)
    assert flushes == [[1, 2, 3]] and log.queue_depth == 1
    assert no_demand_except(log, rollback=1)


def test_discard_fails_queued_waiters_and_spares_the_batch_in_flight():
    env = Environment()
    log, flushes = make_log(env)
    in_flight = log.append(record(1), wait=True)
    env.run(until=env.now + 0.0005)  # taken by the writer, on the wire
    log.append(record(2))
    queued = log.append(record(3), wait=True)
    log.discard(StorageError("engine crashed"))
    assert log.queue_depth == 0 and log.pending_bytes == 0

    def committer():
        with pytest.raises(StorageError):
            yield queued
        return (yield in_flight)

    proc = env.process(committer())
    env.run_until_event(proc)
    assert proc.value == 1
    env.run(until=env.now + 0.01)
    assert flushes == [[1]] and log.persistent_lsn == 1


# ---------------------------------------------------------------------------
# The engine's demands
# ---------------------------------------------------------------------------

def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def wide_deployment(**engine_overrides):
    dep = Deployment(DeploymentSpec.astore_log(
        seed=5, engine=EngineConfig(**engine_overrides)))
    dep.start()
    dep.engine.create_table(
        "wide", Schema([Column("id", INT()), Column("pad", VARCHAR(4200))]),
        ["id"])
    return dep


def test_wal_guard_drains_a_long_transaction_over_a_small_pool():
    # A batch cap nothing here reaches: only the WAL guard can ask.
    dep = wide_deployment(
        buffer_pool_bytes=4 * 16 * KB, log_batch_bytes=16 * MB)
    engine = dep.engine
    pool = engine.buffer_pool
    assert pool.capacity_pages == 4

    def long_transaction(env):
        txn = engine.begin()
        for i in range(36):  # three rows a page: twelve pages
            yield from engine.insert(txn, "wide", [i, "p" * 4096])
        # Quiet now: each page that passes through the pool lets
        # eviction catch up with what the guard had flushed.
        for key in (0, 3, 6):
            yield env.timeout(0.001)
            assert (yield from engine.read_row(txn, "wide", (key,)))[0] == key
        return txn

    txn = run(dep, long_transaction(dep.env))
    assert len(engine.catalog.table("wide").page_nos) == 12
    assert len(pool) == pool.capacity_pages
    assert txn.is_active and engine.committed == 0
    demand = engine.log.flush_demand
    assert demand["wal_evict"] > 0
    assert demand["wal_evict"] == engine.log.flushes


def test_fresh_read_of_an_unflushed_page_needs_no_commit():
    dep = wide_deployment()
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "wide", [1, "p"])
        page_id = engine.catalog.table("wide").page_id(0)
        version = engine.page_versions[page_id]
        assert version > engine.log.persistent_lsn
        page = yield from engine.read_page(page_id, version)
        return page.page_lsn, version

    page_lsn, version = run(dep, work(dep.env))
    assert page_lsn == version
    assert engine.committed == 0
    assert no_demand_except(engine.log, fresh_read=1)
    assert engine.ship_demand["read"] == 1 == dep.pagestore.ships


def test_tpcc_flushes_only_on_demand():
    dep = Deployment(DeploymentSpec.astore_pq(seed=3))
    dep.start()
    database = TpccDatabase(
        dep.engine, TpccConfig(), dep.seeds.stream("demand-load"))
    run(dep, database.load())
    terminals = [
        TpccClient(database, dep.seeds.stream("demand-%d" % index))
        for index in range(4)
    ]
    procs = [dep.env.process(t.run_for(0.01)) for t in terminals]
    dep.run_until(AllOf(dep.env, procs))
    engine, log = dep.engine, dep.engine.log
    demand = log.flush_demand
    assert sum(t.committed for t in terminals) > 20
    assert sum(demand.values()) == log.flushes
    forced = demand["full"] + demand["wal_evict"] + demand["fresh_read"]
    assert log.flushes <= engine.committed + engine.aborted + forced
    assert demand["commit"] <= engine.committed
    # The gauges the deployment exports say the same.
    assert dep.registry.value("engine.log.flush_demand") == demand
    assert dep.registry.value("engine.log.pending_bytes") == log.pending_bytes


def test_records_never_demanded_die_with_the_crash():
    dep = wide_deployment()
    engine = dep.engine

    def committed_then_open(env):
        txn = engine.begin()
        for i in range(5):
            yield from engine.insert(txn, "wide", [i, "v%d" % i])
        yield from engine.commit(txn)
        yield env.timeout(0.05)
        loser = engine.begin()
        yield from engine.update(loser, "wide", (1,), {"pad": "dirty"})
        yield from engine.insert(loser, "wide", [99, "dirty"])
        return loser

    loser = run(dep, committed_then_open(dep.env))
    assert engine.log.queue_depth == 2
    assert loser.records[0].lsn > engine.log.persistent_lsn
    engine.crash()
    assert engine.log.queue_depth == 0

    def recover_and_go_on(env):
        stats = yield from engine.recover()
        txn = engine.begin()
        yield from engine.insert(txn, "wide", [50, "after"])
        yield from engine.commit(txn)  # nothing stale rides along
        yield from engine.ship_through(engine.log.persistent_lsn, "read")
        rows = []
        for key in (0, 1, 2, 3, 4, 50, 99):
            rows.append((yield from engine.read_row(None, "wide", (key,))))
        retained = yield from engine.log_backend.recover()
        return stats, rows, retained

    stats, rows, retained = run(dep, recover_and_go_on(dep.env))
    assert stats["losers_undone"] == 0
    assert rows == [[0, "v0"], [1, "v1"], [2, "v2"], [3, "v3"], [4, "v4"],
                    [50, "after"], None]
    assert loser.txn_id not in {r.txn_id for r in retained}
    # Neither PageStore nor its ship queue ever saw the loser's records.
    assert engine.ship_demand["recovery"] == 1
    table = engine.catalog.table("wide")
    stored = dep.pagestore.pages_of_space(table.space_no)
    assert sum(page.row_count for page in stored) == 6
