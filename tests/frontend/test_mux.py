"""Tests for the session mux: park/unpark fidelity, lanes, tenancy."""

import pytest

from repro.common import OverloadError, QueryError
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.harness.deployment import DeploymentSpec


def build(lanes=2, tenants=None, replicas=2, seed=23, **mux_kwargs):
    spec = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_replicas(replicas)
        .with_multiplexing(lanes, tenants, **mux_kwargs)
        .with_fault_tolerance(heartbeat_interval=0.05, failure_timeout=0.15)
    )
    dep = spec.build()
    dep.start()
    dep.engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", INT()),
                Column("pad", VARCHAR(32))]),
        ["k"],
    )
    dep.fleet.sync_catalogs()
    return dep


def run(dep, gen, name="test"):
    proc = dep.env.process(gen, name=name)
    dep.env.run_until_event(proc)
    return proc.value


def insert_rows(dep, ms, count, start=0):
    def work(txn):
        for k in range(start, start + count):
            yield from dep.engine.insert(txn, "kv", [k, k * 10, "p"])
        return count

    return run(dep, dep.mux.write(ms, work))


def test_spec_validation():
    with pytest.raises(ValueError):
        DeploymentSpec.astore_ebp(seed=1).with_multiplexing(2)  # no replicas
    with pytest.raises(ValueError):
        (DeploymentSpec.astore_ebp(seed=1).with_replicas(1)
         .with_multiplexing(-1))
    # Zero lanes is no mux: the spec would build without one and drop
    # the tenants it was given.
    with pytest.raises(ValueError, match="mux lanes must be >= 1, got 0"):
        (DeploymentSpec.astore_ebp(seed=1).with_replicas(1)
         .with_multiplexing(0, {"gold": 4}))
    with pytest.raises(ValueError):
        (DeploymentSpec.astore_ebp(seed=1).with_replicas(1)
         .with_multiplexing(2, {"a": 0}))
    # Valid spec builds a mux; a spec without one raises on mux_session.
    dep = build()
    assert dep.mux is not None
    plain = DeploymentSpec.astore_ebp(seed=1).build()
    with pytest.raises(ValueError):
        plain.mux_session()


def test_open_sessions_are_descriptors_not_live_sessions():
    """O(active) fidelity: parked sessions hold no live proxy session."""
    dep = build(lanes=2)
    live_before = len(dep.frontend.sessions)
    for i in range(500):
        dep.mux.open("s-%d" % i)
    # 500 opens added zero live ProxySessions: only the lanes are live.
    assert len(dep.frontend.sessions) == live_before
    assert live_before == 2  # the two lanes
    assert len(dep.mux.sessions) == 500


def test_open_rejects_duplicates_and_unknown_tenants():
    dep = build(lanes=2, tenants={"gold": 2, "bronze": 1})
    dep.mux.open("a", "gold")
    with pytest.raises(ValueError):
        dep.mux.open("a", "gold")
    with pytest.raises(ValueError):
        dep.mux.open("b", "platinum")


def test_read_your_writes_across_park_unpark():
    """The descriptor's token survives parking: reads are never stale."""
    dep = build(lanes=2)
    ms = dep.mux.open("client")
    insert_rows(dep, ms, 10)
    dep.run_for(0.05)

    def update_then_read():
        def bump(txn):
            yield from dep.engine.update(txn, "kv", (3,), {"v": 999})
            return True

        yield from dep.mux.write(ms, bump)
        # The session is parked and rebound between statements; the
        # restored token must still force the replica to catch up (or
        # bounce to primary) - never serve v=30.
        return (yield from dep.mux.read_row(ms, "kv", (3,)))

    row = run(dep, update_then_read())
    assert row[1] == 999
    assert ms.last_commit_lsn > 0


def test_interleaved_sessions_keep_tokens_isolated():
    """Two descriptors sharing lanes never leak each other's tokens."""
    dep = build(lanes=1)  # force both sessions over ONE lane
    writer = dep.mux.open("writer")
    reader = dep.mux.open("reader")
    insert_rows(dep, writer, 5)
    dep.run_for(0.05)
    lsn_before = list(reader.lsns)

    def bump(txn):
        yield from dep.engine.update(txn, "kv", (1,), {"v": 111})
        return True

    run(dep, dep.mux.write(writer, bump))
    # The writer's commit advanced its own parked token, not the
    # reader's (the reader never wrote).
    assert writer.last_commit_lsn > 0
    assert list(reader.lsns) == lsn_before
    # And the writer still reads its own write through the shared lane.
    row = run(dep, dep.mux.read_row(writer, "kv", (1,)))
    assert row[1] == 111


def test_prepared_statements_survive_parking():
    dep = build(lanes=2)
    ms = dep.mux.open("client")
    insert_rows(dep, ms, 10)
    dep.run_for(0.05)
    prepared = dep.mux.prepare(ms, "SELECT v FROM kv WHERE k = ?")
    # Handles are descriptor-cached: preparing the same text again
    # returns the same handle (no per-call allocation).
    assert dep.mux.prepare(ms, "SELECT v FROM kv WHERE k = ?") is prepared
    first = run(dep, prepared.execute(4))
    # Interleave another descriptor onto the lanes, then re-execute.
    other = dep.mux.open("other")
    run(dep, dep.mux.read_row(other, "kv", (1,)))
    second = run(dep, prepared.execute(4))
    assert first.rows == second.rows == [(40,)]
    with pytest.raises(QueryError):
        run(dep, prepared.execute(1, 2))  # wrong arity


def test_lane_counters_and_gauge():
    dep = build(lanes=2)
    ms = dep.mux.open("client")
    insert_rows(dep, ms, 4)
    dep.run_for(0.05)
    run(dep, dep.mux.read_row(ms, "kv", (2,)))
    run(dep, dep.mux.execute(ms, "SELECT v FROM kv WHERE k = 3"))
    snap = dep.registry.snapshot()["frontend"]["mux"]
    assert snap["sessions"] == 1
    assert snap["lanes"] == 2
    assert snap["active"] == 0          # nothing in flight now
    assert snap["statements"] == 3      # write + read_row + execute
    assert snap["binds"] == 3
    assert ms.statements == 3
    assert ms.binds == 3
    assert ms.reads == 2
    assert ms.writes == 1


def test_tenant_shed_propagates_overload_error():
    dep = build(lanes=1, tenants={"a": 1}, queue_limit=0,
                queue_timeout=0.001)
    first = dep.mux.open("first", "a")
    second = dep.mux.open("second", "a")
    insert_rows(dep, first, 2)
    dep.run_for(0.05)

    outcomes = []

    def slow(txn):
        yield dep.env.timeout(0.05)
        yield from dep.engine.update(txn, "kv", (0,), {"v": 1})
        return True

    def contender():
        try:
            yield from dep.mux.read_row(second, "kv", (1,))
            outcomes.append("admitted")
        except OverloadError:
            outcomes.append("shed")

    dep.env.process(dep.mux.write(first, slow), name="holder")
    dep.run_for(0.005)  # the write binds the only lane
    dep.env.process(contender(), name="contender")
    dep.run_for(0.2)
    assert outcomes == ["shed"]
    assert dep.mux.wfq.shed["a"] == 1
