"""Distributed robustness tests: global deadlock detection, the commit
fence, scatter-read atomicity, partitions, and proxy write retries.

The two headline mechanisms are shown firing on the workload that needs
them: a cross-shard lock cycle resolves in one detector sweep instead of
the 2 s lock-wait timeout, and scatter reads racing a paused 2PC writer
never observe a torn commit because readers wait at the commit fence.
"""

import pytest

from repro.common import TransactionAborted
from repro.engine.codec import INT, Column, Schema
from repro.frontend.proxy import SqlProxy
from repro.harness.chaos import ChaosEvent, ChaosInjector, ChaosSchedule
from repro.harness.deployment import DeploymentSpec
from repro.shard import (
    CommitFence,
    FenceTimeout,
    InDoubtTransaction,
    ShardKeySpec,
)
from repro.sim.core import AllOf, Environment


def build(shards=2, seed=17):
    dep = DeploymentSpec.stock(seed=seed).with_shards(shards).build()
    dep.start()
    session = dep.shard_session()
    session.create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    dep.shardmap.set_table("kv", ShardKeySpec(column_pos=0))
    return dep, session


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def seed_rows(dep, session, keys):
    def gen():
        txn = session.begin()
        for k in keys:
            yield from session.insert(txn, "kv", [k, 0])
        yield from session.commit(txn)

    run(dep, gen())


# ----------------------------------------------------------------------
# CommitFence unit behaviour
# ----------------------------------------------------------------------
def test_fence_uncontended_is_zero_yield():
    env = Environment()
    fence = CommitFence(env)

    def reader():
        yield from fence.acquire_read()
        fence.release_read()

    def writer():
        yield from fence.acquire_write()
        fence.release_write()

    for gen in (reader, writer):
        proc = env.process(gen())
        env.run_until_event(proc)
        assert env.now == 0.0
    assert fence.counters()["reader_waits"] == 0
    assert fence.counters()["writer_waits"] == 0


def test_fence_reader_waits_out_writer():
    env = Environment()
    fence = CommitFence(env)
    order = []

    def writer():
        yield from fence.acquire_write()
        yield env.timeout(0.1)
        fence.release_write()
        order.append(("w-done", env.now))

    def reader():
        yield env.timeout(0.01)
        yield from fence.acquire_read()
        order.append(("r-in", env.now))
        fence.release_read()

    procs = [env.process(writer()), env.process(reader())]
    env.run_until_event(AllOf(env, procs))
    assert order == [("w-done", 0.1), ("r-in", 0.1)]
    assert fence.counters()["reader_waits"] == 1


def test_fence_writer_waits_out_reader_and_blocks_new_readers():
    env = Environment()
    fence = CommitFence(env)
    order = []

    def reader_one():
        yield from fence.acquire_read()
        yield env.timeout(0.1)
        fence.release_read()

    def writer():
        yield env.timeout(0.01)
        yield from fence.acquire_write()
        order.append(("w-in", env.now))
        yield env.timeout(0.05)
        fence.release_write()

    def reader_two():
        # Arrives while the writer is *pending*: must queue behind it
        # (writer preference) even though a reader is currently inside.
        yield env.timeout(0.02)
        yield from fence.acquire_read()
        order.append(("r2-in", env.now))
        fence.release_read()

    procs = [env.process(g()) for g in (reader_one, writer, reader_two)]
    env.run_until_event(AllOf(env, procs))
    assert order == [("w-in", 0.1), ("r2-in", pytest.approx(0.15))]


def test_fence_reader_timeout_raises():
    env = Environment()
    fence = CommitFence(env)
    outcome = []

    def writer():
        yield from fence.acquire_write()
        # Never releases within the reader's patience.
        yield env.timeout(1.0)
        fence.release_write()

    def reader():
        yield env.timeout(0.01)
        try:
            yield from fence.acquire_read(max_wait=0.1)
        except FenceTimeout:
            outcome.append(env.now)

    procs = [env.process(writer()), env.process(reader())]
    env.run_until_event(AllOf(env, procs))
    assert outcome == [pytest.approx(0.11)]
    assert fence.counters()["reader_timeouts"] == 1


# ----------------------------------------------------------------------
# Global deadlock detection (the cyclic-write regression pair)
# ----------------------------------------------------------------------
def cyclic_writers(dep, session, results):
    """Two transactions locking (0 -> 1) and (1 -> 0): a cross-shard
    cycle invisible to each engine's local refusal."""

    def writer(first, second, idx, stagger):
        txn = session.begin()
        try:
            yield from session.update(txn, "kv", (first,), {"v": idx})
            yield dep.env.timeout(stagger)
            yield from session.update(txn, "kv", (second,), {"v": idx})
            yield from session.commit(txn)
            results[idx] = "committed"
        except TransactionAborted:
            yield from session.rollback(txn)
            results[idx] = "aborted"

    return [
        dep.env.process(writer(0, 1, 0, 0.02)),
        dep.env.process(writer(1, 0, 1, 0.02)),
    ]


def test_cross_shard_deadlock_resolved_by_detector():
    dep, session = build()
    seed_rows(dep, session, [0, 1])
    start = dep.env.now
    results = {}
    procs = cyclic_writers(dep, session, results)
    dep.env.run_until_event(AllOf(dep.env, procs))
    elapsed = dep.env.now - start
    # One sweep interval (50 ms) plus slack, nowhere near 2 s.
    assert elapsed < 0.5
    # Deterministic victim: the youngest (second to begin) aborts.
    assert results[1] == "aborted"
    assert results[0] == "committed"
    counters = dep.deadlock_detector.counters()
    assert counters["cycles_found"] >= 1
    assert counters["victims_aborted"] >= 1
    assert sum(e.locks.deadlocks for e in dep.engines) >= 1
    # The survivor's effect is durable on both shards.
    assert run(dep, session.read_row(None, "kv", (0,))) == [0, 0]
    assert run(dep, session.read_row(None, "kv", (1,))) == [1, 0]


# ----------------------------------------------------------------------
# Scatter-read atomicity
# ----------------------------------------------------------------------
def scatter_harness(dep, session):
    """A fenced 2PC writer bumping both shards with a deliberate pause
    mid-flight, plus a polling scatter reader; returns observations."""
    seed_rows(dep, session, [0, 1])
    proxy = SqlProxy(
        dep.env, dep.engine, None,
        shardmap=dep.shardmap, coordinator=dep.coordinator,
        shard_targets=[(s.engine, None, None) for s in dep.shards],
    )
    reader_session = proxy.session("probe")
    observations = []

    def writer():
        for round_no in range(1, 4):
            dtxn = dep.coordinator.begin(fenced=True)
            for k in (0, 1):
                yield from dep.coordinator.read_row(
                    dtxn, "kv", (k,), for_update=True
                )
            yield from dep.coordinator.update(
                dtxn, "kv", (0,), {"v": round_no}
            )
            # A wide window with shard 0 bumped but shard 1 not yet.
            yield dep.env.timeout(0.05)
            yield from dep.coordinator.update(
                dtxn, "kv", (1,), {"v": round_no}
            )
            yield from dep.coordinator.commit(dtxn)
            yield dep.env.timeout(0.02)

    def reader():
        while len(observations) < 40:
            yield dep.env.timeout(0.005)
            try:
                result = yield from reader_session.execute(
                    "SELECT k, v FROM kv"
                )
            except FenceTimeout:
                continue
            observations.append(tuple(sorted(
                (row[0], row[1]) for row in result.rows
            )))

    procs = [dep.env.process(writer()), dep.env.process(reader())]
    dep.env.run_until_event(AllOf(dep.env, procs))
    return observations


def torn(observations):
    return [obs for obs in observations if obs[0][1] != obs[1][1]]


def test_scatter_reads_atomic_with_fence():
    dep, session = build()
    observations = scatter_harness(dep, session)
    assert observations
    assert not torn(observations)
    # The fence actually did work: readers were held out at least once.
    assert dep.coordinator.fence.counters()["reader_waits"] >= 1


def test_fence_held_across_in_doubt_window():
    """A decided-but-interrupted 2PC keeps the write fence: scatter
    reads refuse (FenceTimeout) rather than observe the half-applied
    commit, and flow again once recovery finishes phase 2."""
    dep, session = build()
    seed_rows(dep, session, [0, 1])
    proxy = SqlProxy(
        dep.env, dep.engine, None,
        shardmap=dep.shardmap, coordinator=dep.coordinator,
        shard_targets=[(s.engine, None, None) for s in dep.shards],
        scatter_fence_timeout=0.05,
    )
    reader_session = proxy.session("probe")
    dep.coordinator.arm_failpoint("after_decision")

    def doomed():
        dtxn = session.begin()
        yield from session.update(dtxn, "kv", (0,), {"v": 7})
        yield from session.update(dtxn, "kv", (1,), {"v": 7})
        with pytest.raises(InDoubtTransaction):
            yield from session.commit(dtxn)
        return dtxn

    dtxn = run(dep, doomed())
    assert dtxn.status == "decided"
    assert dtxn.fence_held

    def blocked_read():
        with pytest.raises(FenceTimeout):
            yield from reader_session.execute("SELECT k, v FROM kv")

    run(dep, blocked_read())

    # Recovery finishes phase 2 and releases the fence.
    crashed = [i for i, e in enumerate(dep.engines) if e.crashed]
    for shard in crashed:
        run(dep, dep.coordinator.recover_shard(shard))
    assert not dtxn.fence_held
    result = run(
        dep, reader_session.execute("SELECT k, v FROM kv")
    )
    assert sorted((r[0], r[1]) for r in result.rows) == [(0, 7), (1, 7)]


# ----------------------------------------------------------------------
# Partitions and the new chaos kinds
# ----------------------------------------------------------------------
def test_partitioned_shard_aborts_cross_shard_writes():
    dep, session = build()
    seed_rows(dep, session, [0, 1])
    dep.coordinator.partition(1)

    def attempt():
        txn = session.begin()
        try:
            yield from session.update(txn, "kv", (0,), {"v": 1})
            yield from session.update(txn, "kv", (1,), {"v": 1})
            yield from session.commit(txn)
            return "committed"
        except TransactionAborted:
            yield from session.rollback(txn)
            return "aborted"

    assert run(dep, attempt()) == "aborted"
    assert dep.coordinator.partition_rejects >= 1
    # The partition is coordination-plane only: the shard's own engine
    # keeps serving (its storage is intact)...
    assert not dep.engines[1].crashed
    assert run(dep, dep.engines[1].read_row(None, "kv", (1,))) == [1, 0]
    # ...and healing restores cross-shard commits.
    dep.coordinator.heal(1)
    assert run(dep, attempt()) == "committed"
    assert run(dep, session.read_row(None, "kv", (0,))) == [0, 1]
    assert run(dep, session.read_row(None, "kv", (1,))) == [1, 1]


def test_shard_partition_chaos_kind_heals_and_resumes():
    dep, session = build()
    seed_rows(dep, session, [0, 1])
    schedule = ChaosSchedule()
    schedule.add(0.01, "shard_partition", "1", duration=0.1)
    injector = ChaosInjector(dep, schedule)
    injector.start()
    outcomes = []

    def loop():
        for _ in range(30):
            txn = session.begin()
            try:
                yield from session.update(txn, "kv", (0,), {"v": 1})
                yield from session.update(txn, "kv", (1,), {"v": 1})
                yield from session.commit(txn)
                outcomes.append("committed")
            except TransactionAborted:
                yield from session.rollback(txn)
                outcomes.append("aborted")
            yield dep.env.timeout(0.01)

    run(dep, loop())
    assert "aborted" in outcomes  # during the window
    assert outcomes[-1] == "committed"  # after the heal
    assert dep.coordinator.partition_rejects >= 1
    assert dep.coordinator.unresolved_in_doubt() == 0
    assert any("partitioned shard 1" in line for line in injector.log)
    assert any("healed shard 1" in line for line in injector.log)


def test_coordinator_crash_inflight_chaos_kind():
    dep, session = build()
    seed_rows(dep, session, [0, 1])
    schedule = ChaosSchedule()
    schedule.add(0.0, "coordinator_crash_inflight")
    injector = ChaosInjector(dep, schedule)
    injector.start()
    dep.env.run(until=dep.env.now + 0.01)

    def doomed():
        txn = session.begin()
        yield from session.update(txn, "kv", (0,), {"v": 5})
        yield from session.update(txn, "kv", (1,), {"v": 5})
        with pytest.raises(InDoubtTransaction):
            yield from session.commit(txn)

    run(dep, doomed())
    assert dep.coordinator.fired_failpoints
    crashed = [i for i, e in enumerate(dep.engines) if e.crashed]
    assert crashed
    for shard in crashed:
        run(dep, dep.coordinator.recover_shard(shard))
    assert dep.coordinator.unresolved_in_doubt() == 0
    assert run(dep, session.read_row(None, "kv", (0,))) == [0, 5]
    assert run(dep, session.read_row(None, "kv", (1,))) == [1, 5]


def test_before_participant_commit_failpoint():
    """The new failpoint crashes a participant inside phase 2: the
    transaction is decided, partially committed, and must converge to
    fully committed at recovery."""
    dep, session = build()
    seed_rows(dep, session, [0, 1])
    dep.coordinator.arm_failpoint("before_participant_commit", shard=1)

    def doomed():
        txn = session.begin()
        yield from session.update(txn, "kv", (0,), {"v": 3})
        yield from session.update(txn, "kv", (1,), {"v": 3})
        with pytest.raises(InDoubtTransaction):
            yield from session.commit(txn)
        return txn

    dtxn = run(dep, doomed())
    assert dtxn.status == "decided"
    assert dep.engines[1].crashed
    run(dep, dep.coordinator.recover_shard(1))
    assert dtxn.status == "committed"
    assert dep.coordinator.unresolved_in_doubt() == 0
    assert run(dep, session.read_row(None, "kv", (0,))) == [0, 3]
    assert run(dep, session.read_row(None, "kv", (1,))) == [1, 3]


def test_chaos_kind_validation():
    with pytest.raises(ValueError):
        ChaosEvent(0.0, "shard_partition", "1")  # needs a duration
    ChaosEvent(0.0, "shard_partition", "1", duration=0.1)
    ChaosEvent(0.0, "coordinator_crash_inflight")


# ----------------------------------------------------------------------
# Proxy write retries
# ----------------------------------------------------------------------
def build_frontend(seed=23):
    spec = (DeploymentSpec.stock(seed=seed)
            .with_shards(2).with_replicas(1))
    dep = spec.build()
    dep.start()
    session = dep.shard_session()
    session.create_table(
        "kv", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    dep.shardmap.set_table("kv", ShardKeySpec(column_pos=0))
    return dep


def test_write_retry_recovers_transient_abort():
    dep = build_frontend()
    front = dep.frontend_session()
    attempts = []

    def work(txn):
        attempts.append(1)
        if len(attempts) == 1:
            raise TransactionAborted("transient (injected)")
        yield from dep.coordinator.insert(txn, "kv", [0, 42])
        return "done"

    assert run(dep, front.write(work)) == "done"
    assert len(attempts) == 2
    assert dep.frontend.write_retries == 1
    assert dep.frontend.write_retry_giveups == 0
    session = dep.shard_session()
    assert run(dep, session.read_row(None, "kv", (0,))) == [0, 42]


def test_write_retry_gives_up_after_max_attempts():
    dep = build_frontend()
    front = dep.frontend_session()
    attempts = []

    def work(txn):
        attempts.append(1)
        raise TransactionAborted("always (injected)")
        yield  # pragma: no cover - makes work a generator

    def attempt():
        with pytest.raises(TransactionAborted):
            yield from front.write(work)

    run(dep, attempt())
    policy = dep.frontend.write_retry
    assert len(attempts) == policy.max_attempts
    assert dep.frontend.write_retry_giveups == 1


def test_write_retry_never_retries_in_doubt():
    dep = build_frontend()
    front = dep.frontend_session()
    attempts = []

    def work(txn):
        attempts.append(1)
        raise InDoubtTransaction("decided; ack lost (injected)")
        yield  # pragma: no cover - makes work a generator

    def attempt():
        with pytest.raises(InDoubtTransaction):
            yield from front.write(work)

    run(dep, attempt())
    assert len(attempts) == 1
    assert dep.frontend.write_retries == 0
