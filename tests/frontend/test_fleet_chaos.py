"""Replica-fleet chaos: kill a replica mid-read-stream and recover.

The serving layer's correctness bar under chaos (ISSUE satellite): no
session may ever observe a version older than its own commit token, and
read throughput must recover once the replica rejoins.
"""

from repro.common import MS
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.harness.chaos import ChaosInjector, ChaosSchedule
from repro.harness.deployment import DeploymentSpec


def build(seed=31, **replica_kwargs):
    spec = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_replicas(2, **replica_kwargs)
        .with_fault_tolerance(heartbeat_interval=0.02, failure_timeout=0.1)
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


def load(dep, session, count):
    def work(txn):
        for k in range(count):
            yield from dep.engine.insert(txn, "kv", [k, 0, "p"])
        return count

    return run(dep, session.write(work))


def test_replica_crash_mid_stream_no_stale_reads():
    # Round-robin so both replicas serve reads: least-lag's index
    # tiebreak would park every read on replica-0 once lag drains.
    dep = build(policy="round-robin")
    env = dep.env
    keys = 30
    writer = dep.frontend_session("writer")
    load(dep, writer, keys)
    dep.run_for(0.05)

    violations = []
    counters = {"reads": 0, "writes": 0}

    def mixed(session, rng, duration):
        committed = {}
        deadline = env.now + duration
        while env.now < deadline:
            k = rng.randint(0, keys - 1)

            def bump(txn, key=k):
                row = yield from dep.engine.read_row(
                    txn, "kv", (key,), for_update=True
                )
                version = row[1] + 1
                yield from dep.engine.update(
                    txn, "kv", (key,), {"v": version}
                )
                return version

            committed[k] = yield from session.write(bump)
            counters["writes"] += 1
            for _ in range(3):
                read_key = rng.randint(0, keys - 1)
                row = yield from session.read_row("kv", (read_key,))
                counters["reads"] += 1
                expect = committed.get(read_key)
                if row is None:
                    violations.append("missing %d" % read_key)
                elif expect is not None and row[1] < expect:
                    violations.append(
                        "stale %d: %d < %d via %s"
                        % (read_key, row[1], expect, session.last_route)
                    )

    victim = dep.fleet.handles[1]
    recovery = {}

    def watch_victim():
        while victim.routable:
            yield env.timeout(1 * MS)
        recovery["reads_at_drain"] = victim.reads_served
        while not victim.routable:
            yield env.timeout(1 * MS)
        recovery["reads_at_rejoin"] = victim.reads_served

    schedule = (
        ChaosSchedule()
        .add(0.06, "replica_crash", "replica-1")
        .add(0.12, "replica_restart", "replica-1")
    )
    ChaosInjector(dep, schedule).start()
    env.process(watch_victim(), name="watch-victim")
    procs = [
        env.process(
            mixed(dep.frontend_session("mixed-%d" % i),
                  dep.seeds.stream("chaos-mixed-%d" % i), 0.3),
            name="mixed-%d" % i,
        )
        for i in range(2)
    ]
    from repro.sim.core import AllOf

    env.run_until_event(AllOf(env, procs))
    dep.run_for(0.1)  # post-run settle: lag drains, reads keep flowing

    assert violations == []
    assert counters["reads"] > 50
    assert dep.fleet.rejoins == 1
    assert victim.replica.applier.crashes == 1
    assert victim.replica.applier.recoveries == 1
    assert victim.replica.applier.alive
    # Throughput recovered: the victim served reads before the crash
    # and again after the rejoin.
    assert recovery["reads_at_drain"] > 0
    final = victim.reads_served
    assert final > recovery["reads_at_rejoin"] >= recovery["reads_at_drain"]
    # And the whole fleet is routable again.
    assert len(dep.fleet.routable_handles()) == 2


def test_crash_during_lsn_wait_reroutes():
    # The replica can never catch a huge token; a crash mid-wait must
    # surface as wait failure (the proxy then bounces), not a hang.
    dep = build(apply_intervals=(0.5, 0.5), wait_timeout=0.3)
    env = dep.env
    handle = dep.fleet.handles[0]

    def waiter():
        return (
            yield from dep.fleet.wait_for_lsn(
                handle, lsn=10**12, max_wait=0.3
            )
        )

    proc = env.process(waiter(), name="waiter")
    env.run(until=0.01)
    dep.fleet.crash("replica-0")
    env.run_until_event(proc)
    assert proc.value is False
    assert env.now < 0.3  # gave up on the crash, not on the deadline
    assert dep.fleet.lsn_wait_timeouts == 1


def test_a_replica_is_routable_exactly_while_its_applier_is_alive():
    """No sweep stands between a replica's liveness and its routing: a
    crash takes it out of the routable set in the crash's own instant,
    and it is back in the instant its ``recover()`` returns."""
    dep = build()
    env = dep.env
    session = dep.frontend_session("writer")
    load(dep, session, 50)
    dep.run_for(0.05)
    handle, other = dep.fleet.handles
    applier = handle.replica.applier
    dep.fleet.crash("replica-0")
    assert not handle.routable
    assert dep.fleet.routable_handles() == [other]
    assert all(dep.fleet.choose() is other for _ in range(4))

    def recover():
        pages = yield from applier.recover()
        return pages, handle.routable

    proc = env.process(recover(), name="recover")
    seen = []
    while not proc.triggered:  # one kernel step at a time
        seen.append(handle.routable)
        env.step()
    pages, routable = proc.value
    assert len(seen) > 1 and not any(seen)
    assert pages > 0 and routable
    assert dep.fleet.routable_handles() == [handle, other]


def test_failed_restart_stays_drained():
    from repro.common import StorageError

    dep = build()
    session = dep.frontend_session("writer")
    load(dep, session, 10)
    dep.run_for(0.05)
    dep.fleet.crash("replica-0")

    # Recovery scans PageStore through the primary's one read path; make
    # that path fail (a total outage) so the rebuild cannot finish.
    def dead_read(page_id, min_lsn):
        raise StorageError("pagestore unreachable")
        yield  # pragma: no cover - makes this a generator

    dep.engine.read_page = dead_read
    dep.fleet.restart("replica-0")
    dep.run_for(0.2)
    assert dep.fleet.failed_restarts == 1
    assert dep.fleet.rejoins == 0
    assert not dep.fleet.handles[0].routable


def test_duplicate_restart_rebuilds_and_rejoins_once():
    dep = build()
    session = dep.frontend_session("writer")
    load(dep, session, 400)
    dep.run_for(0.05)
    dep.fleet.crash("replica-0")

    dep.fleet.restart("replica-0")
    dep.fleet.restart("replica-0")  # an impatient operator
    dep.run_for(0.1)
    applier = dep.fleet.handles[0].replica.applier
    assert applier.alive and dep.fleet.handles[0].routable
    assert applier.scans["crash"] == 1 and applier.recoveries == 1
    assert dep.fleet.rejoins == 1 and dep.fleet.failed_restarts == 0
    assert dep.fleet.handles[0].replica.catalog.table("kv").row_count == 400
