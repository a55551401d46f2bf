"""Tests for the SQL proxy: routing, session consistency, observability."""

import pytest

from repro.common import MS
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.harness.deployment import DeploymentSpec
from repro.harness.stats import collect_stats


def build(replicas=2, seed=23, **replica_kwargs):
    spec = (
        DeploymentSpec.astore_ebp(seed=seed, astore_servers=3)
        .with_replicas(replicas, **replica_kwargs)
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


def insert_rows(dep, session, count, start=0):
    def work(txn):
        for k in range(start, start + count):
            yield from dep.engine.insert(txn, "kv", [k, k * 10, "p"])
        return count

    return run(dep, session.write(work))


def test_read_routes_to_replica_after_catchup():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 20)
    dep.run_for(0.05)  # let the fleet apply the REDO
    row = run(dep, session.read_row("kv", (7,)))
    assert row[:2] == [7, 70]
    assert session.last_route.startswith("replica-")
    assert dep.frontend.reads_replica == 1
    assert dep.frontend.reads_primary == 0


def test_read_your_writes_never_stale():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 10)
    dep.run_for(0.05)

    def update_then_read():
        def bump(txn):
            yield from dep.engine.update(txn, "kv", (3,), {"v": 999})
            return True

        yield from session.write(bump)
        # Immediately read back: the replica lags, so the proxy must
        # either wait for our commit LSN or bounce to the primary -
        # never serve the old version.
        return (yield from session.read_row("kv", (3,)))

    row = run(dep, update_then_read())
    assert row[1] == 999
    assert session.last_commit_lsn > 0


def test_lag_timeout_bounces_to_primary():
    # Replica applies every 200 ms but reads only wait 1 ms: a fresh
    # write must bounce its read to the primary.
    dep = build(apply_intervals=(0.2, 0.2), wait_timeout=1 * MS)
    session = dep.frontend_session("client")
    insert_rows(dep, session, 5)
    row = run(dep, session.read_row("kv", (2,)))
    assert row[1] == 20
    assert session.last_route == "primary"
    assert dep.frontend.bounces["lag_timeout"] >= 1
    assert dep.frontend.reads_primary >= 1


def test_select_routes_to_replica_and_matches_primary():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 30)
    dep.run_for(0.05)
    sql = "SELECT COUNT(*) AS n, SUM(v) AS total FROM kv WHERE k BETWEEN 0 AND 9"
    routed = run(dep, session.execute(sql))
    assert session.last_route.startswith("replica-")
    direct = run(dep, dep.frontend.primary_session.execute(sql))
    assert routed.rows == direct.rows
    assert routed.rows[0][0] == 10


def test_dml_routes_to_primary_and_advances_token():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 5)
    token_before = session.last_commit_lsn
    run(dep, session.execute("UPDATE kv SET v = 1 WHERE k = 2"))
    assert session.last_commit_lsn > token_before
    assert dep.frontend.writes == 2
    dep.run_for(0.05)
    row = run(dep, session.read_row("kv", (2,)))
    assert row[1] == 1


def test_no_replica_bounces_to_primary():
    dep = build()
    for handle in dep.fleet.handles:
        handle.replica.applier.crash()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 3)
    row = run(dep, session.read_row("kv", (1,)))
    assert row[1] == 10
    assert session.last_route == "primary"
    assert dep.frontend.bounces["no_replica"] == 1


def test_replica_gauges_in_stats_snapshot():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 10)
    dep.run_for(0.05)
    run(dep, session.read_row("kv", (4,)))
    snap = collect_stats(dep)
    replicas = snap["frontend"]["replicas"]
    assert set(replicas) == {"replica-0", "replica-1"}
    tail = dep.engine.log.persistent_lsn
    pages = sum(len(t.page_nos) for t in dep.engine.catalog.tables())
    for state in replicas.values():
        assert state["alive"] is True
        assert state["applied_lsn"] == tail > 0
        assert state["lag_lsn"] == 0
        assert "records_applied" in state
        assert state["pages"] == pages > 0
        # Started at zero lag: live on the feed, never scanned.
        assert state["rescans"] == 0
        assert set(state["rescan_causes"]) == {
            "initial", "overflow", "crash", "decode_miss"
        }
    assert sum(s["reads_served"] for s in replicas.values()) == 1
    fleet = snap["frontend"]["fleet"]
    assert fleet["size"] == 2
    assert fleet["routable"] == 2


def test_session_names_and_frontend_session_guard():
    dep = build()
    named = dep.frontend_session("alpha")
    auto = dep.frontend_session()
    assert named.name == "alpha"
    assert auto.name.startswith("session-")
    stock = DeploymentSpec.stock(seed=5).build()
    with pytest.raises(ValueError):
        stock.frontend_session()


def test_spec_validation_for_serving_fields():
    with pytest.raises(ValueError):
        DeploymentSpec(replicas=-1)
    with pytest.raises(ValueError):
        DeploymentSpec(replicas=2, replica_policy="random")
    with pytest.raises(ValueError):
        DeploymentSpec(replicas=2, replica_apply_intervals=(1 * MS,))
    with pytest.raises(ValueError):
        DeploymentSpec(replicas=2, admission_queue_limit=-1)
    with pytest.raises(ValueError):
        DeploymentSpec(replicas=2, replica_wait_timeout=0)
    # Valid spec: builder round-trip keeps the fields.
    spec = DeploymentSpec.astore_ebp(seed=1).with_replicas(
        3, policy="p2c",
        apply_intervals=(1 * MS, 2 * MS, 3 * MS),
    ).with_admission(read_limit=8, queue_limit=4)
    assert spec.replicas == 3
    assert spec.replica_policy == "p2c"
    assert spec.admission_read_limit == 8
    assert spec.admission_queue_limit == 4


def test_write_rolls_back_when_commit_fails():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 5)
    engine = dep.engine
    rollbacks = []
    real_commit = engine.commit
    real_rollback = engine.rollback

    def failing_commit(txn):
        raise RuntimeError("simulated commit failure")
        yield  # pragma: no cover

    def recording_rollback(txn):
        rollbacks.append(txn)
        return (yield from real_rollback(txn))

    engine.commit = failing_commit
    engine.rollback = recording_rollback

    def bump(txn):
        yield from engine.update(txn, "kv", (2,), {"v": 111})
        return True

    def attempt():
        try:
            yield from session.write(bump)
            return "committed"
        except RuntimeError as exc:
            return str(exc)

    outcome = run(dep, attempt())
    assert outcome == "simulated commit failure"
    assert len(rollbacks) == 1  # commit failure must roll the txn back

    engine.commit = real_commit
    engine.rollback = real_rollback
    # The failed transaction's locks were released: the same key is
    # immediately writable again.
    def bump2(txn):
        yield from engine.update(txn, "kv", (2,), {"v": 222})
        return True

    assert run(dep, session.write(bump2)) is True
    row = run(dep, session.read_row("kv", (2,)))
    assert row[1] == 222


def test_default_session_names_avoid_explicit_collisions():
    dep = build()
    proxy = dep.frontend
    taken = proxy.session("session-1")
    a = proxy.session()
    b = proxy.session()
    names = [taken.name, a.name, b.name]
    assert len(set(names)) == 3
    assert all(s.name in names for s in (taken, a, b))


def test_proxy_prepared_statement_routes_like_plain_sql():
    dep = build()
    session = dep.frontend_session("client")
    insert_rows(dep, session, 12)
    dep.run_for(0.05)

    select = session.prepare("SELECT k, v FROM kv WHERE k = ?")
    assert select.param_count == 1
    result = run(dep, select.execute(4))
    assert [list(r) for r in result.rows] == [[4, 40]]
    assert session.last_route.startswith("replica-")

    update = session.prepare("UPDATE kv SET v = ? WHERE k = ?")
    before = session.last_commit_lsn
    run(dep, update.execute(777, 4))
    assert session.last_commit_lsn > before  # DML went to the primary
    row = run(dep, session.read_row("kv", (4,)))
    assert row[1] == 777
