"""Tests for the incremental REDO feed and the replica applied from it."""

from repro import Deployment, DeploymentSpec
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.standby import StandbyReplica


def build():
    dep = Deployment(DeploymentSpec.astore_ebp(seed=19))
    dep.start()
    engine = dep.engine
    table = engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", VARCHAR(40))]),
        ["k"],
    )
    table.add_secondary_index("by_v", ["v"])
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def assert_mirrors_primary(dep, standby):
    """The replica equals the primary row-for-row and index-for-index."""
    engine = dep.engine
    assert standby.applier.alive
    assert standby.applied_lsn == engine.log.persistent_lsn
    for table in engine.catalog.tables():
        mirror = standby.catalog.table(table.name)
        assert mirror.row_count == table.row_count
        assert sorted(mirror.page_nos) == sorted(table.page_nos)
        assert list(mirror.pk_index.items()) == list(table.pk_index.items())
        for name, index in table.secondary.items():
            assert (list(mirror.secondary[name].tree.items())
                    == list(index.tree.items()))
        for key, _locator in table.pk_index.items():
            expect = run(dep, engine.read_row(None, table.name, key))
            assert run(dep, standby.read_row(table.name, key)) == expect


def waves(dep, base, count=6, pause=0.01):
    """Insert/update/delete waves, then time for the replica to drain."""
    engine = dep.engine

    def work(env):
        for wave in range(count):
            txn = engine.begin()
            for i in range(10):
                yield from engine.insert(
                    txn, "kv", [base + wave * 10 + i, "w%d" % wave])
            yield from engine.commit(txn)
            txn = engine.begin()
            yield from engine.update(
                txn, "kv", (base + wave * 10,), {"v": "changed"})
            yield from engine.delete(txn, "kv", (base + wave * 10 + 1,))
            yield from engine.commit(txn)
            ghost = engine.begin()
            yield from engine.insert(ghost, "kv", [base + 5000 + wave, "x"])
            yield from engine.rollback(ghost)
            yield env.timeout(pause)
        yield env.timeout(0.05)

    run(dep, work(dep.env))


def test_feed_applied_replica_mirrors_primary_after_waves():
    dep = build()
    standby = StandbyReplica(dep.env, dep.engine)
    standby.applier.start()
    waves(dep, 0)
    feed = standby.applier.feed
    assert feed.published > 0 and feed.overflows == 0
    # Subscribed at zero lag: live at once, pure push, never a scan.
    assert standby.applier.rescans == 0
    assert standby.records_applied == feed.published
    assert_mirrors_primary(dep, standby)


def test_forced_overflow_catches_up_from_pagestore():
    dep = build()
    standby = StandbyReplica(dep.env, dep.engine)
    standby.applier.start()
    waves(dep, 0, count=2)
    applier = standby.applier
    applier.feed.bound = 4  # every wave's batch now overflows the queue
    waves(dep, 1000, pause=0.002)
    assert applier.feed.overflows >= 1
    assert applier.scans["overflow"] >= 1
    assert applier.scans["initial"] == applier.scans["crash"] == 0
    applier.feed.bound = 65536
    waves(dep, 2000, count=2)  # back on the feed after the scan
    assert_mirrors_primary(dep, standby)


def test_feed_crash_recover_rejoins_via_scan():
    dep = build()
    engine = dep.engine
    standby = StandbyReplica(dep.env, engine)
    standby.applier.start()
    waves(dep, 0, count=2)
    standby.applier.crash()
    feed = standby.applier.feed
    assert feed.stale  # crash poisons the cursor
    assert len(feed.store) == 0

    waves(dep, 1000, count=2)  # lands while the standby is down
    assert feed.stale and len(feed.store) == 0  # publisher skips a corpse
    run(dep, standby.applier.recover())
    assert standby.applier.scans["crash"] == 1
    published = feed.published
    waves(dep, 2000, count=2)  # applied via the feed after rejoin
    assert feed.published > published
    assert standby.applier.rescans == 1
    assert_mirrors_primary(dep, standby)

    # A replica first started now has a gap to cover: one initial scan.
    late = StandbyReplica(dep.env, engine)
    late.applier.start()
    assert not late.applier.caught_up()
    waves(dep, 3000, count=1)
    assert late.applier.scans["initial"] == 1
    assert late.applied_lsn == standby.applied_lsn
    assert_mirrors_primary(dep, late)


def test_feed_overflow_marks_feed_stale():
    dep = build()
    engine = dep.engine
    feed = engine.subscribe_redo(bound=4)
    feed.stale = False  # pretend a subscriber already synced

    def work(env):
        txn = engine.begin()
        for i in range(10):
            yield from engine.insert(txn, "kv", [i, "v"])
        yield from engine.commit(txn)

    run(dep, work(dep.env))
    assert feed.stale  # 10 records overflow the bound of 4
    assert feed.overflows == 1
    assert len(feed.store) == 0  # cleared, subscriber must catch up


def test_serve_replica_kill_rebuilds_and_rejoins_with_no_stale_reads():
    """Serving under replica_crash/replica_restart chaos: the killed
    replica catches up from PageStore, rejoins, and ends level with the
    primary's durable tail like the one that never died."""
    from repro.frontend.serve import run_serving

    report = run_serving(seed=7, duration=0.25)
    assert report["ok"]
    assert any("crashed replica" in entry for entry in report["chaos_log"])
    assert any("restarted replica" in entry for entry in report["chaos_log"])
    fleet = report["fleet"]
    assert fleet["rejoins"] == 1 and fleet["failed_restarts"] == 0
    assert report["consistency"]["stale_reads"] == 0
    assert report["consistency"]["missing_rows"] == 0
    replicas = fleet["replicas"]
    assert sum(state["recoveries"] for state in replicas.values()) == 1
    assert len({state["applied_lsn"] for state in replicas.values()}) == 1
    assert all(state["lag_lsn"] == 0 for state in replicas.values())
