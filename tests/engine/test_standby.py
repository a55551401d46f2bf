"""Tests for the read-only standby replica (paper future work #2)."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.common import StorageError
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.standby import StandbyReplica


def build(kind="astore_ebp", **kwargs):
    factory = getattr(DeploymentSpec, kind)
    dep = Deployment(factory(seed=19, **kwargs))
    dep.start()
    engine = dep.engine
    table = engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("tag", INT()), Column("v", VARCHAR(40))]),
        ["k"],
    )
    table.add_secondary_index("by_tag", ["tag"])
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def make_standby(dep, **kwargs):
    standby = StandbyReplica(dep.env, dep.engine, **kwargs)
    standby.applier.start()
    return standby


def test_standby_applies_primary_inserts():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        for i in range(40):
            yield from engine.insert(txn, "kv", [i, i % 4, "v%d" % i])
        yield from engine.commit(txn)
        yield env.timeout(0.05)  # replication lag
        return (yield from standby.read_row("kv", (17,)))

    row = run(dep, work(dep.env))
    assert row == [17, 1, "v17"]
    # Applied through the commit marker, off the feed alone (no scan).
    assert standby.applied_lsn == engine.log.persistent_lsn
    assert standby.lag_lsn == 0
    assert standby.applier.rescans == 0
    assert standby.catalog.table("kv").row_count == 40


def test_standby_sees_updates_and_deletes():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "kv", [1, 0, "original"])
        yield from engine.insert(txn, "kv", [2, 0, "doomed"])
        yield from engine.commit(txn)
        txn = engine.begin()
        yield from engine.update(txn, "kv", (1,), {"v": "changed"})
        yield from engine.delete(txn, "kv", (2,))
        yield from engine.commit(txn)
        yield env.timeout(0.05)
        one = yield from standby.read_row("kv", (1,))
        two = yield from standby.read_row("kv", (2,))
        return one, two

    one, two = run(dep, work(dep.env))
    assert one == [1, 0, "changed"]
    assert two is None
    assert standby.catalog.table("kv").row_count == 1


def test_standby_secondary_index_maintained():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        for i in range(20):
            yield from engine.insert(txn, "kv", [i, i % 4, "v%d" % i])
        yield from engine.commit(txn)
        txn = engine.begin()
        yield from engine.update(txn, "kv", (3,), {"tag": 99})
        yield from engine.commit(txn)
        yield env.timeout(0.05)
        table = standby.catalog.table("kv")
        hits_old = [k for k, _ in table.lookup_secondary("by_tag", (3,))]
        hits_new = [k for k, _ in table.lookup_secondary("by_tag", (99,))]
        return hits_old, hits_new

    hits_old, hits_new = run(dep, work(dep.env))
    assert all(k[-1] != 3 for k in hits_old)  # key 3 moved off tag 3
    assert len(hits_new) == 1 and hits_new[0][-1] == 3


def test_standby_ignores_rolled_back_txn():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "kv", [1, 0, "kept"])
        yield from engine.commit(txn)
        ghost = engine.begin()
        yield from engine.insert(ghost, "kv", [2, 0, "ghost"])
        yield from engine.rollback(ghost)
        yield env.timeout(0.05)
        one = yield from standby.read_row("kv", (1,))
        two = yield from standby.read_row("kv", (2,))
        return one, two

    one, two = run(dep, work(dep.env))
    assert one == [1, 0, "kept"]
    # The insert and its CLR both replayed: net zero.
    assert two is None


def test_standby_converges_on_a_rollback_whose_update_already_left():
    """A's update rides out with B's commit; when A then rolls back on an
    otherwise idle primary nobody waits on the CLR or the abort marker,
    yet the standby must not serve the rolled-back value for ever."""
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "kv", [1, 0, "orig1"])
        yield from engine.commit(txn)
        a = engine.begin()
        yield from engine.update(a, "kv", (1,), {"v": "DIRTY"})
        b = engine.begin()
        yield from engine.insert(b, "kv", [2, 0, "b"])
        yield from engine.commit(b)
        assert a.records[0].lsn <= engine.log.persistent_lsn
        before = env.now
        yield from engine.rollback(a)
        assert env.now == before  # demanded, not waited for
        abort_marker_lsn = engine.lsn.current - 24  # the last LSN handed out
        yield env.timeout(0.05)
        return abort_marker_lsn, (yield from standby.read_row("kv", (1,)))

    abort_marker_lsn, row = run(dep, work(dep.env))
    assert row == [1, 0, "orig1"]
    assert standby.applier.watermark == abort_marker_lsn
    assert engine.log.flush_demand["rollback"] == 1
    assert engine.log.queue_depth == 0


def test_standby_lag_is_visible_and_shrinks():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        for i in range(30):
            yield from engine.insert(txn, "kv", [i, 0, "v"])
        yield from engine.commit(txn)
        lag_just_after = standby.lag_lsn
        yield env.timeout(0.1)
        return lag_just_after, standby.lag_lsn

    _lag_before, lag_after = run(dep, work(dep.env))
    assert lag_after == 0  # caught up


def test_standby_works_on_stock_deployment_too():
    dep = build(kind="stock")
    standby = make_standby(dep)
    engine = dep.engine

    def work(env):
        txn = engine.begin()
        yield from engine.insert(txn, "kv", [7, 1, "ssd-path"])
        yield from engine.commit(txn)
        yield env.timeout(0.05)
        return (yield from standby.read_row("kv", (7,)))

    assert run(dep, work(dep.env)) == [7, 1, "ssd-path"]


def load_wide(dep, rows):
    """Create ``wide`` (seven rows a page, indexed by tag) and commit
    ``rows`` rows into it."""
    engine = dep.engine
    table = engine.create_table(
        "wide",
        Schema([Column("k", INT()), Column("tag", INT()),
                Column("pad", VARCHAR(2100))]),
        ["k"],
    )
    table.add_secondary_index("by_tag", ["tag"])

    def load(env):
        txn = engine.begin()
        for i in range(rows):
            yield from engine.insert(txn, "wide", [i, i % 5, "p" * 2048])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, load(dep.env))
    return table


def test_crash_mid_read_never_leaves_the_replica():
    # A crash clears the page images under an in-flight read; the read
    # fails (the proxy reroutes it) instead of fetching an image at the
    # primary's version from the shared EBP or PageStore.
    dep = build()
    standby = make_standby(dep)
    table = load_wide(dep, 40)
    page_id = table.page_id(table.page_nos[-1])
    assert len(table.page_nos) > 1 and page_id in standby.pages
    standby.applier.crash()
    ebp_probes = dep.ebp.hits + dep.ebp.misses
    page_reads = dep.pagestore.page_reads
    with pytest.raises(StorageError):
        run(dep, standby.fetch_page(page_id))
    assert dep.ebp.hits + dep.ebp.misses == ebp_probes
    assert dep.pagestore.page_reads == page_reads


def test_standby_is_a_full_copy_of_the_primary():
    # The feed and the catch-up scan between them hold every page of
    # every table, so a started replica reads only its own images.
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine
    load_wide(dep, 60)

    def churn(env, keys, tag):
        txn = engine.begin()
        for k in keys:
            if k % 3 == 0:
                yield from engine.delete(txn, "wide", (k,))
            elif k % 3 == 1:
                yield from engine.update(txn, "wide", (k,), {"tag": tag})
            else:
                yield from engine.update(txn, "wide", (k,), {"pad": "q" * 1500})
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    def grow(env, keys):
        txn = engine.begin()
        for k in keys:
            yield from engine.insert(txn, "wide", [k, k % 5, "n" * 2048])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, churn(dep.env, range(0, 30), 7))
    standby.applier.crash()
    run(dep, standby.applier.recover())
    run(dep, grow(dep.env, range(60, 80)))
    run(dep, churn(dep.env, range(30, 70), 8))
    assert standby.lag_lsn == 0

    assert set(standby.pages) == {
        t.page_id(n) for t in engine.catalog.tables() for n in t.page_nos
    }

    def compare(env):
        keys = [key for key, _ in engine.catalog.table("wide").pk_index.items()]
        for key in keys:
            primary_row = yield from engine.read_row(None, "wide", key)
            assert (yield from standby.read_row("wide", key)) == primary_row
        return len(keys)

    assert run(dep, compare(dep.env)) == standby.catalog.table("wide").row_count
    tagged = standby.catalog.table("wide").lookup_secondary("by_tag", (7,))
    assert sorted(k[-1] for k, _ in tagged) == list(range(1, 30, 3))


def test_standby_crash_loses_state_and_recover_rebuilds():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def phase1(env):
        txn = engine.begin()
        for i in range(30):
            yield from engine.insert(txn, "kv", [i, i % 4, "v%d" % i])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, phase1(dep.env))
    assert standby.applied_lsn > 0

    standby.applier.crash()
    assert not standby.applier.alive
    assert standby.applier.epoch == 1
    assert standby.applied_lsn == 0
    assert standby.pages == {}
    assert standby.catalog.table("kv").lookup((5,)) is None

    # Writes that land WHILE the standby is down must be visible after
    # recovery (they are part of the PageStore scan, not the feed).
    def while_down(env):
        txn = engine.begin()
        yield from engine.update(txn, "kv", (5,), {"v": "post-crash"})
        yield from engine.insert(txn, "kv", [100, 0, "new"])
        yield from engine.commit(txn)
        yield env.timeout(0.02)

    run(dep, while_down(dep.env))

    pages_scanned = run(dep, standby.applier.recover())
    assert pages_scanned > 0
    assert standby.applier.alive
    assert standby.applier.recoveries == 1
    assert standby.applied_lsn > 0

    def verify(env):
        yield env.timeout(0.05)
        five = yield from standby.read_row("kv", (5,))
        hundred = yield from standby.read_row("kv", (100,))
        return five, hundred

    five, hundred = run(dep, verify(dep.env))
    assert five == [5, 1, "post-crash"]
    assert hundred == [100, 0, "new"]


def test_standby_keeps_applying_after_recovery():
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def phase1(env):
        txn = engine.begin()
        for i in range(20):
            yield from engine.insert(txn, "kv", [i, 0, "v"])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, phase1(dep.env))
    standby.applier.crash()
    run(dep, standby.applier.recover())
    applied_at_recovery = standby.applied_lsn

    # The feed resumes: post-recovery commits replay incrementally (no
    # second PageStore scan) and secondary indexes stay correct.
    def phase2(env):
        txn = engine.begin()
        yield from engine.update(txn, "kv", (3,), {"tag": 42})
        yield from engine.insert(txn, "kv", [55, 42, "late"])
        yield from engine.commit(txn)
        yield env.timeout(0.05)
        three = yield from standby.read_row("kv", (3,))
        hits = standby.catalog.table("kv").lookup_secondary("by_tag", (42,))
        return three, sorted(k[-1] for k, _ in hits)

    three, tagged = run(dep, phase2(dep.env))
    assert three[1] == 42
    assert tagged == [3, 55]
    assert standby.applied_lsn > applied_at_recovery
    assert standby.applier.recoveries == 1
    assert standby.applier.scans["crash"] == 1


def test_table_created_on_primary_while_rebuild_in_flight():
    # The rebuild scan spans many yields; a table the primary creates
    # meanwhile (mirrored by any read's sync_catalog) must not disturb
    # the scan's table list - it reaches the replica through the feed.
    dep = build()
    standby = make_standby(dep)
    engine = dep.engine

    def load(env):
        txn = engine.begin()
        for i in range(200):
            yield from engine.insert(txn, "kv", [i, i % 4, "v" * 40])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, load(dep.env))
    standby.applier.crash()
    rebuild = dep.env.process(standby.applier.recover())
    dep.run_for(20e-6)
    assert not rebuild.triggered  # mid-scan
    engine.create_table(
        "late", Schema([Column("k", INT()), Column("v", INT())]), ["k"]
    )
    standby.sync_catalog()

    def fill(env):
        txn = engine.begin()
        for i in range(5):
            yield from engine.insert(txn, "late", [i, i * i])
        yield from engine.commit(txn)

    run(dep, fill(dep.env))
    dep.env.run_until_event(rebuild)
    dep.run_for(0.05)
    assert standby.applier.alive and standby.lag_lsn == 0
    assert run(dep, standby.read_row("late", (3,))) == [3, 9]
    assert run(dep, standby.read_row("kv", (150,))) == [150, 2, "v" * 40]
    assert standby.catalog.table("kv").row_count == 200
