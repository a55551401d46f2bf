"""Tests for the incremental REDO feed (push) vs full-rescan polling."""

from repro import Deployment, DeploymentSpec
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import DBEngine
from repro.engine.standby import StandbyReplica


def build():
    dep = Deployment(DeploymentSpec.astore_ebp(seed=19))
    dep.start()
    engine = dep.engine
    engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", VARCHAR(40))]),
        ["k"],
    )
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def capture_batches(standby, lsns):
    """Record every LSN the standby applies, in application order."""
    original = standby._next_batch

    def wrapped():
        batch = original()
        lsns.extend(record.lsn for record in batch)
        return batch

    standby._next_batch = wrapped


def test_feed_applies_identical_lsn_sequence_as_rescan():
    dep = build()
    engine = dep.engine
    fed = StandbyReplica(dep.env, engine, use_feed=True)
    polled = StandbyReplica(dep.env, engine, use_feed=False)
    fed.start()
    polled.start()
    fed_lsns, polled_lsns = [], []
    capture_batches(fed, fed_lsns)
    capture_batches(polled, polled_lsns)

    def work(env):
        for wave in range(6):
            txn = engine.begin()
            for i in range(10):
                yield from engine.insert(
                    txn, "kv", [wave * 10 + i, "w%d" % wave])
            yield from engine.commit(txn)
            yield env.timeout(0.01)
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    assert fed._feed is not None and polled._feed is None
    assert fed_lsns and fed_lsns == polled_lsns
    assert fed.applied_lsn == polled.applied_lsn
    assert fed.records_applied == polled.records_applied
    assert fed._feed.published > 0
    # One initial sync rescan (the feed subscribes stale), then pure push.
    assert fed.feed_rescans == 1
    for key in (0, 35, 59):
        a = run(dep, fed.read_row("kv", (key,)))
        b = run(dep, polled.read_row("kv", (key,)))
        assert a == b and a is not None


def test_feed_crash_recover_rejoins_via_rescan():
    dep = build()
    engine = dep.engine
    standby = StandbyReplica(dep.env, engine, use_feed=True)
    standby.start()

    def phase(env, base):
        txn = engine.begin()
        for i in range(20):
            yield from engine.insert(txn, "kv", [base + i, "v"])
        yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, phase(dep.env, 0))
    rescans_before = standby.feed_rescans
    standby.crash()
    assert standby._feed.stale  # crash poisons the cursor
    assert len(standby._feed.store) == 0

    run(dep, phase(dep.env, 100))  # lands while the standby is down
    run(dep, standby.recover())
    run(dep, phase(dep.env, 200))  # applied via the feed after rejoin

    assert standby.feed_rescans > rescans_before
    for key in (5, 105, 205):
        row = run(dep, standby.read_row("kv", (key,)))
        assert row == [key, "v"]
    polled = StandbyReplica(dep.env, engine, use_feed=False)
    polled.start()

    def settle(env):
        yield env.timeout(0.05)

    run(dep, settle(dep.env))
    assert polled.applied_lsn == standby.applied_lsn


def test_feed_overflow_falls_back_to_rescan():
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
    assert len(feed.store) == 0  # cleared, subscriber must rescan


def test_serve_report_identical_with_feed_disabled(monkeypatch):
    """Push feed vs rescan polling: byte-identical serving reports under
    replica_crash/replica_restart chaos (incl. rejoin after rebuild)."""
    from repro.frontend.serve import run_serving

    with_feed = run_serving(seed=7, duration=0.25)
    monkeypatch.setattr(DBEngine, "subscribe_redo", None)
    without_feed = run_serving(seed=7, duration=0.25)
    assert with_feed == without_feed
    assert any("crashed replica" in entry
               for entry in with_feed["chaos_log"])
    assert any("restarted replica" in entry
               for entry in with_feed["chaos_log"])
