"""RedoApplier lifecycle, checked through both of its sinks."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.common import MS, US
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.standby import StandbyReplica
from repro.views.definition import ViewDefinition
from repro.views.maintainer import ViewMaintainer


def build():
    dep = Deployment(DeploymentSpec.astore_ebp(seed=23))
    dep.start()
    dep.engine.create_table(
        "kv",
        Schema([Column("k", INT()), Column("v", VARCHAR(2100))]),
        ["k"],
    )
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def insert(dep, start, count):
    """One committed transaction of wide rows (about seven to a page)."""
    engine = dep.engine

    def work():
        txn = engine.begin()
        for k in range(start, start + count):
            yield from engine.insert(txn, "kv", [k, "p" * 2048])
        yield from engine.commit(txn)

    run(dep, work())


class Consumer:
    """An applier plus a way to count the rows its sink holds."""

    def __init__(self, dep, kind):
        if kind == "standby":
            replica = StandbyReplica(dep.env, dep.engine)
            self.applier = replica.applier
            self.rows = lambda: replica.catalog.table("kv").row_count
        else:
            maintainer = ViewMaintainer(
                dep.env, dep.engine,
                [ViewDefinition("cnt", "SELECT COUNT(*) AS n FROM kv")],
            )
            view = maintainer.views["cnt"]
            self.applier = view.applier
            self.rows = lambda: view.groups[()][0] if view.groups else 0
        self.applier.start()


class HookedCpu:
    """The sink's CPU pool, calling ``hook`` once after its next charge."""

    def __init__(self, applier, hook):
        self.applier = applier
        self.real = applier.cpu
        self.hook = hook
        applier.cpu = self

    def consume(self, seconds):
        yield from self.real.consume(seconds)
        self.applier.cpu = self.real
        self.hook()


SINKS = pytest.mark.parametrize("kind", ["standby", "view"])


@SINKS
def test_crash_mid_batch_drops_the_batch(kind):
    dep = build()
    consumer = Consumer(dep, kind)
    applier = consumer.applier
    insert(dep, 0, 10)
    dep.run_for(0.02)
    assert applier.caught_up() and consumer.rows() == 10

    HookedCpu(applier, applier.crash)
    insert(dep, 100, 10)
    dep.run_for(0.02)
    # The crash landed while the batch's CPU was being charged: had the
    # batch still been applied, the wiped sink would now hold its rows.
    assert not applier.alive and applier.epoch == 1
    assert consumer.rows() == 0
    assert applier.watermark == 0 and applier.feed.stale

    run(dep, applier.recover())
    assert applier.alive and applier.recoveries == 1
    assert applier.scans["crash"] == 1
    insert(dep, 200, 10)  # back on the feed
    dep.run_for(0.02)
    assert applier.caught_up() and consumer.rows() == 30


@SINKS
def test_crash_mid_scan_abandons_it(kind):
    dep = build()
    consumer = Consumer(dep, kind)
    applier = consumer.applier
    insert(dep, 0, 30)
    dep.run_for(0.02)
    applier.crash()

    HookedCpu(applier, applier.crash)  # second crash, one page in
    assert run(dep, applier.recover()) is None
    assert not applier.alive and applier.recoveries == 0
    assert applier.crashes == 2 and applier.epoch == 2
    assert consumer.rows() == 0 and applier.watermark == 0

    assert run(dep, applier.recover()) >= 4  # pages scanned
    assert applier.alive and applier.recoveries == 1
    assert applier.scans["crash"] == 2
    assert consumer.rows() == 30
    assert applier.watermark == dep.engine.log.persistent_lsn


@SINKS
def test_one_catch_up_per_crash_however_many_callers_recover(kind):
    """Crash + recover, crash again mid-scan + recover, with a duplicate
    caller on top: exactly one scan per crash runs, and no row committed
    while the applier is back on the feed is lost.  (Two catch-ups at
    once each clear the feed the other relies on: a COUNT(*) view ended
    at 398 of 400 with ``caught_up()`` True.)"""
    dep = build()
    consumer = Consumer(dep, kind)
    applier = consumer.applier
    insert(dep, 0, 200)
    dep.run_for(0.02)
    assert consumer.rows() == 200

    applier.crash()
    first = dep.env.process(applier.recover())
    dep.run_for(50 * US)  # mid-scan
    applier.crash()
    second = dep.env.process(applier.recover())
    duplicate = dep.env.process(applier.recover())
    for i in range(40):
        insert(dep, 1000 + 5 * i, 5)
        dep.run_for(0.3 * MS)
    dep.run_for(0.05)

    assert first.value is None  # abandoned by the second crash
    assert duplicate.value is None  # refused: ``second`` was running
    assert second.value >= 4
    assert applier.scans["crash"] == 2 and applier.recoveries == 1
    assert applier.caught_up()
    assert applier.watermark == dep.engine.log.persistent_lsn
    assert consumer.rows() == 400


@SINKS
def test_overflow_during_a_scan_goes_round_again(kind):
    dep = build()
    insert(dep, 0, 30)
    dep.run_for(0.02)
    consumer = Consumer(dep, kind)  # starts behind: owes an initial scan
    applier = consumer.applier
    applier.feed.bound = 1
    # A transaction commits while the first scan is a page in: its batch
    # overflows the one-record queue the scan had just marked live.
    HookedCpu(applier, lambda: dep.env.process(writer()))

    def writer():
        engine = dep.engine
        txn = engine.begin()
        yield from engine.insert(txn, "kv", [1000, "late"])
        yield from engine.commit(txn)
        applier.feed.bound = 65536

    dep.run_for(0.05)
    assert applier.feed.overflows == 1
    assert applier.scans["initial"] == 1 and applier.scans["overflow"] == 1
    assert applier.caught_up() and consumer.rows() == 31


@SINKS
def test_wait_for_lsn_true_when_covered_false_on_timeout_and_death(kind):
    dep = build()
    consumer = Consumer(dep, kind)
    applier = consumer.applier
    insert(dep, 0, 5)
    tail = dep.engine.log.persistent_lsn

    start = dep.env.now
    assert run(dep, applier.wait_for_lsn(tail, 0.05)) is True
    assert start < dep.env.now < start + 0.05  # waited, met no deadline
    assert run(dep, applier.wait_for_lsn(tail, 0.05)) is True  # no wait
    assert applier.lsn_waits == 1 and applier.lsn_wait_timeouts == 0

    start = dep.env.now
    assert run(dep, applier.wait_for_lsn(10 ** 12, 3 * MS)) is False
    assert dep.env.now == pytest.approx(start + 3 * MS, abs=100 * US)
    assert applier.lsn_wait_timeouts == 1

    waiter = dep.env.process(applier.wait_for_lsn(10 ** 12, 1.0))
    dep.run_for(2 * MS)
    start = dep.env.now
    applier.crash()
    dep.env.run_until_event(waiter)
    assert waiter.value is False
    assert dep.env.now <= start + applier.wait_poll  # death, not deadline
    assert applier.lsn_wait_timeouts == 2
    # A dead consumer is refused outright.
    assert run(dep, applier.wait_for_lsn(0, 1.0)) is False
    assert applier.lsn_waits == 3
