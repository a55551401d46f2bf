"""Log-space lifecycle: SegmentRing recycling gated on PageStore shipping."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.common import (
    KB,
    US,
    RingExhaustedError,
    SegmentFrozenError,
    StorageError,
    TransactionAborted,
)
from repro.engine.codec import INT, VARCHAR, Column, Schema


def tiny_ring_deployment(segments=3, segment_kb=24):
    """A deliberately tiny log ring that wraps within a few transactions."""
    dep = Deployment(
        DeploymentSpec.astore_log(
            seed=8,
            log_ring_segments=segments,
            log_segment_bytes=segment_kb * KB,
        )
    )
    dep.start()
    dep.engine.create_table(
        "t", Schema([Column("id", INT()), Column("v", VARCHAR(64))]), ["id"]
    )
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def test_ring_wraps_and_recycles_under_sustained_writes():
    dep = tiny_ring_deployment()
    engine = dep.engine

    def work(env):
        for i in range(400):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [i, "x" * 60])
            yield from engine.commit(txn)
        return engine.committed

    committed = run(dep, work(dep.env))
    assert committed == 400
    # The tiny ring must have wrapped (recycled) several times.
    assert dep.ring.segment_advances >= 3


def test_wrapped_log_still_recovers_committed_data():
    dep = tiny_ring_deployment()
    engine = dep.engine

    def work(env):
        for i in range(300):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [i, "y" * 60])
            yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    engine.crash()

    def recover(env):
        yield from engine.recover()
        first = yield from engine.read_row(None, "t", (0,))
        last = yield from engine.read_row(None, "t", (299,))
        return first, last

    first, last = run(dep, recover(dep.env))
    # Early records were recycled out of the ring, but their effects are
    # durable in PageStore (recycling is gated on shipped_lsn).
    assert first == [0, "y" * 60]
    assert last == [299, "y" * 60]
    assert engine.catalog.table("t").row_count == 300


def test_recycling_blocked_until_shipping_catches_up():
    """With shipping stalled, the ring must refuse to overwrite un-applied
    REDO rather than lose durability."""
    dep = tiny_ring_deployment(segments=2, segment_kb=16)
    engine = dep.engine
    # Sabotage shipping: with two of three PageStore servers down no
    # segment reaches its write quorum, records never reach PageStore,
    # shipped_lsn stays 0 and every FULL segment is non-recyclable.
    for server in dep.pagestore.servers[:2]:
        server.alive = False

    def work(env):
        for i in range(300):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [i, "z" * 60])
            yield from engine.commit(txn)
        return "completed"

    # The refusal surfaces in the log-writer daemon (the flush path), which
    # halts the simulation rather than silently overwriting durable REDO.
    proc = dep.env.process(work(dep.env))
    with pytest.raises(RingExhaustedError, match="un-applied.*quorum"):
        dep.env.run_until_event(proc)
    assert engine.shipped_lsn == 0
    assert dep.ring.segment_advances == 1  # the wrap never happened


def test_segment_frozen_on_its_first_write_recycles_the_full_one():
    """On a two-segment ring the segment just advanced to freezes on its
    first write, so the append walks on to the FULL one and reclaims it.
    The frozen slot's header names the batch being flushed right now -
    not durable yet - so the ring demands no more than is durable: the log
    writer waiting for its own batch would stall every commit."""
    dep = tiny_ring_deployment(segments=2, segment_kb=16)
    engine, ring = dep.engine, dep.ring
    write, frozen = ring.client.write, []

    def freeze_first_write_after_advance(segment_id, length, payload,
                                         offset=None):
        if ring.segment_advances == 1 and not frozen:
            frozen.append((ring.headers[ring.current_index].start_lsn,
                           engine.log.persistent_lsn))
            raise SegmentFrozenError("replica lost")
        return (yield from write(segment_id, length, payload, offset))

    ring.client.write = freeze_first_write_after_advance

    def work(env):
        for i in range(300):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [i, "f" * 60])
            yield from engine.commit(txn)

    proc = dep.env.process(work(dep.env))
    dep.run_for(1.0)
    start_lsn, durable = frozen[0]
    assert start_lsn > durable  # the frozen slot names a batch in flight
    assert proc.processed and proc.ok, "the log writer stalled on itself"
    assert ring.segment_advances >= 3
    assert run(dep, engine.read_row(None, "t", (0,))) == [0, "f" * 60]
    assert engine.catalog.table("t").row_count == 300


def wrap_ring_with_400_rows():
    dep = tiny_ring_deployment()
    engine = dep.engine

    def work(env):
        for i in range(400):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [i, "x" * 60])
            yield from engine.commit(txn)
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    assert dep.ring.segment_advances >= 3
    return dep


def test_standby_started_after_the_ring_wrapped_has_every_row():
    """The log ring is a bounded window; PageStore is the only complete
    history.  A replica that starts behind must catch up from PageStore:
    reading the ring's live segments instead lost 121 of these rows."""
    from repro.engine.standby import StandbyReplica

    dep = wrap_ring_with_400_rows()
    engine = dep.engine
    standby = StandbyReplica(dep.env, engine)
    standby.applier.start()
    dep.run_for(0.1)
    assert standby.lag_lsn == 0
    for key in range(400):
        expect = run(dep, engine.read_row(None, "t", (key,)))
        assert expect == [key, "x" * 60]
        assert run(dep, standby.read_row("t", (key,))) == expect
    assert standby.catalog.table("t").row_count == 400
    assert standby.applier.scans["initial"] == 1


def test_view_started_after_the_ring_wrapped_counts_every_row():
    """The control: a view's build always was a PageStore scan."""
    from repro.views.definition import ViewDefinition
    from repro.views.maintainer import ViewMaintainer

    dep = wrap_ring_with_400_rows()
    definition = ViewDefinition("cnt", "SELECT COUNT(*) AS n FROM t")
    maintainer = ViewMaintainer(dep.env, dep.engine, [definition])
    maintainer.start()
    dep.run_for(0.1)
    assert maintainer.caught_up()
    view, item_map = maintainer.match(definition.select)
    result = run(dep, maintainer.serve(view, definition.select, item_map))
    assert result.rows == [(400,)]


def test_crash_with_a_ring_demanded_ship_on_the_wire():
    """The ship demand is a persist point.  Crash the engine while the
    ship the ring demanded (to free a FULL segment) is on the wire: the
    ship lands or not on its own, recovery re-ships what the crash left
    unshipped, and the ring-wrap audit above still finds every row - on
    the primary and on a standby rebuilt from PageStore afterwards."""
    from repro.engine.standby import StandbyReplica

    dep = tiny_ring_deployment()
    engine = dep.engine
    ship = dep.pagestore.ship_records
    on_the_wire = []

    def crash_soon(env):
        yield env.timeout(5 * US)
        assert dep.pagestore.ships == 0  # the ship has not landed yet
        engine.crash()

    def crash_mid_ship(records):
        if not on_the_wire and any(
                cause == "ring" for _lsn, cause, _done in engine._ship_waiters):
            on_the_wire.append(records[-1].lsn)
            dep.env.process(crash_soon(dep.env))
        return (yield from ship(records))

    dep.pagestore.ship_records = crash_mid_ship

    def work(env):
        key = 0
        while key < 400:
            if engine.crashed:
                yield from engine.recover()
            try:
                txn = engine.begin()
                yield from engine.insert(txn, "t", [key, "x" * 60])
                yield from engine.commit(txn)
            except (StorageError, TransactionAborted):
                continue  # the crash took this row: retry it after recovery
            key += 1
        yield env.timeout(0.05)

    run(dep, work(dep.env))
    assert on_the_wire and engine.epoch == 1
    assert dep.ring.segment_advances >= 3
    standby = StandbyReplica(dep.env, engine)
    standby.applier.start()
    dep.run_for(0.1)
    assert standby.lag_lsn == 0
    for key in range(400):
        expect = run(dep, engine.read_row(None, "t", (key,)))
        assert expect == [key, "x" * 60]
        assert run(dep, standby.read_row("t", (key,))) == expect
    assert standby.catalog.table("t").row_count == 400
