"""Log-space lifecycle: SegmentRing recycling gated on PageStore shipping."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.common import KB, StorageError
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
    # Sabotage the shipper: records never reach PageStore, so shipped_lsn
    # stays 0 and every FULL segment is non-recyclable.
    engine.config = engine.config.__class__(
        **{**engine.config.__dict__, "ship_interval": 10_000.0}
    )

    def work(env):
        for i in range(300):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [i, "z" * 60])
            yield from engine.commit(txn)
        return "completed"

    # The refusal surfaces in the log-writer daemon (the flush path), which
    # halts the simulation rather than silently overwriting durable REDO.
    proc = dep.env.process(work(dep.env))
    with pytest.raises(StorageError, match="un-applied|log space"):
        dep.env.run_until_event(proc)


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
