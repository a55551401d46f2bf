"""Tests for PageStore: quorum shipping, replay, back-links, gossip."""

import pytest

from repro.common import MS, US, PageId, StorageError
from repro.cost import APPLY_COST_PER_RECORD
from repro.engine.page import PageOp
from repro.engine.wal import RedoRecord
from repro.sim.core import Environment
from repro.sim.rand import SeedSequence
from repro.storage.pagestore import PageStoreService


def make_service(**kwargs):
    env = Environment()
    seeds = SeedSequence(31)
    defaults = dict(num_servers=3, num_segments=4, replication=3, quorum=2)
    defaults.update(kwargs)
    service = PageStoreService(env, seeds, **defaults)
    return env, service


def run_until(env, gen):
    proc = env.process(gen)
    env.run_until_event(proc)
    return proc.value


def record(lsn, page, kind="insert", slot=0, row=b"row", txn=1):
    op = PageOp(kind, slot=slot, row=row if kind in ("insert", "update") else None)
    return RedoRecord(lsn=lsn, txn_id=txn, page_id=page, op=op)


def test_ship_then_read_roundtrip():
    env, service = make_service()
    page_id = PageId(1, 5)

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"hello")])
        page = yield from service.read_page(page_id, min_lsn=10)
        return page

    page = run_until(env, do(env))
    assert page.get(0) == b"hello"
    assert page.page_lsn == 10


def test_read_returns_clone_not_shared_state():
    env, service = make_service()
    page_id = PageId(1, 5)

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"v1")])
        first = yield from service.read_page(page_id, min_lsn=10)
        yield from service.ship_records(
            [record(20, page_id, kind="update", slot=0, row=b"v2")]
        )
        second = yield from service.read_page(page_id, min_lsn=20)
        return first, second

    first, second = run_until(env, do(env))
    assert first.get(0) == b"v1"
    assert second.get(0) == b"v2"


def test_replicas_converge():
    env, service = make_service()
    page_id = PageId(1, 5)

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"x")])
        yield env.timeout(10 * MS)  # let slow replicas finish
        return service.segment_of(page_id)

    segment = run_until(env, do(env))
    pages = [
        server.replica(segment).pages.get(page_id)
        for server in service.replicas_of(segment)
    ]
    assert all(page is not None and page.get(0) == b"x" for page in pages)


def test_quorum_tolerates_one_dead_replica():
    env, service = make_service()
    page_id = PageId(1, 5)
    segment = service.segment_of(page_id)
    service.replicas_of(segment)[0].alive = False

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"ok")])
        page = yield from service.read_page(page_id, min_lsn=10)
        return page

    page = run_until(env, do(env))
    assert page.get(0) == b"ok"


def test_quorum_fails_with_two_dead_replicas():
    env, service = make_service()
    page_id = PageId(1, 5)
    segment = service.segment_of(page_id)
    service.replicas_of(segment)[0].alive = False
    service.replicas_of(segment)[1].alive = False

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"?")])

    with pytest.raises(StorageError, match="quorum"):
        run_until(env, do(env))


def test_back_links_are_stamped_per_segment_chain():
    env, service = make_service(num_segments=1)
    p1, p2 = PageId(1, 1), PageId(1, 2)
    r1, r2, r3 = (
        record(10, p1, row=b"a"),
        record(20, p2, row=b"b"),
        record(30, p1, kind="update", slot=0, row=b"c"),
    )

    def do(env):
        yield from service.ship_records([r1, r2, r3])

    run_until(env, do(env))
    assert r1.back_link == -1
    assert r2.back_link == 10
    assert r3.back_link == 20


def test_gap_detection_and_gossip_fill():
    """A replica that missed a record detects the gap via back-links and
    fills it from a peer before serving reads."""
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 1)
    segment = service.segment_of(page_id)
    replicas = service.replicas_of(segment)

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"first")])
        yield env.timeout(5 * MS)
        # Partition replica 0, ship another record, then heal.
        replicas[0].alive = False
        yield from service.ship_records(
            [record(20, page_id, kind="update", slot=0, row=b"second")]
        )
        yield env.timeout(5 * MS)
        replicas[0].alive = True
        # Ship a third record: replica 0 receives it but sees a gap.
        yield from service.ship_records(
            [record(30, page_id, kind="update", slot=0, row=b"third")]
        )
        yield env.timeout(5 * MS)
        # Read from replica 0 (the preferred primary): gossip must fill.
        page = yield from service.read_page(page_id, min_lsn=30)
        return page

    page = run_until(env, do(env))
    assert page.get(0) == b"third"
    assert service.gossip_rounds >= 1
    replica0 = replicas[0].replica(segment)
    assert not replica0.parked  # gap healed


def test_duplicate_delivery_is_idempotent():
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 1)
    segment = service.segment_of(page_id)
    server = service.replicas_of(segment)[0]
    rec = record(10, page_id, row=b"once")

    def do(env):
        yield from server.receive_records(segment, [rec])
        yield from server.receive_records(segment, [rec])  # gossip replay

    run_until(env, do(env))
    page = server.replica(segment).pages[page_id]
    assert page.row_count == 1
    # The replay is received, not chained: one apply is charged.
    assert server.cpu.busy_time == pytest.approx(
        2 * (5 * US + 0.2 * US) + APPLY_COST_PER_RECORD, rel=1e-12)


def test_read_page_latency_around_one_millisecond():
    """Paper Section V-C: reading from remote PageStore costs ~1 ms."""
    env, service = make_service()
    page_id = PageId(1, 5)

    def do(env):
        yield from service.ship_records([record(10, page_id, row=b"timed")])
        start = env.now
        yield from service.read_page(page_id, min_lsn=10)
        return env.now - start

    latency = run_until(env, do(env))
    assert 0.3 * MS < latency < 3 * MS


def test_unknown_page_raises():
    env, service = make_service()

    def do(env):
        yield from service.read_page(PageId(9, 9), min_lsn=0)

    with pytest.raises(StorageError):
        run_until(env, do(env))


def test_a_ship_is_applied_and_charged_by_its_ack():
    """A replica applies a shipped batch in the host step that chains it
    and charges the apply once before it acks: by the quorum a quorum of
    images are at the batch's LSN, every replica's once the stragglers
    land, and nothing is left scheduled - no replay timer."""
    env, service = make_service()
    page_id = PageId(1, 5)
    segment = service.segment_of(page_id)
    batch = [record(10, page_id, row=b"a"),
             record(20, page_id, kind="update", slot=0, row=b"b"),
             record(30, page_id, kind="update", slot=0, row=b"c")]

    def at_lsn():
        return sum(
            1 for server in service.replicas_of(segment)
            if segment in server.replicas
            and page_id in server.replicas[segment].pages
            and server.replicas[segment].pages[page_id].page_lsn == 30
        )

    def do(env):
        yield from service.ship_records(batch)
        return at_lsn()

    assert run_until(env, do(env)) >= service.quorum
    env.run()
    assert env.peek() == float("inf")
    assert at_lsn() == 3
    for server in service.replicas_of(segment):
        assert server.replica(segment).pages[page_id].get(0) == b"c"
        assert server.cpu.busy_time == pytest.approx(
            5 * US + 0.2 * US * 3 + 3 * APPLY_COST_PER_RECORD, rel=1e-12)


def test_overlapping_reads_of_one_segment_charge_no_apply():
    """Two reads of one segment in flight at once pay their own
    materialisation and nothing else: the apply was paid with the ship."""
    env, service = make_service()
    page_id = PageId(1, 5)
    segment = service.segment_of(page_id)
    server = service.replicas_of(segment)[0]

    def do(env):
        yield from service.ship_records(
            [record(10 + 10 * slot, page_id, slot=slot) for slot in range(5)])
        yield env.timeout(5 * MS)
        charged = []
        cpu = server.cpu

        class Recording:
            def consume(self, seconds):
                charged.append(seconds)
                return cpu.consume(seconds)

        server.cpu = Recording()
        reads = [env.process(service.read_page(page_id, min_lsn=50))
                 for _ in range(2)]
        for read in reads:
            page = yield read
            assert page.row_count == 5
        return charged

    charged = run_until(env, do(env))
    assert len(charged) == 2
    assert APPLY_COST_PER_RECORD not in charged


def test_a_gossip_fill_charges_the_lagging_server_per_record_it_chains():
    """Records a replica chains through gossip are applied and charged
    once, on that replica's server; a parked record is charged when the
    fill unparks it, not when it arrived."""
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 1)
    lagging = service.replicas_of(0)[0]

    def do(env):
        yield from service.ship_records([record(10, page_id, slot=0)])
        yield env.timeout(5 * MS)
        lagging.alive = False
        for slot in range(1, 4):
            yield from service.ship_records(
                [record(10 + 10 * slot, page_id, slot=slot)])
        yield env.timeout(5 * MS)
        lagging.alive = True
        yield from service.ship_records([record(50, page_id, slot=4)])
        yield env.timeout(5 * MS)
        parked = dict(lagging.replica(0).parked)
        busy = lagging.cpu.busy_time
        yield from service._gossip_fill(lagging, 0)
        return parked, lagging.cpu.busy_time - busy

    parked, charged = run_until(env, do(env))
    assert list(parked) == [40]  # LSN 50 waits behind the gap
    replica = lagging.replica(0)
    assert replica.chain_lsn == 50 and not replica.parked
    assert replica.pages[page_id].row_count == 5
    # Three gossiped records plus the unparked one.
    assert charged == pytest.approx(4 * APPLY_COST_PER_RECORD, rel=1e-12)


def test_segment_mapping_is_stable_and_in_range():
    env, service = make_service(num_segments=8)
    for space in range(3):
        for page in range(50):
            pid = PageId(space, page)
            seg = service.segment_of(pid)
            assert 0 <= seg < 8
            assert service.segment_of(pid) == seg


def test_replication_validation():
    with pytest.raises(ValueError):
        make_service(num_servers=2, replication=3)
    with pytest.raises(ValueError):
        make_service(quorum=5)


@pytest.mark.parametrize("doomed_first", [False, True])
def test_two_segment_ship_joins_its_quorums_in_ship_order(doomed_first):
    """A ship waits on its segments' quorums one after the other, in the
    order the batch first touched them: a segment whose quorum is
    unreachable fails the ship when its turn comes - at once if it is
    first, else only after every segment before it has reached quorum."""
    env, service = make_service(num_servers=5, num_segments=5)
    # Segment 0 lives on servers 0-2, segment 3 on servers 3, 4 and 0.
    healthy = next(PageId(1, n) for n in range(64)
                   if service.segment_of(PageId(1, n)) == 0)
    doomed = next(PageId(1, n) for n in range(64)
                  if service.segment_of(PageId(1, n)) == 3)
    service.servers[3].alive = False
    service.servers[4].alive = False
    batch = [record(10, healthy, row=b"h" * 4096), record(20, doomed)]
    if doomed_first:
        batch.reverse()

    def chained():
        return sum(
            1 for server in service.replicas_of(0)
            if 0 in server.replicas and server.replicas[0].chain_lsn == 10
        )

    def do(env):
        with pytest.raises(StorageError, match="quorum unreachable"):
            yield from service.ship_records(batch)
        return chained()

    landed = run_until(env, do(env))
    assert landed == 0 if doomed_first else landed >= service.quorum
    assert service.ships == 0
    env.run()  # the healthy segment's legs were left to finish
    assert chained() == 3


def test_gossip_history_stays_bounded_on_a_healthy_deployment():
    """10 000 records through one healthy service: a replica keeps only
    what some replica of the segment might still be missing - the last
    few ships, while a straggler rides out a network stall - not every
    record ever shipped (the parent kept all 10 000, on each of the three
    replicas)."""
    env, service = make_service()
    pages = [PageId(1, page_no) for page_no in range(16)]
    longest = 0

    def do(env):
        nonlocal longest
        lsn = 0
        for _ in range(500):
            batch = []
            for slot in range(20):
                lsn += 10
                batch.append(record(lsn, pages[slot % len(pages)], slot=lsn))
            yield from service.ship_records(batch)
            yield env.timeout(1 * MS)  # stragglers land
            longest = max(
                longest,
                max(len(replica.history) for server in service.servers
                    for replica in server.replicas.values()),
            )
        return lsn

    assert run_until(env, do(env)) == 100000
    assert sum(s.records_received for s in service.servers) == 3 * 10000
    assert 0 < longest <= 5 * 20


def test_history_is_kept_for_a_replica_that_is_behind_alive_or_not():
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 5)
    replicas = service.replicas_of(0)
    lagging = replicas[2]

    def do(env):
        yield from service.ship_records([record(10, page_id, slot=0)])
        yield env.timeout(1 * MS)
        lagging.alive = False
        for step in range(1, 31):
            yield from service.ship_records(
                [record(10 + 10 * step, page_id, slot=step)])
        yield env.timeout(1 * MS)
        held = [len(server.replica(0).history) for server in replicas]
        # Back up: the next ship parks behind the gap, gossip fills it
        # from the history its peers kept, and only then is it dropped.
        lagging.alive = True
        yield from service.ship_records([record(1000, page_id, slot=99)])
        yield env.timeout(1 * MS)
        yield from service._gossip_fill(lagging, 0)
        yield from service.ship_records([record(1010, page_id, slot=100)])
        yield env.timeout(1 * MS)
        return held

    held = run_until(env, do(env))
    # Everything above the dead replica's chain tail (lsn 10) was kept.
    assert held[0] == held[1] == 30 and held[2] <= 1
    assert [server.replica(0).chain_lsn for server in replicas] == [1010] * 3
    assert all(len(server.replica(0).history) <= 2 for server in replicas)


def test_serve_gossip_answers_from_the_requested_range_only():
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 5)
    server = service.replicas_of(0)[0]
    service.replicas_of(0)[2].alive = False  # keeps the history around

    def do(env):
        for step in range(10):
            yield from service.ship_records(
                [record(10 + 10 * step, page_id, slot=step)])
        yield env.timeout(1 * MS)

    run_until(env, do(env))
    assert [r.lsn for r in server.serve_gossip(0, 30, 60)] == [40, 50, 60]
    assert [r.lsn for r in server.serve_gossip(0, 95, 500)] == [100]
    assert server.serve_gossip(0, 100, 500) == []
    # A parked record is served too, in LSN order behind the chain.
    stray = record(130, page_id, slot=13)
    stray.back_link = 120
    assert server.replica(0).accept(stray) == 0
    assert [r.lsn for r in server.serve_gossip(0, 80, 500)] == [90, 100, 130]


def _replica_zero_missed_the_second_ship(service, page_id):
    """Generator: ship LSN 10 to all three replicas and LSN 20 while
    replica 0 is down.  Replica 0 comes back with nothing parked: its
    chain simply stops short at 10, a gap no back-link reveals."""
    env = service.env
    replicas = service.replicas_of(service.segment_of(page_id))
    yield from service.ship_records([record(10, page_id, row=b"old")])
    yield env.timeout(5 * MS)
    replicas[0].alive = False
    yield from service.ship_records(
        [record(20, page_id, kind="update", slot=0, row=b"new")]
    )
    yield env.timeout(5 * MS)
    replicas[0].alive = True
    behind = replicas[0].replica(service.segment_of(page_id))
    assert behind.chain_lsn == 10 and not behind.parked
    return replicas


def test_read_ahead_of_an_unparked_chain_serves_min_lsn_or_later():
    """The read contract at its source: the preferred replica's chain
    stops short of ``min_lsn`` with no gap to show for it, and the read
    still returns an image at or above ``min_lsn`` - never the replica's
    stale one."""
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 1)

    def do(env):
        yield from _replica_zero_missed_the_second_ship(service, page_id)
        return (yield from service.read_page(page_id, min_lsn=20))

    page = run_until(env, do(env))
    assert page.page_lsn >= 20
    assert page.get(0) == b"new"


def test_a_replica_that_cannot_cover_min_lsn_fails_over():
    env, service = make_service(num_segments=1)
    page_id = PageId(1, 1)

    def do(env):
        replicas = yield from _replica_zero_missed_the_second_ship(
            service, page_id)
        # The only replicas holding LSN 20 die: nobody can serve it.
        replicas[1].alive = replicas[2].alive = False
        yield from service.read_page(page_id, min_lsn=20)

    with pytest.raises(StorageError, match="behind"):
        run_until(env, do(env))
