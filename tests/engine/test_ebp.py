"""Tests for the Extended Buffer Pool."""

import pytest

from repro.common import KB, MB, PageId
from repro.astore.cluster import AStoreCluster
from repro.engine.ebp import EBP_PAGE_TAG, ExtendedBufferPool, describe_ebp_payload
from repro.engine.page import Page, PageOp, apply_op
from repro.sim.core import Environment
from repro.sim.rand import SeedSequence

PAGE_SIZE = 4 * KB


def make_ebp(capacity=8 * MB, segment=1 * MB, policy="flat", priorities=None,
             compaction=True, servers=3):
    env = Environment()
    seeds = SeedSequence(77)
    cluster = AStoreCluster(env, seeds, num_servers=servers,
                            segment_slot_size=max(segment, 1 * MB))
    client = cluster.new_client("ebp")
    ebp = ExtendedBufferPool(
        env,
        client,
        capacity_bytes=capacity,
        segment_size=segment,
        page_size=PAGE_SIZE,
        policy=policy,
        space_priorities=priorities,
        compaction_enabled=compaction,
    )
    return env, cluster, ebp


def make_page(space, number, lsn=1, payload=b"data"):
    page = Page(PageId(space, number), size=PAGE_SIZE)
    apply_op(page, PageOp("insert", slot=0, row=payload), lsn)
    return page


def run(env, gen):
    proc = env.process(gen)
    env.run_until_event(proc)
    return proc.value


def test_cache_and_get_roundtrip():
    env, cluster, ebp = make_ebp()
    page = make_page(1, 1, lsn=10, payload=b"cached")

    def do(env):
        ok = yield from ebp.cache_page(page)
        assert ok
        got = yield from ebp.get_page(PageId(1, 1), required_lsn=10)
        return got

    got = run(env, do(env))
    assert got is not None
    assert got.get(0) == b"cached"
    assert got.page_lsn == 10
    assert ebp.hits == 1


def test_get_returns_clone():
    env, cluster, ebp = make_ebp()
    page = make_page(1, 1, lsn=5)

    def do(env):
        yield from ebp.cache_page(page)
        first = yield from ebp.get_page(PageId(1, 1))
        second = yield from ebp.get_page(PageId(1, 1))
        return first, second

    first, second = run(env, do(env))
    assert first is not second
    assert first.same_content(second)


def test_miss_on_unknown_page():
    env, cluster, ebp = make_ebp()

    def do(env):
        return (yield from ebp.get_page(PageId(9, 9)))

    assert run(env, do(env)) is None
    assert ebp.misses == 1


def test_stale_entry_is_dropped_not_served():
    env, cluster, ebp = make_ebp()
    page = make_page(1, 1, lsn=10)

    def do(env):
        yield from ebp.cache_page(page)
        got = yield from ebp.get_page(PageId(1, 1), required_lsn=20)
        return got

    assert run(env, do(env)) is None
    assert ebp.stale_hits == 1
    assert PageId(1, 1) not in ebp.index


def test_newer_version_makes_old_copy_garbage():
    env, cluster, ebp = make_ebp()
    v1 = make_page(1, 1, lsn=10)
    v2 = make_page(1, 1, lsn=20)

    def do(env):
        yield from ebp.cache_page(v1)
        yield from ebp.cache_page(v2)
        got = yield from ebp.get_page(PageId(1, 1), required_lsn=20)
        return got

    got = run(env, do(env))
    assert got.page_lsn == 20
    garbage = sum(s.garbage_bytes for s in ebp._segments.values())
    assert garbage == PAGE_SIZE


def test_older_version_not_recached():
    env, cluster, ebp = make_ebp()
    v2 = make_page(1, 1, lsn=20)
    v1 = make_page(1, 1, lsn=10)

    def do(env):
        yield from ebp.cache_page(v2)
        yield from ebp.cache_page(v1)  # older: ignored
        got = yield from ebp.get_page(PageId(1, 1), required_lsn=0)
        return got

    assert run(env, do(env)).page_lsn == 20


def test_capacity_eviction_lru():
    # Room for 2 segments x 256 pages... use tiny capacity: 2 segments.
    env, cluster, ebp = make_ebp(capacity=2 * MB, segment=1 * MB)
    pages_per_segment = (1 * MB) // PAGE_SIZE

    def do(env):
        total = pages_per_segment * 2 + 10
        for number in range(total):
            ok = yield from ebp.cache_page(make_page(1, number, lsn=1))
        return total

    total = run(env, do(env))
    assert ebp.evictions > 0
    assert len(ebp.index) < total
    assert ebp.allocated_bytes <= ebp.capacity_bytes


def test_priority_policy_evicts_low_priority_first():
    env, cluster, ebp = make_ebp(
        capacity=2 * MB, segment=1 * MB, policy="priority",
        priorities={1: 0, 2: 5},
    )
    pages_per_segment = (1 * MB) // PAGE_SIZE

    def do(env):
        # Fill with alternating low (space 1) and high (space 2) priority.
        for number in range(pages_per_segment * 2 + 20):
            space = 1 if number % 2 == 0 else 2
            yield from ebp.cache_page(make_page(space, number, lsn=1))

    run(env, do(env))
    low = [pid for pid in ebp.index if pid.space_no == 1]
    high = [pid for pid in ebp.index if pid.space_no == 2]
    assert len(high) > len(low)  # victims were taken from low priority


def test_priority_policy_never_sacrifices_a_higher_priority_area():
    env, cluster, ebp = make_ebp(
        capacity=2 * MB, segment=1 * MB, policy="priority",
        priorities={1: 0, 2: 5},
    )
    pages_per_segment = (1 * MB) // PAGE_SIZE

    def do(env):
        # High-priority pages own the whole pool ...
        for number in range(pages_per_segment * 2):
            ok = yield from ebp.cache_page(make_page(2, number, lsn=1))
            assert ok
        # ... so a low-priority page has no legal victim - not even the
        # spare segment, which was taken from the high area - and fails
        # fast.
        before = (ebp.evictions, len(ebp.index), env.now)
        ok = yield from ebp.cache_page(make_page(1, 0, lsn=1))
        return ok, before

    ok, (evictions, entries, started) = run(env, do(env))
    assert ok is False
    assert env.now - started < 1e-3
    assert ebp.evictions == evictions
    assert len(ebp.index) == entries
    assert all(page_id.space_no == 2 for page_id in ebp.index)


def test_concurrent_appends_land_on_distinct_offsets():
    env, cluster, ebp = make_ebp()
    results = []

    def writer(env, number):
        ok = yield from ebp.cache_page(make_page(1, number, lsn=10 + number))
        results.append(ok)

    def do(env):
        yield env.all_of(
            [env.process(writer(env, number)) for number in range(8)]
        )
        pages = []
        for number in range(8):
            pages.append((yield from ebp.get_page(PageId(1, number))))
        return pages

    pages = run(env, do(env))
    assert results == [True] * 8
    assert [(p.page_id, p.page_lsn) for p in pages] == [
        (PageId(1, number), 10 + number) for number in range(8)
    ]
    assert len({entry.offset for entry in ebp.index.values()}) == 8
    assert ebp.append_failures == 0
    assert ebp.client.write_failures == 0  # no segment was frozen
    assert len(ebp._segments) <= 2  # one append segment plus the spare


def test_concurrent_appends_into_one_segment_overlap_on_the_wire():
    """Positional appends take no latch: two writers' server-side writes
    overlap in virtual time, so both finish in about one write."""
    env, cluster, ebp = make_ebp()
    spans = []

    def record(server):
        write = server.one_sided_write

        def timed(*args, **kwargs):
            start = env.now
            result = yield from write(*args, **kwargs)
            spans.append((start, env.now))
            return result

        server.one_sided_write = timed

    for server in cluster.servers.values():
        record(server)

    def do(env):
        yield from ebp.cache_page(make_page(1, 100))
        yield env.timeout(0.1)  # the cleaner readies a spare segment
        start = env.now
        yield from ebp.cache_page(make_page(1, 101))
        one = env.now - start
        del spans[:]
        start = env.now
        yield env.all_of([
            env.process(ebp.cache_page(make_page(1, number)))
            for number in (1, 2)
        ])
        return one, env.now - start

    one, two = run(env, do(env))
    assert len({ebp.index[PageId(1, n)].segment_id for n in (1, 2)}) == 1
    (start_a, end_a), (start_b, end_b) = spans
    assert max(start_a, start_b) < min(end_a, end_b)  # on the wire together
    assert two < 1.25 * one


def test_rebuild_tolerates_a_reserved_slot_never_written():
    env, cluster, ebp = make_ebp()

    def do(env):
        yield from ebp.cache_page(make_page(1, 1, lsn=5))
        # A writer reserves the next slot and dies before its write lands.
        segment, hole = ebp._reserve_slot(0)
        segment.unpin()
        yield from ebp.cache_page(make_page(1, 2, lsn=5))
        ebp.index.clear()
        count = yield from ebp.rebuild_index_after_crash()
        return hole, count

    hole, count = run(env, do(env))
    assert count == 2
    assert hole not in {entry.offset for entry in ebp.index.values()}
    assert ebp.index[PageId(1, 2)].offset > hole


def test_dram_modification_drops_the_older_copy_at_once():
    env, cluster, ebp = make_ebp()
    page_id = PageId(1, 1)

    def do(env):
        yield from ebp.cache_page(make_page(1, 1, lsn=5))
        ebp.note_page_modified(page_id, 8)
        return (yield from ebp.get_page(page_id, required_lsn=8))

    assert run(env, do(env)) is None
    assert page_id not in ebp.index
    assert ebp.dropped_dead == 1
    assert ebp.stale_hits == 0 and ebp.misses == 1
    assert sum(s.garbage_bytes for s in ebp._segments.values()) == PAGE_SIZE
    assert ebp._dirty_lsns == {page_id: 8}  # still pruned after a crash


def fill_then_recycle(ebp, env, live, resident):
    """Fill one 1 MB segment, leave ``live`` of its pages live (the rest
    rewritten elsewhere), mark ``resident`` as held by DRAM, then cache new
    pages until the cleaner recycles that segment."""
    per_segment = (1 * MB) // PAGE_SIZE
    ebp.resident = lambda page_id: page_id.page_no in resident
    for number in range(per_segment):
        yield from ebp.cache_page(make_page(1, number, lsn=1))
    victim = ebp.index[PageId(1, 0)].segment_id
    for number in range(per_segment):
        if number not in live:
            yield from ebp.cache_page(make_page(1, number, lsn=2))
    # Rolling onto the last spare segment kicks the cleaner.
    for number in range(per_segment, 2 * per_segment + 1):
        yield from ebp.cache_page(make_page(1, number, lsn=1))
    yield env.timeout(0.1)  # let the cleaner pass finish
    return victim


def test_compaction_copies_forward_only_pages_dram_does_not_hold():
    env, cluster, ebp = make_ebp(capacity=3 * MB, segment=1 * MB)
    live = {10, 20}

    victim = run(env, fill_then_recycle(ebp, env, live, resident={10}))
    assert ebp.compactions == 1 and ebp.segments_released == 1
    assert ebp.dropped_resident == 1 and ebp.evictions == 0
    assert PageId(1, 10) not in ebp.index
    copied = ebp.index[PageId(1, 20)]
    assert copied.lsn == 1 and copied.segment_id != victim


def test_resident_copies_count_towards_the_compaction_threshold():
    """No garbage at all, but 40 % of the victim duplicates DRAM: that is
    past the 0.35 threshold, so the victim is compacted, not dropped."""
    env, cluster, ebp = make_ebp(capacity=3 * MB, segment=1 * MB)
    per_segment = (1 * MB) // PAGE_SIZE
    everything = set(range(per_segment))
    resident = set(range(int(per_segment * 0.4)))

    run(env, fill_then_recycle(ebp, env, everything, resident))
    assert ebp.compactions == 1
    assert ebp.dropped_resident == len(resident)
    assert ebp.evictions == 0
    kept = {page_id.page_no for page_id in ebp.index
            if page_id.page_no < per_segment}
    assert kept == everything - resident


def test_eviction_storm_stays_within_capacity_and_drops_nothing():
    # 16 clients churn 25x the pool's 48 slots through 3 small segments.
    env, cluster, ebp = make_ebp(capacity=192 * KB, segment=64 * KB)
    assert ebp.max_segments == 3
    results = []
    done = []

    def within_capacity():
        assert len(ebp._segments) <= ebp.max_segments
        assert ebp.allocated_bytes <= ebp.capacity_bytes

    def client(env, index):
        for round_no in range(75):
            page = make_page(1, index * 1000 + round_no, lsn=1 + round_no)
            results.append((yield from ebp.cache_page(page)))
            within_capacity()
        done.append(index)

    def monitor(env):
        while len(done) < 16:
            within_capacity()
            yield env.timeout(5e-6)

    def do(env):
        watcher = env.process(monitor(env))
        yield env.all_of([env.process(client(env, i)) for i in range(16)])
        yield watcher

    run(env, do(env))
    # The flat policy always leaves the cleaner a victim: nothing is shed.
    assert results == [True] * (16 * 75)
    assert ebp.append_failures == 0
    assert ebp.client.write_failures == 0
    assert ebp.segments_released > 0
    assert ebp.cleaner_waits > 0
    # Every index entry reads back as the page it names.
    def verify(env):
        for page_id, entry in list(ebp.index.items()):
            page = yield from ebp.get_page(page_id)
            assert page is not None
            assert (page.page_id, page.page_lsn) == (page_id, entry.lsn)

    misses = ebp.misses
    run(env, verify(env))
    assert ebp.misses == misses


def test_payload_with_wrong_lsn_is_a_miss():
    env, cluster, ebp = make_ebp()

    def do(env):
        yield from ebp.cache_page(make_page(1, 1, lsn=10))
        # The index names a version the slot does not hold.
        ebp.index[PageId(1, 1)].lsn = 11
        return (yield from ebp.get_page(PageId(1, 1)))

    assert run(env, do(env)) is None
    assert ebp.misses == 1
    assert PageId(1, 1) not in ebp.index


def test_compaction_copies_live_pages_forward():
    env, cluster, ebp = make_ebp(capacity=3 * MB, segment=1 * MB)
    pages_per_segment = (1 * MB) // PAGE_SIZE
    half = pages_per_segment // 2

    def do(env):
        # Fill one segment, then rewrite half of it (that half is garbage).
        for number in range(pages_per_segment):
            yield from ebp.cache_page(make_page(1, number, lsn=1))
        for number in range(half):
            yield from ebp.cache_page(make_page(1, number, lsn=2))
        # New pages until the pool is at its limit and the cleaner must
        # recycle: the half-garbage segment is the victim.
        for number in range(pages_per_segment, 2 * pages_per_segment):
            yield from ebp.cache_page(make_page(1, number, lsn=1))
        yield env.timeout(0.1)  # let the cleaner pass finish
        survivors = 0
        for number in range(half, pages_per_segment):
            got = yield from ebp.get_page(PageId(1, number))
            survivors += got is not None and got.page_lsn == 1
        return survivors

    survivors = run(env, do(env))
    assert ebp.compactions == 1
    assert ebp.segments_released == 1
    assert ebp.evictions == 0
    assert survivors == half  # the victim's live half was copied forward
    assert len(ebp._segments) == ebp.max_segments


def test_no_compaction_mode_releases_whole_segments():
    env, cluster, ebp = make_ebp(capacity=2 * MB, segment=1 * MB,
                                 compaction=False)
    pages_per_segment = (1 * MB) // PAGE_SIZE

    def do(env):
        for number in range(pages_per_segment * 3):
            yield from ebp.cache_page(make_page(1, number, lsn=1))

    run(env, do(env))
    assert ebp.segments_released > 0


def test_purge_server_only_lowers_hit_ratio():
    env, cluster, ebp = make_ebp()

    def do(env):
        for number in range(30):
            yield from ebp.cache_page(make_page(1, number, lsn=1))
        victim = next(iter(cluster.servers))
        cluster.servers[victim].crash()
        purged = ebp.purge_server(victim)
        # Reads of surviving entries still work; purged ones are misses.
        survivors = 0
        for number in range(30):
            got = yield from ebp.get_page(PageId(1, number))
            if got is not None:
                survivors += 1
        return purged, survivors

    purged, survivors = run(env, do(env))
    assert purged + survivors >= 30 - ebp.evictions
    assert survivors > 0 or purged == 30


def test_rebuild_index_after_engine_crash():
    env, cluster, ebp = make_ebp()

    def do(env):
        for number in range(10):
            yield from ebp.cache_page(make_page(1, number, lsn=5))
        # Engine pushes newer LSNs for two pages (they were re-modified).
        ebp._dirty_lsns[PageId(1, 0)] = 9
        ebp._dirty_lsns[PageId(1, 1)] = 9
        yield from ebp.flush_dirty_lsns()
        # Crash: the index vanishes with the engine.
        ebp.index.clear()
        count = yield from ebp.rebuild_index_after_crash()
        return count

    count = run(env, do(env))
    # Pages 0 and 1 are pruned as stale (cached LSN 5 < pushed LSN 9).
    assert count == 8
    assert PageId(1, 0) not in ebp.index
    assert PageId(1, 5) in ebp.index


def test_rebuild_keeps_newest_copy():
    env, cluster, ebp = make_ebp()

    def do(env):
        yield from ebp.cache_page(make_page(1, 1, lsn=5))
        yield from ebp.cache_page(make_page(1, 1, lsn=9))
        ebp.index.clear()
        yield from ebp.rebuild_index_after_crash()
        got = yield from ebp.get_page(PageId(1, 1))
        return got

    assert run(env, do(env)).page_lsn == 9


def test_describe_payload():
    page = make_page(1, 1, lsn=3)
    payload = (EBP_PAGE_TAG, page.page_id, 3, page)
    assert describe_ebp_payload(payload) == (page.page_id, 3)
    assert describe_ebp_payload("junk") is None
    assert describe_ebp_payload(("other", 1, 2, 3)) is None


def test_policy_validation():
    env = Environment()
    seeds = SeedSequence(1)
    cluster = AStoreCluster(env, seeds, num_servers=1)
    client = cluster.new_client("x")
    with pytest.raises(ValueError):
        ExtendedBufferPool(env, client, capacity_bytes=8 * MB, policy="weird")
    with pytest.raises(ValueError):
        ExtendedBufferPool(env, client, capacity_bytes=1 * KB)


def test_flush_dirty_lsns_batches():
    env, cluster, ebp = make_ebp()

    def do(env):
        yield from ebp.cache_page(make_page(1, 1, lsn=5))
        ebp.note_page_modified(PageId(1, 1), 8)
        ebp.note_page_modified(PageId(2, 2), 8)  # not cached: ignored
        sent = yield from ebp.flush_dirty_lsns()
        return sent

    assert run(env, do(env)) == 1
    for server in cluster.servers.values():
        assert server.ebp_latest_lsn.get(PageId(1, 1)) == 8
