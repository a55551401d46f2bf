"""Tests for the log buffer (group commit) and the buffer pool."""

import pytest

from repro.common import KB, PageId
from repro.engine.bufferpool import BufferPool
from repro.engine.page import Page, PageOp
from repro.engine.wal import LogBuffer, LsnAllocator, RedoRecord, encode_records_size
from repro.sim.core import AllOf, Environment


def record(lsn, txn=1, nbytes=100):
    op = PageOp("insert", slot=0, row=b"x" * nbytes)
    return RedoRecord(lsn=lsn, txn_id=txn, page_id=PageId(1, 1), op=op)


# ---------------------------------------------------------------------------
# LSN allocation
# ---------------------------------------------------------------------------


def test_lsn_allocator_monotonic_byte_offsets():
    alloc = LsnAllocator()
    first = alloc.allocate(100)
    second = alloc.allocate(50)
    assert second == first + 100
    assert alloc.allocate(1) == second + 50


def test_lsn_allocator_advance_to():
    alloc = LsnAllocator()
    alloc.advance_to(5000)
    assert alloc.allocate(10) == 5001
    alloc.advance_to(100)  # never goes backwards
    assert alloc.allocate(10) > 5000


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------


def make_log(env, flush_latency=0.001):
    flushes = []

    def flush(records, nbytes):
        flushes.append((env.now, list(records), nbytes))
        yield env.timeout(flush_latency)

    log = LogBuffer(env, flush)
    log.start()
    return log, flushes


def test_submit_and_wait_for_durability():
    env = Environment()
    log, flushes = make_log(env)

    def committer(env):
        done = log.submit([record(10)], wait=True)
        value = yield done
        return (env.now, value)

    proc = env.process(committer(env))
    env.run_until_event(proc)
    now, persistent = proc.value
    assert persistent >= 10
    assert len(flushes) == 1
    assert log.persistent_lsn >= 10


def test_group_commit_batches_concurrent_submitters():
    env = Environment()
    log, flushes = make_log(env, flush_latency=0.010)

    def committer(env, lsn, delay):
        yield env.timeout(delay)
        done = log.submit([record(lsn)], wait=True)
        yield done

    procs = [env.process(committer(env, 10 * (i + 1), 0.0)) for i in range(8)]
    env.run_until_event(AllOf(env, procs))
    # First flush takes whatever was pending; submissions arriving during
    # the 10 ms flush ride the second batch: far fewer flushes than txns.
    assert len(flushes) <= 3
    assert log.records_flushed == 8


def test_nowait_records_ride_along():
    env = Environment()
    log, flushes = make_log(env)
    log.submit([record(10)], wait=False)

    def committer(env):
        done = log.submit([record(20)], wait=True)
        yield done

    proc = env.process(committer(env))
    env.run_until_event(proc)
    assert log.records_flushed == 2


def test_append_is_the_one_record_form_of_submit():
    env = Environment()
    log, flushes = make_log(env)
    assert log.append(record(10)) is None  # rides along, nobody waits
    assert log.queue_depth == 1

    def committer(env):
        persistent = yield log.append(record(20), wait=True)
        return persistent

    proc = env.process(committer(env))
    env.run_until_event(proc)
    assert proc.value == 20
    assert [r.lsn for _, records, _ in flushes for r in records] == [10, 20]
    assert sum(nbytes for _, _, nbytes in flushes) == (
        record(10).log_bytes + record(20).log_bytes)
    assert log.queue_depth == 0 and log.records_flushed == 2


def test_batch_cap_splits_a_backlog_in_fifo_order():
    env = Environment()
    flushes = []

    def flush(records, nbytes):
        flushes.append([r.lsn for r in records])
        yield env.timeout(0.001)

    log = LogBuffer(env, flush, max_batch_bytes=2 * record(1).log_bytes)
    done = log.submit([record(lsn) for lsn in (1, 2, 3, 4, 5)], wait=True)
    log.start()
    env.run_until_event(done)
    assert flushes == [[1, 2], [3, 4], [5]]
    assert done.value == 5


def test_empty_submit_rejected():
    env = Environment()
    log, _ = make_log(env)
    with pytest.raises(ValueError):
        log.submit([], wait=True)


def test_encode_records_size():
    records = [record(1, nbytes=100), record(2, nbytes=50)]
    assert encode_records_size(records) == sum(r.log_bytes for r in records)
    assert records[0].log_bytes > 100


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------


def page(space, number, size=4 * KB):
    return Page(PageId(space, number), size=size)


def test_bufferpool_put_get():
    pool = BufferPool(capacity_bytes=16 * KB, page_size=4 * KB)
    p = page(1, 1)
    pool.put(p)
    assert pool.get(p.page_id) is p
    assert pool.hits == 1
    assert pool.get(PageId(9, 9)) is None
    assert pool.misses == 1


def test_bufferpool_eviction_at_capacity():
    evicted = []
    pool = BufferPool(
        capacity_bytes=8 * KB, page_size=4 * KB, lru_lists=1,
        on_evict=evicted.append,
    )
    p1, p2, p3 = page(1, 1), page(1, 2), page(1, 3)
    pool.put(p1)
    pool.put(p2)
    pool.put(p3)
    assert len(pool) == 2
    assert len(evicted) == 1


def test_bufferpool_lru_order_respects_access():
    pool = BufferPool(capacity_bytes=8 * KB, page_size=4 * KB, lru_lists=1)
    p1, p2, p3 = page(1, 1), page(1, 2), page(1, 3)
    pool.put(p1)
    pool.put(p2)
    pool.get(p1.page_id)  # p1 now MRU; p2 is LRU
    pool.put(p3)
    assert p1.page_id in pool
    assert p2.page_id not in pool


def test_bufferpool_wal_guard_blocks_eviction():
    """Pages whose changes are not durable must not leave the pool."""
    pool = BufferPool(
        capacity_bytes=8 * KB, page_size=4 * KB, lru_lists=1,
        can_evict=lambda pg: pg.page_lsn <= 100,
    )
    dirty = page(1, 1)
    dirty.page_lsn = 999  # beyond the persistent LSN
    clean = page(1, 2)
    clean.page_lsn = 50
    pool.put(dirty)
    pool.put(clean)
    pool.get(clean.page_id)  # make `dirty` the LRU victim candidate
    pool.put(page(1, 3))
    # `dirty` must be skipped; `clean` is evicted instead despite recency.
    assert dirty.page_id in pool
    assert clean.page_id not in pool


def test_bufferpool_exceeds_capacity_when_nothing_evictable():
    pool = BufferPool(
        capacity_bytes=8 * KB, page_size=4 * KB, lru_lists=1,
        can_evict=lambda pg: False,
    )
    for number in range(4):
        pool.put(page(1, number))
    assert len(pool) == 4  # over capacity, by design
    assert pool.evictions == 0


def test_bufferpool_drop_without_hook():
    evicted = []
    pool = BufferPool(
        capacity_bytes=16 * KB, page_size=4 * KB, on_evict=evicted.append
    )
    p = page(1, 1)
    pool.put(p)
    pool.drop(p.page_id)
    assert p.page_id not in pool
    assert not evicted


def test_bufferpool_clear():
    pool = BufferPool(capacity_bytes=16 * KB, page_size=4 * KB)
    pool.put(page(1, 1))
    pool.put(page(1, 2))
    pool.clear()
    assert len(pool) == 0


def test_bufferpool_hit_ratio():
    pool = BufferPool(capacity_bytes=16 * KB, page_size=4 * KB)
    p = page(1, 1)
    pool.put(p)
    pool.get(p.page_id)
    pool.get(PageId(2, 2))
    assert pool.hit_ratio == pytest.approx(0.5)


def test_bufferpool_validation():
    with pytest.raises(ValueError):
        BufferPool(capacity_bytes=100, page_size=4 * KB)
    with pytest.raises(ValueError):
        BufferPool(capacity_bytes=16 * KB, page_size=4 * KB, lru_lists=0)
