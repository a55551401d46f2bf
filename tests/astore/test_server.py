"""Tests for the AStore server: allocator, one-sided I/O, stale cleanup."""

import pytest

from repro.common import (
    MB,
    US,
    CapacityError,
    SegmentNotFoundError,
    StaleRouteError,
    StorageError,
)
from repro.sim.core import Environment
from repro.sim.rand import SeedSequence
from repro.astore.server import AStoreServer, SegmentBitmap


def make_server(**kwargs):
    env = Environment()
    seeds = SeedSequence(99)
    defaults = dict(pmem_capacity=16 * MB, segment_slot_size=1 * MB)
    defaults.update(kwargs)
    server = AStoreServer(env, seeds.stream("s0"), "s0", **defaults)
    return env, server


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


# ---------------------------------------------------------------------------
# Bitmap allocator
# ---------------------------------------------------------------------------


def test_bitmap_allocates_first_free():
    bm = SegmentBitmap(4)
    assert bm.allocate() == 0
    assert bm.allocate() == 1
    bm.release(0)
    assert bm.allocate() == 0
    assert bm.used == 2


def test_bitmap_full_raises():
    bm = SegmentBitmap(2)
    bm.allocate()
    bm.allocate()
    with pytest.raises(CapacityError):
        bm.allocate()


def test_bitmap_double_release_rejected():
    bm = SegmentBitmap(2)
    slot = bm.allocate()
    bm.release(slot)
    with pytest.raises(ValueError):
        bm.release(slot)


def test_bitmap_release_out_of_range():
    bm = SegmentBitmap(2)
    with pytest.raises(ValueError):
        bm.release(5)


def test_bitmap_invalid_size():
    with pytest.raises(ValueError):
        SegmentBitmap(0)


# ---------------------------------------------------------------------------
# Segment allocation
# ---------------------------------------------------------------------------


def test_allocate_and_release_segment():
    env, server = make_server()
    server.allocate_segment(7, 1 * MB, epoch=1)
    assert 7 in server.segments
    assert server.bitmap.used == 1
    server.release_segment(7)
    assert 7 not in server.segments
    assert server.bitmap.used == 0


def test_allocate_oversized_segment_rejected():
    env, server = make_server()
    with pytest.raises(CapacityError):
        server.allocate_segment(1, 2 * MB, epoch=1)


def test_allocate_duplicate_rejected():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)
    with pytest.raises(StorageError):
        server.allocate_segment(1, 1 * MB, epoch=1)


def test_release_unknown_segment():
    env, server = make_server()
    with pytest.raises(SegmentNotFoundError):
        server.release_segment(42)


def test_capacity_exhaustion():
    env, server = make_server(pmem_capacity=2 * MB, segment_slot_size=1 * MB)
    server.allocate_segment(1, 1 * MB, epoch=1)
    server.allocate_segment(2, 1 * MB, epoch=1)
    with pytest.raises(CapacityError):
        server.allocate_segment(3, 1 * MB, epoch=1)


# ---------------------------------------------------------------------------
# One-sided I/O
# ---------------------------------------------------------------------------


def test_write_then_read_roundtrip():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        offset, length = yield from server.one_sided_write(1, 0, 512, b"hello")
        payload = yield from server.one_sided_read(1, offset, length)
        return payload

    assert run(env, do(env)) == b"hello"


def test_write_is_append_only():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_write(1, 0, 512, "a")
        # Writing anywhere but the tail is an error.
        yield from server.one_sided_write(1, 100, 512, "b")

    with pytest.raises(StorageError, match="non-append"):
        run(env, do(env))


def test_racing_appends_to_one_offset_only_one_lands():
    """The append contract is re-checked when the write lands, so two
    in-flight appends that both read the same tail cannot both succeed."""
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)
    outcomes = {}

    def append(env, payload):
        try:
            yield from server.one_sided_write(1, 0, 512, payload)
        except StorageError as exc:
            outcomes[payload] = exc
        else:
            outcomes[payload] = "landed"

    env.process(append(env, "a"))
    env.process(append(env, "b"))
    env.run()
    winners = [p for p, outcome in outcomes.items() if outcome == "landed"]
    assert len(winners) == 1
    loser = "b" if winners == ["a"] else "a"
    assert "non-append" in str(outcomes[loser])
    segment = server.segments[1]
    assert segment.entries[0].payload == winners[0]
    assert segment.write_offset == 512


def test_write_overflow_rejected():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_write(1, 0, 2 * MB, "big")

    with pytest.raises(CapacityError):
        run(env, do(env))


def test_read_unwritten_entry_rejected():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_read(1, 0, 100)

    with pytest.raises(StorageError):
        run(env, do(env))


def test_io_against_missing_segment_is_stale_route():
    env, server = make_server()

    def do(env):
        yield from server.one_sided_write(99, 0, 10, "x")

    with pytest.raises(StaleRouteError):
        run(env, do(env))


def test_one_sided_io_consumes_no_server_cpu():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_write(1, 0, 4096, "page")
        yield from server.one_sided_read(1, 0, 4096)

    run(env, do(env))
    assert server.cpu.busy_time == 0.0


def test_small_write_latency_in_tens_of_microseconds():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        start = env.now
        yield from server.one_sided_write(1, 0, 512, "log")
        return env.now - start

    latency = run(env, do(env))
    assert 5 * US < latency < 60 * US


def test_scan_entries_returns_offset_order():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_write(1, 0, 100, "first")
        yield from server.one_sided_write(1, 100, 200, "second")
        yield from server.one_sided_write(1, 300, 50, "third")
        return (yield from server.scan_entries(1))

    entries = run(env, do(env))
    assert [e[2] for e in entries] == ["first", "second", "third"]
    assert [e[0] for e in entries] == [0, 100, 300]


def test_reset_segment_recycles_in_place():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_write(1, 0, 100, "x")
        server.reset_segment(1)
        return (yield from server.one_sided_write(1, 0, 100, "y"))

    assert run(env, do(env)) == (0, 100)
    assert server.bitmap.used == 1


# ---------------------------------------------------------------------------
# Positional writes (concurrent appenders that reserved their own slots)
# ---------------------------------------------------------------------------


def positional(server, offset, payload, length=512):
    return server.one_sided_write(1, offset, length, payload, positional=True)


def test_positional_writes_land_in_any_order():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from positional(server, 512, "second slot")
        yield from positional(server, 0, "first slot")
        return (yield from server.scan_entries(1))

    entries = run(env, do(env))
    assert [(e[0], e[2]) for e in entries] == [
        (0, "first slot"), (512, "second slot")]
    assert server.segments[1].write_offset == 1024


def test_positional_write_refused_on_a_written_slot():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from positional(server, 512, "a")
        yield from positional(server, 512, "b")

    with pytest.raises(StorageError, match="already written"):
        run(env, do(env))
    assert server.segments[1].entries[512].payload == "a"


def test_racing_positional_writes_to_one_slot_only_one_lands():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)
    outcomes = {}

    def write(env, payload):
        try:
            yield from positional(server, 0, payload)
        except StorageError as exc:
            outcomes[payload] = str(exc)
        else:
            outcomes[payload] = "landed"

    env.process(write(env, "a"))
    env.process(write(env, "b"))
    env.run()
    winners = [p for p, outcome in outcomes.items() if outcome == "landed"]
    assert len(winners) == 1
    loser = "b" if winners == ["a"] else "a"
    assert "already written" in outcomes[loser]
    assert server.segments[1].entries[0].payload == winners[0]


def test_positional_write_refused_past_the_end():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from positional(server, 1 * MB - 256, "straddles the end")

    with pytest.raises(CapacityError):
        run(env, do(env))
    assert server.segments[1].entries == {}


def test_positional_write_refused_on_a_frozen_segment():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)
    server.segments[1].frozen = True

    def do(env):
        yield from positional(server, 0, "x")

    with pytest.raises(StorageError, match="frozen"):
        run(env, do(env))


def test_positional_write_refused_when_a_reset_lands_under_it():
    """A write issued before reset_segment must not land in the recycled
    segment: the slot it reserved belongs to the old generation."""
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)
    outcome = []

    def write(env):
        try:
            yield from positional(server, 0, "old generation")
        except StorageError as exc:
            outcome.append(str(exc))

    def reset(env):
        yield env.timeout(1e-6)  # the write is on the wire
        server.reset_segment(1)

    env.process(write(env))
    env.process(reset(env))
    env.run()
    assert outcome and "reset" in outcome[0]
    assert server.segments[1].entries == {}
    assert server.segments[1].generation == 1

    def rewrite(env):
        return (yield from positional(server, 0, "new generation"))

    assert run(env, rewrite(env)) == (0, 512)


def test_scan_tolerates_a_reserved_slot_never_written():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from positional(server, 0, "slot 0")
        # Slot 1 was reserved by a writer that never landed.
        yield from positional(server, 1024, "slot 2")
        return (yield from server.scan_entries(1))

    entries = run(env, do(env))
    assert [(e[0], e[2]) for e in entries] == [(0, "slot 0"), (1024, "slot 2")]


def test_overwrite_header_in_place():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.overwrite_header(1, 64, "header-v1")
        yield from server.overwrite_header(1, 64, "header-v2")
        return (yield from server.one_sided_read(1, 0, 64))

    assert run(env, do(env)) == "header-v2"


# ---------------------------------------------------------------------------
# Crash / stale handling
# ---------------------------------------------------------------------------


def test_crashed_server_rejects_io_but_keeps_pmem():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def write(env):
        yield from server.one_sided_write(1, 0, 100, "persisted")

    run(env, write(env))
    server.crash()

    def read(env):
        yield from server.one_sided_read(1, 0, 100)

    with pytest.raises(StorageError):
        run(env, read(env))
    server.restart()

    def read2(env):
        return (yield from server.one_sided_read(1, 0, 100))

    assert run(env, read2(env)) == "persisted"  # PMem persistence


def test_stale_cleanup_is_deferred():
    env, server = make_server(cleanup_delay=10.0)
    server.allocate_segment(1, 1 * MB, epoch=1)
    server.mark_stale(1)
    # Too early: nothing cleaned.
    assert server.run_cleanup_cycle() == 0
    assert 1 in server.segments

    def wait(env):
        yield env.timeout(11.0)

    run(env, wait(env))
    assert server.run_cleanup_cycle() == 1
    assert 1 not in server.segments
    assert server.bitmap.free == server.bitmap.slots


def test_mark_stale_unknown_segment_is_noop():
    env, server = make_server()
    server.mark_stale(123)  # no exception
    assert server.run_cleanup_cycle() == 0


def test_ebp_lsn_map_and_scan_prunes_stale_pages():
    env, server = make_server()
    server.allocate_segment(1, 1 * MB, epoch=1)

    def do(env):
        yield from server.one_sided_write(1, 0, 100, ("page", "p1", 5))
        yield from server.one_sided_write(1, 100, 100, ("page", "p2", 9))
        yield from server.one_sided_write(1, 200, 100, "not-a-page")
        server.record_page_lsns({"p1": 7})  # p1@5 is stale now
        return (
            yield from server.scan_ebp_pages(
                lambda payload: (payload[1], payload[2])
                if isinstance(payload, tuple) and payload[0] == "page"
                else None
            )
        )

    survivors = run(env, do(env))
    assert [(s[0], s[1]) for s in survivors] == [("p2", 9)]
    assert server.cpu.busy_time > 0  # recovery scan is a CPU (RPC) path
