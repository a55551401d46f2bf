"""The two contracts of the REDO back half, kept apart.

- **Virtual time.**  What a replicated append, an EBP hit, a quorum ship
  and a PageStore read *model* is when they complete.  On an idle seed-1
  deployment nothing else runs, so there are no ties to break: each
  completion time is pinned to the value measured at the parent of the
  event diet (commit b3c604d), bit for bit.
- **Event budget.**  What they *cost* the kernel is the ``env._seq``
  delta while they run - pinned at the new, lower values, the parent's
  in a comment.  An event may disappear only if nothing but this count
  can see it.  An idle deployment's budget is bounded too: with no
  client, only control-plane and device-model timers run.

The fault cases pin the same two things for the fan-out primitive under
failure: the virtual instant the error surfaces is the parent's, and
afterwards nothing is left held - no device channel, no queue entry, no
EBP index mutex, no pin.
"""

import pytest

from repro.common import (
    DeadlineExceededError,
    PageId,
    RetryPolicy,
    SegmentFrozenError,
)
from repro.engine.page import Page, PageOp, apply_op
from repro.engine.wal import RedoRecord
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.sim.core import Environment, Interrupt
from repro.sim.network import RdmaFabric, RdmaVerb
from repro.sim.rand import SeedSequence


def idle_deployment():
    dep = Deployment(DeploymentSpec.astore_pq(seed=1))
    dep.start()
    # Ring pre-creation (8 segments x create + header fan-out) is the
    # first thing the diet shows up in: 266 events at the parent (170
    # with the PageStore apply daemon's first timer).
    assert (dep.env.now, dep.env._seq) == (0.00385162162283774, 169)
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


def measure(dep, gen):
    """``(events scheduled, completion time)`` of running ``gen``."""
    env = dep.env

    def measured():
        before = env._seq
        yield from gen
        return env._seq - before, env.now

    return run(dep, measured())


def ebp_page(page_id, lsn=5):
    page = Page(page_id)
    apply_op(page, PageOp("insert", slot=0, row=b"r" * 100), lsn)
    return page


def redo_batch(page_id):
    return [
        RedoRecord(lsn=10 + slot, txn_id=1, page_id=page_id,
                   op=PageOp("insert", slot=slot, row=b"r" * 50))
        for slot in range(3)
    ]


def assert_nothing_held(dep):
    for server in dep.astore.servers.values():
        assert server.pmem._channels.count == 0
        assert server.pmem._channels.queue_length == 0
        assert server.cpu.count == 0 and server.cpu.queue_length == 0
    for server in dep.pagestore.servers:
        assert server.device._channels.count == 0
        assert server.device._channels.queue_length == 0
        assert server.cpu.count == 0 and server.cpu.queue_length == 0
    ebp = dep.ebp
    assert ebp.index_mutex.count == 0 and ebp.index_mutex.queue_length == 0
    for segment in ebp._segments.values():
        assert segment.pins == 0


# ---------------------------------------------------------------------------
# Virtual time and event budget, one operation at a time
# ---------------------------------------------------------------------------

def test_ring_append():
    dep = idle_deployment()
    # SDK time, then per replica the verb chain and the PMem media write
    # (7 clock moves), the op deadline and the fan's completion.
    assert measure(dep, dep.ring.append(100, 4096, ["x"])) == (
        9,  # 21 at the parent
        0.003932684574940336,
    )
    assert_nothing_held(dep)


def test_ebp_write_then_hit():
    dep = idle_deployment()
    page_id = PageId(7, 0)
    assert measure(dep, dep.ebp.cache_page(ebp_page(page_id))) == (
        19,  # 31 at the parent (includes the cleaner readying a segment)
        0.004150793636825973,
    )
    # Index section, SDK time, verb, media, index section (5 clock
    # moves) and the read deadline.
    events, now = measure(dep, dep.ebp.get_page(page_id, 5))
    assert (events, now) == (
        7,  # 13 at the parent
        0.004176332192642219,
    )
    assert dep.ebp.hits == 1
    dep.run_for(0.001)
    assert_nothing_held(dep)


def test_one_segment_ship_and_pagestore_read():
    dep = idle_deployment()
    page_id = PageId(7, 0)
    # Per replica: network, CPU, SSD, apply, ack (15 clock moves) and
    # the quorum's completion.  The ack follows the apply charge, 2 us a
    # record: 6 us later than the parent's 0.004052215635440783 (13
    # events; 24 at the parent of the diet).
    assert measure(dep, dep.pagestore.ship_records(redo_batch(page_id))) == (
        16,
        0.004058215635440783,
    )
    # The read no longer pays the catch-up the ack already paid: it ends
    # where it did, one event lighter (5; 7 at the parent of the diet).
    assert measure(dep, dep.pagestore.read_page(page_id, 12)) == (
        4,
        0.004524665832470028,
    )
    dep.run_for(0.002)
    assert_nothing_held(dep)


def test_persistent_write_is_post_chain_of_its_three_verbs():
    def fabric():
        env = Environment()
        return env, RdmaFabric(env, SeedSequence(9).stream("fabric"))

    env_a, one_frame = fabric()
    env_b, chained = fabric()

    def written_out():
        return (yield from one_frame.persistent_write(4096))

    def as_chain():
        return (yield from chained.post_chain(
            [RdmaVerb("write", 4096), RdmaVerb("write", 8), RdmaVerb("read", 8)]
        ))

    a, b = env_a.process(written_out()), env_b.process(as_chain())
    env_a.run()
    env_b.run()
    assert a.value == b.value and env_a.now == env_b.now
    assert one_frame.verbs_posted == chained.verbs_posted == 3
    assert one_frame.bytes_moved == chained.bytes_moved == 4096 + 16
    # Same three draws: the streams are in step afterwards.
    assert one_frame.rng.random() == chained.rng.random()


@pytest.mark.parametrize("preset, budget", [
    # 31: the EBP LSN push every 50 ms (20), AStore client lease and
    # route maintenance (10) and one failure-detector sweep.
    ("astore_ebp", 40),
    # 108: the three LogStore SSDs' latency-spike model (two timers per
    # ~50 ms cycle each).
    ("stock", 120),
])
def test_an_idle_deployment_schedules_only_control_plane_events(
        preset, budget):
    """One virtual second after one of warm-up, a client-less
    deployment schedules at most ``budget`` events: PageStore applies
    REDO as a ship chains it and replicas leave routing as their applier
    dies, so nothing polls the data path (1 032 and 1 109 events with the
    1 ms apply daemon)."""
    dep = Deployment(getattr(DeploymentSpec, preset)(seed=1))
    dep.start()
    dep.run_for(1.0)
    before = dep.env._seq
    dep.run_for(1.0)
    assert dep.env._seq - before <= budget


# ---------------------------------------------------------------------------
# Fault parity for the fan-out primitive
# ---------------------------------------------------------------------------

def test_replica_crash_mid_append_freezes_at_the_parents_instant():
    dep = idle_deployment()
    env = dep.env
    client = dep.ring.client
    segment_id = dep.ring.segment_ids[dep.ring.current_index]
    replicas = client.open_segments[segment_id].route.replicas
    victim = dep.astore.servers[replicas[2]]  # the first leg to land

    def crash():
        yield env.timeout(70e-6)  # inside the fan-out's verb chains
        victim.crash()

    def write():
        env.process(crash())
        with pytest.raises(SegmentFrozenError, match="replica write failed"):
            yield from client.write(segment_id, 4096, (100, ["x"]))
        return env.now

    assert run(dep, write()) == 0.003931169173933783
    # The surviving legs were interrupted in that instant: their chains
    # had landed, their media writes never complete (the parent let them
    # run on into the frozen segment and fail there).
    assert [server.pmem.writes for server in dep.astore.servers.values()] == [
        8, 8, 9]
    assert [len(server.segments[segment_id].entries)
            for server in dep.astore.servers.values()] == [1, 1, 1]
    dep.run_for(0.001)
    assert_nothing_held(dep)


def test_expired_op_timeout_raises_and_interrupts_every_leg():
    dep = idle_deployment()
    env = dep.env
    client = dep.ring.client
    client.retry_policy = RetryPolicy(op_timeout=8e-6)  # mid verb chain
    segment_id = dep.ring.segment_ids[dep.ring.current_index]
    meta = client.open_segments[segment_id]
    writes_before = [s.pmem.writes for s in dep.astore.servers.values()]

    def fan_out():
        with pytest.raises(DeadlineExceededError, match="replica write fan-out"):
            yield client._replica_fanout_write(
                meta, segment_id, meta.written, 4096, (100, ["x"]))
        return env.now

    assert run(dep, fan_out()) == 0.0038596216228377403
    dep.run_for(0.001)
    # No leg went on to the media or landed its entry (at the parent all
    # three did, behind the caller's back).
    assert [s.pmem.writes for s in dep.astore.servers.values()] == writes_before
    assert [len(server.segments[segment_id].entries)
            for server in dep.astore.servers.values()] == [1, 1, 1]
    assert_nothing_held(dep)

    # Through the public path the same expiry freezes the segment.
    def write():
        with pytest.raises(SegmentFrozenError, match="timed out"):
            yield from client.write(segment_id, 4096, (100, ["x"]))

    run(dep, write())
    assert client.deadlines_exceeded == 1
    dep.run_for(0.001)
    assert_nothing_held(dep)


def test_quorum_acks_on_the_second_success_and_survives_the_third_failing():
    dep = idle_deployment()
    env = dep.env
    page_id = PageId(7, 0)
    pagestore = dep.pagestore
    servers = pagestore.replicas_of(pagestore.segment_of(page_id))

    def kill_third():
        yield env.timeout(40e-6)  # its leg is still on the wire
        servers[2].alive = False

    def ship():
        env.process(kill_third())
        yield from pagestore.ship_records(redo_batch(page_id))
        return env.now

    # The acks follow their apply charge: 6 us after 0.00406460923839352.
    assert run(dep, ship()) == 0.0040706092383935195
    dep.run_for(0.002)  # the third leg fails behind the quorum: harmless
    assert [server.records_received for server in servers] == [3, 3, 0]
    assert pagestore.ships == 1
    assert_nothing_held(dep)


def test_ebp_paths_hand_back_latch_pins_and_mutex_when_cut_short():
    dep = idle_deployment()
    env = dep.env
    ebp = dep.ebp
    page_id = PageId(7, 0)
    run(dep, ebp.cache_page(ebp_page(page_id)))
    assert_nothing_held(dep)

    # A reader interrupted inside the index critical section.
    def reader():
        try:
            yield from ebp.get_page(page_id, 5)
        except Interrupt:
            return "interrupted at %r" % ebp.index_mutex.count
        return "finished"

    def interrupter(victim):
        yield env.timeout(1e-6)
        victim.interrupt("test")

    proc = env.process(reader())
    env.process(interrupter(proc))
    env.run_until_event(proc)
    assert proc.value == "interrupted at 0"
    assert_nothing_held(dep)

    # Every AStore operation timing out: the write is dropped, the read
    # is a miss, and both leave the segment unpinned.
    ebp.client.retry_policy = RetryPolicy(op_timeout=2e-6, max_attempts=1)
    assert run(dep, ebp.cache_page(ebp_page(PageId(7, 1)))) is False
    assert ebp.append_failures == 1
    assert run(dep, ebp.get_page(page_id, 5)) is None
    dep.run_for(0.001)
    assert_nothing_held(dep)
