"""The contract of PageStore shipping on demand.

Durable page ops leave for PageStore when somebody needs them there - a
PageStore read ahead of ``shipped_lsn``, the log ring wanting a FULL
segment back, recovery - or when ``log_batch_bytes`` of durable log sits
unshipped; never merely because time passed.  ``engine.ship_demand``
counts every ship under the cause that sent it.
"""

from repro.common import KB, MB
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.sim.core import AllOf
from repro.workloads.tpcc import TpccClient, TpccConfig, TpccDatabase


def run(dep, gen):
    return dep.run_until(dep.env.process(gen))


def only(**counts):
    expected = dict.fromkeys(("read", "ring", "recovery", "full"), 0)
    expected.update(counts)
    return expected


def test_tpcc_slice_on_a_large_ring_ships_only_when_full():
    # Data fits the buffer pool and the ring never wraps: nothing reads
    # PageStore and nothing reclaims a segment, so only the byte cap (cut
    # below the slice's log volume) ships.
    dep = Deployment(DeploymentSpec.astore_pq(
        seed=3, engine=EngineConfig(log_batch_bytes=64 * KB)))
    dep.start()
    database = TpccDatabase(
        dep.engine, TpccConfig(), dep.seeds.stream("ship-load"))
    run(dep, database.load())
    terminals = [
        TpccClient(database, dep.seeds.stream("ship-%d" % index))
        for index in range(4)
    ]
    dep.run_until(AllOf(dep.env, [
        dep.env.process(t.run_for(0.01)) for t in terminals]))
    engine = dep.engine
    assert sum(t.committed for t in terminals) > 20
    assert engine.ship_demand["full"] > 0
    assert engine.ship_demand == only(full=engine.ship_demand["full"])
    assert engine.ship_demand["full"] == dep.pagestore.ships
    assert dep.registry.value("engine.ship_demand") == engine.ship_demand
    # What is left unshipped is below one batch.
    assert engine._ship_bytes < engine.config.log_batch_bytes


def test_ebp_eviction_workload_demands_ships_for_its_reads():
    # Pages well past the buffer pool and the minimal EBP: reads that
    # miss both go to PageStore, and each read ahead of shipped_lsn
    # demands the ship it needs.  No byte cap is reached.
    dep = Deployment(DeploymentSpec.astore_ebp(
        seed=11,
        engine=EngineConfig(buffer_pool_bytes=8 * 16 * KB,
                            log_batch_bytes=64 * MB),
        ebp_capacity_bytes=3 * MB,
        ebp_segment_bytes=1 * MB,
    ))
    dep.start()
    engine = dep.engine
    engine.create_table(
        "wide", Schema([Column("id", INT()), Column("pad", VARCHAR(8000))]),
        ["id"])
    rows = 600  # two a page: 300 pages, 4.8 MB

    def work(env):
        for chunk in range(0, rows, 20):
            txn = engine.begin()
            for key in range(chunk, chunk + 20):
                yield from engine.insert(txn, "wide", [key, "p" * 7800])
            yield from engine.commit(txn)
        for key in range(rows):
            row = yield from engine.read_row(None, "wide", (key,))
            assert row == [key, "p" * 7800]

    run(dep, work(dep.env))
    assert dep.registry.value("engine.page_fetch.pagestore_read") > 0
    assert engine.ship_demand["read"] > 0
    assert engine.ship_demand == only(read=engine.ship_demand["read"])
    assert sum(engine.ship_demand.values()) == dep.pagestore.ships
    assert dep.registry.value("engine.ship_demand") == engine.ship_demand


def test_ebp_miss_after_astore_death_reads_pagestore():
    # Every AStore server dead and the page out of the buffer pool: the
    # EBP read fails and the fetch rides PageStore instead - demanding
    # the page's REDO shipped, which nothing else has asked for yet.
    dep = Deployment(DeploymentSpec.astore_ebp(
        seed=19, engine=EngineConfig(buffer_pool_bytes=8 * 16 * KB)))
    dep.start()
    engine = dep.engine
    table = engine.create_table(
        "kv", Schema([Column("k", INT()), Column("v", VARCHAR(40))]), ["k"])

    def load(env):
        txn = engine.begin()
        for key in range(40):
            yield from engine.insert(txn, "kv", [key, "v%d" % key])
        yield from engine.commit(txn)
        yield env.timeout(0.2)

    run(dep, load(dep.env))
    engine.buffer_pool.clear()
    for server in dep.astore.servers.values():
        server.crash()
    page_reads = dep.pagestore.page_reads
    fetches = dep.registry.value("engine.page_fetch.pagestore_read")
    page_no, slot = table.lookup((11,))

    def read(env):
        page = yield from engine.fetch_page(table.page_id(page_no))
        return table.schema.decode(page.get(slot))

    assert run(dep, read(dep.env)) == [11, "v11"]
    assert dep.pagestore.page_reads > page_reads
    assert dep.registry.value("engine.page_fetch.pagestore_read") > fetches
    assert engine.ship_demand["read"] >= 1


def test_a_failed_ship_keeps_its_bytes_and_ships_when_full():
    # Two of three PageStore servers down: the byte-cap ship misses its
    # quorum.  The batch goes back on the queue with its bytes, so once
    # the servers return it ships under ``full`` with nothing else asking
    # - and while they are down the shipper retries once a millisecond.
    dep = Deployment(DeploymentSpec.astore_pq(
        seed=3, engine=EngineConfig(log_batch_bytes=16 * KB)))
    dep.start()
    engine = dep.engine
    engine.create_table(
        "t", Schema([Column("id", INT()), Column("v", VARCHAR(256))]), ["id"])
    down = dep.pagestore.servers[:2]
    for server in down:
        server.alive = False
    ship, attempts = dep.pagestore.ship_records, []

    def counted_ship(records):
        attempts.append(dep.env.now)
        return (yield from ship(records))

    dep.pagestore.ship_records = counted_ship

    def work(env):
        for key in range(100):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [key, "x" * 200])
            yield from engine.commit(txn)

    run(dep, work(dep.env))
    assert attempts and engine.shipped_lsn == 0
    before = len(attempts)
    dep.run_for(0.01)
    assert 9 <= len(attempts) - before <= 11  # one retry a millisecond
    assert engine._ship_bytes >= engine.config.log_batch_bytes
    for server in down:
        server.alive = True
    dep.run_for(0.002)
    assert engine.shipped_lsn == engine.log.persistent_lsn
    assert engine.ship_demand == only(full=1)
    assert engine._ship_bytes == 0


def test_a_stamped_record_keeps_its_back_link_across_an_engine_crash():
    # Two of three PageStore servers down: the byte-cap ship stamps its
    # records' back-links and misses its quorum.  The engine crashes, the
    # servers return and the engine recovers: the records it re-ships are
    # decoded from the log, which never held a back-link, and PageStore
    # stamps them as the failed ship did - so the returning servers chain
    # every record as it arrives, with no parked record and no gossip.
    dep = Deployment(DeploymentSpec.astore_pq(
        seed=3, engine=EngineConfig(log_batch_bytes=16 * KB)))
    dep.start()
    engine, pagestore = dep.engine, dep.pagestore
    engine.create_table(
        "t", Schema([Column("id", INT()), Column("v", VARCHAR(256))]), ["id"])
    down = pagestore.servers[:2]
    for server in down:
        server.alive = False

    def work(env):
        for key in range(100):
            txn = engine.begin()
            yield from engine.insert(txn, "t", [key, "x" * 200])
            yield from engine.commit(txn)

    run(dep, work(dep.env))
    assert engine.shipped_lsn == 0 and engine._ship_bytes > 0
    touched = [s for s, chain in pagestore._chains.items() if chain[-1] >= 0]
    assert touched
    gossip = pagestore.gossip_rounds
    engine.crash()  # the ship queue is gone; only the log holds them
    for server in down:
        server.alive = True
    run(dep, engine.recover())
    dep.run_for(0.002)  # the straggler replica's copy lands
    assert engine.shipped_lsn == engine.log.persistent_lsn
    for segment_no in touched:
        for server in pagestore.replicas_of(segment_no):
            replica = server.replicas[segment_no]
            assert replica.parked == {}
            assert replica.chain_lsn == pagestore._chains[segment_no][-1]
    assert pagestore.gossip_rounds == gossip
