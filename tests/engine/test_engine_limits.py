"""Engine back-pressure and admission-control behaviours."""

import pytest

from repro.common import KB, MB, PageId
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.engine.page import Page, PageOp, apply_op
from repro.harness.deployment import Deployment, DeploymentSpec


def test_ebp_write_queue_sheds_load():
    """With a tiny queue bound, eviction bursts drop EBP writes instead of
    queueing unboundedly (the EBP is best-effort)."""
    dep = Deployment(
        DeploymentSpec.astore_ebp(
            seed=9,
            engine=EngineConfig(
                buffer_pool_bytes=4 * 16 * KB,
                ebp_writer_threads=1,
                ebp_write_queue_limit=2,
            ),
            ebp_capacity_bytes=32 * MB,
        )
    )
    dep.start()
    engine = dep.engine
    engine.create_table(
        "wide",
        Schema([Column("id", INT()), Column("pad", VARCHAR(4200))]),
        ["id"],
    )

    def work(env):
        for chunk in range(6):
            txn = engine.begin()
            for i in range(chunk * 30, chunk * 30 + 30):
                yield from engine.insert(txn, "wide", [i, "p" * 4096])
            yield from engine.commit(txn)
        yield env.timeout(0.2)

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    # ~45 pages churned through a 4-page pool with a 2-deep queue and one
    # slow writer: some writes must have been shed, some must have landed.
    assert dep.ebp.writes_dropped > 0
    assert dep.ebp.pages_written > 0


def test_ebp_writer_skips_pages_rewritten_while_queued():
    """A queued copy older than the engine's latest version of the page
    can never be served, so the writers do not spend an append on it."""
    dep = Deployment(DeploymentSpec.astore_ebp(seed=9))
    dep.start()
    engine = dep.engine
    outdated, current = PageId(7, 1), PageId(7, 2)
    for page_id in (outdated, current):
        page = Page(page_id)
        apply_op(page, PageOp("insert", slot=0, row=b"row"), 5)
        engine.page_versions[page_id] = 5
        engine._on_evict(page)
    engine.page_versions[outdated] = 9  # rewritten (and logged) since
    dep.env.run(until=dep.env.now + 0.01)
    assert current in dep.ebp.index
    assert outdated not in dep.ebp.index
    assert dep.ebp.client.writes == 1


def test_ebp_writer_pool_size_respected():
    config = EngineConfig(ebp_writer_threads=3)
    dep = Deployment(DeploymentSpec.astore_ebp(seed=9, engine=config))
    dep.start()  # must not raise; three writer daemons armed
    assert dep.engine.config.ebp_writer_threads == 3


def test_pages_never_duplicate_frames_under_concurrent_misses():
    """Two processes missing the same page concurrently end up sharing one
    frame (the single-frame rule)."""
    dep = Deployment(
        DeploymentSpec.astore_log(
            seed=9, engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB)
        )
    )
    dep.start()
    engine = dep.engine
    engine.create_table(
        "t", Schema([Column("id", INT()), Column("v", VARCHAR(16))]), ["id"]
    )

    def load(env):
        txn = engine.begin()
        for i in range(50):
            yield from engine.insert(txn, "t", [i, "v"])
        yield from engine.commit(txn)
        yield env.timeout(0.05)
        engine.buffer_pool.clear()  # force misses

    proc = dep.env.process(load(dep.env))
    dep.env.run_until_event(proc)
    table = engine.catalog.table("t")
    page_id = table.page_id(table.page_nos[0])
    frames = []

    def fetcher(env):
        page = yield from engine.fetch_page(page_id)
        frames.append(page)

    from repro.sim.core import AllOf

    procs = [dep.env.process(fetcher(dep.env)) for _ in range(4)]
    dep.env.run_until_event(AllOf(dep.env, procs))
    assert len(frames) == 4
    assert all(frame is frames[0] for frame in frames)
