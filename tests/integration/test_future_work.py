"""Tests for the paper's future-work features (Section VIII), which this
reproduction implements:

1. cost-based push-down decisions (the planner's default eligibility
   estimate);
2. buffer-pool warm-up from the EBP after crash recovery;
3. local EBP recovery when a crashed AStore server restarts (PMem
   persistence means its cached pages survived).
"""

import pytest

from repro import Deployment, DeploymentSpec
from repro.common import KB, MB
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig


def wide_schema():
    return Schema(
        [
            Column("id", INT()),
            Column("v", VARCHAR(32)),
            Column("pad", VARCHAR(2100)),
        ]
    )


def build(rows=240, bp_pages=12, **kwargs):
    dep = Deployment(
        DeploymentSpec.astore_pq(
            seed=5,
            engine=EngineConfig(buffer_pool_bytes=bp_pages * 16 * KB),
            ebp_capacity_bytes=64 * MB,
            **kwargs,
        )
    )
    dep.start()
    engine = dep.engine
    engine.create_table("wide", wide_schema(), ["id"])

    def load(env):
        for chunk in range(0, rows, 60):
            txn = engine.begin()
            for i in range(chunk, min(chunk + 60, rows)):
                yield from engine.insert(txn, "wide", [i, "v%d" % i, "p" * 2048])
            yield from engine.commit(txn)
        yield env.timeout(0.3)

    proc = dep.env.process(load(dep.env))
    dep.env.run_until_event(proc)
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


SCAN_SQL = "SELECT count(*) FROM wide WHERE id >= 0"


# ---------------------------------------------------------------------------
# 1. Cost-based push-down
# ---------------------------------------------------------------------------


def test_cost_based_pq_pushes_large_remote_scans():
    # Big enough that parallel storage-side execution clearly wins: the
    # planner's estimate marks the fragment without any row threshold.
    dep = build(rows=700, bp_pages=12)
    session = dep.new_session()
    registry = dep.obs.registry
    tasks = registry.value("query.pushdown.tasks_dispatched")

    def work(env):
        return (yield from session.execute(SCAN_SQL))

    result = run(dep, work(dep.env))
    assert result.rows[0][0] == 700
    assert registry.value("query.pushdown.tasks_dispatched") > tasks


def test_cost_based_equals_threshold_results():
    dep = build()
    cost_session = dep.new_session()
    naive_session = dep.new_session(pushdown_row_threshold=10)
    registry = dep.obs.registry
    dispatched = []

    def work(env):
        results = []
        for session in (cost_session, naive_session):
            tasks = registry.value("query.pushdown.tasks_dispatched")
            results.append((yield from session.execute(SCAN_SQL)))
            dispatched.append(
                registry.value("query.pushdown.tasks_dispatched") - tasks
            )
        return results

    a, b = run(dep, work(dep.env))
    assert a.rows == b.rows
    for tasks in dispatched:
        assert tasks > 0


# ---------------------------------------------------------------------------
# 2. Warm-up from EBP after recovery
# ---------------------------------------------------------------------------


def test_warmup_from_ebp_after_recovery():
    dep = build()
    engine = dep.engine
    engine.crash()

    def recover(env):
        yield from engine.recover()
        # Cold buffer pool right after recovery (only recovery's own reads).
        cold = engine.buffer_pool.used_pages
        warmed = yield from engine.warmup_from_ebp()
        return cold, warmed

    cold, warmed = run(dep, recover(dep.env))
    assert warmed > 0
    assert engine.buffer_pool.used_pages >= warmed


def test_warmup_respects_limit_and_missing_ebp():
    dep = build()
    engine = dep.engine
    engine.crash()

    def recover(env):
        yield from engine.recover()
        engine.buffer_pool.clear()
        warmed = yield from engine.warmup_from_ebp(limit=3)
        return warmed

    assert run(dep, recover(dep.env)) <= 3
    # Engines without an EBP warm zero pages.
    stock = Deployment(DeploymentSpec.stock())
    stock.start()

    def no_ebp(env):
        return (yield from stock.engine.warmup_from_ebp())
        yield  # pragma: no cover

    proc = stock.env.process(no_ebp(stock.env))
    stock.env.run_until_event(proc)
    assert proc.value == 0


# ---------------------------------------------------------------------------
# 3. Local EBP recovery after an AStore server restart
# ---------------------------------------------------------------------------


def test_reclaim_server_restores_cached_pages():
    dep = build()
    ebp = dep.ebp
    assert len(ebp.index) > 0
    victim_id = next(iter(dep.astore.servers))
    victim = dep.astore.servers[victim_id]
    # Find pages cached on the victim before the crash.
    on_victim_before = {
        pid
        for pid, entry in ebp.index.items()
        if victim_id
        in (ebp.client.open_segments[entry.segment_id].route.replicas
            if entry.segment_id in ebp.client.open_segments else [])
    }
    if not on_victim_before:
        pytest.skip("seed placed no EBP segment on the first server")
    victim.crash()

    def wait(env):
        yield env.timeout(5.0)

    # The failure detector notices the crash on its own (no manual sweep)
    # and purges the dead server's entries from the EBP index.
    run(dep, wait(dep.env))
    assert dep.detector.failures_detected >= 1
    assert ebp.pages_purged > 0

    # PMem persistence: the server restarts with its pages intact and the
    # detector re-adopts the surviving cached pages automatically.
    victim.restart()
    run(dep, wait(dep.env))
    assert dep.detector.recoveries >= 1
    assert ebp.pages_reclaimed > 0

    # The reclaimed pages serve reads again.
    def read_back(env):
        hits = 0
        for pid in list(on_victim_before)[:5]:
            page = yield from ebp.get_page(pid)
            if page is not None:
                hits += 1
        return hits

    assert run(dep, read_back(dep.env)) > 0


def test_reclaim_requires_live_server():
    dep = build()
    victim_id = next(iter(dep.astore.servers))
    dep.astore.servers[victim_id].crash()

    from repro.common import StorageError

    def reclaim(env):
        return (yield from dep.ebp.reclaim_server(victim_id))
        yield  # pragma: no cover

    proc = dep.env.process(reclaim(dep.env))
    with pytest.raises(StorageError):
        dep.env.run_until_event(proc)
