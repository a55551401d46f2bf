"""Tests for the push-down framework: equivalence, task split, fallback."""

import pytest

from repro.common import KB, MB
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.plan import SeqScan


def make_db(rows=300, bp_pages=16):
    """A PQ deployment with a tiny buffer pool so most pages live in EBP."""
    dep = Deployment(
        DeploymentSpec.astore_pq(
            engine=EngineConfig(buffer_pool_bytes=bp_pages * 16 * KB),
            ebp_capacity_bytes=64 * MB,
        )
    )
    dep.start()
    engine = dep.engine
    engine.create_table(
        "facts",
        Schema(
            [
                Column("f_id", INT()),
                Column("dim", INT()),
                Column("label", VARCHAR(16)),
                Column("amount", DECIMAL(2)),
                Column("pad", VARCHAR(2100)),  # ~7 rows/page: force spill
            ]
        ),
        ["f_id"],
    )

    def load(env):
        txn = engine.begin()
        for i in range(rows):
            yield from engine.insert(
                txn, "facts",
                [i, i % 7, "L%d" % (i % 3), float(i % 100), "p" * 2048],
            )
            if i % 100 == 99:
                yield from engine.commit(txn)
                txn = engine.begin()
        yield from engine.commit(txn)
        yield env.timeout(0.3)  # let eviction populate the EBP

    proc = dep.env.process(load(dep.env))
    dep.env.run_until_event(proc)
    return dep


def execute(dep, session, sql):
    proc = dep.env.process(session.execute(sql))
    dep.env.run_until_event(proc)
    return proc.value


AGG_SQL = (
    "SELECT dim, count(*) AS n, sum(amount) AS total FROM facts "
    "WHERE amount >= 10 GROUP BY dim ORDER BY dim"
)
FILTER_SQL = "SELECT f_id, label FROM facts WHERE dim = 3 ORDER BY f_id"


def test_pushdown_results_equal_local_execution():
    dep = make_db()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    local = dep.new_session(enable_pushdown=False)
    for sql in (AGG_SQL, FILTER_SQL):
        pq_result = execute(dep, pq, sql)
        local_result = execute(dep, local, sql)
        assert pq_result.columns == local_result.columns
        assert pq_result.rows == local_result.rows


def test_pushdown_uses_storage_side_execution():
    dep = make_db()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    execute(dep, pq, AGG_SQL)
    runtime = pq.pushdown_runtime
    assert runtime.tasks_dispatched > 0
    assert runtime.pages_via_ebp + runtime.pages_via_pagestore > 0


def test_pushdown_partial_agg_numbers():
    dep = make_db()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    result = execute(dep, pq, AGG_SQL)
    expected = {}
    for i in range(300):
        amount = float(i % 100)
        if amount >= 10:
            d = i % 7
            n, t = expected.get(d, (0, 0.0))
            expected[d] = (n + 1, t + amount)
    assert [(d, n, t) for (d, n, t) in result.rows] == [
        (d, expected[d][0], expected[d][1]) for d in sorted(expected)
    ]


def test_pushdown_is_faster_for_scan_heavy_query():
    """The headline effect: storage-side parallel execution beats pumping
    remote pages through the single engine thread."""
    dep = make_db(rows=1200, bp_pages=8)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    local = dep.new_session(enable_pushdown=False)

    def timed(session, sql):
        def work(env):
            start = env.now
            yield from session.execute(sql)
            return env.now - start

        proc = dep.env.process(work(dep.env))
        dep.env.run_until_event(proc)
        return proc.value

    local_time = timed(local, AGG_SQL)
    pq_time = timed(pq, AGG_SQL)
    assert pq_time < local_time


def test_pushdown_survives_astore_server_crash():
    """Tasks that fail fall back to the engine path; results stay correct."""
    dep = make_db()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    baseline = execute(dep, pq, AGG_SQL)
    victim = next(iter(dep.astore.servers.values()))
    victim.crash()
    after = execute(dep, pq, AGG_SQL)
    assert after.rows == baseline.rows


def test_pushdown_sees_fresh_buffer_pool_pages():
    """Pages dirtied in the BP after EBP caching must be processed locally,
    not from the stale EBP copy."""
    dep = make_db()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    engine = dep.engine

    def mutate(env):
        txn = engine.begin()
        yield from engine.update(txn, "facts", (0,), {"amount": 9999.0})
        yield from engine.commit(txn)

    proc = dep.env.process(mutate(dep.env))
    dep.env.run_until_event(proc)
    result = execute(
        dep, pq, "SELECT sum(amount) FROM facts WHERE amount >= 9000"
    )
    assert result.rows == [(9999.0,)]


def test_pushdown_threshold_respected():
    dep = make_db(rows=50)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=100000)
    execute(dep, pq, AGG_SQL)
    assert pq.pushdown_runtime.tasks_dispatched == 0


def test_every_scan_path_carries_exactly_the_planned_projection():
    """The engine's batch scan and a pushed fragment - on an AStore server,
    on a PageStore server, over buffer-pool pages and over fallback pages -
    all return the planner's projected columns, in schema order, and nothing
    else."""
    dep = make_db()
    sql = "SELECT label, f_id FROM facts WHERE amount >= 10"
    expected = ("facts.f_id", "facts.label", "facts.amount")

    def run(generator):
        proc = dep.env.process(generator)
        dep.env.run_until_event(proc)
        return proc.value

    def scan_of(session):
        node = session.plan(sql)
        while not isinstance(node, SeqScan):
            node = node.child
        assert node.projection == ("f_id", "label", "amount")
        return node

    local = dep.new_session(enable_pushdown=False)
    engine_batch = run(local._run(scan_of(local)))
    assert engine_batch.keys == expected

    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    runtime = pq.pushdown_runtime
    scan = scan_of(pq)
    assert scan.pushdown
    seen = {}

    def recording(path, task_runner):
        def runner(fragment, *args, **kwargs):
            result, failed = yield from task_runner(fragment, *args, **kwargs)
            label = "fallback" if kwargs.get("via_engine") else path
            seen.setdefault(label, []).append(result)
            return result, failed

        return runner

    def dying(task_runner):
        # The server loses power between dispatch and execution: every
        # page of its task comes back failed and takes the engine path.
        def runner(fragment, task):
            runtime.ebp.client.servers[task.server_id].crash()
            return (yield from task_runner(fragment, task))

        return runner

    runtime._run_on_astore = recording("astore", runtime._run_on_astore)
    runtime._run_on_pagestore = recording("pagestore", runtime._run_on_pagestore)
    runtime._run_local = recording("local", runtime._run_local)

    def pushed_rows():
        kind, batch = run(runtime.run_scan(scan))
        assert (kind, batch.keys) == ("batch", expected)
        return sorted(zip(*batch.arrays), key=repr)

    want = sorted(zip(*engine_batch.arrays), key=repr)
    assert pushed_rows() == want  # AStore tasks + buffer-pool pages
    assert runtime.pages_via_ebp > 0 and runtime.pages_local > 0
    runtime._run_on_astore = dying(runtime._run_on_astore)
    assert pushed_rows() == want  # every AStore task fails over
    assert runtime.fallback_pages > 0
    assert pushed_rows() == want  # no AStore server left: PageStore tasks
    assert runtime.pages_via_pagestore > 0

    assert sorted(seen) == ["astore", "fallback", "local", "pagestore"]
    for path, results in seen.items():
        for kind, batch in results:
            assert (kind, batch.keys) == ("batch", expected), path
