"""Tests for the push-down framework: equivalence, task split, fallback."""

import pytest

from repro.common import KB, MB
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.ast import ColumnRef
from repro.query.executor import PAGE_CPU, ROW_CPU
from repro.query.plan import SeqScan
from repro.query.planner import wire_bytes
from repro.sim.resources import CpuPool
from repro.storage.pagestore import APPLY_COST_PER_RECORD


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


def pushdown_count(dep, name):
    """The environment-wide ``query.pushdown.<name>`` count."""
    return dep.obs.registry.value("query.pushdown." + name)


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
    before = {name: pushdown_count(dep, name) for name in (
        "tasks_dispatched", "pages_via_ebp", "pages_via_pagestore")}
    execute(dep, pq, AGG_SQL)
    delta = {name: pushdown_count(dep, name) - n for name, n in before.items()}
    assert delta["tasks_dispatched"] > 0
    assert delta["pages_via_ebp"] + delta["pages_via_pagestore"] > 0


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
    tasks = pushdown_count(dep, "tasks_dispatched")
    execute(dep, pq, AGG_SQL)
    assert pushdown_count(dep, "tasks_dispatched") - tasks == 0


def test_a_local_scan_returns_each_page_as_it_was_when_fetched(monkeypatch):
    """A local scan decodes each page as soon as it is fetched and charged:
    a row a writer updates on page 0 while the scan waits on a later page
    comes back as page 0 held it when fetched."""
    dep = make_db(rows=60)
    engine = dep.engine
    table = engine.catalog.table("facts")
    first, later = (table.page_id(no) for no in list(table.page_nos)[:2])
    assert table.page_id(table.lookup((0,))[0]) == first
    fetched = {}

    def writer():
        txn = engine.begin()
        yield from engine.update(txn, "facts", (0,), {"amount": 9999.0})
        yield from engine.commit(txn)

    fetch = engine.fetch_page

    def fetch_page(page_id):
        if page_id == later:  # the scan waits here while the writer commits
            yield dep.env.process(writer())
            # The writer changed the very page image the scan fetched.
            assert engine.buffer_pool.get(first) is fetched[first]
        page = yield from fetch(page_id)
        fetched[page_id] = page
        return page

    monkeypatch.setattr(engine, "fetch_page", fetch_page)
    local = dep.new_session(enable_pushdown=False)
    sql = "SELECT f_id, amount FROM facts WHERE f_id < 3"
    assert execute(dep, local, sql).rows == [(0, 0.0), (1, 1.0), (2, 2.0)]
    monkeypatch.undo()
    assert execute(dep, local, sql).rows[0] == (0, 9999.0)


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

    names = ("pages_via_ebp", "pages_local", "fallback_pages",
             "pages_via_pagestore")
    before = {name: pushdown_count(dep, name) for name in names}

    def counted(name):
        return pushdown_count(dep, name) - before[name]

    want = sorted(zip(*engine_batch.arrays), key=repr)
    assert pushed_rows() == want  # AStore tasks + buffer-pool pages
    assert counted("pages_via_ebp") > 0 and counted("pages_local") > 0
    runtime._run_on_astore = dying(runtime._run_on_astore)
    assert pushed_rows() == want  # every AStore task fails over
    assert counted("fallback_pages") > 0
    assert pushed_rows() == want  # no AStore server left: PageStore tasks
    assert counted("pages_via_pagestore") > 0

    assert sorted(seen) == ["astore", "fallback", "local", "pagestore"]
    for path, results in seen.items():
        for kind, batch in results:
            assert (kind, batch.keys) == ("batch", expected), path


def test_pushed_rows_keep_the_local_scans_page_order():
    """Buffer-pool pages, AStore tasks and fallback pages all feed one
    result, yet a pushed scan returns exactly the rows a local scan does,
    in the same order - plain and hash-build fragments alike."""
    dep = make_db()
    local = dep.new_session(enable_pushdown=False)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    for sql in ("SELECT f_id FROM facts", FILTER_SQL.split(" ORDER BY")[0]):
        want = execute(dep, local, sql)
        tasks = pushdown_count(dep, "tasks_dispatched")
        pages_local = pushdown_count(dep, "pages_local")
        assert execute(dep, pq, sql).rows == want.rows
        assert pushdown_count(dep, "tasks_dispatched") > tasks
        assert pushdown_count(dep, "pages_local") > pages_local

    def run(generator):
        proc = dep.env.process(generator)
        dep.env.run_until_event(proc)
        return proc.value

    sql = "SELECT f_id, label FROM facts WHERE amount >= 10"
    scan = pq.plan(sql).child
    assert scan.pushdown
    scan.hash_keys = [ColumnRef("f_id")]
    want = run(local._run(local.plan(sql).child))
    keys, batch = run(runtime.run_hash_build(scan))
    assert batch.keys == want.keys and batch.arrays == want.arrays
    assert keys == [(f_id,) for f_id in want.column("facts.f_id")]


def test_shipped_result_bytes_are_the_wire_model_of_each_result():
    """Every dispatched task ships back ``wire_bytes`` of what it returned:
    its rows (groups) over the columns they carry."""
    dep = make_db()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    table = dep.engine.catalog.table("facts")
    sent, returned = [], []
    send = runtime.network.send

    def recording_send(nbytes):
        sent.append(nbytes)
        return (yield from send(nbytes))

    def recording(task_runner):
        def runner(fragment, task):
            result, failed = yield from task_runner(fragment, task)
            returned.append((fragment, result))
            return result, failed

        return runner

    runtime.network.send = recording_send
    runtime._run_on_astore = recording(runtime._run_on_astore)
    runtime._run_on_pagestore = recording(runtime._run_on_pagestore)
    registry = dep.obs.registry
    before = registry.value("query.pushdown.result_bytes")
    execute(dep, pq, FILTER_SQL)
    execute(dep, pq, AGG_SQL)
    scan = pq.plan(FILTER_SQL).child.child
    scan.hash_keys = [ColumnRef("f_id")]
    proc = dep.env.process(runtime.run_hash_build(scan))
    dep.env.run_until_event(proc)

    def positions(batch):
        return [table.schema.position(key.split(".")[1]) for key in batch.keys]

    expected = []
    for fragment, (kind, payload) in returned:
        if kind == "batch":
            shipped = wire_bytes(table, positions(payload), payload.n)
        elif kind == "hash":
            _keys, batch = payload
            shipped = wire_bytes(table, positions(batch), batch.n)
        else:
            keys, samples, _states = payload
            aggregates = len(fragment.partial_agg[1])
            shipped = wire_bytes(
                table, positions(samples), len(keys), aggregates=aggregates
            )
        expected.append(shipped)
    assert {kind for _, (kind, _) in returned} == {"batch", "hash", "partials"}
    assert all(shipped in sent for shipped in expected)
    assert registry.value("query.pushdown.result_bytes") - before == sum(expected)


# ----------------------------------------------------------------------
# Per-core morsels
# ----------------------------------------------------------------------
MORSEL_SQL = "SELECT f_id, label FROM facts WHERE amount >= 10"


def run(dep, generator):
    proc = dep.env.process(generator)
    dep.env.run_until_event(proc)
    return proc.value


def scan_of(session, sql):
    node = session.plan(sql)
    while not isinstance(node, SeqScan):
        node = node.child
    return node


def recording_tasks(runtime, kind="astore"):
    """Wrap ``runtime``'s task runner of ``kind``: every task it runs is
    appended as ``(fragment, task, virtual seconds, failed)``."""
    tasks = []
    attribute = "_run_on_%s" % kind
    task_runner = getattr(runtime, attribute)

    def runner(fragment, task):
        start = runtime.env.now
        result, failed = yield from task_runner(fragment, task)
        tasks.append((fragment, task, runtime.env.now - start, failed))
        return result, failed

    setattr(runtime, attribute, runner)
    return tasks


class PeakPool(CpuPool):
    """A ``CpuPool`` that remembers the most cores it ever had taken."""

    def __init__(self, env, cores):
        super().__init__(env, cores)
        self.peak = 0

    def acquire(self):
        grant = super().acquire()
        self.peak = max(self.peak, self.count)
        return grant


def test_eight_morsels_return_one_cores_result_in_a_quarter_of_the_time():
    """Morsels change how long a task takes, not what it returns or what
    CPU it burns: same rows, page row counts, shipped bytes and
    core-seconds as on a 1-core server, at most a quarter of the time."""
    dep = make_db(rows=600)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    scan = scan_of(pq, MORSEL_SQL)
    tasks = recording_tasks(runtime)
    registry = dep.obs.registry
    seen = {}
    for cores in (1, 8):
        for server in dep.astore.servers.values():
            server.cpu = CpuPool(dep.env, cores)
        result_bytes = registry.value("query.pushdown.result_bytes")
        morsels = registry.value("query.pushdown.morsels")
        del tasks[:]
        kind, batch = run(dep, runtime.run_scan(scan))
        (fragment, task, seconds, failed), = tasks
        assert len(task.pages) >= 64 and not failed
        assert registry.value("query.pushdown.morsels") - morsels == cores
        seen[cores] = (
            seconds,
            (kind, batch.arrays),
            dict(fragment.page_rows),
            registry.value("query.pushdown.result_bytes") - result_bytes,
            dep.astore.servers[task.server_id].cpu.busy_time,
        )
    (one_s, *one), (eight_s, *eight) = seen[1], seen[8]
    assert eight[:3] == one[:3]
    assert eight[3] == pytest.approx(one[3], rel=1e-12)
    assert eight_s <= one_s / 4


def test_a_traced_morsel_is_a_pq_morsel_span_under_its_dispatch():
    """Traced, each morsel is one ``pq.morsel`` span whose parent is its
    task's ``pq.dispatch``, tagged with the server and its page count."""
    dep = make_db(rows=600)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    tracer = dep.obs.enable_tracing(dep.env)
    morsels = dep.obs.registry.value("query.pushdown.morsels")
    run(dep, runtime.run_scan(scan_of(pq, MORSEL_SQL)))
    morsels = dep.obs.registry.value("query.pushdown.morsels") - morsels
    dispatches = {
        span.span_id: span for span in tracer.spans
        if span.name == "pq.dispatch"
    }
    legs = [span for span in tracer.spans if span.name == "pq.morsel"]
    assert dispatches and len(legs) == morsels >= 8
    for dispatch in dispatches.values():
        under = [leg for leg in legs if leg.parent_id == dispatch.span_id]
        assert all(
            leg.tags["server"] == dispatch.tags["server"] for leg in under
        )
        assert sum(leg.tags["pages"] for leg in under) == dispatch.tags["pages"]
        assert all(
            dispatch.start <= leg.start <= leg.end <= dispatch.end
            for leg in under
        )
    assert {leg.parent_id for leg in legs} == set(dispatches)


def test_a_server_dying_mid_task_fails_over_every_morsels_unread_pages():
    """The server crashes while its morsels are reading: each morsel's
    pages not yet read come back failed and take the engine path, and the
    merged rows still equal the local scan's, in page order."""
    dep = make_db(rows=600)
    local = dep.new_session(enable_pushdown=False)
    want = run(dep, local._run(scan_of(local, MORSEL_SQL)))
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    scan = scan_of(pq, MORSEL_SQL)
    tasks = recording_tasks(runtime)
    table = dep.engine.catalog.table("facts")
    entry = next(filter(None, map(runtime.ebp.index.get,
                                  map(table.page_id, table.page_nos))))
    server = dep.astore.servers[runtime._astore_server_of(entry.segment_id)]
    reads = []
    pmem_read = server.pmem.read

    def crashing_read(length):
        yield from pmem_read(length)
        reads.append(length)
        if len(reads) == 12:
            server.crash()

    server.pmem.read = crashing_read
    fallback_pages = pushdown_count(dep, "fallback_pages")
    kind, batch = run(dep, runtime.run_scan(scan))
    fallback_pages = pushdown_count(dep, "fallback_pages") - fallback_pages
    assert (kind, batch.keys, batch.arrays) == ("batch", want.keys, want.arrays)
    (_fragment, task, _seconds, failed), = tasks
    assert 12 <= len(reads) < len(task.pages)
    unread = len(task.pages) - len(reads)
    assert fallback_pages == len(failed) == unread
    # Every morsel read the head of its run and failed the rest: the
    # failed pages form one run per morsel in the task's page order.
    failing = [(pid, spec.lsn) in failed for pid, spec in task.pages]
    runs = sum(
        1 for i, fails in enumerate(failing)
        if fails and (i == 0 or not failing[i - 1])
    )
    assert runs == server.cpu.cores == 8


def test_concurrent_fragments_queue_their_morsels_on_one_servers_cores():
    """Two fragments at once on one server: their morsels share its cores
    FIFO - never more taken than it has - and burn exactly the
    core-seconds of the two run alone."""
    dep = make_db(rows=600)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    scans = [
        scan_of(pq, MORSEL_SQL),
        scan_of(pq, "SELECT f_id, amount FROM facts WHERE dim = 3"),
    ]
    tasks = recording_tasks(runtime)
    servers = list(dep.astore.servers.values())

    def fresh_pools():
        for server in servers:
            server.cpu = PeakPool(dep.env, server.cpu.cores)

    solo = []
    for scan in scans:
        fresh_pools()
        run(dep, runtime.run_scan(scan))
        solo.append(sum(s.cpu.busy_time for s in servers))
    fresh_pools()
    del tasks[:]
    procs = [dep.env.process(runtime.run_scan(scan)) for scan in scans]
    for proc in procs:
        dep.env.run_until_event(proc)
    (_, first, _, _), (_, second, _, _) = tasks
    assert first.server_id == second.server_id
    pool = dep.astore.servers[first.server_id].cpu
    busy = sum(s.cpu.busy_time for s in servers)
    assert busy == pytest.approx(sum(solo), rel=1e-12)
    assert pool.peak == pool.cores == 8
    assert pool.count == 0


def test_morsels_add_no_catch_up_of_a_pagestore_segment():
    """A pushed PageStore task catches each of its segments up serially,
    in page order, before its morsels read: every record its server
    applies is charged ``APPLY_COST_PER_RECORD`` exactly once."""
    dep = make_db(rows=600)
    engine = dep.engine

    def update_and_ship(env):
        txn = engine.begin()
        for f_id in range(0, 600, 3):
            yield from engine.update(txn, "facts", (f_id,), {"amount": 1.0})
        yield from engine.commit(txn)
        yield from engine.ship_through(engine.log.persistent_lsn, "read")

    run(dep, update_and_ship(dep.env))
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    runtime.ebp = None  # no EBP copy to read: every task goes to PageStore
    scan = scan_of(pq, MORSEL_SQL)
    tasks = recording_tasks(runtime, "pagestore")
    servers = dep.pagestore.servers
    pending = {
        server.server_id: {
            segment_no: len(replica.to_apply)
            for segment_no, replica in server.replicas.items()
        }
        for server in servers
    }
    busy = {server.server_id: server.cpu.busy_time for server in servers}
    morsels = dep.obs.registry.value("query.pushdown.morsels")
    run(dep, runtime.run_scan(scan))
    morsels = dep.obs.registry.value("query.pushdown.morsels") - morsels
    assert morsels >= 2 * len(tasks)
    segment_of = dep.pagestore.segment_of
    for _fragment, task, _seconds, failed in tasks:
        server = next(s for s in servers if s.server_id == task.server_id)
        segments = {segment_of(page_id) for page_id, _ in task.pages}
        # The background apply daemon catches other segments up meanwhile:
        # count every record the server applied.
        before = pending[server.server_id]
        applied = sum(
            before.get(segment_no, 0) - len(replica.to_apply)
            for segment_no, replica in server.replicas.items()
        )
        rows = sum(
            server.replicas[segment_of(page_id)].pages[page_id].row_count
            for page_id, _ in task.pages
        )
        assert len(segments) >= 2 and applied > 0 and not failed
        assert server.cpu.busy_time - busy[server.server_id] == pytest.approx(
            APPLY_COST_PER_RECORD * applied
            + PAGE_CPU * len(task.pages)
            + ROW_CPU * rows,
            rel=1e-12,
        )
