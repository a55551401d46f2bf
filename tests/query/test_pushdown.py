"""Tests for the push-down framework: equivalence, task split, fallback."""

import pytest

from repro.common import KB, MB, US, StorageError
from repro.cost import APPLY_COST_PER_RECORD, FORMULAS, PAGE_CPU, ROW_CPU
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query import executor, pushdown
from repro.query.ast import ColumnRef
from repro.query.plan import SeqScan
from repro.query.planner import wire_bytes
from repro.sim.resources import CpuPool


#: ``make_db(star=True)``'s dimension tables, loaded before ``facts``:
#: ``facts.dim`` references ``dims.d_id``, ``dims.kind`` ``kinds.k_id``.
STAR = (
    ("dims", [Column("d_id", INT()), Column("kind", INT()),
              Column("pad", VARCHAR(2100))], 7, lambda i: [i, i % 3]),
    ("kinds", [Column("k_id", INT()), Column("k_name", VARCHAR(8)),
               Column("pad", VARCHAR(2100))], 3, lambda i: [i, "K%d" % i]),
)


def make_db(rows=300, bp_pages=16, star=False):
    """A PQ deployment with a tiny buffer pool so most pages live in EBP;
    with ``star``, the ``STAR`` tables too, their pages evicted by the
    ``facts`` load."""
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

    for name, columns, _, _ in STAR if star else ():
        engine.create_table(name, Schema(columns), [columns[0].name])

    def load(env):
        txn = engine.begin()
        for name, _, count, values in STAR if star else ():
            for i in range(count):
                yield from engine.insert(txn, name, values(i) + ["p" * 2048])
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


def current_copy(dep, page_id):
    """Whether ``page_id`` has an EBP copy at its latest LSN."""
    entry = dep.engine.ebp.index.get(page_id)
    return entry is not None and entry.lsn >= dep.engine.page_versions.get(
        page_id, 0)


def resident_pages(dep):
    """The ``facts`` pages in the engine's buffer pool, in page order."""
    engine = dep.engine
    table = engine.catalog.table("facts")
    return [page_id for page_id in map(table.page_id, table.page_nos)
            if page_id in engine.buffer_pool]


def update_a_resident_row(dep, amount=None):
    """Update, through the engine, the first row of the first resident
    ``facts`` page with a current EBP copy: its ``amount`` becomes
    ``amount`` (by default the value it holds, so no row changes).  The
    page's LSN moves past the copy, whose index entry goes, so a pushed
    scan must scan that page on the engine thread.  Returns ``(page id,
    f_id)``."""
    engine = dep.engine
    table = engine.catalog.table("facts")
    page_id = next(pid for pid in resident_pages(dep) if current_copy(dep, pid))
    _slot, row = next(iter(engine.buffer_pool.peek(page_id).slots()))
    f_id, _dim, _label, held, _pad = table.schema.decode(row)

    def update():
        txn = engine.begin()
        yield from engine.update(
            txn, "facts", (f_id,), {"amount": held if amount is None else amount}
        )
        yield from engine.commit(txn)

    run(dep, update())
    assert page_id in engine.buffer_pool and not current_copy(dep, page_id)
    return page_id, f_id


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
    on a PageStore server, over dirty buffer-pool pages and over fallback
    pages - all return the planner's projected columns, in schema order,
    and nothing else."""
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
    update_a_resident_row(dep)  # a page only the engine thread can scan
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
    """Engine-thread pages, AStore tasks and fallback pages all feed one
    result, yet a pushed scan returns exactly the rows a local scan does,
    in the same order - plain and hash-build fragments alike."""
    dep = make_db()
    local = dep.new_session(enable_pushdown=False)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    for sql in ("SELECT f_id FROM facts", FILTER_SQL.split(" ORDER BY")[0]):
        want = execute(dep, local, sql)
        update_a_resident_row(dep)  # a page only the engine thread can scan
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


def test_a_pagestore_task_adds_only_its_own_charges():
    """Each replica pays ``APPLY_COST_PER_RECORD`` once for every record
    it chains, in the ship that delivered it; a pushed PageStore task that
    then reads those segments, as per-core morsels, adds only its page
    and row CPU - no apply of its own."""
    dep = make_db(rows=600)
    engine = dep.engine
    servers = dep.pagestore.servers
    legs = {server.server_id: 0 for server in servers}
    chained = {server.server_id: 0 for server in servers}

    def counting(server):
        receive = server.receive_records

        def receive_records(segment_no, records):
            replica = server.replica(segment_no)
            history = len(replica.history)
            yield from receive(segment_no, records)
            legs[server.server_id] += 1
            chained[server.server_id] += len(replica.history) - history

        server.receive_records = receive_records

    for server in servers:
        counting(server)
    busy = {server.server_id: server.cpu.busy_time for server in servers}

    def update_and_ship(env):
        txn = engine.begin()
        for f_id in range(0, 600, 3):
            yield from engine.update(txn, "facts", (f_id,), {"amount": 1.0})
        yield from engine.commit(txn)
        yield from engine.ship_through(engine.log.persistent_lsn, "read")

    run(dep, update_and_ship(dep.env))
    dep.run_for(0.01)  # the ship's stragglers land
    ships = dep.pagestore.ships
    for server in servers:
        sid = server.server_id
        # A healthy ship chains every record it delivers: per leg the
        # receive charge, per record its share of it and one apply.
        assert chained[sid] > 0
        assert server.cpu.busy_time - busy[sid] == pytest.approx(
            5 * US * legs[sid]
            + (0.2 * US + APPLY_COST_PER_RECORD) * chained[sid],
            rel=1e-9,
        )
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    runtime.ebp = None  # no EBP copy to read: every task goes to PageStore
    scan = scan_of(pq, MORSEL_SQL)
    tasks = recording_tasks(runtime, "pagestore")
    busy = {server.server_id: server.cpu.busy_time for server in servers}
    morsels = dep.obs.registry.value("query.pushdown.morsels")
    run(dep, runtime.run_scan(scan))
    assert dep.pagestore.ships == ships
    morsels = dep.obs.registry.value("query.pushdown.morsels") - morsels
    assert morsels >= 2 * len(tasks)
    segment_of = dep.pagestore.segment_of
    for _fragment, task, _seconds, failed in tasks:
        server = next(s for s in servers if s.server_id == task.server_id)
        segments = {segment_of(page_id) for page_id, _ in task.pages}
        rows = sum(
            server.replicas[segment_of(page_id)].pages[page_id].row_count
            for page_id, _ in task.pages
        )
        assert len(segments) >= 2 and not failed
        assert server.cpu.busy_time - busy[server.server_id] == pytest.approx(
            PAGE_CPU * len(task.pages) + ROW_CPU * rows, rel=1e-12,
        )


# ----------------------------------------------------------------------
# Routing: a page goes where a current copy sits
# ----------------------------------------------------------------------
def recording_legs(runtime):
    """Wrap ``runtime._run_local``: every engine-thread leg it runs is
    appended as ``(via_engine, [page id])``."""
    legs = []
    run_local = runtime._run_local

    def runner(fragment, page_specs, via_engine=False):
        legs.append((via_engine, [page_id for page_id, _ in page_specs]))
        return (yield from run_local(fragment, page_specs, via_engine))

    runtime._run_local = runner
    return legs


def pushed_pages(tasks):
    """The page ids of every recorded task."""
    return {page_id for _, task, _, _ in tasks for page_id, _ in task.pages}


def test_a_clean_resident_page_with_a_current_copy_runs_on_its_astore_server():
    """A buffer-pool page whose EBP copy is at its latest LSN joins its
    AStore server's task: counted in ``pages_via_ebp``, not
    ``pages_local``, no engine-thread leg runs, and the pushed rows equal
    a local scan's, in order."""
    dep = make_db()
    local = dep.new_session(enable_pushdown=False)
    want = run(dep, local._run(scan_of(local, MORSEL_SQL)))
    resident = resident_pages(dep)
    assert resident and all(current_copy(dep, pid) for pid in resident)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    tasks = recording_tasks(runtime)
    legs = recording_legs(runtime)
    names = ("pages_via_ebp", "pages_local", "pages_via_pagestore")
    before = {name: pushdown_count(dep, name) for name in names}
    kind, batch = run(dep, runtime.run_scan(scan_of(pq, MORSEL_SQL)))
    assert (kind, batch.keys, batch.arrays) == ("batch", want.keys, want.arrays)
    assert legs == []
    assert set(resident) <= pushed_pages(tasks)
    counted = {name: pushdown_count(dep, name) - before[name] for name in names}
    assert counted == {
        "pages_via_ebp": len(pushed_pages(tasks)),
        "pages_local": 0,
        "pages_via_pagestore": 0,
    }


def test_a_resident_page_changed_after_its_ebp_write_stays_on_the_engine_thread():
    """A logged change moves a resident page past its EBP copy: that page
    alone is scanned on the engine thread, and the pushed scan returns the
    new value."""
    dep = make_db()
    local = dep.new_session(enable_pushdown=False)
    run(dep, local._run(scan_of(local, MORSEL_SQL)))  # resident pages get copies
    page_id, f_id = update_a_resident_row(dep, amount=9999.0)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    tasks = recording_tasks(runtime)
    legs = recording_legs(runtime)
    pages_local = pushdown_count(dep, "pages_local")
    sql = "SELECT f_id, amount FROM facts WHERE amount >= 9000"
    assert execute(dep, pq, sql).rows == [(f_id, 9999.0)]
    assert tasks and page_id not in pushed_pages(tasks)
    assert legs == [(False, [page_id])]
    assert pushdown_count(dep, "pages_local") - pages_local == 1


@pytest.mark.parametrize("crash", ["before_dispatch", "after_dispatch"])
def test_a_resident_page_whose_copys_server_is_down_is_read_by_the_engine(crash):
    """A clean resident page's copy sits on a crashed server.  Crashed
    before dispatch, the page is scanned on the engine thread; crashed
    once its task is dispatched, the task fails it and the page comes back
    through the fallback path.  The rows equal a local scan's, in order,
    either way."""
    dep = make_db()
    local = dep.new_session(enable_pushdown=False)
    want = run(dep, local._run(scan_of(local, MORSEL_SQL)))
    page_id = resident_pages(dep)[0]
    assert current_copy(dep, page_id)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    entry = runtime.ebp.index.get(page_id)
    segment_id = entry.segment_id
    server_id = runtime._astore_server_of(segment_id)
    server = dep.astore.servers[server_id]
    assert runtime.ebp.client.open_segments[segment_id].route.replicas == [
        server_id]
    run_on_astore = runtime._run_on_astore

    def dying(fragment, task):
        if task.server_id == server_id:
            server.crash()
        return (yield from run_on_astore(fragment, task))

    if crash == "before_dispatch":
        server.crash()
    else:
        runtime._run_on_astore = dying
    tasks = recording_tasks(runtime)
    legs = recording_legs(runtime)
    kind, batch = run(dep, runtime.run_scan(scan_of(pq, MORSEL_SQL)))
    assert (kind, batch.keys, batch.arrays) == ("batch", want.keys, want.arrays)
    scanned = {via_engine: pages for via_engine, pages in legs}
    if crash == "before_dispatch":
        assert page_id in scanned[False] and True not in scanned
        assert server_id not in {task.server_id for _, task, _, _ in tasks}
    else:
        assert False not in scanned and page_id in scanned[True]
        (_, _, _, failed), = [
            t for t in tasks if t[1].server_id == server_id]
        assert (page_id, entry.lsn) in failed


def test_a_pushed_read_of_a_copy_that_is_not_its_page_drops_its_entry():
    """A resident page's EBP slot is overwritten with another page's copy:
    the first pushed scan's read fails it and the page takes the fallback;
    the read dropped the index entry, as an engine read through the EBP
    does, so the second scan sends the page to no AStore task and scans it
    on the engine thread, with no fallback.  Both return the local scan's
    rows."""
    dep = make_db()
    local = dep.new_session(enable_pushdown=False)
    want = run(dep, local._run(scan_of(local, MORSEL_SQL)))
    page_id = resident_pages(dep)[0]
    assert current_copy(dep, page_id)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    entry = runtime.ebp.index.get(page_id)
    server = dep.astore.servers[runtime._astore_server_of(entry.segment_id)]
    entries = server.segments[entry.segment_id].entries
    stored = entries[entry.offset]
    other = next(e for e in entries.values() if e is not stored
                 and e.payload[1] != page_id)
    entries[entry.offset] = type(stored)(stored.offset, stored.length,
                                         other.payload)
    tasks = recording_tasks(runtime)
    legs = recording_legs(runtime)
    scans = []
    for _ in range(2):
        del tasks[:], legs[:]
        fallback_pages = pushdown_count(dep, "fallback_pages")
        kind, batch = run(dep, runtime.run_scan(scan_of(pq, MORSEL_SQL)))
        assert (kind, batch.keys, batch.arrays) == (
            "batch", want.keys, want.arrays)
        scans.append((pushed_pages(tasks), list(legs),
                      pushdown_count(dep, "fallback_pages") - fallback_pages))
    (first_pushed, first_legs, first_fallback), second = scans
    assert page_id in first_pushed and first_fallback == 1
    assert first_legs == [(True, [page_id])]
    assert runtime.ebp.index.get(page_id) is None
    assert page_id not in second[0]
    assert second[1:] == ([(False, [page_id])], 0)


# ----------------------------------------------------------------------
# A hash join's build CPU, paid while a pushed scan's tasks run
# ----------------------------------------------------------------------
JOIN_SQL = (
    "SELECT facts.f_id, dims.kind FROM facts "
    "JOIN dims ON facts.dim = dims.d_id"
)
STAR_SQL = (
    "SELECT facts.f_id, kinds.k_name FROM facts "
    "JOIN dims ON facts.dim = dims.d_id JOIN kinds ON dims.kind = kinds.k_id"
)
BUILT = ("query.join.rows_built", "query.join.rows_built_overlapped")


def recording_scans(runtime):
    """Wrap ``runtime``'s pushed scans: each appends ``(binding, owed,
    virtual seconds, engine CPU seconds)`` to the returned list.  A chain
    scan's ``offered`` passes through."""
    scans = []
    cpu = runtime.engine.cpu
    for name in ("run_scan", "run_chain_scan", "run_hash_build"):
        def recorded(scan, filters=(), owed=0, *offered,
                     method=getattr(runtime, name)):
            start, busy = runtime.env.now, cpu.busy_time
            result = yield from method(scan, filters, owed, *offered)
            scans.append((scan.binding, owed, runtime.env.now - start,
                          cpu.busy_time - busy))
            return result
        setattr(runtime, name, recorded)
    return scans


def timed_query(dep, session, sql):
    """Run ``sql``: its result, virtual seconds, engine CPU seconds and the
    ``BUILT`` counts' deltas."""
    registry, cpu = dep.obs.registry, dep.engine.cpu
    counts = [registry.value(name) for name in BUILT]
    start, busy = dep.env.now, cpu.busy_time
    result = execute(dep, session, sql)
    return (result, dep.env.now - start, cpu.busy_time - busy,
            [registry.value(name) - n for name, n in zip(BUILT, counts)])


def test_a_builds_cpu_is_paid_while_its_pushed_probe_scan_waits(monkeypatch):
    """The join's build is owed until its probe; its pushed probe scan pays
    it on the engine thread between dispatching its tasks and waiting for
    them.  The query gets faster by the build charge or by the engine's
    wait, whichever is less; the engine burns the same CPU."""
    runs = {}
    for settled in (False, True):
        dep = make_db(star=True)
        pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
        scans = recording_scans(pq.pushdown_runtime)
        with monkeypatch.context() as patch:
            if not settled:
                # No scan takes a build: each is charged at its probe.
                patch.setattr(executor, "_settle_builds", lambda owed: 0)
            runs[settled] = timed_query(dep, pq, JOIN_SQL), scans
    (want, before, cpu_before, counts_before), scans_before = runs[False]
    (got, after, cpu_after, (built, overlapped)), scans_after = runs[True]
    assert (got.columns, got.rows) == (want.columns, want.rows)
    assert counts_before == [built, 0] and built == 7
    assert [(b, owed) for b, owed, _, _ in scans_after] == [
        ("dims", 0), ("facts", built)]
    _, _, probe_s, probe_cpu_s = scans_before[-1]
    wait = probe_s - probe_cpu_s
    build = FORMULAS["join"](built, 0, None, 0.0)
    assert wait > 0
    assert before - after == pytest.approx(min(build, wait), abs=1e-12)
    assert cpu_after == pytest.approx(cpu_before, abs=1e-12)
    assert overlapped == built


def test_an_upper_joins_build_rides_the_lower_joins_pushed_build_scan():
    """Builds run top-down: the upper join's build is in hand before the
    lower join scans its build side, whose pushed scan pays it; the lower
    join's build rides its own probe scan."""
    dep = make_db(star=True)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    local = dep.new_session(enable_pushdown=False)
    scans = recording_scans(pq.pushdown_runtime)
    got, _, _, (built, overlapped) = timed_query(dep, pq, STAR_SQL)
    want = execute(dep, local, STAR_SQL)
    assert sorted(got.rows) == sorted(want.rows) and got.rows
    kinds, dims = 3, 7
    assert [(b, owed) for b, owed, _, _ in scans] == [
        ("kinds", 0), ("dims", kinds), ("facts", dims)]
    assert built == overlapped == kinds + dims


def test_a_probe_side_that_raises_leaves_nothing_owed():
    """The lower join's build scan fails with the upper join's build owed:
    what a statement owes dies with it, so the session's next query runs
    as on a fresh session of a same-seed deployment that failed the same
    way."""
    runs = []
    for fresh in (False, True):
        dep = make_db(star=True)
        # facts is pushed; dims and kinds scan on the engine thread.
        pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=8)
        dims = dep.engine.catalog.table("dims")
        armed = {dims.page_id(no) for no in dims.page_nos}
        fetch = dep.engine.fetch_page

        def failing(page_id, *args, **kwargs):
            if page_id in armed:
                armed.clear()
                raise StorageError("dims page unreadable")
            return (yield from fetch(page_id, *args, **kwargs))

        dep.engine.fetch_page = failing
        with pytest.raises(StorageError):
            execute(dep, pq, STAR_SQL)
        assert not armed
        session = (
            dep.new_session(enable_pushdown=True, pushdown_row_threshold=8)
            if fresh else pq
        )
        result, seconds, _, counts = timed_query(dep, session, STAR_SQL)
        runs.append((result.rows, seconds, counts))
    assert runs[0] == runs[1]
    assert runs[0][2] == [10, 10]


# ----------------------------------------------------------------------
# The probe runs where its scan runs
# ----------------------------------------------------------------------
def recording_charges(monkeypatch):
    """Record every ``repro.cost.charge`` the executor and the push-down
    runtime make, as ``(cpu, kind, rows)``."""
    charged = []
    for module in (executor, pushdown):
        def charge(cpu, kind, rows=0, *args, original=module.charge, **kw):
            charged.append((cpu, kind, rows))
            return original(cpu, kind, rows, *args, **kw)
        monkeypatch.setattr(module, "charge", charge)
    return charged


def test_a_qualifying_joins_probe_is_charged_to_the_astore_cores(monkeypatch):
    """dims' built table costs less to ship than the facts rows the pushed
    scan would return, so facts' fragment carries it: the AStore cores pay
    ``ROW_CPU`` for every row their morsels probe, the engine thread pays
    only dims' build (while facts' tasks run) and no probe, and the rows
    are the local plan's, in order."""
    dep = make_db(star=True)
    want = execute(dep, dep.new_session(enable_pushdown=False), JOIN_SQL)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    registry = dep.obs.registry
    names = ("query.join.rows_probed", "query.join.rows_probed_storage")
    before = [registry.value(name) for name in names]
    charged = recording_charges(monkeypatch)
    got = execute(dep, pq, JOIN_SQL)
    assert (got.columns, got.rows) == (want.columns, want.rows)
    probed, on_storage = (
        registry.value(name) - then for name, then in zip(names, before))
    assert probed == on_storage == 300
    engine = dep.engine.cpu
    assert [rows for cpu, kind, rows in charged
            if cpu is engine and kind == "join"] == [7]
    cores = [server.cpu for server in dep.astore.servers.values()]
    storage = [(kind, rows) for cpu, kind, rows in charged
               if any(cpu is pool for pool in cores)]
    probes = [rows for kind, rows in storage if kind == "join"]
    assert sum(probes) == probed and len(probes) > 1
    assert sum(FORMULAS["join"](rows, 0, None, 0.0) for rows in probes) == (
        pytest.approx(ROW_CPU * probed, rel=1e-12))
    assert {kind for kind, _ in storage} == {"task", "join"}


def test_a_probe_whose_table_costs_more_than_the_scan_stays_on_the_engine(
    monkeypatch,
):
    """Priced above the facts rows (each of the scan's tasks would carry
    the table), dims' table stays behind: the engine probes every row and
    no storage core pays a probe."""
    dep = make_db(star=True)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    monkeypatch.setattr(executor, "fragment_wire_bytes",
                        lambda *args: 10 ** 9)
    registry = dep.obs.registry
    before = registry.value("query.join.rows_probed_storage")
    charged = recording_charges(monkeypatch)
    execute(dep, pq, JOIN_SQL)
    assert registry.value("query.join.rows_probed_storage") == before
    engine = dep.engine.cpu
    assert [rows for cpu, kind, rows in charged
            if cpu is engine and kind == "join"] == [7, 300]
    assert all(kind != "join" for cpu, kind, _ in charged if cpu is not engine)
