"""Runtime key filters: a hash join's build side filters its probe side.

Every hash join builds first; the planner names the one scan of its probe
subtree that produces all its probe keys (``HashJoin.runtime_filter``), and
that scan drops the rows whose key no build row has - in its selection step
on the engine, inside its fragment when pushed.  A filter changes which
rows reach the probe, never what a query returns.
"""

import copy

import pytest

from repro.query import kernels, pushdown
from repro.query.ast import ColumnRef
from repro.query.columnar import ColumnBatch
from repro.query.executor import RuntimeFilter
from repro.query.plan import HashJoin, PlanNode, explain
from repro.workloads.tpcch import ch_query_sql

from .row_oracle import RowOracle, assert_parity, execute
from .test_columnar import ch_dep  # noqa: F401 - the CH database fixture
from .test_oracle_parity import small_db
from .test_pushdown import make_db, recording_tasks, run, scan_of


def cleared(plan):
    """A copy of ``plan`` with every hash join's runtime filter taken off."""
    plan = copy.deepcopy(plan)
    pending = [plan]
    while pending:
        node = pending.pop()
        if isinstance(node, HashJoin):
            node.runtime_filter = None
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                pending.append(child)
    return plan


def targets(plan):
    """``(target binding, build binding)`` of every planned filter, sorted."""
    found = []
    pending = [plan]
    while pending:
        node = pending.pop()
        if isinstance(node, HashJoin) and node.runtime_filter is not None:
            found.append((node.runtime_filter, node.right.binding))
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                pending.append(child)
    return sorted(found)


COUNTERS = (
    "query.join.rows_probed",
    "query.pushdown.result_bytes",
    "query.runtime_filter.derived",
    "query.runtime_filter.rows_dropped.engine",
    "query.runtime_filter.rows_dropped.storage",
    "query.runtime_filter.bytes_shipped",
)


def counted(dep, session, plan):
    """Run ``plan``; returns its result and the counters' deltas, by last
    name component (``result_bytes`` 0 without push-down)."""
    registry = dep.obs.registry

    def values():
        return [registry.value(name) if name in registry else 0
                for name in COUNTERS]

    before = values()
    result = run(dep, session.execute_plan(plan))
    return result, {
        name.rpartition(".")[2]: value - then
        for name, value, then in zip(COUNTERS, values(), before)
    }


def test_counters_are_registered_at_zero():
    dep = small_db()
    dep.new_session()
    for name in COUNTERS:
        assert dep.obs.registry.value(name) == 0, name


# ---------------------------------------------------------------------------
# CH queries: same rows, fewer probe rows, fewer shipped bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_no", [5, 7, 11])
def test_ch_joins_return_the_unfiltered_plans_rows_probing_fewer(
    ch_dep, query_no  # noqa: F811
):
    session = ch_dep.new_session(enable_pushdown=True, force_hash_joins=True)
    plan = session.plan(ch_query_sql(query_no))
    assert targets(plan) and not targets(cleared(plan))
    want, unfiltered = counted(ch_dep, session, cleared(plan))
    got, filtered = counted(ch_dep, session, plan)
    assert (got.columns, got.rows) == (want.columns, want.rows)
    assert filtered["rows_probed"] < unfiltered["rows_probed"]
    assert filtered["result_bytes"] <= unfiltered["result_bytes"]
    assert filtered["derived"] == len(targets(plan))
    assert unfiltered["derived"] == 0
    dropped = filtered["engine"] + filtered["storage"]
    assert dropped > 0 and unfiltered["engine"] == unfiltered["storage"] == 0


#: Five of dims' seven wide rows build, too many to ship with facts' scan:
#: the join probes on the engine, and dims' key set travels instead.
PRICED_OUT_SQL = (
    "SELECT facts.f_id, dims.pad FROM facts "
    "JOIN dims ON facts.dim = dims.d_id WHERE dims.kind <= 1"
)


def test_a_pushed_probe_scan_ships_fewer_result_bytes():
    # facts' scan is pushed and dims' table is priced out of its fragment:
    # dims' key set travels with it and the rows it drops never cross the
    # wire.
    dep = make_db(star=True)
    session = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    plan = session.plan(PRICED_OUT_SQL)
    assert "[PUSHDOWN, runtime-filter<-dims]" in explain(plan)
    storage_probes = dep.obs.registry.value("query.join.rows_probed_storage")
    _, unfiltered = counted(dep, session, cleared(plan))
    _, filtered = counted(dep, session, plan)
    assert filtered["result_bytes"] < unfiltered["result_bytes"]
    assert filtered["storage"] > 0 and filtered["bytes_shipped"] > 0
    assert dep.obs.registry.value(
        "query.join.rows_probed_storage") == storage_probes


def test_a_shipped_table_drops_on_storage_what_its_key_set_would(
    ch_dep, monkeypatch  # noqa: F811
):
    # Q5's order_line scan is pushed.  Held on the engine, its probes leave
    # the filtering to stock's key set, which travels with the scan: the
    # rows it drops never cross the wire.  Priced as usual, all three
    # tables ship with the scan instead (stock's carries its key set), and
    # the storage probe drops those rows whether or not the key set
    # filters them first: the scan ships its joined rows' groups, the same
    # bytes filtered or not, and fewer than the filtered rows held back.
    session = ch_dep.new_session(enable_pushdown=True, force_hash_joins=True)
    plan = session.plan(ch_query_sql(5))
    assert "[PUSHDOWN, runtime-filter<-stock]" in explain(plan)
    with monkeypatch.context() as patch:
        patch.setattr(pushdown, "shipped_probes", lambda *args: 0)
        _, unfiltered = counted(ch_dep, session, cleared(plan))
        _, filtered = counted(ch_dep, session, plan)
    assert filtered["result_bytes"] < unfiltered["result_bytes"]
    assert filtered["storage"] > 0 and filtered["bytes_shipped"] > 0
    _, shipped_unfiltered = counted(ch_dep, session, cleared(plan))
    _, shipped = counted(ch_dep, session, plan)
    assert shipped["result_bytes"] == shipped_unfiltered["result_bytes"]
    assert shipped["result_bytes"] < filtered["result_bytes"]
    assert shipped["storage"] > 0 and shipped["bytes_shipped"] == 0


def test_ch_filters_keep_oracle_parity(ch_dep):  # noqa: F811
    for query_no in (5, 7, 9, 11, 21):
        assert_parity(ch_dep, ch_query_sql(query_no), query_no)


# ---------------------------------------------------------------------------
# NULL keys and the chain, on the small NULL / composite-key database
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def db():
    return small_db()


NULL_SQL = {
    # a.x is NULL twice (probe side), b.y twice (build side).
    "either side": "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y",
    # Composite keys with a NULL component on both sides, (NULL, 2) and
    # (NULL, 4) among them: only (5, 1) matches.
    "composite": "SELECT a.id, b.tag FROM a JOIN b ON a.x = b.y AND a.id = b.id",
    # d's composite-key rows probe c: (1, NULL) against (3, NULL).
    "composite key": "SELECT d.w, d.n, c.cid FROM d JOIN c ON d.w = c.b_id AND d.v = c.z",
}


@pytest.mark.parametrize("case", sorted(NULL_SQL))
def test_null_keys_never_pass_a_filter(db, case):
    sql = NULL_SQL[case]
    session = db.new_session(enable_pushdown=False, force_hash_joins=True)
    plan = session.plan(sql)
    assert len(targets(plan)) == 1
    want, _ = counted(db, session, cleared(plan))
    got, filtered = counted(db, session, plan)
    assert (got.columns, got.rows) == (want.columns, want.rows)
    assert filtered["engine"] > 0
    assert_parity(db, sql)


def test_a_null_probe_key_passes_no_key_set():
    # Even a key set holding a NULL component (a build side the probe side
    # could not be NULL against) does not match a NULL.
    batch = ColumnBatch(("t.k", "t.j"), [[1, None, 3, None], [1, 2, 3, 4]])
    keys = {(1, 1): 0, (None, 2): 1, (3, 3): 2, (None, 4): 3}
    probes = [([ColumnRef("k"), ColumnRef("j")], keys)]
    assert kernels.semi_join(batch, probes) == [0, 2]
    assert kernels.semi_join(batch, probes + [([ColumnRef("j")], {(3,)})]) == [2]
    typed = ColumnBatch(batch.keys, batch.arrays[:1] + [[1, 2, 3, 4]],
                        nullable=(True, False))
    assert kernels.semi_join(typed, [([ColumnRef("j")], {(2,), (4,)})]) == [1, 3]


CHAIN_SQL = ("SELECT c.cid, b.tag, a.name FROM c JOIN b ON b.id = c.b_id "
             "JOIN a ON a.x = b.y ORDER BY c.cid")


def test_a_filtered_build_filters_a_lower_probe_scan(db):
    """Q7's shape: ``a`` filters the build side ``b``, and the rows of ``b``
    left then filter the scan of ``c`` below."""
    session = db.new_session(enable_pushdown=False, force_hash_joins=True)
    plan = session.plan(CHAIN_SQL)
    assert targets(plan) == [("b", "a"), ("c", "b")]
    text = explain(plan)
    assert "SeqScan(b as b) cols=3/3 [runtime-filter<-a]" in text
    assert "SeqScan(c as c) cols=2/3 [runtime-filter<-b]" in text
    want, unfiltered = counted(db, session, cleared(plan))
    got, filtered = counted(db, session, plan)
    assert (got.columns, got.rows) == (want.columns, want.rows)
    assert got.rows == [(10, "u", "p"), (10, "u", "t"), (13, "y", "r")]
    # a.x is {5, 7}: b keeps ids 1 and 5 of five, so c keeps b_id 1 and 5,
    # two of four - c's two rows under b_id 3 go although b.id 3 exists.
    assert filtered["engine"] == 3 + 2
    # Probed: c's rows into the b join, then its output into the a join.
    assert unfiltered["rows_probed"] == 4 + 4
    assert filtered["rows_probed"] == 2 + 2
    assert filtered["derived"] == 2
    assert_parity(db, CHAIN_SQL)


def test_the_oracle_applies_the_same_filters(db):
    oracle = RowOracle(db.engine, force_hash_joins=True)
    session = db.new_session(enable_pushdown=False, force_hash_joins=True)
    for sql in sorted(NULL_SQL.values()) + [CHAIN_SQL]:
        want = execute(db, oracle, sql)
        got = execute(db, session, sql)
        assert (got.columns, got.rows) == (want.columns, want.rows), sql


def test_no_filter_reaches_through_a_non_bare_key_or_an_nl_join(db):
    session = db.new_session(enable_pushdown=False, force_hash_joins=True)
    computed = session.plan(
        "SELECT a.id FROM a JOIN b ON a.x + 1 = b.id"
    )
    assert targets(computed) == []
    # The planner's own joins: c probes b's primary key by index, and the
    # hash join above cannot see through that IndexNLJoin to b or c.
    planner = db.new_session(enable_pushdown=False, force_hash_joins=False)
    nested = planner.plan(
        "SELECT a.name FROM c JOIN b ON b.id = c.b_id JOIN a ON a.x = b.y"
    )
    assert "IndexNLJoin" in explain(nested) and targets(nested) == []


# ---------------------------------------------------------------------------
# Push-down: the fragment carries the key set
# ---------------------------------------------------------------------------

DIM_SQL = "SELECT f_id, dim, label FROM facts WHERE amount >= 10"


def dim_filter(keys, wire=100):
    """A runtime filter keeping the facts rows whose ``dim`` is in ``keys``."""
    return RuntimeFilter(
        [ColumnRef("dim")], {(key,): None for key in keys}, wire, "dims"
    )


def filtered_local(dep, sql, keys):
    """The rows of ``sql``'s scan that a local scan keeps under the filter."""
    local = dep.new_session(enable_pushdown=False)
    scan = scan_of(local, sql)
    return run(dep, local._run(scan, {"facts": (dim_filter(keys),)}))


def test_a_server_dying_mid_task_filters_its_fallback_pages_too():
    dep = make_db(rows=600)
    want = filtered_local(dep, DIM_SQL, {3, 4})
    assert 0 < want.n < 600
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    runtime = pq.pushdown_runtime
    scan = scan_of(pq, DIM_SQL)
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
    registry = dep.obs.registry
    names = ("query.runtime_filter.rows_dropped.storage",
             "query.runtime_filter.rows_dropped.engine")
    before = [registry.value(name) for name in names]
    fallback_pages = registry.value("query.pushdown.fallback_pages")
    kind, batch = run(dep, runtime.run_scan(scan, (dim_filter({3, 4}),)))
    fallback_pages = registry.value("query.pushdown.fallback_pages") - fallback_pages
    assert (kind, batch.keys, batch.arrays) == ("batch", want.keys, want.arrays)
    (fragment, task, _seconds, failed), = tasks
    assert failed and fallback_pages >= len(failed)
    assert [f.build for f in fragment.runtime_filters] == ["dims"]
    storage, engine = (registry.value(n) - b for n, b in zip(names, before))
    assert storage > 0 and engine > 0


def test_the_wire_guard_keeps_an_oversized_key_set_home():
    dep = make_db(rows=300)
    pq = dep.new_session(enable_pushdown=True)
    runtime = pq.pushdown_runtime
    scan = scan_of(pq, DIM_SQL)
    assert scan.pushdown and scan.wire is not None
    recorded = [recording_tasks(runtime, kind) for kind in ("astore", "pagestore")]
    registry = dep.obs.registry
    unfiltered = run(dep, runtime.run_scan(scan))[1]
    for wire, shipped in ((scan.wire[0], True), (scan.wire[0] + 1, False)):
        for tasks in recorded:
            del tasks[:]
        before = registry.value("query.runtime_filter.bytes_shipped")
        kind, batch = run(
            dep, runtime.run_scan(scan, (dim_filter({3}, wire),))
        )
        tasks = recorded[0] + recorded[1]
        assert tasks
        sent = registry.value("query.runtime_filter.bytes_shipped") - before
        if shipped:
            assert sent == wire * len(tasks)
            assert all(fragment.runtime_filters for fragment, *_ in tasks)
            assert batch.arrays == filtered_local(dep, DIM_SQL, {3}).arrays
        else:
            assert sent == 0
            assert not any(fragment.runtime_filters for fragment, *_ in tasks)
            assert batch.arrays == unfiltered.arrays


def test_a_traced_target_scan_is_tagged_with_its_filters():
    dep = make_db(rows=300)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    tracer = dep.obs.enable_tracing(dep.env)
    scan = scan_of(pq, DIM_SQL)
    run(dep, pq.pushdown_runtime.run_scan(scan, (dim_filter({3}),)))
    run(dep, pq.pushdown_runtime.run_scan(scan))
    tagged, plain = [s for s in tracer.spans if s.name == "pq.scan"]
    assert tagged.tags["query.runtime_filter"] == "dims"
    assert "query.runtime_filter" not in plain.tags


def test_a_pushed_hash_build_applies_its_filter_before_key_extraction():
    dep = make_db(rows=300)
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=1)
    scan = scan_of(pq, DIM_SQL)
    scan.hash_keys = [ColumnRef("f_id")]
    want = filtered_local(dep, DIM_SQL, {2})
    keys, batch = run(
        dep, pq.pushdown_runtime.run_hash_build(scan, (dim_filter({2}),))
    )
    assert batch.arrays == want.arrays
    assert keys == [(f_id,) for f_id in want.column("facts.f_id")]


def test_a_probe_side_schema_gives_the_builds_null_checks(db, monkeypatch):
    """Built before the probe side runs, a hash join takes the probe
    keys' nullability from the plan: a NOT NULL probe column checks no
    NULL on the build side (and so keeps a keyed build unique)."""
    session = db.new_session(enable_pushdown=False, force_hash_joins=True)
    seen = []
    hash_build = kernels.hash_build

    def recording(batch, exprs, probe_nullable, *args):
        seen.append(list(probe_nullable))
        return hash_build(batch, exprs, probe_nullable, *args)

    monkeypatch.setattr(kernels, "hash_build", recording)
    for sql, nullable in (("SELECT a.id FROM a JOIN b ON a.x = b.id", True),
                          ("SELECT b.id FROM b JOIN a ON b.id = a.id", False)):
        join = session.plan(sql).child
        assert kernels.nullable(session._shape(join.left), join.left_keys) == [
            nullable]
        execute(db, session, sql)
        assert seen.pop() == [nullable]
