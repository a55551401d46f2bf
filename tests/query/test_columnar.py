"""Columnar batch execution: parity with row mode, and widened push-down.

The contract under test is exact: for every CH query, batch mode (with
or without PQ) must produce byte-identical rows/columns to the row-mode
Volcano executor, because the vectorized spine materializes the same rows
in the same order - equal on the columns the plan reads, the only ones it
decodes - before the row-mode Project/Sort/Limit tail.
"""

import pytest

from repro.common import KB, MB
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.ast import ColumnRef
from repro.query.columnar import ColumnBatch, resolve_column
from repro.query.plan import Aggregate, HashJoin, Project, SeqScan, explain
from repro.workloads.tpcch import CH_QUERIES, TpcchConfig, TpcchDatabase, ch_query_sql


# Small but multi-page: order_line spills past the buffer pool so PQ has
# remote pages to push to.
CH_CONFIG = TpcchConfig(
    warehouses=2,
    customers_per_district=20,
    items=200,
    initial_orders_per_district=20,
    suppliers=50,
)


@pytest.fixture(scope="module")
def ch_dep():
    # 4-page buffer pool: scans reach past DRAM, so marked fragments have
    # remote pages to dispatch storage-side.
    dep = Deployment(
        DeploymentSpec.astore_pq(
            seed=11,
            engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
            ebp_capacity_bytes=64 * MB,
        )
    )
    dep.start()
    database = TpcchDatabase(dep.engine, CH_CONFIG, dep.seeds.stream("ch-load"))

    def load(env):
        yield from database.load()
        yield env.timeout(0.3)  # let eviction populate the EBP

    dep.env.run_until_event(dep.env.process(load(dep.env)))
    return dep


def execute(dep, session, sql):
    proc = dep.env.process(session.execute(sql))
    dep.env.run_until_event(proc)
    return proc.value


# ---------------------------------------------------------------------------
# ColumnBatch container
# ---------------------------------------------------------------------------


def make_batch():
    return ColumnBatch(
        ("t.a", "t.b", "u.a"),
        [[1, 2, 3], ["x", "y", "z"], [10, 20, 30]],
    )


def test_batch_gather_full_selection_returns_self():
    batch = make_batch()
    assert batch.gather([0, 1, 2]) is batch
    picked = batch.gather([2, 0])
    assert picked.n == 2
    assert picked.column("t.b") == ["z", "x"]


def test_batch_extend_and_to_rows():
    batch = make_batch()
    batch.extend(ColumnBatch(batch.keys, [[4], ["w"], [40]]))
    assert batch.n == 4
    rows = batch.to_rows()
    assert rows[3] == {"t.a": 4, "t.b": "w", "u.a": 40}
    assert list(rows[0].keys()) == ["t.a", "t.b", "u.a"]


def test_batch_zero_columns_keeps_row_count():
    batch = ColumnBatch((), [], 5)
    assert batch.n == 5
    assert batch.to_rows() == [{}] * 5


def test_resolve_column_mirrors_row_fallback_chain():
    keys = ("t.a", "t.b", "u.a", "plain")
    assert resolve_column(keys, ColumnRef("a", "t")) == 0
    assert resolve_column(keys, ColumnRef("plain")) == 3
    # Unique dotted suffix resolves; ambiguous one does not.
    assert resolve_column(keys, ColumnRef("b")) == 1
    assert resolve_column(keys, ColumnRef("a")) is None
    assert resolve_column(keys, ColumnRef("missing")) is None


# ---------------------------------------------------------------------------
# CH-query parity: batch mode is byte-identical to row mode
# ---------------------------------------------------------------------------


def _canonical(rows):
    # Round floats so ulp drift cannot perturb the sort, then order rows
    # canonically: ORDER BY ties break on input order, which pushdown's
    # local-then-tasks merge legitimately permutes.
    normal = [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return sorted(normal, key=repr)


def assert_rows_close(got, want, context):
    """Order-insensitive row-set equality tolerating float last-ulp drift.

    Used only across *pushdown configurations*: distributed partial
    aggregation sums each task's rows independently before merging, which
    reassociates float addition versus one sequential scan (inherent to
    scatter-gather aggregation, and present before batch mode existed).
    """
    assert len(got) == len(want), context
    for got_row, want_row in zip(_canonical(got), _canonical(want)):
        for g, w in zip(got_row, want_row):
            if isinstance(g, float) and isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), context
            else:
                assert g == w, context


@pytest.mark.parametrize("query_no", sorted(CH_QUERIES))
def test_ch_query_parity_across_modes(ch_dep, query_no):
    dep = ch_dep
    sessions = {
        "row": dep.new_session(enable_pushdown=False, batch_mode=False),
        "batch": dep.new_session(enable_pushdown=False, batch_mode=True),
        "row-pq": dep.new_session(
            enable_pushdown=True, force_hash_joins=True, batch_mode=False
        ),
        "batch-pq": dep.new_session(
            enable_pushdown=True, force_hash_joins=True, batch_mode=True
        ),
    }
    sql = ch_query_sql(query_no)
    results = {label: execute(dep, s, sql) for label, s in sessions.items()}
    for label in ("batch", "row-pq", "batch-pq"):
        assert results[label].columns == results["row"].columns, label
    # Batch execution is byte-identical to row execution under the same
    # pushdown configuration: the vectorized spine materializes the same
    # dicts in the same order.
    assert results["batch"].rows == results["row"].rows, (
        "CH Q%d: batch diverged from row mode" % query_no
    )
    assert results["batch-pq"].rows == results["row-pq"].rows, (
        "CH Q%d: batch+PQ diverged from row+PQ" % query_no
    )
    # Across pushdown configurations only float summation order differs.
    assert_rows_close(
        results["batch-pq"].rows,
        results["row"].rows,
        "CH Q%d: pushdown changed results" % query_no,
    )


# ---------------------------------------------------------------------------
# Widened push-down: GROUP BY partials, DISTINCT, hash build
# ---------------------------------------------------------------------------


def test_groupby_pushdown_is_planned_and_matches(ch_dep):
    dep = ch_dep
    session = dep.new_session(enable_pushdown=True, batch_mode=True)
    sql = ch_query_sql(1)  # single-table GROUP BY aggregate
    plan = session.plan(sql)
    assert "partial-agg" in explain(plan)
    row_pq = execute(
        dep, dep.new_session(enable_pushdown=True, batch_mode=False), sql
    )
    pushed = execute(dep, session, sql)
    assert pushed.rows == row_pq.rows
    assert_rows_close(
        pushed.rows,
        execute(
            dep, dep.new_session(enable_pushdown=False, batch_mode=False), sql
        ).rows,
        "Q1 pushdown",
    )
    assert session.pushdown_runtime.tasks_dispatched > 0


def test_distinct_aggregate_is_pushable(ch_dep):
    dep = ch_dep
    sql = (
        "SELECT ol_number, count(DISTINCT ol_i_id) AS n_items "
        "FROM order_line GROUP BY ol_number ORDER BY ol_number"
    )
    session = dep.new_session(enable_pushdown=True, batch_mode=True)
    plan = session.plan(sql)
    assert "partial-agg" in explain(plan)
    # DISTINCT merges value sets, not floats: exact across configurations.
    row = execute(
        dep, dep.new_session(enable_pushdown=False, batch_mode=False), sql
    )
    pushed = execute(dep, session, sql)
    assert pushed.columns == row.columns
    assert pushed.rows == row.rows


def _find_hash_join(node):
    if isinstance(node, HashJoin):
        return node
    for attr in ("child", "left", "right", "outer"):
        sub = getattr(node, attr, None)
        if sub is not None:
            found = _find_hash_join(sub)
            if found is not None:
                return found
    return None


def test_hash_build_pushdown_exercised(ch_dep):
    dep = ch_dep
    sql = (
        "SELECT ol_number, count(*) AS n, sum(ol_amount) AS total "
        "FROM order_line JOIN stock ON ol_i_id = s_i_id "
        "WHERE s_quantity > 10 GROUP BY ol_number ORDER BY ol_number"
    )
    session = dep.new_session(
        enable_pushdown=True,
        force_hash_joins=True,
        pushdown_row_threshold=1,  # force-mark every scan
        batch_mode=True,
    )
    plan = session.plan(sql)
    join = _find_hash_join(plan)
    assert join is not None
    assert isinstance(join.right, SeqScan)
    assert join.right.hash_keys
    assert join.right.pushdown
    assert "hash-build" in explain(plan)
    row_pq = execute(
        dep,
        dep.new_session(
            enable_pushdown=True,
            force_hash_joins=True,
            pushdown_row_threshold=1,
            batch_mode=False,
        ),
        sql,
    )
    pushed = execute(dep, session, sql)
    assert pushed.rows == row_pq.rows
    assert_rows_close(
        pushed.rows,
        execute(
            dep, dep.new_session(enable_pushdown=False, batch_mode=False), sql
        ).rows,
        "hash-build pushdown",
    )
    assert session.pushdown_runtime.hash_build_fragments > 0


# ---------------------------------------------------------------------------
# Cost-based PQ eligibility
# ---------------------------------------------------------------------------


def _scan_of(plan):
    node = plan
    while not isinstance(node, SeqScan):
        node = getattr(node, "child", None) or getattr(node, "left")
    return node


def test_cost_based_pushes_reductive_aggregate(ch_dep):
    session = ch_dep.new_session(enable_pushdown=True)  # threshold=None
    plan = session.plan(
        "SELECT ol_number, count(*) FROM order_line GROUP BY ol_number"
    )
    assert _scan_of(plan).pushdown


def test_cost_based_skips_small_table(ch_dep):
    # supplier fits in a couple of pages: shipping the fragment costs more
    # than scanning locally, so the cost model declines to push.
    session = ch_dep.new_session(enable_pushdown=True)
    plan = session.plan("SELECT count(*) FROM supplier")
    assert not _scan_of(plan).pushdown


def test_cost_based_skips_wide_open_row_fragment(ch_dep):
    # An unfiltered row fragment returns every row over the wire: the
    # estimated result bytes exceed the page bytes saved, so no push.
    session = ch_dep.new_session(enable_pushdown=True)
    plan = session.plan("SELECT ol_amount FROM order_line")
    assert not _scan_of(plan).pushdown


def test_explicit_threshold_overrides_cost_model(ch_dep):
    session = ch_dep.new_session(enable_pushdown=True, pushdown_row_threshold=10)
    plan = session.plan("SELECT count(*) FROM supplier")
    assert _scan_of(plan).pushdown
    session = ch_dep.new_session(
        enable_pushdown=True, pushdown_row_threshold=10**9
    )
    plan = session.plan(
        "SELECT ol_number, count(*) FROM order_line GROUP BY ol_number"
    )
    assert not _scan_of(plan).pushdown
