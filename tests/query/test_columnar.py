"""Columnar batch execution: parity with the row oracle, and widened
push-down.

The contract under test is exact: for every CH query the engine, whatever
joins the planner picks, must produce byte-identical rows/columns to
``row_oracle.RowOracle`` - the dict-at-a-time interpreter - because every
operator keeps its row order and float accumulation order; push-down may
only permute ORDER BY ties and reassociate float sums.
"""

import pytest
from hypothesis import given, strategies as st

from repro.common import KB, MB
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.ast import ColumnRef
from repro.query.columnar import ColumnBatch, resolve_column
from repro.query.executor import sort_batch
from repro.query.plan import HashJoin, SeqScan, explain
from repro.query.planner import PUSHDOWN_WIRE_RATIO
from repro.workloads.tpcch import CH_QUERIES, TpcchConfig, TpcchDatabase, ch_query_sql

from .row_oracle import RowOracle, assert_parity, assert_rows_close, execute


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
    picked = batch.gather([0, 2])
    assert picked.n == 2
    assert picked.column("t.b") == ["x", "z"]
    # A permutation is as long as the batch and is not the identity.
    assert batch.take([2, 0, 1]).column("t.b") == ["z", "x", "y"]
    assert batch.take(range(3)[:0]).n == 0


def test_batch_extend():
    batch = make_batch()
    batch.extend(ColumnBatch(batch.keys, [[4], ["w"], [40]]))
    assert batch.n == 4
    assert batch.keys == ("t.a", "t.b", "u.a")
    assert [array[3] for array in batch.arrays] == [4, "w", 40]
    with pytest.raises(ValueError, match="key mismatch"):
        batch.extend(ColumnBatch(("t.a",), [[5]]))


def test_batch_zero_columns_keeps_row_count():
    batch = ColumnBatch((), [], 5)
    assert batch.n == 5
    assert (batch.take([0, 3]).n, batch.gather(range(5))) == (2, batch)


def test_resolve_column_mirrors_row_fallback_chain():
    keys = ("t.a", "t.b", "u.a", "plain")
    assert resolve_column(keys, ColumnRef("a", "t")) == 0
    assert resolve_column(keys, ColumnRef("plain")) == 3
    # Unique dotted suffix resolves; ambiguous one does not.
    assert resolve_column(keys, ColumnRef("b")) == 1
    assert resolve_column(keys, ColumnRef("a")) is None
    assert resolve_column(keys, ColumnRef("missing")) is None


#: Few distinct values and NULLs: most sorts meet ties and NULLs.
_CELL = st.one_of(st.none(), st.integers(0, 3))


@given(
    rows=st.lists(st.tuples(_CELL, _CELL, _CELL), max_size=12),
    order=st.lists(st.tuples(st.sampled_from("abc"), st.booleans()),
                   min_size=1, max_size=3),
)
def test_a_top_n_sort_is_the_full_sort_cut_short(rows, order):
    """``sort_batch(..., limit=k)`` keeps a heap of k rows: exactly the
    full sort's first k, ties in input order (``t.i`` tells them apart),
    NULLs first ascending and last descending, over mixed ASC/DESC keys."""
    n = len(rows)
    batch = ColumnBatch(
        ("t.i", "t.a", "t.b", "t.c"),
        [list(range(n))] + [list(column) for column in zip(*rows)]
        if rows else [[], [], [], []],
        n,
    )
    order_by = [(ColumnRef(name, "t"), desc) for name, desc in order]
    full = sort_batch(batch, order_by).arrays
    for k in {0, 1, max(n - 1, 0), n, n + 3}:
        top = sort_batch(batch, order_by, limit=k)
        assert top.n == min(k, n)
        assert top.arrays == [column[:k] for column in full], k


# ---------------------------------------------------------------------------
# CH-query parity: the engine is byte-identical to the row oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_no", sorted(CH_QUERIES))
def test_ch_query_parity_across_modes(ch_dep, query_no):
    assert_parity(ch_dep, ch_query_sql(query_no), "CH Q%d" % query_no)


# ---------------------------------------------------------------------------
# Widened push-down: GROUP BY partials, DISTINCT, hash build
# ---------------------------------------------------------------------------


def test_groupby_pushdown_is_planned_and_matches(ch_dep):
    dep = ch_dep
    session = dep.new_session(enable_pushdown=True)
    sql = ch_query_sql(1)  # single-table GROUP BY aggregate
    plan = session.plan(sql)
    assert "partial-agg" in explain(plan)
    tasks = dep.obs.registry.value("query.pushdown.tasks_dispatched")
    pushed = execute(dep, session, sql)
    assert_rows_close(
        pushed.rows, execute(dep, RowOracle(dep.engine), sql).rows, "Q1 pushdown"
    )
    assert dep.obs.registry.value("query.pushdown.tasks_dispatched") > tasks


def test_distinct_aggregate_is_pushable(ch_dep):
    dep = ch_dep
    sql = (
        "SELECT ol_number, count(DISTINCT ol_i_id) AS n_items "
        "FROM order_line GROUP BY ol_number ORDER BY ol_number"
    )
    session = dep.new_session(enable_pushdown=True)
    plan = session.plan(sql)
    assert "partial-agg" in explain(plan)
    # DISTINCT merges value sets, not floats: exact across configurations.
    row = execute(dep, RowOracle(dep.engine), sql)
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
    )
    plan = session.plan(sql)
    join = _find_hash_join(plan)
    assert join is not None
    assert isinstance(join.right, SeqScan)
    assert join.right.hash_keys
    assert join.right.pushdown
    assert "hash-build" in explain(plan)
    fragments = dep.obs.registry.value("query.pushdown.hash_fragments")
    pushed = execute(dep, session, sql)
    assert_rows_close(
        pushed.rows,
        execute(dep, RowOracle(dep.engine, force_hash_joins=True), sql).rows,
        "hash-build pushdown",
    )
    assert dep.obs.registry.value("query.pushdown.hash_fragments") > fragments


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
    # An unfiltered fragment returns every row over the wire, priced by
    # what it carries: every column costs about what its pages hold, so
    # no push; one column costs a fraction of it, so push.
    session = ch_dep.new_session(enable_pushdown=True)
    wide = _scan_of(session.plan("SELECT * FROM order_line"))
    assert not wide.pushdown
    ratio = PUSHDOWN_WIRE_RATIO
    assert wide.wire[0] > wide.wire[1] * ratio
    narrow = _scan_of(session.plan("SELECT ol_amount FROM order_line"))
    assert narrow.pushdown
    assert narrow.wire[1] == wide.wire[1] and narrow.wire[0] < wide.wire[0] / 3


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
