"""TPC-CH tests: dimension tables, and all 22 CH queries parse/plan/run."""

import pytest

from repro import Deployment, DeploymentSpec
from repro.query.parser import parse
from repro.query.plan import Aggregate, SeqScan
from repro.workloads.tpcch import CH_QUERIES, TpcchConfig, TpcchDatabase, ch_query_sql


TINY = TpcchConfig(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=6,
    items=20,
    initial_orders_per_district=6,
    suppliers=10,
    nations=5,
    regions=2,
)


def build(seed=23):
    dep = Deployment(DeploymentSpec.astore_pq(seed=seed))
    dep.start()
    database = TpcchDatabase(dep.engine, TINY, dep.seeds.stream("load"))
    proc = dep.env.process(database.load())
    dep.env.run_until_event(proc)
    return dep, database


def test_dimension_tables_loaded():
    dep, database = build()
    catalog = dep.engine.catalog
    assert catalog.table("supplier").row_count == 10
    assert catalog.table("nation").row_count == 5
    assert catalog.table("region").row_count == 2


def test_all_22_queries_defined_and_parse():
    for query_no in range(1, 23):
        sql = ch_query_sql(query_no, TINY)
        statement = parse(sql)
        assert statement is not None


def test_unknown_query_number():
    with pytest.raises(KeyError):
        ch_query_sql(23)


def test_all_22_queries_plan_and_execute():
    dep, database = build()
    session = dep.new_session(enable_pushdown=True, pushdown_row_threshold=5)

    def work(env):
        row_counts = {}
        for query_no in sorted(CH_QUERIES):
            result = yield from session.execute(ch_query_sql(query_no, TINY))
            row_counts[query_no] = len(result.rows)
        return row_counts

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    row_counts = proc.value
    assert len(row_counts) == 22
    # The aggregation queries always produce output on a loaded database.
    assert row_counts[1] >= 1
    assert row_counts[6] == 1
    assert row_counts[22] >= 1


def test_pushdown_equivalence_on_ch_queries():
    """PQ on and off must agree on every CH query (correctness gate)."""
    dep, database = build()
    pq = dep.new_session(enable_pushdown=True, pushdown_row_threshold=5)
    local = dep.new_session(enable_pushdown=False, force_hash_joins=True)

    def work(env):
        mismatches = []
        for query_no in sorted(CH_QUERIES):
            sql = ch_query_sql(query_no, TINY)
            a = yield from pq.execute(sql)
            b = yield from local.execute(sql)
            if sorted(map(repr, a.rows)) != sorted(map(repr, b.rows)):
                mismatches.append(query_no)
        return mismatches

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    assert proc.value == []


def test_q1_and_q6_mark_aggregation_pushdown():
    dep, database = build()
    session = dep.new_session(enable_pushdown=True, pushdown_row_threshold=5)
    for query_no in (1, 6):
        plan = session.plan(ch_query_sql(query_no, TINY))
        node = plan
        while not isinstance(node, Aggregate):
            node = node.child
        assert node.from_partials
        assert isinstance(node.child, SeqScan) and node.child.pushdown


def test_q1_aggregation_matches_manual_computation():
    dep, database = build()
    session = dep.new_session(enable_pushdown=False)

    def work(env):
        result = yield from session.execute(ch_query_sql(1, TINY))
        check = yield from session.execute(
            "SELECT count(*) FROM order_line WHERE ol_o_id > 0"
        )
        return result, check

    proc = dep.env.process(work(dep.env))
    dep.env.run_until_event(proc)
    result, check = proc.value
    total_rows = check.rows[0][0]
    count_col = result.columns.index("count_order")
    assert sum(row[count_col] for row in result.rows) == total_rows
