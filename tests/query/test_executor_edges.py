"""Executor edge cases: NULL ordering, empty inputs, nested plans."""

import pytest

from repro.common import QueryError
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.harness.deployment import Deployment, DeploymentSpec


def make_db():
    dep = Deployment(DeploymentSpec.astore_log(seed=3))
    dep.start()
    engine = dep.engine
    engine.create_table(
        "t",
        Schema(
            [
                Column("id", INT()),
                Column("maybe", INT(), nullable=True),
                Column("name", VARCHAR(16)),
            ]
        ),
        ["id"],
    )

    def load(env):
        txn = engine.begin()
        rows = [
            [1, 30, "c"],
            [2, None, "a"],
            [3, 10, "b"],
            [4, None, "d"],
            [5, 20, "e"],
        ]
        for row in rows:
            yield from engine.insert(txn, "t", row)
        yield from engine.commit(txn)

    proc = dep.env.process(load(dep.env))
    dep.env.run_until_event(proc)
    return dep, dep.new_session(enable_pushdown=False)


def execute(dep, session, sql):
    proc = dep.env.process(session.execute(sql))
    dep.env.run_until_event(proc)
    return proc.value


def test_order_by_asc_puts_nulls_somewhere_stable():
    dep, session = make_db()
    result = execute(dep, session, "SELECT id FROM t ORDER BY maybe")
    ids = [r[0] for r in result.rows]
    non_null_order = [i for i in ids if i in (3, 5, 1)]
    assert non_null_order == [3, 5, 1]  # 10, 20, 30
    assert set(ids) == {1, 2, 3, 4, 5}


def test_order_by_desc():
    dep, session = make_db()
    result = execute(
        dep, session, "SELECT id FROM t WHERE maybe > 0 ORDER BY maybe DESC"
    )
    assert [r[0] for r in result.rows] == [1, 5, 3]


def test_null_filtered_out_by_comparison():
    dep, session = make_db()
    result = execute(dep, session, "SELECT count(*) FROM t WHERE maybe > 0")
    assert result.rows == [(3,)]


def test_aggregates_skip_nulls():
    dep, session = make_db()
    result = execute(
        dep, session, "SELECT count(maybe), sum(maybe), avg(maybe) FROM t"
    )
    count, total, mean = result.rows[0]
    assert count == 3
    assert total == 60
    assert mean == pytest.approx(20.0)


def test_empty_table_scan():
    dep, session = make_db()
    dep.engine.create_table(
        "empty", Schema([Column("id", INT())]), ["id"]
    )
    result = execute(dep, session, "SELECT * FROM empty")
    assert result.rows == []
    result = execute(dep, session, "SELECT count(*) FROM empty")
    assert result.rows == [(0,)]


def test_limit_zero():
    dep, session = make_db()
    result = execute(dep, session, "SELECT id FROM t LIMIT 0")
    assert result.rows == []


def test_group_by_expression():
    dep, session = make_db()
    result = execute(
        dep, session,
        "SELECT id / 3, count(*) FROM t GROUP BY id / 3 ORDER BY id / 3",
    )
    # ids 1..5 -> 1/3, 2/3, 1, 4/3, 5/3 (float division buckets)
    assert sum(r[1] for r in result.rows) == 5


def test_projection_alias_referenced_in_order_by():
    dep, session = make_db()
    result = execute(
        dep, session,
        "SELECT id * 2 AS doubled FROM t WHERE maybe > 0 ORDER BY doubled DESC",
    )
    assert [r[0] for r in result.rows] == [10, 6, 2]


def test_update_via_sql_with_expression():
    dep, session = make_db()
    execute(dep, session, "UPDATE t SET maybe = id * 100 WHERE maybe = NULL")
    # maybe = NULL comparisons are false: nothing updated.
    result = execute(dep, session, "SELECT count(*) FROM t WHERE maybe > 99")
    assert result.rows == [(0,)]


def test_delete_everything_and_reinsert():
    dep, session = make_db()
    execute(dep, session, "DELETE FROM t")
    assert execute(dep, session, "SELECT count(*) FROM t").rows == [(0,)]
    execute(dep, session, "INSERT INTO t VALUES (9, 9, 'back')")
    assert execute(dep, session, "SELECT name FROM t WHERE id = 9").rows == [
        ("back",)
    ]


def test_self_join_with_aliases():
    dep, session = make_db()
    result = execute(
        dep, session,
        "SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id WHERE a.id < 3 "
        "ORDER BY a.id",
    )
    assert result.rows == [(1, 1), (2, 2)]


def test_arithmetic_divide_in_filter():
    dep, session = make_db()
    result = execute(
        dep, session, "SELECT id FROM t WHERE maybe / 10 = 2"
    )
    assert result.rows == [(5,)]
