"""Executor edge cases: NULL ordering, empty inputs, nested plans."""

import pytest

from repro.common import QueryError
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.plan import SeqScan, explain

from .row_oracle import RowOracle


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


# ---------------------------------------------------------------------------
# Projection edges: the executor and push-down fragments decode only the
# columns a plan reads; the answers are those of the full-width row oracle.
# ---------------------------------------------------------------------------

MODES = {
    "row": None,  # the oracle (SELECT only; its DML runs on the engine)
    "batch+pq": dict(
        enable_pushdown=True,
        pushdown_row_threshold=1,  # mark every scan, however small
        force_hash_joins=True,
    ),
}


def make_joined_db(mode):
    """``t`` plus a table ``u`` that shares the column name ``name``."""
    dep = Deployment(DeploymentSpec.astore_pq(seed=3))
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
    engine.create_table(
        "u",
        Schema(
            [
                Column("u_id", INT()),
                Column("t_id", INT()),
                Column("name", VARCHAR(16)),
                Column("w", INT()),
            ]
        ),
        ["u_id"],
    )

    def load(env):
        txn = engine.begin()
        for row in [[1, 30, "c"], [2, None, "a"], [3, 10, "b"],
                    [4, None, "d"], [5, 20, "e"]]:
            yield from engine.insert(txn, "t", row)
        for i in range(10):
            yield from engine.insert(txn, "u", [i, i % 5 + 1, "u%d" % i, i * 2])
        yield from engine.commit(txn)

    dep.env.run_until_event(dep.env.process(load(dep.env)))
    if MODES[mode] is None:
        return dep, RowOracle(dep.engine)
    return dep, dep.new_session(**MODES[mode])


def scans_of(node):
    if isinstance(node, SeqScan):
        return [node]
    return [
        scan
        for attr in ("child", "left", "right", "outer")
        if getattr(node, attr, None) is not None
        for scan in scans_of(getattr(node, attr))
    ]


def cells(dep):
    registry = dep.obs.registry
    return (
        registry.value("query.scan.cells_decoded"),
        registry.value("query.scan.cells_stored"),
    )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_count_star_reads_no_column(mode):
    dep, session = make_joined_db(mode)
    plan = session.plan("SELECT COUNT(*) FROM t")
    assert [scan.projection for scan in scans_of(plan)] == [()]
    assert "SeqScan(t as t) cols=0/3" in explain(plan)
    assert execute(dep, session, "SELECT COUNT(*) FROM t").rows == [(5,)]
    decoded, stored = cells(dep)
    # The oracle's scan is full-width; the engine's decodes nothing.
    assert (decoded, stored) == ((15, 15) if mode == "row" else (0, 15))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_select_star_over_a_join_lists_every_column(mode):
    dep, session = make_joined_db(mode)
    sql = "SELECT * FROM t JOIN u ON t_id = id ORDER BY u_id LIMIT 2"
    assert [scan.projection for scan in scans_of(session.plan(sql))] == [
        ("id", "maybe", "name"),
        ("u_id", "t_id", "name", "w"),
    ]
    result = execute(dep, session, sql)
    assert result.columns == [
        "t.id", "t.maybe", "t.name", "u.name", "u.t_id", "u.u_id", "u.w"
    ]
    assert result.rows == [(1, 30, "c", "u0", 1, 0, 0), (2, None, "a", "u1", 2, 1, 2)]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_join_reads_only_referenced_columns_in_schema_order(mode):
    dep, session = make_joined_db(mode)
    sql = "SELECT w, t.name FROM t JOIN u ON t_id = id WHERE maybe > 15 ORDER BY w"
    assert [scan.projection for scan in scans_of(session.plan(sql))] == [
        ("id", "maybe", "name"),
        ("t_id", "w"),
    ]
    assert execute(dep, session, sql).rows == [
        (0, "c"), (8, "e"), (10, "c"), (18, "e")
    ]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_shared_bare_name_never_binds_to_the_surviving_copy(mode):
    """``name`` is a column of both ``t`` and ``u``.  Pruning one side's copy
    must not turn the error into an answer read from the other side."""
    dep, session = make_joined_db(mode)
    with pytest.raises(QueryError, match="ambiguous column 'name'"):
        execute(dep, session, "SELECT w FROM t JOIN u ON t_id = id WHERE name = 'a'")
    for sql in (
        "SELECT name FROM t JOIN u ON t_id = id",
        "SELECT w FROM t JOIN u ON t_id = id ORDER BY name",
    ):
        with pytest.raises(QueryError, match="column 'name' not in row"):
            execute(dep, session, sql)
        # Both copies stay in the plan, so the reference stays ambiguous.
        assert all(
            "name" in scan.projection for scan in scans_of(session.plan(sql))
        )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_update_and_delete_where_non_key_columns(mode):
    dep, session = make_joined_db(mode)
    # The oracle reads back what an engine-side session wrote.
    writer = dep.new_session(enable_pushdown=False) if mode == "row" else session
    before = cells(dep)
    assert execute(
        dep, writer, "UPDATE t SET name = 'z' WHERE maybe > 15"
    ).rows == [(2,)]
    decoded, stored = (now - was for now, was in zip(cells(dep), before))
    # The matching scan reads the key and the WHERE column: 2 of 3.
    assert (decoded, stored) == (10, 15)
    assert execute(dep, session, "SELECT id FROM t WHERE name = 'z' ORDER BY id").rows == [
        (1,), (5,)
    ]
    assert execute(dep, writer, "DELETE FROM t WHERE name = 'z'").rows == [(2,)]
    assert execute(dep, session, "SELECT id, name FROM t ORDER BY id").rows == [
        (2, "a"), (3, "b"), (4, "d")
    ]
    assert execute(dep, writer, "DELETE FROM t").rows == [(3,)]
    assert execute(dep, session, "SELECT COUNT(*) FROM t").rows == [(0,)]
