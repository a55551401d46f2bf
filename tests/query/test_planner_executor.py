"""Tests for the planner and the single-threaded executor."""

import pytest

from repro.common import QueryError
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.plan import Aggregate, HashJoin, IndexNLJoin, Limit, Project, SeqScan, Sort, explain
from repro.query.planner import PlannerConfig


def make_db(pushdown=False, rows=120):
    dep = Deployment(DeploymentSpec.astore_pq() if pushdown
                     else DeploymentSpec.astore_log())
    dep.start()
    engine = dep.engine
    engine.create_table(
        "users",
        Schema(
            [
                Column("id", INT()),
                Column("grp", INT()),
                Column("name", VARCHAR(24)),
                Column("score", DECIMAL(2)),
            ]
        ),
        ["id"],
    )
    engine.create_table(
        "events",
        Schema(
            [
                Column("e_id", INT()),
                Column("user_id", INT()),
                Column("kind", VARCHAR(12)),
                Column("value", DECIMAL(2)),
            ]
        ),
        ["e_id"],
    )

    def load(env):
        txn = engine.begin()
        for i in range(rows):
            yield from engine.insert(
                txn, "users", [i, i % 4, "name%d" % i, float(i)]
            )
        for i in range(rows * 2):
            yield from engine.insert(
                txn,
                "events",
                [i, i % rows, "click" if i % 3 else "view", float(i % 50)],
            )
        yield from engine.commit(txn)

    proc = dep.env.process(load(dep.env))
    dep.env.run_until_event(proc)
    session = dep.new_session(
        enable_pushdown=pushdown, pushdown_row_threshold=10
    )
    return dep, session


def execute(dep, session, sql):
    proc = dep.env.process(session.execute(sql))
    dep.env.run_until_event(proc)
    return proc.value


# ---------------------------------------------------------------------------
# Planner shapes
# ---------------------------------------------------------------------------


def test_plan_simple_scan_with_filter():
    dep, session = make_db()
    plan = session.plan("SELECT name FROM users WHERE grp = 1")
    assert isinstance(plan, Project)
    scan = plan.child
    assert isinstance(scan, SeqScan)
    assert scan.filter is not None
    assert scan.projection == ("grp", "name")  # the filter's column too
    assert not scan.pushdown  # push-down disabled in this session


def test_plan_single_table_aggregate_marks_partial_agg_when_pq():
    dep, session = make_db(pushdown=True)
    plan = session.plan("SELECT grp, count(*) FROM users GROUP BY grp")
    agg = plan.child
    assert isinstance(agg, Aggregate)
    assert agg.from_partials
    scan = agg.child
    assert scan.pushdown and scan.partial_agg is not None


def test_plan_small_table_not_pushed():
    dep, session = make_db(pushdown=True, rows=5)
    plan = session.plan("SELECT grp, count(*) FROM users GROUP BY grp")
    agg = plan.child
    assert not agg.from_partials  # below the row threshold


def test_plan_join_defaults_to_index_nl_for_pk_join():
    dep, session = make_db()
    plan = session.plan(
        "SELECT name FROM events JOIN users ON user_id = id WHERE value > 10"
    )
    node = plan.child
    assert isinstance(node, IndexNLJoin)
    assert node.inner_table == "users"


def test_plan_pq_session_prefers_hash_join():
    dep, session = make_db(pushdown=True)
    plan = session.plan(
        "SELECT name FROM events JOIN users ON user_id = id WHERE value > 10"
    )
    node = plan.child
    assert isinstance(node, HashJoin)
    assert isinstance(node.right, SeqScan) and node.right.pushdown


def test_plan_order_limit():
    dep, session = make_db()
    plan = session.plan("SELECT id FROM users ORDER BY id DESC LIMIT 3")
    assert isinstance(plan, Limit)
    assert isinstance(plan.child, Sort)


def test_plan_join_without_equi_condition_rejected():
    dep, session = make_db()
    with pytest.raises(QueryError, match="equi-join"):
        session.plan("SELECT name FROM events JOIN users ON value > score")


def test_explain_renders_tree():
    dep, session = make_db(pushdown=True)
    text = explain(session.plan("SELECT grp, count(*) FROM users GROUP BY grp"))
    assert "Aggregate" in text and "PUSHDOWN" in text


def test_unknown_table_rejected():
    dep, session = make_db()
    with pytest.raises(QueryError):
        session.plan("SELECT a FROM nonexistent")


def test_ambiguous_column_rejected():
    dep, session = make_db()
    with pytest.raises(QueryError):
        # 'value' only in events, fine; 'id'... use a genuinely ambiguous
        # alias-free query where both tables share no columns: craft one by
        # self-joining users.
        session.plan(
            "SELECT name FROM users a JOIN users b ON a.id = b.id WHERE grp = 1"
        )


# ---------------------------------------------------------------------------
# Executor correctness
# ---------------------------------------------------------------------------


def test_point_filter_and_projection():
    dep, session = make_db()
    result = execute(dep, session, "SELECT name, score FROM users WHERE id = 7")
    assert result.columns == ["name", "score"]
    assert result.rows == [("name7", 7.0)]


def test_aggregate_group_by_matches_python():
    dep, session = make_db()
    result = execute(
        dep, session,
        "SELECT grp, count(*) AS n, sum(score) AS total FROM users GROUP BY grp "
        "ORDER BY grp",
    )
    expected = {}
    for i in range(120):
        g = i % 4
        n, t = expected.get(g, (0, 0.0))
        expected[g] = (n + 1, t + float(i))
    assert [(g, n, t) for (g, n, t) in result.rows] == [
        (g, expected[g][0], expected[g][1]) for g in sorted(expected)
    ]


def test_global_aggregate_without_group_by():
    dep, session = make_db()
    result = execute(dep, session, "SELECT count(*), avg(score) FROM users")
    assert result.rows[0][0] == 120
    assert result.rows[0][1] == pytest.approx(sum(range(120)) / 120.0)


def test_global_aggregate_over_empty_result():
    dep, session = make_db()
    result = execute(
        dep, session, "SELECT count(*), sum(score) FROM users WHERE id > 9999"
    )
    assert result.rows == [(0, None)]


def test_count_distinct():
    dep, session = make_db()
    result = execute(dep, session, "SELECT count(DISTINCT grp) FROM users")
    assert result.rows == [(4,)]


def test_join_correctness_both_algorithms():
    dep, session = make_db()
    sql = (
        "SELECT kind, count(*) AS n FROM events JOIN users ON user_id = id "
        "WHERE grp = 2 GROUP BY kind ORDER BY kind"
    )
    nl_result = execute(dep, session, sql)
    hash_session = dep.new_session(enable_pushdown=False, force_hash_joins=True)
    hash_result = execute(dep, hash_session, sql)
    assert nl_result.rows == hash_result.rows
    assert sum(n for _, n in nl_result.rows) == 60  # 240 events / 4 groups


def test_order_by_desc_and_limit():
    dep, session = make_db()
    result = execute(
        dep, session, "SELECT id FROM users ORDER BY score DESC LIMIT 5"
    )
    assert [r[0] for r in result.rows] == [119, 118, 117, 116, 115]


def test_select_star():
    dep, session = make_db()
    result = execute(dep, session, "SELECT * FROM users WHERE id < 2 ORDER BY id")
    assert len(result.rows) == 2
    assert len(result.columns) == 4


def test_expression_in_projection():
    dep, session = make_db()
    result = execute(dep, session, "SELECT score * 2 AS double FROM users WHERE id = 3")
    assert result.rows == [(6.0,)]


def test_agg_expression_avg_from_sum_count():
    dep, session = make_db()
    result = execute(
        dep, session,
        "SELECT sum(score) / count(*) AS mean FROM users WHERE grp = 0",
    )
    scores = [float(i) for i in range(120) if i % 4 == 0]
    assert result.rows[0][0] == pytest.approx(sum(scores) / len(scores))


def test_sql_insert_update_delete_roundtrip():
    dep, session = make_db()
    execute(dep, session, "INSERT INTO users (id, grp, name, score) VALUES (999, 9, 'new', 1.5)")
    result = execute(dep, session, "SELECT name FROM users WHERE id = 999")
    assert result.rows == [("new",)]
    execute(dep, session, "UPDATE users SET score = score + 1 WHERE id = 999")
    result = execute(dep, session, "SELECT score FROM users WHERE id = 999")
    assert result.rows == [(2.5,)]
    execute(dep, session, "DELETE FROM users WHERE id = 999")
    result = execute(dep, session, "SELECT count(*) FROM users WHERE id = 999")
    assert result.rows == [(0,)]


def test_between_and_in_filters():
    dep, session = make_db()
    result = execute(
        dep, session,
        "SELECT count(*) FROM users WHERE id BETWEEN 10 AND 19 AND grp IN (0, 1)",
    )
    expected = sum(1 for i in range(10, 20) if i % 4 in (0, 1))
    assert result.rows == [(expected,)]
