"""Tests for the statement/plan cache and prepared statements."""

import dataclasses

import pytest

from repro.common import QueryError
from repro.engine.codec import DECIMAL, INT, VARCHAR, Column, Schema
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.ast import Literal, Select
from repro.query.cache import ParseCache, bind_expr, parse_entry
from repro.query.executor import QuerySession


def make_db(rows=40):
    dep = Deployment(DeploymentSpec.astore_log())
    dep.start()
    engine = dep.engine
    engine.create_table(
        "users",
        Schema([
            Column("id", INT()),
            Column("grp", INT()),
            Column("name", VARCHAR(24)),
            Column("score", DECIMAL(2)),
        ]),
        ["id"],
    )

    def load(env):
        txn = engine.begin()
        for i in range(rows):
            yield from engine.insert(
                txn, "users", [i, i % 4, "name%d" % i, float(i)]
            )
        yield from engine.commit(txn)

    proc = dep.env.process(load(dep.env))
    dep.env.run_until_event(proc)
    return dep


def run(dep, gen):
    proc = dep.env.process(gen)
    dep.env.run_until_event(proc)
    return proc.value


# ---------------------------------------------------------------------------
# ParseCache
# ---------------------------------------------------------------------------


def test_parse_cache_hit_returns_same_statement_object():
    cache = ParseCache(capacity=4)
    first, nparams = cache.entry("SELECT id FROM users WHERE grp = 1")
    second, _ = cache.entry("SELECT id FROM users WHERE grp = 1")
    assert first is second
    assert nparams == 0
    assert cache.hits == 1 and cache.misses == 1


def test_parse_cache_lru_evicts_least_recently_used():
    cache = ParseCache(capacity=2)
    cache.entry("SELECT id FROM users")          # a
    cache.entry("SELECT grp FROM users")         # b
    cache.entry("SELECT id FROM users")          # touch a -> b is LRU
    cache.entry("SELECT name FROM users")        # evicts b
    assert len(cache) == 2
    before = cache.misses
    cache.entry("SELECT id FROM users")          # still cached
    assert cache.misses == before
    cache.entry("SELECT grp FROM users")         # b was evicted: re-parse
    assert cache.misses == before + 1


def test_parse_cache_counts_params():
    cache = ParseCache(capacity=4)
    _, nparams = cache.entry(
        "SELECT id FROM users WHERE grp = ? AND score > ?")
    assert nparams == 2


def test_cached_statements_are_frozen():
    statement, _ = parse_entry("SELECT id FROM users WHERE grp = 1")
    assert isinstance(statement, Select)
    with pytest.raises(dataclasses.FrozenInstanceError):
        statement.table = "other"


def test_bind_expr_returns_same_object_when_no_params():
    statement, _ = parse_entry("SELECT id FROM users WHERE grp = 3")
    bound = bind_expr(statement.where, ())
    assert bound is statement.where


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_hits_on_repeat_and_replans_after_data_change():
    dep = make_db()
    cache = ParseCache(capacity=8)
    session = QuerySession(dep.engine, parse_cache=cache)
    engine = dep.engine
    sql = "SELECT COUNT(*) AS n FROM users WHERE grp = 1"

    first = run(dep, session.execute(sql))
    assert session.plan_cache_misses == 1
    second = run(dep, session.execute(sql))
    assert session.plan_cache_hits == 1
    assert [list(r) for r in first.rows] == [[10]]
    assert [list(r) for r in second.rows] == [[10]]

    def add(env):
        txn = engine.begin()
        yield from engine.insert(txn, "users", [100, 1, "late", 1.0])
        yield from engine.commit(txn)

    run(dep, add(dep.env))
    # row_count changed -> the cached plan's stats token is stale, the
    # statement replans, and the result reflects the new data.
    third = run(dep, session.execute(sql))
    assert session.plan_cache_misses == 2
    assert [list(r) for r in third.rows] == [[11]]


def test_cached_ast_not_mutated_across_sessions():
    dep = make_db()
    cache = ParseCache(capacity=8)
    one = QuerySession(dep.engine, parse_cache=cache)
    two = QuerySession(dep.engine, parse_cache=cache)
    sql = ("SELECT grp, COUNT(*) AS n, SUM(score) AS total FROM users "
           "WHERE id < 20 GROUP BY grp ORDER BY grp")
    statement = cache.entry(sql)[0]
    snapshot = dataclasses.asdict(statement)
    a = run(dep, one.execute(sql))
    b = run(dep, two.execute(sql))
    assert a.rows == b.rows
    assert cache.entry(sql)[0] is statement
    assert dataclasses.asdict(statement) == snapshot


# ---------------------------------------------------------------------------
# Prepared statements
# ---------------------------------------------------------------------------


def test_prepared_select_binds_params():
    dep = make_db()
    session = QuerySession(dep.engine)
    stmt = session.prepare("SELECT id, name FROM users WHERE id = ?")
    assert stmt.param_count == 1
    for key in (3, 17, 3):
        result = run(dep, stmt.execute(key))
        assert [list(r) for r in result.rows] == [[key, "name%d" % key]]


def test_prepared_select_reuses_plan_template():
    dep = make_db()
    session = QuerySession(dep.engine)
    stmt = session.prepare("SELECT COUNT(*) AS n FROM users WHERE grp = ?")
    run(dep, stmt.execute(0))
    template = stmt._template
    assert template is not None
    run(dep, stmt.execute(1))
    assert stmt._template is template  # no data change: same template


def test_prepared_dml_and_arity_errors():
    dep = make_db(rows=4)
    session = QuerySession(dep.engine)
    insert = session.prepare(
        "INSERT INTO users (id, grp, name, score) VALUES (?, ?, ?, ?)")
    run(dep, insert.execute(50, 2, "fifty", 5.0))
    update = session.prepare("UPDATE users SET name = ? WHERE id = ?")
    run(dep, update.execute("renamed", 50))
    check = run(dep, session.execute(
        "SELECT name FROM users WHERE id = 50"))
    assert [list(r) for r in check.rows] == [["renamed"]]

    with pytest.raises(QueryError):
        run(dep, insert.execute(1, 2, "short"))  # too few params
    with pytest.raises(QueryError):
        run(dep, update.execute("a", 1, "extra"))  # too many params


def test_unprepared_placeholder_rejected_by_execute():
    dep = make_db(rows=4)
    session = QuerySession(dep.engine)
    with pytest.raises(QueryError):
        run(dep, session.execute("SELECT id FROM users WHERE id = ?"))


def test_param_eval_unbound_raises():
    statement, _ = parse_entry("SELECT id FROM users WHERE id = ?")
    with pytest.raises(QueryError):
        statement.where.eval({"id": 1})
