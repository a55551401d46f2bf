"""The engine against ``row_oracle.RowOracle``: byte-identical results and
an identical virtual clock, operator by operator.

Every operator of ``repro.query.executor`` returns a ``ColumnBatch``; the
oracle is the dict-at-a-time interpreter it replaced.  ``test_columnar.py``
(the 22 CH queries) and ``test_predicate.py`` (random queries) hold the
engine's answers to the oracle's on one deployment; this module adds the
clock, the operators the CH queries exercise thinly (IndexNLJoin, the
Project/Sort/Limit tail) and the errors a plan may carry into a kernel.
"""

import pytest

from repro.common import KB, MB, QueryError
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query.ast import BinOp, ColumnRef, Literal, Select
from repro.query.cache import parse_entry
from repro.query.plan import (
    Aggregate,
    HashJoin,
    IndexNLJoin,
    Limit,
    SeqScan,
    Sort,
    explain,
)
from repro.shard import merge
from repro.workloads.tpcch import CH_QUERIES, TpcchDatabase, ch_query_sql

from .row_oracle import RowOracle, assert_parity, execute
from .test_columnar import CH_CONFIG


def run(dep, generator):
    proc = dep.env.process(generator)
    dep.env.run_until_event(proc)
    return proc.value


# ---------------------------------------------------------------------------
# The virtual clock: same cpu.consume amounts, same fetch_page order
# ---------------------------------------------------------------------------


def ch_deployment():
    # 4-page buffer pool, no push-down session: every scan and every index
    # probe goes through fetch_page, most of them past DRAM.
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
        yield env.timeout(0.3)

    run(dep, load(dep.env))
    return dep


@pytest.mark.parametrize("hash_joins", [False, True], ids=["planner", "hash"])
def test_engine_and_oracle_leave_the_same_virtual_clock(hash_joins):
    """Twin same-seed deployments, the engine on one and the oracle on the
    other: after each of the 22 CH queries the clocks, the pages scanned
    and the index lookups are exactly equal - the contract that lets a
    benchmark's ``sim_*`` numbers survive any change of executor."""
    ours, theirs = ch_deployment(), ch_deployment()
    assert ours.env.now == theirs.env.now
    session = ours.new_session(enable_pushdown=False, force_hash_joins=hash_joins)
    oracle = RowOracle(theirs.engine, hash_joins)
    nested = 0
    for query_no in sorted(CH_QUERIES):
        sql = ch_query_sql(query_no)
        nested += "IndexNLJoin" in explain(session.plan(sql))
        got = execute(ours, session, sql)
        want = execute(theirs, oracle, sql)
        assert (got.columns, got.rows) == (want.columns, want.rows), query_no
        assert ours.env.now == theirs.env.now, query_no
        assert session.pages_scanned == oracle.pages_scanned, query_no
        assert session.index_lookups == oracle.index_lookups, query_no
    # At this scale the planner's own joins put an index nested-loop join
    # in ten of the queries (eight at the benchmark's).
    assert (nested >= 8) is not hash_joins and (nested == 0) is hash_joins


# ---------------------------------------------------------------------------
# A small database with NULLs, a composite key and a secondary index
# ---------------------------------------------------------------------------

A_ROWS = [[1, 5, "p"], [2, None, "q"], [3, 7, "r"], [4, None, "s"], [5, 5, "t"]]
B_ROWS = [[1, 5, "u"], [2, None, "v"], [3, 9, "w"], [4, None, "x"], [5, 7, "y"]]
C_ROWS = [[10, 1, 100], [11, 3, None], [12, 3, 300], [13, 5, 500]]
D_ROWS = [[1, 1, 11], [1, 2, None], [3, 1, 31], [3, 2, 32], [3, 3, 33], [9, 1, 91]]


def small_db():
    dep = Deployment(
        DeploymentSpec.astore_pq(
            seed=5,
            engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
            ebp_capacity_bytes=16 * MB,
        )
    )
    dep.start()
    engine = dep.engine
    engine.create_table("a", Schema([
        Column("id", INT()), Column("x", INT(), nullable=True),
        Column("name", VARCHAR(8))]), ["id"])
    engine.create_table("b", Schema([
        Column("id", INT()), Column("y", INT(), nullable=True),
        Column("tag", VARCHAR(8))]), ["id"])
    engine.create_table("c", Schema([
        Column("cid", INT()), Column("b_id", INT()),
        Column("z", INT(), nullable=True)]), ["cid"]
    ).add_secondary_index("c_b_idx", ["b_id"])
    engine.create_table("d", Schema([
        Column("w", INT()), Column("n", INT()),
        Column("v", INT(), nullable=True)]), ["w", "n"])
    engine.create_table("e", Schema([Column("id", INT())]), ["id"])  # empty

    def load(env):
        txn = engine.begin()
        for table, rows in (("a", A_ROWS), ("b", B_ROWS), ("c", C_ROWS),
                            ("d", D_ROWS)):
            for row in rows:
                yield from engine.insert(txn, table, row)
        yield from engine.commit(txn)

    run(dep, load(dep.env))
    return dep


@pytest.fixture(scope="module")
def db():
    return small_db()


def nl_join_of(dep, sql):
    """The (first) IndexNLJoin the planner's own join choice gives ``sql``."""
    node = dep.new_session(enable_pushdown=False, force_hash_joins=False).plan(sql)
    while not isinstance(node, IndexNLJoin):
        node = getattr(node, "child", None) or node.outer
    return node


# ---------------------------------------------------------------------------
# IndexNLJoin
# ---------------------------------------------------------------------------


def test_nl_join_full_pk_probe_skips_null_outer_keys(db):
    sql = "SELECT a.id, b.tag FROM a JOIN b ON a.x = b.id ORDER BY a.id"
    join = nl_join_of(db, sql)
    assert (join.index_name, join.inner_columns) == ("", ["id"])
    # a.x is NULL on rows 2 and 4, and 7 matches no b.id.
    assert assert_parity(db, sql).rows == [(1, "y"), (5, "y")]


def test_nl_join_pk_prefix_probe_returns_every_row_under_the_prefix(db):
    sql = "SELECT a.id, d.n, d.v FROM a JOIN d ON d.w = a.id"
    join = nl_join_of(db, sql)
    assert (join.index_name, join.inner_columns) == ("", ["w"])
    assert assert_parity(db, sql).rows == [
        (1, 1, 11), (1, 2, None), (3, 1, 31), (3, 2, 32), (3, 3, 33)]
    # Both key columns: one lookup per outer row instead of a range.
    sql = "SELECT a.id, d.v FROM a JOIN d ON d.w = a.id AND d.n = a.x - 4"
    assert nl_join_of(db, sql).inner_columns == ["w", "n"]
    assert assert_parity(db, sql).rows == [(1, 11), (3, 33)]


def test_nl_join_secondary_index_probe(db):
    sql = "SELECT b.tag, c.cid FROM b JOIN c ON c.b_id = b.id"
    assert nl_join_of(db, sql).index_name == "c_b_idx"
    assert assert_parity(db, sql).rows == [
        ("u", 10), ("w", 11), ("w", 12), ("y", 13)]


def test_nl_join_inner_filter_then_residual(db):
    # b.y > 5 is b's own filter: there is no scan node to carry it, so it
    # rides the join and applies per probed row, before the residual.
    sql = ("SELECT a.id, b.y FROM a JOIN b ON a.x = b.id "
           "WHERE b.y > 5 AND a.id < b.y ORDER BY a.id")
    join = nl_join_of(db, sql)
    assert join.inner_filter is not None and join.residual is not None
    assert assert_parity(db, sql).rows == [(1, 7), (5, 7)]
    sql = sql.replace("a.id < b.y", "a.id * 2 < b.y")
    assert assert_parity(db, sql).rows == [(1, 7)]
    sql = sql.replace("b.y > 5", "b.y > 7")  # the inner filter keeps no row
    assert assert_parity(db, sql).rows == []


def test_nl_join_above_a_hash_join_and_a_hash_join_above_it(db):
    # y has no index: a-b hashes, then c's primary key takes b.id + 9.
    sql = ("SELECT a.name, b.tag, c.z FROM a JOIN b ON a.x = b.y "
           "JOIN c ON c.cid = b.id + 9 ORDER BY a.name")
    join = nl_join_of(db, sql)
    assert isinstance(join.outer, HashJoin)
    assert assert_parity(db, sql).rows == [("p", "u", 100), ("t", "u", 100)]
    # b's primary key takes a.x, then z (no index) hashes against a.id * 100.
    sql = ("SELECT a.id, b.tag, c.cid FROM a JOIN b ON a.x = b.id "
           "JOIN c ON c.z = a.id * 100 ORDER BY a.id")
    plan = db.new_session(enable_pushdown=False, force_hash_joins=False).plan(sql)
    assert isinstance(plan.child.child, HashJoin)
    assert isinstance(plan.child.child.left, IndexNLJoin)
    assert assert_parity(db, sql).rows == [(1, "y", 10), (5, "y", 13)]


def test_select_star_over_an_nl_join_is_every_column_of_both_sides(db):
    sql = "SELECT * FROM a JOIN b ON a.x = b.id WHERE a.id = 5"
    nl_join_of(db, sql)
    result = assert_parity(db, sql)
    assert result.columns == ["a.id", "a.name", "a.x", "b.id", "b.tag", "b.y"]
    assert result.rows == [(5, "t", 5, 5, "y", 7)]


def test_nl_join_decodes_only_the_inner_columns_something_reads(monkeypatch):
    dep = small_db()
    wide = Schema([Column("id", INT())] + [
        Column("c%d" % i, VARCHAR(8) if i % 2 else INT(), nullable=True)
        for i in range(1, 11)
    ])
    dep.engine.create_table("w", wide, ["id"])

    def load(env):
        txn = dep.engine.begin()
        for k in range(1, 8):
            row = [k] + [("s%d" % (k * i)) if i % 2 else k * i for i in range(1, 11)]
            yield from dep.engine.insert(txn, "w", row)
        yield from dep.engine.commit(txn)

    run(dep, load(dep.env))
    sql = ("SELECT a.id, w.c3, w.c8 FROM a JOIN w ON w.id = a.x "
           "WHERE w.c4 > 4 AND a.id < w.c10 ORDER BY a.id")
    join = nl_join_of(dep, sql)
    # The select list, the inner filter, the join key and the residual.
    assert join.inner_projection == ("id", "c3", "c4", "c8", "c10")
    decoded = []
    decode = Schema.decode_rows_into

    def recording(schema, rows, positions, arrays):
        if schema is wide:
            decoded.append(positions)
        return decode(schema, rows, positions, arrays)

    monkeypatch.setattr(Schema, "decode_rows_into", recording)
    nested = execute(dep, dep.new_session(
        enable_pushdown=False, force_hash_joins=False), sql)
    assert decoded == [(0, 3, 4, 8, 10)]
    hashed = execute(dep, dep.new_session(
        enable_pushdown=False, force_hash_joins=True), sql)
    assert (nested.columns, nested.rows) == (hashed.columns, hashed.rows)
    assert nested.rows == [(1, "s15", 40), (3, "s21", 56), (5, "s15", 40)]
    assert assert_parity(dep, sql).rows == nested.rows


def test_a_slot_deleted_under_the_locator_joins_and_looks_up_nothing():
    dep = small_db()
    table = dep.engine.catalog.table("b")
    page_no, _slot = table.lookup((5,))
    # An index entry whose row is gone from the page (a reader between a
    # delete's page op and its index maintenance sees exactly this).
    table.pk_index.insert((7,), (page_no, 999))
    sql = "SELECT a.id, b.tag FROM a JOIN b ON a.x = b.id ORDER BY a.id"
    nl_join_of(dep, sql)
    assert assert_parity(dep, sql).rows == [(1, "y"), (5, "y")]  # not a.id 3
    assert "IndexLookup" in explain(RowOracle(dep.engine).plan(
        "SELECT tag FROM b WHERE id = 7"))
    assert assert_parity(dep, "SELECT tag FROM b WHERE id = 7").rows == []
    assert assert_parity(dep, "SELECT tag FROM b WHERE id = 5").rows == [("y",)]


# ---------------------------------------------------------------------------
# The tail: Project, Sort, Limit
# ---------------------------------------------------------------------------


def test_order_by_resolves_alias_then_source_then_aggregate(db):
    # An alias shadows the source column of the same name...
    assert assert_parity(db, "SELECT id, x + id AS x FROM a ORDER BY x DESC").rows == [
        (3, 10), (5, 10), (1, 6), (2, None), (4, None)]
    assert assert_parity(db, "SELECT id AS x, x AS y FROM a ORDER BY x DESC LIMIT 2").rows == [
        (5, 5), (4, None)]
    # ...a qualified key still reads the source, selected or not...
    assert assert_parity(db, "SELECT id AS x FROM a ORDER BY a.x DESC, id").rows == [
        (3,), (1,), (5,), (2,), (4,)]
    assert assert_parity(db, "SELECT name FROM a ORDER BY id DESC LIMIT 2").rows == [
        ("t",), ("s",)]
    # ...an expression is evaluated over both...
    assert assert_parity(db, "SELECT id AS k FROM a ORDER BY k * -1 + a.id * 0").rows == [
        (5,), (4,), (3,), (2,), (1,)]
    # ...and an aggregate is the Aggregate's column, selected or aliased.
    by_sum = "SELECT x, sum(id) AS s, count(*) FROM a GROUP BY x ORDER BY %s"
    for key in ("sum(id) DESC", "s DESC", "sum(id) * -1", "count(*), sum(id) DESC"):
        assert assert_parity(db, by_sum % key).rows[0] == (
            (5, 6, 2) if "count" not in key else (7, 3, 1))


def test_order_by_null_placement_and_stable_ties(db):
    # x: 5 NULL 7 NULL 5 - ties (and the NULLs) keep their input order.
    assert assert_parity(db, "SELECT id FROM a ORDER BY x").rows == [
        (2,), (4,), (1,), (5,), (3,)]
    assert assert_parity(db, "SELECT id FROM a ORDER BY x DESC").rows == [
        (3,), (1,), (5,), (2,), (4,)]
    assert assert_parity(db, "SELECT id FROM a ORDER BY x DESC, id DESC").rows == [
        (3,), (5,), (1,), (4,), (2,)]


def test_limit_zero_limit_beyond_the_rows_and_shared_output_names(db):
    result = assert_parity(db, "SELECT id, x FROM a ORDER BY id LIMIT 0")
    assert (result.columns, result.rows) == (["id", "x"], [])
    assert len(assert_parity(db, "SELECT id FROM a ORDER BY id LIMIT 99").rows) == 5
    # SELECT * names its columns from the rows it read, before the LIMIT...
    result = assert_parity(db, "SELECT * FROM a LIMIT 0")
    assert (result.columns, result.rows) == (["a.id", "a.name", "a.x"], [])
    # ...so it names none when there was no row to read.
    result = assert_parity(db, "SELECT * FROM a WHERE id > 99 ORDER BY id")
    assert (result.columns, result.rows) == ([], [])
    result = assert_parity(db, "SELECT id, id, x AS id FROM a ORDER BY id DESC LIMIT 1")
    assert (result.columns, result.rows) == (["id", "id", "id"], [(5, 5, 5)])


def test_aggregates_over_no_rows(db):
    assert assert_parity(
        db, "SELECT count(*), sum(x), min(name) FROM a WHERE id > 99"
    ).rows == [(0, None, None)]
    assert assert_parity(
        db, "SELECT x, count(*) FROM a WHERE id > 99 GROUP BY x ORDER BY x"
    ).rows == []
    # The identity row of a global aggregate has no sample row behind it.
    for session in (RowOracle(db.engine), db.new_session(enable_pushdown=False),
                    db.new_session(pushdown_row_threshold=1)):
        with pytest.raises(QueryError, match="column 'x' not in row"):
            execute(db, session, "SELECT count(*), x FROM a WHERE id > 99")
        # With a row, the first one of the group is the sample.
        assert execute(db, session, "SELECT count(*), x FROM a").rows == [(5, 5)]


def test_hand_built_plans_without_a_project_on_top(db):
    session = db.new_session(enable_pushdown=False)
    oracle = RowOracle(db.engine)
    names = db.engine.catalog.table("a").schema.names

    def scan(filter=None):
        return SeqScan(table_name="a", binding="a", filter=filter,
                       projection=names, stored_columns=len(names))

    a_id, a_x = ColumnRef("id", "a"), ColumnRef("x", "a")
    total = parse_entry("SELECT sum(id) FROM a")[0].items[0].expr
    plans = [
        scan(),
        scan(BinOp(">", a_id, Literal(99))),  # no rows: no columns either
        Limit(child=Sort(child=scan(), order_by=[(a_x, True), (a_id, True)]), count=2),
        Limit(child=scan(), count=0),
        # Aggregate columns are not column names: only the sample's show.
        Aggregate(child=scan(), group_exprs=[a_x], aggregates=[total]),
        Sort(child=Aggregate(child=scan(), group_exprs=[a_x], aggregates=[total]),
             order_by=[(total, True)]),
    ]
    for plan in plans:
        got = run(db, session.execute_plan(plan))
        want = run(db, oracle.execute_plan(plan))
        assert (got.columns, got.rows) == (want.columns, want.rows), explain(plan)
    got = run(db, session.execute_plan(plans[1]))
    assert (got.columns, got.rows) == ([], [])
    got = run(db, session.execute_plan(plans[2]))
    assert got.columns == ["a.id", "a.name", "a.x"]
    assert got.rows == [(3, "r", 7), (5, "t", 5)]
    assert run(db, session.execute_plan(plans[5])).rows[0] == (1, "p", 5)


# ---------------------------------------------------------------------------
# Lazy errors: the oracle's message, on the first row and not before
# ---------------------------------------------------------------------------

UNKNOWN = ColumnRef("nope")
AMBIGUOUS = ColumnRef("id")  # a.id or b.id, once both are in the row
JOIN_SQL = "SELECT {item} FROM a JOIN b ON a.x = b.id{where}{tail}"


def _find(node, kinds, binding=None):
    if isinstance(node, kinds) and binding in (None, getattr(node, "binding", None)):
        return node
    for attr in ("child", "left", "right", "outer"):
        below = getattr(node, attr, None)
        found = _find(below, kinds, binding) if below is not None else None
        if found is not None:
            return found
    return None


def _plans_carrying(bad, hash_joins):
    """``(where, factory)``: ``factory(planner, empty)`` plans a statement
    with ``bad`` in one place - written into the SQL where the planner
    never looks, planted into the plan where the planner itself would have
    refused it - and, if ``empty``, no row to reach it."""

    def written(item="a.name", tail=""):
        def factory(planner, empty):
            sql = JOIN_SQL.format(
                item=item, tail=tail, where=" WHERE a.id > 99" if empty else "")
            return planner.plan_select(parse_entry(sql)[0])
        return factory

    def planted(plant):
        # Both ids are selected, so both are in the joined row.
        plan_of = written("a.id, b.id")

        def factory(planner, empty):
            plan = plan_of(planner, empty)
            plant(_find(plan, (HashJoin, IndexNLJoin)))
            return plan
        return factory

    def scan_filter(planner, empty):
        sql = "SELECT e.id FROM e" if empty else "SELECT a.id FROM a"
        plan = planner.plan_select(parse_entry(sql)[0])
        _find(plan, SeqScan).filter = BinOp("=", bad, Literal(1))
        return plan

    def join_key(join):
        setattr(join, "left_keys" if hash_joins else "outer_keys", [bad])

    def residual(join):
        join.residual = BinOp("<", bad, Literal(3))

    def inner_filter(join):
        join.inner_filter = BinOp("<", bad, Literal(3))

    plans = [
        ("residual", planted(residual)),
        ("group key", written("count(*)", " GROUP BY %s" % bad.key)),
        ("aggregate argument", written("sum(%s)" % bad.key)),
        ("select item", written("%s + 1" % bad.key)),
        ("sort key", written(tail=" ORDER BY %s" % bad.key)),
    ]
    if bad is UNKNOWN:  # one table in the row there: ``id`` is its id
        plans += [("filter", scan_filter), ("join key", planted(join_key))]
        if not hash_joins:
            plans.append(("inner filter", planted(inner_filter)))
    return plans


@pytest.mark.parametrize("hash_joins", [False, True], ids=["planner", "hash"])
@pytest.mark.parametrize("bad", [UNKNOWN, AMBIGUOUS], ids=["unknown", "ambiguous"])
def test_bad_columns_raise_on_the_first_row_only(
    db, bad, hash_joins
):
    session = db.new_session(enable_pushdown=False, force_hash_joins=hash_joins)
    oracle = RowOracle(db.engine, hash_joins)
    runners = ((oracle, oracle.planner), (session, session.planner))
    for where, factory in _plans_carrying(bad, hash_joins):
        messages = []
        for runner, planner in runners:
            with pytest.raises(QueryError) as raised:
                run(db, runner.execute_plan(factory(planner, False)))
            messages.append(str(raised.value))
        assert messages == ["column %r not in row" % bad.key] * 2, where
        # No row reaches the expression: nothing to raise.
        want, got = (
            run(db, runner.execute_plan(factory(planner, True)))
            for runner, planner in runners
        )
        assert (got.columns, got.rows) == (want.columns, want.rows), where
        assert len(got.rows) == (where == "aggregate argument"), where


# ---------------------------------------------------------------------------
# One answer everywhere: engine, oracle, scatter-gather merges
# ---------------------------------------------------------------------------

T_ROWS = [[1, 1, 10, None, "ab"], [2, 2, 4, 5, "cd"], [3, 3, 99, 1, "ae"],
          [4, 1, -3, 5, "zz"], [5, 2, 2, None, "ab"]]


def t_deployment(rows):
    dep = Deployment(DeploymentSpec.astore_log(seed=3))
    dep.start()
    dep.engine.create_table("t", Schema([
        Column("a", INT()), Column("g", INT()), Column("x", INT()),
        Column("b", INT(), nullable=True), Column("s", VARCHAR(8))]), ["a"])

    def load(env):
        txn = dep.engine.begin()
        for row in rows:
            yield from dep.engine.insert(txn, "t", row)
        yield from dep.engine.commit(txn)

    run(dep, load(dep.env))
    return dep


@pytest.fixture(scope="module")
def scattered():
    """``t`` whole on one engine, and cut in two as a 2-shard scatter sees
    it.  ``scattered(sql)`` is the engine's answer (checked against the
    oracle) and the proxy's merge of the two per-shard legs."""
    whole = t_deployment(T_ROWS)
    shards = [t_deployment(T_ROWS[:2]), t_deployment(T_ROWS[2:])]

    def answers(sql):
        statement = parse_entry(sql)[0]
        assert isinstance(statement, Select)
        one = assert_parity(whole, sql)
        legs = [(dep, dep.new_session(enable_pushdown=False)) for dep in shards]
        return one, merge(statement, [
            run(dep, session.execute_partial_select(statement, sql))
            for dep, session in legs
        ])

    return answers


@pytest.mark.parametrize("item, value", [
    ("sum(x) BETWEEN 100 AND 200", True),
    ("sum(x) IN (5, 6)", False),
    ("min(s) LIKE 'a%'", True),
    ("sum(x) + 0 BETWEEN min(x) AND 112", True),
    ("sum(x) IN (112, 6) AND count(*) BETWEEN 5 AND 5", True),
    ("NOT max(s) LIKE '%z'", False),
], ids=["between", "in", "like", "between-aggs", "and", "not-like"])
def test_aggregate_under_between_in_like_has_one_answer(scattered, item, value):
    one, merged = scattered("SELECT %s AS b FROM t" % item)
    assert (one.columns, one.rows) == (["b"], [(value,)])
    # Legs ship partial groups; the merge finalizes once.
    assert (merged.columns, merged.rows) == (one.columns, one.rows)


@pytest.mark.parametrize("key, order", [
    ("sum(x) BETWEEN 5 AND 7 DESC, g", [1, 2, 3]),
    ("sum(x) IN (99) DESC, g DESC", [3, 2, 1]),
    ("min(s) LIKE '%b', g", [3, 1, 2]),
], ids=["between", "in", "like"])
def test_aggregate_under_between_in_like_sorts_everywhere(scattered, key, order):
    one, merged = scattered(
        "SELECT g, sum(x) AS total, min(s) AS low FROM t GROUP BY g ORDER BY %s"
        % key
    )
    rows = {1: (1, 7, "ab"), 2: (2, 6, "ab"), 3: (3, 99, "ae")}
    assert one.rows == [rows[g] for g in order]
    assert merged.rows == one.rows


def test_a_scattered_order_by_is_the_engines_order(scattered):
    # A NULL among the keys: it sorts first ascending, as on one engine.
    one, merged = scattered("SELECT a, b FROM t ORDER BY b, a DESC")
    assert one.rows == [(5, None), (1, None), (3, 1), (4, 5), (2, 5)]
    assert merged.rows == one.rows
    one, merged = scattered("SELECT a, b AS k FROM t ORDER BY k DESC, a LIMIT 3")
    assert one.rows == [(2, 5), (4, 5), (3, 1)]
    assert merged.rows == one.rows
    # An aggregate key is the select item that computes it.
    for key, first in (("sum(x) DESC", (3, 99, 1)), ("s DESC", (3, 99, 1)),
                       ("sum(x) * -1", (3, 99, 1)), ("count(*) DESC, g", (1, 7, 2))):
        one, merged = scattered(
            "SELECT g, sum(x) AS s, count(*) FROM t GROUP BY g ORDER BY %s LIMIT 1"
            % key
        )
        assert one.rows == [first], key
        assert merged.rows == one.rows, key
    # A group split across the shards: no leg may cut its groups by the
    # statement's LIMIT (or rank them by a partial aggregate) before the
    # merge.  Per-shard top-1s would be (1, -3.0) and (3, 1).
    for sql, top in (
        ("SELECT g, sum(x) AS s FROM t GROUP BY g ORDER BY s LIMIT 1", (2, 6.0)),
        ("SELECT g, count(*) AS n FROM t GROUP BY g ORDER BY n DESC, g DESC "
         "LIMIT 1", (2, 2)),
    ):
        one, merged = scattered(sql)
        assert merged.rows == one.rows == [top], sql
    # Whole rows came back from a plain select: a key the select list does
    # not carry cannot be ordered after the fact.  A loud refusal, not
    # shard-concat order.
    with pytest.raises(QueryError, match="cannot scatter-gather: ORDER BY"):
        scattered("SELECT a FROM t ORDER BY b")
    # Groups bring their sample row: ordered by it, as on one engine.
    one, merged = scattered("SELECT g, count(*) AS n FROM t GROUP BY g ORDER BY x")
    assert merged.rows == one.rows == [(2, 2), (1, 2), (3, 1)]


# ---------------------------------------------------------------------------
# One tail, three entries: engine plan, scatter merge, view serve
# ---------------------------------------------------------------------------

TAIL_VIEWS = {
    "by_g": "SELECT g, count(*), sum(x), avg(x), max(b) FROM t GROUP BY g",
    "by_s": "SELECT s, min(b) FROM t GROUP BY s",
    "none": "SELECT count(*), sum(x), min(s) FROM t WHERE a > 99",
    "rows": "SELECT a, b, s FROM t",
}
#: (select list, FROM t ..., ORDER BY / LIMIT tail, view that serves it)
TAIL_CASES = {
    "alias-key": ("g, sum(x) AS s", "GROUP BY g", "ORDER BY s LIMIT 2", None),
    "alias-key-plain": ("a AS k, b", "", "ORDER BY k DESC LIMIT 3", None),
    "aggregate-key": ("g, count(*) AS n, avg(x)", "GROUP BY g",
                      "ORDER BY count(*) DESC, g DESC LIMIT 1", "by_g"),
    "aggregate-expression": ("g, sum(x) / count(*) AS mean, count(*)", "GROUP BY g",
                             "ORDER BY sum(x) * -1 + count(*), g", None),
    "desc-nulls": ("s, min(b) AS low", "GROUP BY s",
                   "ORDER BY min(b) DESC, s DESC", "by_s"),
    "desc-nulls-plain": ("a, b", "", "ORDER BY b DESC, a DESC LIMIT 4", "rows"),
    "duplicate-names": ("g, count(*) AS g, sum(x) AS g", "GROUP BY g",
                        "ORDER BY g DESC LIMIT 2", "by_g"),
    "duplicate-names-plain": ("s, a AS s, b", "", "ORDER BY s DESC, b", "rows"),
    # The first item named ``s`` is the key, though the view stores a column s.
    "alias-shadows-column": ("a * 1 AS s, s", "", "ORDER BY s DESC LIMIT 2", None),
    "alias-shadows-stored-column": ("a AS s, s", "", "ORDER BY s DESC LIMIT 2", "rows"),
    "zero-rows": ("count(*), sum(x) AS total, min(s)", "WHERE a > 99", "", "none"),
    "zero-rows-sorted": ("count(*), sum(x), min(s)", "WHERE a > 99",
                         "ORDER BY sum(x) DESC LIMIT 5", "none"),
    "limit-0": ("g, max(b)", "GROUP BY g", "ORDER BY g LIMIT 0", "by_g"),
    "limit-0-plain": ("s, a", "", "LIMIT 0", "rows"),
    "sample-row-key": ("g, count(*)", "GROUP BY g", "ORDER BY x DESC", None),
    "unsorted": ("g, sum(x), avg(x)", "GROUP BY g", "", "by_g"),
}


@pytest.fixture(scope="module")
def viewed():
    """``t`` whole on an engine whose REDO feed maintains ``TAIL_VIEWS``."""
    dep = Deployment(DeploymentSpec.astore_log(seed=3).with_views(TAIL_VIEWS))
    dep.start()
    dep.engine.create_table("t", Schema([
        Column("a", INT()), Column("g", INT()), Column("x", INT()),
        Column("b", INT(), nullable=True), Column("s", VARCHAR(8))]), ["a"])

    def load(env):
        txn = dep.engine.begin()
        for row in T_ROWS:
            yield from dep.engine.insert(txn, "t", row)
        yield from dep.engine.commit(txn)
        while not dep.views.caught_up():
            yield env.timeout(0.002)

    run(dep, load(dep.env))
    return dep


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_engine_scatter_merge_and_view_serve_share_one_tail(scattered, viewed, case):
    items, source, tail, view_name = TAIL_CASES[case]
    sql = " ".join(("SELECT", items, "FROM t", source, tail)).strip()
    one, merged = scattered(sql)
    assert (merged.columns, merged.rows) == (one.columns, one.rows)
    statement = parse_entry(sql)[0]
    match = viewed.views.match(statement)
    assert (match and match[0].definition.name) == view_name
    if match is not None:
        served = run(viewed, viewed.views.serve(match[0], statement, match[1]))
        assert (served.columns, served.rows) == (one.columns, one.rows)
    # Not vacuous: what the matrix is there to pin.
    expected = {
        "alias-key": [(2, 6.0), (1, 7.0)],
        "aggregate-key": [(2, 2, 3.0)],
        "desc-nulls": [("zz", 5), ("cd", 5), ("ae", 1), ("ab", None)],
        "desc-nulls-plain": [(4, 5), (2, 5), (3, 1), (5, None)],
        "duplicate-names": [(3, 1, 99.0), (2, 2, 6.0)],
        "zero-rows": [(0, None, None)],
        "limit-0": [],
        "alias-shadows-stored-column": [(5, "ab"), (4, "zz")],
    }
    if case in expected:
        assert one.rows == expected[case]


def test_legs_that_plan_their_joins_differently_still_merge(db):
    # One leg hashes (and gathers only the live columns), the other probes
    # c's secondary index (and carries both tables whole): the samples the
    # merge concatenates share exactly what the tail can read.
    sql = ("SELECT b.tag, count(*) AS n, sum(c.z) AS z FROM b JOIN c "
           "ON c.b_id = b.id GROUP BY b.tag ORDER BY b.y DESC")
    statement = parse_entry(sql)[0]

    def legs(*hash_joins):
        return [
            run(db, db.new_session(
                enable_pushdown=False, force_hash_joins=hashed
            ).execute_partial_select(statement, sql))
            for hashed in hash_joins
        ]

    hashed, nested = (
        set(samples.keys) for _aggs, (_, samples, _) in legs(True, False))
    assert hashed == {"b.tag", "b.y", "c.z"} and hashed < nested
    one = assert_parity(db, sql)
    assert one.rows == [("w", 2, 300.0), ("y", 1, 500.0), ("u", 1, 100.0)]
    # The same rows twice over: every count and sum doubles.
    for order in ((True, False), (False, True)):
        assert merge(statement, legs(*order)).rows == [
            (tag, n * 2, z * 2) for tag, n, z in one.rows]
