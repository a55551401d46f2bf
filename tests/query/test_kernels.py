"""Generated operator kernels: group-by against the row accumulator, the
hash-join kernels' NULL and uniqueness rules, live join-output columns,
the kernel cache, and the two executor bug fixes under every session
configuration, against the row oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import KB, MB, QueryError
from repro.engine.codec import INT, VARCHAR, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query import kernels
from repro.query.ast import AggCall, BinOp, ColumnRef, Literal
from repro.query.columnar import ColumnBatch
from repro.query.plan import HashJoin, IndexNLJoin, explain

from .row_oracle import (
    RowOracle,
    accumulators_of,
    execute,
    new_agg_states,
    update_agg_states,
)

A, B, G = ColumnRef("a", "t"), ColumnRef("b", "t"), ColumnRef("g", "t")


def batch_of(rows, exact=False):
    keys = ("t.g", "t.a", "t.b")
    arrays = [[row[k] for row in rows] for k in keys]
    nullable = [None in array for array in arrays] if exact else None
    return ColumnBatch(keys, arrays, len(rows), nullable)


# ---------------------------------------------------------------------------
# Group-by kernel vs update_agg_states
# ---------------------------------------------------------------------------

_value = st.one_of(st.none(), st.integers(-5, 5), st.floats(-4, 4, width=16))
_row = st.fixed_dictionaries(
    {"t.g": st.one_of(st.none(), st.integers(0, 3)), "t.a": _value,
     "t.b": st.one_of(st.none(), st.integers(-5, 5))}
)
_argument = st.sampled_from([A, B, BinOp("+", A, B), BinOp("*", B, Literal(2))])
_agg = st.one_of(
    st.just(AggCall("count", None)),
    st.tuples(
        st.sampled_from(["count", "sum", "avg", "min", "max"]),
        _argument,
        st.booleans(),
    ).map(lambda t: AggCall(*t)),
)
_groups = st.sampled_from([[], [G], [G, BinOp("<", B, Literal(0))]])
_filter = st.sampled_from([None, BinOp(">", B, Literal(-2)), BinOp("=", G, Literal(9))])


def vector_group_by(batch, group_exprs, aggs, predicate=None):
    """The group-by kernel's flat states as the oracle's accumulators, each
    group's first row index, and the rows that passed."""
    flat, rows = kernels.group_by(batch, group_exprs, aggs, predicate)
    return (
        {key: accumulators_of(state) for key, state in flat.items()},
        {key: state[0] for key, state in flat.items()},
        rows,
    )


def row_group_by(rows, group_exprs, aggs, predicate):
    """The row oracle's grouping loop."""
    groups, first = {}, {}
    for index, row in enumerate(rows):
        if predicate is not None and not predicate.eval(row):
            continue
        key = tuple(expr.eval(row) for expr in group_exprs)
        if key not in groups:
            groups[key] = new_agg_states(aggs)
            first[key] = index
        update_agg_states(groups[key], aggs, row)
    return groups, first


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_row, max_size=12),
    group_exprs=_groups,
    aggs=st.lists(_agg, max_size=4),
    predicate=_filter,
    exact=st.booleans(),
)
def test_property_group_by_kernel_matches_row_accumulators(
    rows, group_exprs, aggs, predicate, exact
):
    want, want_first = row_group_by(rows, group_exprs, aggs, predicate)
    batch = batch_of(rows, exact) if rows else ColumnBatch(
        ("t.g", "t.a", "t.b"), [[], [], []]
    )
    groups, first, passed = vector_group_by(batch, group_exprs, aggs, predicate)
    assert list(groups) == list(want)  # first-seen group order
    assert first == want_first
    assert passed == sum(
        1 for row in rows if predicate is None or predicate.eval(row)
    )
    for key, states in groups.items():
        # Dataclass equality: counts, bit-equal float totals, min/max,
        # DISTINCT sets, and None where an aggregate keeps no such state.
        assert states == want[key], key
        for state, expected in zip(states, want[key]):
            assert type(state.total) is type(expected.total)


def test_group_by_all_null_argument_and_zero_groups():
    rows = [{"t.g": 1, "t.a": None, "t.b": 1}, {"t.g": 1, "t.a": None, "t.b": 2}]
    aggs = [AggCall("sum", A), AggCall("min", A), AggCall("count", A, True),
            AggCall("count", None)]
    groups, first, _ = vector_group_by(batch_of(rows), [G], aggs)
    assert first == {(1,): 0}
    total, low, distinct, star = groups[(1,)]
    assert (total.count, total.total, low.minimum) == (0, 0.0, None)
    assert (distinct.distinct, star.count) == (set(), 2)
    # No row passes: a grouped and a global aggregate both see no group.
    nothing = BinOp("=", G, Literal(9))
    assert vector_group_by(batch_of(rows), [G], aggs, nothing) == ({}, {}, 0)
    assert vector_group_by(batch_of(rows), [], aggs, nothing) == ({}, {}, 0)


# ---------------------------------------------------------------------------
# Hash-join kernels
# ---------------------------------------------------------------------------


def join(left, right, left_keys, right_keys, unique=False, residual=None):
    """(left row, right row) index pairs through the build/probe kernels."""
    built, rows, unique = kernels.hash_build(
        right, right_keys, kernels.nullable(left, left_keys), unique
    )
    assert rows == right.n
    left_sel, right_sel, _ = kernels.probe(
        left, left_keys, built, unique, right, residual
    )
    return list(zip(left_sel, right_sel)), unique


def test_null_key_components_match_nothing():
    left = ColumnBatch(("l.x", "l.y"), [[1, None, 2, None], [1, 1, None, None]])
    right = ColumnBatch(("r.x", "r.y"), [[None, 1, 2, None], [1, 1, None, None]])
    keys = lambda side: [ColumnRef("x", side), ColumnRef("y", side)]  # noqa: E731
    pairs, _ = join(left, right, keys("l"), keys("r"))
    assert pairs == [(0, 1)]
    # Evaluated keys (not bare columns) follow the same rule.
    plus = lambda side: [BinOp("+", ColumnRef("x", side), Literal(0))]  # noqa: E731
    pairs, _ = join(left, right, plus("l"), plus("r"))
    assert pairs == [(0, 1), (2, 2)]
    # A side the schema says cannot be NULL needs no check: nothing built
    # can equal a NULL probe key.
    sure = ColumnBatch(("r.x", "r.y"), [[1, 2], [1, 1]], 2, [False, False])
    assert kernels.hash_build(sure, keys("r"), [True, True])[0] == {
        (1, 1): [0], (2, 1): [1]}
    assert join(left, sure, keys("l"), keys("r"))[0] == [(0, 0)]


@pytest.mark.parametrize("residual", [None, BinOp("<", ColumnRef("v", "l"),
                                                  ColumnRef("w", "r"))])
def test_unique_build_is_checked_and_equals_the_list_build(residual):
    # Keys that cannot be NULL: a NULL-checked build never claims unique.
    sure = (None, [False, False])
    left = ColumnBatch(("l.k", "l.v"), [[3, 1, 2, 1, 9], [10, 20, 30, 40, 50]])
    once = ColumnBatch(("r.k", "r.w"), [[1, 2, 3], [25, 25, 25]], *sure)
    twice = ColumnBatch(("r.k", "r.w"), [[1, 2, 1], [25, 25, 45]], *sure)
    lk, rk = [ColumnRef("k", "l")], [ColumnRef("k", "r")]
    for right in (once, twice):
        listed, _ = join(left, right, lk, rk, False, residual)
        expected, unique = join(left, right, lk, rk, True, residual)
        assert unique is (right is once)  # a repeat falls back to lists
        assert expected == listed
    # Every left row joining exactly once is the identity selection.
    full = ColumnBatch(("l.k",), [[2, 1, 1, 3]])
    built, _, unique = kernels.hash_build(once, rk, [False], True)
    left_sel, right_sel, matched = kernels.probe(full, lk, built, unique, once)
    assert (left_sel, right_sel, matched) == (range(4), [1, 0, 0, 2], 4)


def test_probe_residual_sees_the_joined_row():
    # r.v shadows nothing here; a bare ``v`` is ambiguous across the sides.
    left = ColumnBatch(("l.k", "l.v"), [[1, 1], [5, 7]])
    right = ColumnBatch(("r.k", "r.v"), [[1, 1], [6, 6]])
    lk, rk = [ColumnRef("k", "l")], [ColumnRef("k", "r")]
    residual = BinOp("<", ColumnRef("v", "l"), ColumnRef("v", "r"))
    built, _, _ = kernels.hash_build(right, rk, [False])
    assert kernels.probe(left, lk, built, False, right, residual) == (
        [0, 0], [0, 1], 4
    )
    # ...and raises as the joined row dict would, once a pair is evaluated.
    ambiguous = BinOp("<", ColumnRef("v"), Literal(6))
    with pytest.raises(QueryError, match="column 'v' not in row"):
        kernels.probe(left, lk, built, False, right, ambiguous)
    assert kernels.probe(left, lk, {}, False, right, ambiguous) == ([], [], 0)


# ---------------------------------------------------------------------------
# Deployment-level: three small tables with NULLs
# ---------------------------------------------------------------------------

A_ROWS = [[1, 5, "p"], [2, None, "q"], [3, 7, "r"], [4, None, "s"], [5, 5, "t"]]
B_ROWS = [[1, 5, "u"], [2, None, "v"], [3, 9, "w"], [4, None, "x"], [5, 7, "y"]]
C_ROWS = [[10, 1, 100], [11, 3, None], [12, 3, 300], [13, 5, 500]]


@pytest.fixture(scope="module")
def db():
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
        Column("z", INT(), nullable=True)]), ["cid"])

    def load(env):
        txn = engine.begin()
        for table, rows in (("a", A_ROWS), ("b", B_ROWS), ("c", C_ROWS)):
            for row in rows:
                yield from engine.insert(txn, table, row)
        yield from engine.commit(txn)

    dep.env.run_until_event(dep.env.process(load(dep.env)))
    return dep


def sessions(dep, hash_joins=True):
    return {
        "row": RowOracle(dep.engine, hash_joins),
        "batch": dep.new_session(
            enable_pushdown=False, force_hash_joins=hash_joins),
        "batch-pq": dep.new_session(
            enable_pushdown=True, force_hash_joins=hash_joins,
            pushdown_row_threshold=1),
    }


def everywhere(dep, sql, hash_joins=True):
    """The one answer the oracle and every session configuration give."""
    results = {
        label: execute(dep, session, sql)
        for label, session in sessions(dep, hash_joins).items()
    }
    for label, result in results.items():
        assert result.columns == results["row"].columns, label
        assert result.rows == results["row"].rows, label
    return results["row"]


def test_null_join_keys_pair_nothing_in_any_mode(db):
    sql = "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y ORDER BY a.id, b.id"
    assert explain(sessions(db)["batch-pq"].plan(sql)).count("hash-build") == 1
    assert everywhere(db, sql).rows == [(1, 1), (3, 5), (5, 1)]
    # Both conjuncts become hash keys; the NULL rows 2 and 4 must not join.
    sql = "SELECT a.id FROM a JOIN b ON a.id = b.id WHERE a.x = b.y ORDER BY a.id"
    assert everywhere(db, sql).rows == [(1,)]


def test_index_nl_join_skips_null_outer_keys(db):
    sql = "SELECT a.id, b.tag FROM a JOIN b ON a.x = b.id ORDER BY a.id"
    plan = sessions(db, hash_joins=False)["row"].plan(sql)
    assert isinstance(plan.child.child, IndexNLJoin)
    assert everywhere(db, sql, hash_joins=False).rows == [(1, "y"), (5, "y")]


def test_select_items_sharing_an_output_name_stay_apart(db):
    sql = "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y ORDER BY a.id, b.id"
    result = everywhere(db, sql)
    assert result.columns == ["id", "id"]
    assert result.rows == [(1, 1), (3, 5), (5, 1)]
    result = everywhere(db, "SELECT x, x + 1 AS x FROM a WHERE x = 7")
    assert (result.columns, result.rows) == (["x", "x"], [(7, 8)])
    # ORDER BY an output name: the first item bearing it.
    result = everywhere(db, "SELECT id AS k, x AS k FROM a ORDER BY k DESC LIMIT 2")
    assert result.rows == [(5, 5), (4, None)]


def test_point_read_with_shared_output_names_equals_the_executor(db):
    session = sessions(db)["batch"]
    for items in ("id, id", "name AS v, x AS v"):
        prepared = session.prepare("SELECT %s FROM a WHERE id = ?" % items)
        proc = db.env.process(prepared.execute(3))
        db.env.run_until_event(proc)
        assert prepared._point is not None  # the compiled fast path ran
        direct = execute(db, session, "SELECT %s FROM a WHERE id = 3" % items)
        assert (proc.value.columns, proc.value.rows) == (direct.columns, direct.rows)
    assert direct.rows == [("r", 7)]


# -- live join-output columns -------------------------------------------------


def hash_joins_of(node):
    found = []
    while node is not None:
        if isinstance(node, HashJoin):
            found.append(node)
        node = next(
            (getattr(node, a) for a in ("child", "left", "outer") if hasattr(node, a)),
            None,
        )
    return found


def test_join_output_is_exactly_the_live_columns(db):
    # b only connects a to c: none of its columns outlives the top join.
    sql = ("SELECT a.name, sum(c.z) AS total FROM a JOIN b ON a.id = b.id "
           "JOIN c ON c.b_id = b.id GROUP BY a.name ORDER BY a.name")
    session = sessions(db)["batch"]
    plan = session.plan(sql)
    top, bottom = hash_joins_of(plan)
    assert bottom.output == ("a.name", "b.id")  # b.id: the next join's key
    assert top.output == ("a.name", "c.z")
    assert (bottom.joined_columns, top.joined_columns) == (3, 5)
    text = explain(plan)
    assert "HashJoin cols=2/5" in text and "HashJoin cols=2/3" in text

    for node in (bottom, top):
        proc = db.env.process(session._run(node))
        db.env.run_until_event(proc)
        assert proc.value.keys == node.output
    assert everywhere(db, sql).rows == [("p", 100.0), ("r", 300.0), ("t", 500.0)]
    # The liveness survives parameter binding.
    from repro.query.cache import bind_plan
    template = session.planner.plan_select(
        session._parse_entry(sql.replace("GROUP BY", "WHERE c.z > ? GROUP BY"))[0]
    )
    assert [j.output for j in hash_joins_of(bind_plan(template, (0,)))] == [
        top.output, bottom.output]


def test_join_counters_and_residual_only_columns(db):
    # tag and name are read by the residual alone: matched, never gathered.
    sql = ("SELECT a.id FROM a JOIN b ON a.id = b.id "
           "WHERE a.name < b.tag OR b.tag = 'zz' ORDER BY a.id")
    session = sessions(db)["batch"]
    (node,) = hash_joins_of(session.plan(sql))
    assert node.residual is not None and node.output == ("a.id",)
    registry = db.registry
    before = {name: registry.value(name) for name in (
        "query.join.cells_joined", "query.join.cells_gathered")}
    assert execute(db, session, sql).rows == [(i,) for i in range(1, 6)]
    assert registry.value("query.join.cells_joined") - before[
        "query.join.cells_joined"] == 5 * 4  # a.id a.name b.id b.tag
    assert registry.value("query.join.cells_gathered") - before[
        "query.join.cells_gathered"] == 5 * 1


def test_ambiguous_bare_name_still_raises(db):
    for sql in ("SELECT id FROM a JOIN b ON a.id = b.id",
                "SELECT a.name FROM a JOIN b ON a.id = b.id WHERE id > 1"):
        errors = set()
        for label, session in sessions(db).items():
            with pytest.raises(QueryError) as raised:
                execute(db, session, sql)
            errors.add(str(raised.value))
        assert len(errors) == 1, errors  # the oracle's error, everywhere


def test_select_star_over_a_join_keeps_every_column(db):
    sql = "SELECT * FROM a JOIN b ON a.id = b.id WHERE a.id = 3"
    (node,) = hash_joins_of(sessions(db)["batch"].plan(sql))
    assert node.output == ("a.id", "a.x", "a.name", "b.id", "b.y", "b.tag")
    result = everywhere(db, sql)
    assert result.columns == sorted(node.output)
    assert result.rows == [(3, "r", 7, 3, "w", 9)]


def test_index_nl_join_above_a_vectorized_join(db):
    # y has no index, so a-b is a hash join; c's primary key takes the
    # second join's key, so that one probes the index once per row of the
    # batch the first produced.
    sql = ("SELECT a.name, b.tag, c.z FROM a JOIN b ON a.x = b.y "
           "JOIN c ON c.cid = b.id + 9 ORDER BY a.name")
    plan = sessions(db, hash_joins=False)["batch"].plan(sql)
    nested = plan.child.child
    assert isinstance(nested, IndexNLJoin) and isinstance(nested.outer, HashJoin)
    assert nested.outer.output == ("a.name", "b.id", "b.tag")
    assert everywhere(db, sql, hash_joins=False).rows == [
        ("p", "u", 100), ("t", "u", 100)]


# -- kernel cache ---------------------------------------------------------------


def test_repeated_and_rebound_statements_compile_nothing(db):
    session = sessions(db)["batch-pq"]
    compiled = lambda: db.registry.value("query.kernels.compiled")  # noqa: E731
    sql = ("SELECT a.name, count(*) AS n FROM a JOIN b ON a.x = b.y "
           "WHERE b.id < 6 GROUP BY a.name ORDER BY a.name")
    first = execute(db, session, sql)
    after_first = compiled()
    assert execute(db, session, sql).rows == first.rows
    assert compiled() == after_first
    prepared = session.prepare(sql.replace("< 6", "< ?"))

    def run(*params):
        proc = db.env.process(prepared.execute(*params))
        db.env.run_until_event(proc)
        return proc.value

    assert run(6).rows == first.rows
    after_prepared = compiled()
    assert run(2).rows != first.rows
    assert compiled() == after_prepared == after_first


def test_generated_source_is_python_3_9(db):
    import ast

    everywhere(db, "SELECT a.name, min(b.y), count(DISTINCT b.tag) FROM a "
                   "JOIN b ON a.x + 0 = b.y WHERE a.x + a.id BETWEEN 1 AND 90 "
                   "AND (b.tag LIKE '%u%' OR a.id < b.id) GROUP BY a.name")
    assert kernels._kernels
    for source in kernels._kernels:
        ast.parse(source, feature_version=(3, 9))


def test_kernel_cache_stays_under_its_cap():
    batch = ColumnBatch(("t.a",), [[1, 2, 3]])
    for number in range(kernels._KERNEL_CACHE_LIMIT + 20):
        expr, digits = ColumnRef("a", "t"), number
        for _ in range(6):  # 3**6 distinct sources
            expr = BinOp("+-*"[digits % 3], expr, Literal(1))
            digits //= 3
        kernels.select(batch, BinOp("<", expr, Literal(0)))
        assert len(kernels._kernels) <= kernels._KERNEL_CACHE_LIMIT
