"""Aggregate before the join (eager aggregation).

Under an Aggregate on a hash join, the planner gives the join's *many side*
- a ``SeqScan`` whose rows join many to one with the other side - a
``partial_agg`` grouping by its join keys.  The scan's groups join as rows,
each carrying its aggregate state in a ``PARTIAL_STATES`` column, and the
Aggregate folds the states (``from_partials``).  The rewrite changes how
many rows the join builds and probes, never what a query returns: the same
plan with the rewrite cleared, the row oracle and a push-down session -
its joins probed on the engine or storage-side - all agree with it.
"""

import copy
import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.common import KB, MB
from repro.engine.codec import FLOAT, INT, Column, Schema
from repro.engine.dbengine import EngineConfig
from repro.harness.deployment import Deployment, DeploymentSpec
from repro.query import pushdown
from repro.query.cache import parse_entry
from repro.query.plan import (
    PARTIAL_STATES,
    Aggregate,
    HashJoin,
    PlanNode,
    SeqScan,
    explain,
)
from repro.shard import merge
from repro.workloads.tpcch import ch_query_sql

from .row_oracle import RowOracle, assert_rows_close, execute
from .test_columnar import ch_dep  # noqa: F401 - the CH database fixture
from .test_pushdown import run


def nodes(plan):
    """Every node of ``plan``, depth first."""
    pending = [plan]
    while pending:
        node = pending.pop()
        yield node
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                pending.append(child)


def grouped_scans(plan):
    """The bindings of the scans that group under a join, sorted."""
    return sorted(
        node.binding for node in nodes(plan)
        if isinstance(node, SeqScan) and node.partial_agg is not None
        and not any(isinstance(parent, Aggregate) and parent.child is node
                    for parent in nodes(plan))
    )


def cleared(plan):
    """A copy of ``plan`` with the rewrite taken off: the many side scans
    rows again and the Aggregate groups the joined rows."""
    plan = copy.deepcopy(plan)
    for node in nodes(plan):
        if isinstance(node, Aggregate) and isinstance(node.child, HashJoin):
            node.from_partials = False
            join = node.child
            if PARTIAL_STATES in join.output:
                join.output = tuple(
                    key for key in join.output if key != PARTIAL_STATES
                )
                join.joined_columns -= 1
            for side in (join.left, join.right):
                if isinstance(side, SeqScan):
                    side.partial_agg = None
    return plan


# ---------------------------------------------------------------------------
# Random small tables
# ---------------------------------------------------------------------------

ONE = Schema([
    Column("k", INT()), Column("j", INT(), nullable=True),
    Column("g", INT(), nullable=True), Column("y", INT(), nullable=True),
])
SIDE = Schema([
    Column("k", INT()), Column("n", INT()), Column("g3", INT(), nullable=True),
])
MANY = Schema([
    Column("id", INT()), Column("k", INT(), nullable=True),
    Column("j", INT(), nullable=True), Column("g2", INT(), nullable=True),
    Column("v", INT(), nullable=True), Column("f", FLOAT(), nullable=True),
])

_small = st.one_of(st.none(), st.integers(0, 2))
_value = st.one_of(st.none(), st.integers(-3, 5))
_float = st.one_of(st.none(), st.sampled_from([0.1, 0.25, 0.7, 1e-3, 2.5, -1.3]))
_one_rows = st.lists(st.tuples(_small, _small, _value), max_size=4)
_side_rows = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 3), _small), max_size=8,
    unique_by=lambda row: row[:2],
)
_many_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 6)), _small, _small, _value, _float,
    ),
    max_size=24,
)
_aggs = st.lists(
    st.sampled_from([
        "count(*)", "count(m.v)", "sum(m.v)", "sum(m.f)", "avg(m.v)",
        "avg(m.f)", "min(m.v)", "max(m.v)", "min(m.f)", "max(m.f)",
        "sum(m.v * 2 + 1)",
    ]),
    min_size=1, max_size=3, unique=True,
)

_deployment = {}
_tables = itertools.count()


def tiny_db():
    """One deployment for every example (tables are added per example)."""
    if "dep" not in _deployment:
        dep = Deployment(DeploymentSpec.astore_pq(
            seed=3,
            engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
            ebp_capacity_bytes=16 * MB,
        ))
        dep.start()
        _deployment["dep"] = dep
    return _deployment["dep"]


def load(dep, tables):
    """Create and fill ``{prefix: (schema, key, rows)}`` under fresh names;
    returns the names by prefix."""
    engine = dep.engine
    number = next(_tables)
    names = {prefix: "%s%d" % (prefix, number) for prefix in tables}

    def fill(env):
        txn = engine.begin()
        for prefix, (schema, key, rows) in tables.items():
            engine.create_table(names[prefix], schema, key)
            for row in rows:
                yield from engine.insert(txn, names[prefix], list(row))
        yield from engine.commit(txn)

    run(dep, fill(dep.env))
    return names


# ``a ⋈ b ⋈ c``, every group of m under two keys of o repeated by side.
@example(
    one=[(0, 0, 1), (1, 1, 2)], side=[(0, 1, 0), (0, 2, 1), (1, 1, 1)],
    many=[(k % 2, None, k % 3, k, 0.1 * k) for k in range(7)],
    aggs=["sum(m.f)", "count(*)", "min(m.v)"], through_side=True,
    many_first=False, on_j=False, residual=False, group="s.g3, m.g2",
)
# NULL join keys on both sides.
@example(
    one=[(None, 0, 3), (1, None, 1), (2, 1, None)], side=[],
    many=[(0, None, 1, 2, 0.25), (None, 1, 1, 3, 0.7), (1, 1, 0, 1, None),
          (0, None, None, None, 2.5), (2, 1, 1, -3, -1.3)],
    aggs=["avg(m.f)", "count(m.v)", "max(m.f)"], through_side=False,
    many_first=True, on_j=True, residual=True, group="o.g, m.g2",
)
# Both sides empty.
@example(
    one=[], side=[], many=[], aggs=["count(*)", "sum(m.v)"],
    through_side=False, many_first=False, on_j=False, residual=False,
    group="",
)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    one=_one_rows, side=_side_rows, many=_many_rows, aggs=_aggs,
    through_side=st.booleans(), many_first=st.booleans(),
    on_j=st.booleans(), residual=st.booleans(),
    group=st.sampled_from(["", "o.g", "m.g2", "o.g, m.g2", "s.g3", "s.g3, m.g2"]),
)
def test_property_the_rewrite_returns_what_the_join_of_rows_does(
    one, side, many, aggs, through_side, many_first, on_j, residual, group,
):
    if group.startswith("s.") and not through_side:
        group = ""
    dep = tiny_db()
    names = load(dep, {
        "one": (ONE, ["k"], [(k,) + row for k, row in enumerate(one)]),
        "side": (SIDE, ["k", "n"], side),
        "many": (MANY, ["id"], [(i,) + row for i, row in enumerate(many)]),
    })
    on = "m.k = o.k" + (" AND m.j = o.j" if on_j else "")
    if residual:
        on += " AND m.v < o.y"
    if through_side:
        # ``a ⋈ b ⋈ c``: each of o's keys repeats once per side row, so a
        # group of m joins several rows and may land in several groups.
        tables = "{one} o JOIN {side} s ON s.k = o.k JOIN {many} m ON " + on
    elif many_first:
        tables = "{many} m JOIN {one} o ON " + on
    else:
        tables = "{one} o JOIN {many} m ON " + on
    sql = "SELECT %s FROM %s%s" % (
        ", ".join(([group] if group else []) + aggs),
        tables.format(**names),
        " GROUP BY " + group if group else "",
    )
    session = hash_session(dep)
    plan = session.plan(sql)
    rewritten = grouped_scans(plan) == ["m"]
    # The planner's guard: the many side is estimated bigger than o.
    assert rewritten == (max(len(many), 1) > len(one)), explain(plan)
    got = run(dep, session.execute_plan(plan))
    want = execute(dep, RowOracle(dep.engine, True), sql)
    assert (got.columns, got.rows) == (want.columns, want.rows), sql
    rows = run(dep, session.execute_plan(cleared(plan)))
    assert rows.columns == got.columns
    assert_rows_close(got.rows, rows.rows, sql)
    pushed = dep.new_session(
        enable_pushdown=True, force_hash_joins=True, pushdown_row_threshold=1
    )
    assert grouped_scans(pushed.plan(sql)) == grouped_scans(plan)
    got = execute(dep, pushed, sql)
    assert got.columns == want.columns
    assert_rows_close(got.rows, want.rows, sql)
    # The pushed scan under the joins probes their tables storage-side:
    # every one of them (and groups for the Aggregate), or the lowest only.
    for ship in (lambda tables: len(tables), lambda tables: min(1, len(tables))):
        with mock.patch.object(
            pushdown, "shipped_probes",
            lambda scan, tables, tasks, ship=ship: ship(list(tables)),
        ):
            got = execute(dep, pushed, sql)
        assert got.columns == want.columns
        assert_rows_close(got.rows, want.rows, sql)


# ---------------------------------------------------------------------------
# When the planner rewrites and when it refuses
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixed_db():
    dep = Deployment(DeploymentSpec.astore_pq(
        seed=5,
        engine=EngineConfig(buffer_pool_bytes=4 * 16 * KB),
        ebp_capacity_bytes=16 * MB,
    ))
    dep.start()
    names = load(dep, {
        "one": (ONE, ["k"], [(k, k % 2, k % 3, k) for k in range(4)]),
        "many": (MANY, ["id"], [
            (i, i % 5, i % 2, i % 3, i - 10, i / 4) for i in range(30)
        ]),
    })
    return dep, names


def hash_session(dep):
    return dep.new_session(enable_pushdown=False, force_hash_joins=True)


@pytest.mark.parametrize("sql", [
    "SELECT o.g, sum(m.v) FROM {one} o JOIN {many} m ON m.k = o.k "
    "GROUP BY o.g",
    "SELECT count(*) FROM {many} m JOIN {one} o ON m.k = o.k",
    "SELECT m.g2, avg(m.f) FROM {one} o JOIN {many} m ON m.k = o.k "
    "AND m.v < o.y GROUP BY m.g2",
], ids=["build side", "probe side", "residual"])
def test_the_many_side_groups(fixed_db, sql):
    dep, names = fixed_db
    plan = hash_session(dep).plan(sql.format(**names))
    assert grouped_scans(plan) == ["m"]
    assert "from-partials" in explain(plan)


@pytest.mark.parametrize("sql", [
    "SELECT o.g, count(DISTINCT m.v) FROM {one} o JOIN {many} m "
    "ON m.k = o.k GROUP BY o.g",
    "SELECT o.g, sum(m.v + o.y) FROM {one} o JOIN {many} m "
    "ON m.k = o.k GROUP BY o.g",
    "SELECT sum(m.v) FROM {one} o JOIN {many} m ON m.k = o.k "
    "GROUP BY m.g2 + o.g",
    "SELECT o.g, sum(m.v) FROM {one} o JOIN {many} m ON m.j = o.j "
    "GROUP BY o.g",
    "SELECT o.g, sum(m.v) FROM {many} m JOIN {one} o ON m.id = o.k "
    "GROUP BY o.g",
], ids=["distinct", "both sides", "mixed group", "no key", "many keyed"])
def test_the_planner_refuses(fixed_db, sql):
    dep, names = fixed_db
    sql = sql.format(**names)
    session = hash_session(dep)
    plan = session.plan(sql)
    assert grouped_scans(plan) == [] and "from-partials" not in explain(plan)
    got = execute(dep, session, sql)
    want = execute(dep, RowOracle(dep.engine, True), sql)
    assert (got.columns, got.rows) == (want.columns, want.rows)


def test_q13_keeps_its_plan(ch_dep):  # noqa: F811
    # orders is no bigger than customer, so grouping it by its join keys
    # would make as many groups as rows.
    plan = ch_dep.new_session(enable_pushdown=True).plan(ch_query_sql(13))
    assert grouped_scans(plan) == []
    assert "from-partials" not in explain(plan)


# ---------------------------------------------------------------------------
# Other ways in: prepared templates, scatter legs, push-down
# ---------------------------------------------------------------------------


def test_a_prepared_template_binds_its_grouped_scan(fixed_db):
    dep, names = fixed_db
    session = hash_session(dep)
    template = (
        "SELECT o.g, sum(m.f), count(*) FROM {one} o JOIN {many} m "
        "ON m.k = o.k WHERE m.v > {bound} GROUP BY o.g ORDER BY o.g"
    )
    prepared = session.prepare(template.format(bound="?", **names))
    for bound in (-20, -4, 3, 50):
        sql = template.format(bound=bound, **names)
        assert grouped_scans(session.plan(sql)) == ["m"]
        got = run(dep, prepared.execute(bound))
        want = execute(dep, RowOracle(dep.engine, True), sql)
        assert (got.columns, got.rows) == (want.columns, want.rows), bound


def test_a_scatter_leg_over_a_join_merges_to_the_same_rows(fixed_db):
    dep, names = fixed_db
    sql = (
        "SELECT o.g, m.g2, avg(m.v), max(m.f) FROM {one} o JOIN {many} m "
        "ON m.k = o.k GROUP BY o.g, m.g2 ORDER BY o.g, m.g2"
    ).format(**names)
    statement = parse_entry(sql)[0]
    session = hash_session(dep)
    assert grouped_scans(session.plan(sql)) == ["m"]
    leg = run(dep, session.execute_partial_select(statement))
    got = merge(statement, [leg])
    want = execute(dep, session, sql)
    assert (got.columns, got.rows) == (want.columns, want.rows)


def test_counters_are_registered_at_zero():
    dep = Deployment(DeploymentSpec.astore_pq(seed=1))
    dep.start()
    dep.new_session()
    assert dep.obs.registry.value("query.join.rows_built") == 0


def built_and_dropped(dep, session, plan):
    registry = dep.obs.registry
    names = ("query.join.rows_built", "query.runtime_filter.rows_dropped.storage")
    before = [registry.value(name) for name in names]
    result = run(dep, session.execute_plan(plan))
    return result, [
        registry.value(name) - then for name, then in zip(names, before)
    ]


@pytest.mark.parametrize("query_no", [3, 10, 18])
def test_ch_joins_build_groups_not_rows(ch_dep, query_no):  # noqa: F811
    session = ch_dep.new_session(enable_pushdown=True, force_hash_joins=True)
    plan = session.plan(ch_query_sql(query_no))
    assert grouped_scans(plan) == ["order_line"]
    got, (built, _) = built_and_dropped(ch_dep, session, plan)
    want, (rows_built, _) = built_and_dropped(ch_dep, session, cleared(plan))
    assert got.columns == want.columns
    assert_rows_close(got.rows, want.rows, query_no)
    assert built < rows_built


def test_q14s_grouped_probe_scan_still_drops_rows_storage_side(
    ch_dep,  # noqa: F811
):
    session = ch_dep.new_session(enable_pushdown=True, force_hash_joins=True)
    plan = session.plan(ch_query_sql(14))
    assert grouped_scans(plan) == ["order_line"]
    assert "[PUSHDOWN, partial-agg, runtime-filter<-item]" in explain(plan)
    got, (_, dropped) = built_and_dropped(ch_dep, session, plan)
    assert dropped > 0
    want = execute(ch_dep, RowOracle(ch_dep.engine, True), ch_query_sql(14))
    assert got.columns == want.columns
    assert_rows_close(got.rows, want.rows, 14)
