"""Unit tests: the Z-set delta algebra and weight-aware agg states."""

import pytest

from repro.common import QueryError
from repro.query import kernels
from repro.query.cache import parse_entry
from repro.query.columnar import ColumnBatch
from repro.query.executor import finalize_groups
from repro.views.aggstate import new_states
from repro.views.zset import ZSet


def update_states(states, aggs, row, weight=1):
    """Fold one weighted row dict into every aggregate's state, through
    ``Expr.eval``: the reference for what the view's compiled fold
    (``kernels.weighted_fold``) does per delta."""
    for state, agg in zip(states, aggs):
        if agg.argument is None:  # COUNT(*)
            state.update(None, weight)
            continue
        value = agg.argument.eval(row)
        if value is not None:
            state.update(value, weight)


def test_zset_add_and_annihilation():
    z = ZSet()
    z.add(("a", 1))
    z.add(("a", 1))
    z.add(("b", 2))
    assert z.weights[("a", 1)] == 2
    z.add(("a", 1), -2)
    assert ("a", 1) not in z  # weight hit zero: entry vanishes
    assert len(z) == 1
    z.add(("b", 2), -1)
    assert len(z) == 0


def test_zset_rows_expand_weights_and_reject_negative():
    z = ZSet()
    z.add(("x",), 3)
    assert list(z.rows()) == [("x",), ("x",), ("x",)]
    z.add(("x",), -4)
    with pytest.raises(ValueError):
        list(z.rows())


def test_zset_merge_filter_map_eq():
    a = ZSet()
    a.add(1, 2)
    a.add(2, 1)
    b = ZSet()
    b.add(1, -2)
    b.add(3, 1)
    a.merge(b)
    assert dict(a.items()) == {2: 1, 3: 1}
    assert dict(a.filter(lambda r: r == 2).items()) == {2: 1}
    assert dict(a.map(lambda r: r * 10).items()) == {20: 1, 30: 1}
    c = ZSet()
    c.add(2, 1)
    c.add(3, 1)
    assert a == c


def _aggs(sql):
    """The AggCall list of a parsed single-table aggregate SELECT."""
    statement, _ = parse_entry(sql)
    return [item.expr for item in statement.items]


AGG_SQL = "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t"


def finalize_states(states, aggs):
    """Finalized values keyed by AggCall, as view serve reads them."""
    return {agg: state.finalize() for state, agg in zip(states, aggs)}


def _rows_to_states(aggs, rows):
    states = new_states(aggs)
    for row in rows:
        update_states(states, aggs, row, 1)
    return states


def _executor_values(aggs, rows):
    """What the executor's group-by kernel accumulates and finalizes."""
    batch = ColumnBatch(("t.v",), [[row["t.v"] for row in rows]])
    groups, _ = kernels.group_by(batch, [], aggs)
    states = list(groups.values())
    samples = batch.gather([state[0] for state in states])
    final = finalize_groups(samples, states, aggs, False)
    return {agg: final.column(agg)[0] for agg in aggs}


ROWS = [
    {"t.v": 3}, {"t.v": 1}, {"t.v": None}, {"t.v": 3}, {"t.v": 7},
]


def test_finalize_matches_executor_accumulators():
    aggs = _aggs(AGG_SQL)
    ours = finalize_states(_rows_to_states(aggs, ROWS), aggs)
    theirs = _executor_values(aggs, ROWS)
    assert ours == theirs
    # Same types too (SUM/AVG finalize as float, COUNT as int).
    for agg in aggs:
        assert type(ours[agg]) is type(theirs[agg])


def test_finalize_matches_executor_on_empty_input():
    aggs = _aggs(AGG_SQL)
    ours = finalize_states(_rows_to_states(aggs, []), aggs)
    theirs = _executor_values(aggs, [])
    assert ours == theirs


def test_negative_weights_retract_rows_exactly():
    aggs = _aggs(AGG_SQL)
    states = _rows_to_states(aggs, ROWS)
    # Retract two rows; the result must equal folding the remainder.
    update_states(states, aggs, {"t.v": 3}, -1)
    update_states(states, aggs, {"t.v": None}, -1)
    remainder = [{"t.v": 1}, {"t.v": 3}, {"t.v": 7}]
    assert finalize_states(states, aggs) == _executor_values(aggs, remainder)


def test_min_max_survive_retraction_of_current_extremum():
    aggs = _aggs("SELECT MIN(v), MAX(v) FROM t")
    states = _rows_to_states(
        aggs, [{"t.v": 5}, {"t.v": 9}, {"t.v": 2}]
    )
    update_states(states, aggs, {"t.v": 2}, -1)  # retract the minimum
    update_states(states, aggs, {"t.v": 9}, -1)  # retract the maximum
    values = finalize_states(states, aggs)
    assert list(values.values()) == [5, 5]


def _fold(sql, rows, weights, groups):
    """Run the compiled fold of ``sql`` (an aggregate SELECT over t(g, v))
    over row dicts; returns rows passed."""
    statement, _ = parse_entry(sql)
    aggs = [item.expr for item in statement.items]
    batch = ColumnBatch(
        ("t.g", "t.v"),
        [[row["t.g"] for row in rows], [row["t.v"] for row in rows]],
    )
    fold = kernels.weighted_fold(
        batch, statement.where, statement.group_by, aggs)
    return fold(batch, weights, groups, lambda: new_states(aggs)), aggs


def test_compiled_fold_equals_the_interpreted_fold():
    sql = ("SELECT COUNT(*), COUNT(v), SUM(v + 1), MIN(v), MAX(v) FROM t "
           "WHERE g < 3 GROUP BY g")
    rows = [{"t.g": g, "t.v": v} for g, v in
            [(1, 5), (2, None), (1, 7), (3, 9), (2, 4), (1, 5), (2, 4)]]
    weights = [1, 1, 1, 1, 1, -1, -1]
    groups = {}
    passed, aggs = _fold(sql, rows, weights, groups)
    statement, _ = parse_entry(sql)
    expected = {}
    for row, weight in zip(rows, weights):
        if not statement.where.eval(row):
            continue
        key = tuple(expr.eval(row) for expr in statement.group_by)
        entry = expected.setdefault(key, [0, new_states(aggs)])
        entry[0] += weight
        update_states(entry[1], aggs, row, weight)
    assert passed == 6  # the g = 3 row is filtered out
    assert list(groups) == list(expected) == [(1,), (2,)]
    for key, (weight, states) in expected.items():
        assert groups[key][0] == weight
        assert finalize_states(groups[key][1], aggs) == finalize_states(
            states, aggs)


def test_compiled_fold_annihilates_a_group_and_recreates_it_last():
    sql = "SELECT COUNT(*) FROM t GROUP BY g"
    groups = {}
    rows = [{"t.g": g, "t.v": 0} for g in (1, 2, 1, 1)]
    _fold(sql, rows, [1, 1, -1, 1], groups)
    # Group 1 vanished at weight zero, then came back behind group 2.
    assert list(groups) == [(2,), (1,)]
    assert [entry[0] for entry in groups.values()] == [1, 1]


def test_compiled_fold_of_a_projection_feeds_a_zset():
    statement, _ = parse_entry("SELECT v, g FROM t WHERE v > 1")
    batch = ColumnBatch(("t.g", "t.v"), [[1, 2, 1], [5, 1, 5]])
    fold = kernels.weighted_fold(
        batch, statement.where, [item.expr for item in statement.items], None)
    z = ZSet()
    assert fold(batch, [1, 1, 1], z.add) == 2
    assert dict(z.items()) == {(5, 1): 2}
    assert fold(batch, [-1, -1, -1], z.add) == 2
    assert len(z) == 0


def test_distinct_aggregates_have_no_state():
    aggs = _aggs("SELECT COUNT(DISTINCT v) FROM t")
    with pytest.raises(QueryError, match="DISTINCT"):
        new_states(aggs)
