"""Unit tests: the Z-set delta algebra and weight-aware agg states."""

import pytest

from repro.query import kernels
from repro.query.cache import parse_entry
from repro.query.columnar import ColumnBatch
from repro.query.executor import finalize_groups
from repro.views.aggstate import merge_states, new_states, update_states
from repro.views.zset import ZSet


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


AGG_SQL = (
    "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), "
    "COUNT(DISTINCT v) FROM t"
)


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


def test_distinct_count_tracks_live_values_only():
    aggs = _aggs("SELECT COUNT(DISTINCT v) FROM t")
    states = _rows_to_states(aggs, [{"t.v": 1}, {"t.v": 1}, {"t.v": 2}])
    assert list(finalize_states(states, aggs).values()) == [2]
    update_states(states, aggs, {"t.v": 1}, -1)
    assert list(finalize_states(states, aggs).values()) == [2]  # one 1 left
    update_states(states, aggs, {"t.v": 1}, -1)
    assert list(finalize_states(states, aggs).values()) == [1]


def test_merge_states_equals_single_fold():
    aggs = _aggs(AGG_SQL)
    left = _rows_to_states(aggs, ROWS[:2])
    right = _rows_to_states(aggs, ROWS[2:])
    merge_states(left, right)
    assert finalize_states(left, aggs) == _executor_values(aggs, ROWS)
