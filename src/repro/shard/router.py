"""Scatter-gather SELECT merging for the sharded proxy.

A multi-shard SELECT runs ``QuerySession.execute_partial_select`` on every
target shard and :func:`merge` shapes the one answer with the executor's
own tail, exactly the two-phase plan the paper's push-down merge uses:

- an aggregate statement's legs stop after grouping and ship partial
  groups; the merge folds the groups that share a key, finalizes once and
  runs Project -> Sort -> Limit, so AVG, DISTINCT and ``ORDER BY
  <aggregate> LIMIT k`` answer as one engine holding all the rows would;
- any other statement's legs run whole; their rows concatenate (in shard
  order) into a batch keyed by the select list, then Sort -> Limit again.

Joins scatter under the co-location assumption the ShardMap sets up: join
partners either share the shard key (co-partitioned) or are replicated.
"""

from __future__ import annotations

from typing import Sequence

from ..common import QueryError
from ..query.ast import ColumnRef, Select
from ..query.columnar import ColumnBatch
from ..query.executor import (
    QueryResult,
    batch_result,
    finalize_groups,
    fold_groups,
    limit_batch,
    project_batch,
    sort_batch,
)

__all__ = ["merge"]


def _all_groups(legs: Sequence):
    """Every leg's partial groups as one ``(keys, samples, states)``."""
    parts = [groups for _aggs, groups in legs]
    # Legs may plan their joins differently and so carry different dead
    # columns; every column the tail can read is in all of them.
    names = [key for key in parts[0][1].keys
             if all(key in samples.keys for _, samples, _ in parts)]
    keys = [key for part in parts for key in part[0]]
    arrays = [
        [value for _, samples, _ in parts for value in samples.column(name)]
        for name in names
    ]
    states = [state for part in parts for state in part[2]]
    return keys, ColumnBatch(names, arrays, len(keys)), states


def _shadowed_order_key(statement: Select):
    """A qualified ORDER BY column the legs' whole rows would answer
    wrongly, or None.  The rows carry only the select list, so ``t.b``
    falls back to the bare name ``b`` - right when that item *is* the
    column, wrong when it is ``a AS b``: one engine sorts by the source
    column, which never left the shard."""
    shipped = {}
    for item in statement.items:
        shipped.setdefault(item.output_name, item.expr)
    for expr, _ in statement.order_by:
        for key in expr.columns():
            table, qualified, name = key.rpartition(".")
            source = shipped.get(name)
            if not qualified or source is None:
                continue
            if not (isinstance(source, ColumnRef) and source.name == name
                    and source.table in (None, table)):
                return key
    return None


def merge(statement: Select, legs: Sequence, registry=None) -> QueryResult:
    """The global answer from per-shard ``execute_partial_select`` results
    (``registry`` only counts kernel builds)."""
    plain = isinstance(legs[0], QueryResult)
    if plain:
        # A leg names no column where ``SELECT *`` met a shard with no row.
        columns = max((leg.columns for leg in legs), key=len)
        rows = [row for leg in legs for row in leg.rows]
        arrays = list(map(list, zip(*rows))) if rows else [[] for _ in columns]
        batch = ColumnBatch(columns, arrays, len(rows))
        shadowed = _shadowed_order_key(statement)
        if shadowed is not None:
            raise QueryError(
                "cannot scatter-gather: ORDER BY key is not in the select "
                "list (%s names a column the select list aliases over)"
                % shadowed
            )
    else:
        aggs = legs[0][0]
        _, samples, states = fold_groups(*_all_groups(legs), aggs)
        batch = project_batch(
            finalize_groups(samples, states, aggs, bool(statement.group_by)),
            statement.items, statement.star, registry,
        )
    if statement.order_by:
        try:
            batch = sort_batch(batch, statement.order_by, registry,
                               statement.limit)
        except QueryError as error:
            if not plain:
                raise
            # Whole rows came back: all there is to sort by is the select
            # list.  A loud refusal, not shard-concat order.
            raise QueryError(
                "cannot scatter-gather: ORDER BY key is not in the select "
                "list (%s)" % error
            )
    elif statement.limit is not None:
        batch = limit_batch(batch, statement.limit)
    return batch_result(batch, statement.items, statement.star)
