"""Scatter-gather SELECT merging for the sharded proxy.

A multi-shard SELECT runs independently on every target shard; the
per-shard :class:`~repro.query.executor.QueryResult`\\ s are merged here:

- plain selects concatenate (in shard order), then re-apply ORDER BY and
  LIMIT globally;
- ungrouped aggregates merge column-wise (COUNT/SUM add, MIN/MAX fold);
- grouped aggregates merge rows sharing the same group key.

AVG and DISTINCT aggregates are not decomposable from finalized
per-shard values, so :func:`scatter_needs_partials` routes them through
a two-phase plan instead: each shard runs
``QuerySession.execute_partial_select`` (grouping without finalize) and
:func:`merge_partial_results` folds the raw accumulator states —
AVG as sum+count, DISTINCT as value-set union — then finalizes and
shapes once, globally.  Joins scatter under the co-location assumption
the ShardMap sets up: join partners either share the shard key
(co-partitioned) or are replicated.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..common import QueryError
from ..query import ast
from ..query.executor import (
    QueryResult,
    _Reversible,
    eval_with_aggs,
    finalize_agg_states,
    merge_agg_states,
    new_agg_states,
)

__all__ = [
    "merge_partial_results",
    "merge_select_results",
    "scatter_needs_partials",
    "scatter_unsupported_reason",
]

#: Aggregate functions whose finalized values merge across shards.
_MERGEABLE = {"count", "sum", "min", "max"}


def scatter_unsupported_reason(stmt: ast.Select) -> Optional[str]:
    """Why this SELECT's *finalized* per-shard values cannot merge.

    A non-None reason no longer fails the query: the scatter falls back
    to the two-phase partial-state plan (:func:`scatter_needs_partials`
    / :func:`merge_partial_results`).
    """
    for item in stmt.items:
        expr = item.expr
        if isinstance(expr, ast.AggCall):
            if expr.distinct:
                return "DISTINCT aggregates are not mergeable across shards"
            if expr.func not in _MERGEABLE:
                return "%s() is not mergeable across shards" % expr.func
        elif expr.contains_aggregate():
            return "composite aggregate expressions do not merge across shards"
        elif stmt.has_aggregates and not stmt.group_by:
            return "mixing aggregates and columns does not merge across shards"
    return None


def scatter_needs_partials(stmt: ast.Select) -> bool:
    """True when the scatter must ship partial aggregate states."""
    return stmt.has_aggregates and scatter_unsupported_reason(stmt) is not None


def merge_partial_results(stmt: ast.Select, results) -> QueryResult:
    """Combine per-shard ``execute_partial_select`` outputs globally.

    Each result is ``(aggregates, [(key, sample_row, states), ...])``.
    States sharing a group key are merged with the executor's own
    :func:`merge_agg_states` (AVG folds sum+count, DISTINCT unions its
    value set), finalized once, and shaped through the statement's items
    — so a scattered AVG/DISTINCT answer is exactly what a single
    engine holding all the rows would produce.
    """
    columns = [item.output_name for item in stmt.items]
    if not results:
        return QueryResult(columns, [])
    aggs = None
    groups: Dict[Tuple[Any, ...], list] = {}
    samples: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for agg_list, triples in results:
        if aggs is None:
            aggs = agg_list
        for key, sample, states in triples:
            if key not in groups:
                groups[key] = states
                samples[key] = sample
                order.append(key)
            else:
                merge_agg_states(groups[key], states, aggs)
    if not groups and not stmt.group_by:
        # Global aggregate over zero rows still yields one identity row.
        groups[()] = new_agg_states(aggs)
        samples[()] = {}
        order.append(())
    entries = []
    for key in order:
        agg_values = finalize_agg_states(groups[key], aggs)
        row = samples[key]
        shaped = tuple(
            eval_with_aggs(item.expr, row, agg_values) for item in stmt.items
        )
        entries.append((shaped, row, agg_values))
    if stmt.order_by:
        def sort_key(entry):
            shaped, row, agg_values = entry
            # A key names a select item first, then a column of the
            # group's sample row.
            named = {**row, **_by_name(columns, shaped)}
            return tuple(
                _Reversible(eval_with_aggs(expr, named, agg_values), desc)
                for expr, desc in stmt.order_by
            )

        entries.sort(key=sort_key)
    rows = [shaped for shaped, _row, _aggs in entries]
    if stmt.limit is not None:
        rows = rows[: stmt.limit]
    return QueryResult(columns, rows)


def _merge_cell(func: str, mine: Any, theirs: Any) -> Any:
    if theirs is None:
        return mine
    if mine is None:
        return theirs
    if func in ("count", "sum"):
        return mine + theirs
    if func == "min":
        return min(mine, theirs)
    return max(mine, theirs)


def _agg_positions(stmt: ast.Select) -> Dict[int, str]:
    return {
        index: item.expr.func
        for index, item in enumerate(stmt.items)
        if isinstance(item.expr, ast.AggCall)
    }


def _by_name(columns: Sequence[str], values: Sequence[Any]) -> Dict[str, Any]:
    """Select-list values by output name; of two items sharing a name the
    first wins, as in the engine's ORDER BY."""
    return dict(zip(reversed(columns), reversed(values)))


def _resort(stmt: ast.Select, columns: List[str],
            rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
    """Re-apply ORDER BY and LIMIT to merged rows, as one engine would.

    All there is to sort by is the select list: a column key resolves to
    the first item bearing that output name, an aggregate key to the item
    that computes it.  Any other key cannot be ordered across shards."""
    if stmt.order_by:
        agg_at = {
            item.expr: index
            for index, item in enumerate(stmt.items)
            if isinstance(item.expr, ast.AggCall)
        }

        def sort_key(row):
            named = _by_name(columns, row)
            aggs = {expr: row[index] for expr, index in agg_at.items()}
            return tuple(
                _Reversible(eval_with_aggs(expr, named, aggs), desc)
                for expr, desc in stmt.order_by
            )

        try:
            rows.sort(key=sort_key)
        except QueryError as error:
            raise QueryError(
                "cannot scatter-gather: ORDER BY key is not in the select "
                "list (%s)" % error
            )
    if stmt.limit is not None:
        rows = rows[: stmt.limit]
    return rows


def merge_select_results(stmt: ast.Select,
                         results: Sequence[QueryResult]) -> QueryResult:
    """Combine per-shard results of one SELECT into the global answer."""
    if not results:
        return QueryResult([], [])
    columns = results[0].columns
    if not stmt.has_aggregates:
        rows: List[Tuple[Any, ...]] = []
        for result in results:
            rows.extend(result.rows)
        return QueryResult(columns, _resort(stmt, columns, rows))
    reason = scatter_unsupported_reason(stmt)
    if reason:
        raise QueryError("cannot scatter-gather: %s" % reason)
    aggs = _agg_positions(stmt)
    if not stmt.group_by:
        # One row per shard; fold into one global row.  A shard with no
        # matches still yields its identity row (COUNT 0 / SUM NULL).
        merged: Optional[List[Any]] = None
        for result in results:
            for row in result.rows:
                if merged is None:
                    merged = list(row)
                    continue
                for index, func in aggs.items():
                    merged[index] = _merge_cell(
                        func, merged[index], row[index]
                    )
        return QueryResult(columns, [tuple(merged)] if merged else [])
    # Grouped: merge rows by their non-aggregate output columns.
    key_positions = [i for i in range(len(stmt.items)) if i not in aggs]
    groups: Dict[Tuple[Any, ...], List[Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for result in results:
        for row in result.rows:
            key = tuple(row[i] for i in key_positions)
            merged_row = groups.get(key)
            if merged_row is None:
                groups[key] = list(row)
                order.append(key)
                continue
            for index, func in aggs.items():
                merged_row[index] = _merge_cell(
                    func, merged_row[index], row[index]
                )
    rows = [tuple(groups[key]) for key in order]
    return QueryResult(columns, _resort(stmt, columns, rows))
