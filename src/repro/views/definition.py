"""SQL-parsed, validated materialized view definitions.

A view is defined by a SELECT over one base table using only operators
that are *linear* over the Z-set delta algebra -- filter (WHERE),
project, and group-by aggregates with incrementally maintainable
states.  Non-linear shapes are rejected up front with the reason:

- joins (a delta on one input multiplies against the *entire* other
  input -- out of scope for the feed-driven maintainer);
- ``SELECT *`` (schema evolution would silently change the view);
- DISTINCT aggregates (set membership does not distribute over
  deletion without per-group value maps on the full domain);
- ORDER BY / LIMIT in the definition (ordering is a *serve-time*
  concern; the querying statement brings its own ORDER BY/LIMIT).

Two shapes remain, mirroring DBSP's linear operator class:

- **aggregate views** (GROUP BY and/or aggregate items): state is
  ``group key -> (row weight, per-aggregate states)``;
- **projection views** (neither): state is a Z-set of projected rows.
"""

from __future__ import annotations

from ..common import QueryError
from ..query.ast import AggCall, ColumnRef, Select
from ..query.cache import parse_entry

__all__ = ["ViewDefinition"]


class ViewDefinition:
    """One validated view: parsed SELECT plus its maintenance plan.

    ``item_plan`` maps every select item to how the maintainer serves
    it: ``("group", i)`` -> i-th group-key component, ``("agg", i)`` ->
    i-th aggregate state, ``("col", i)`` -> i-th position of the stored
    projection tuple.
    """

    __slots__ = (
        "name",
        "sql",
        "select",
        "table",
        "where",
        "group_by",
        "items",
        "aggregates",
        "item_plan",
        "is_aggregate",
    )

    def __init__(self, name: str, sql: str):
        if not name:
            raise QueryError("view name must be non-empty")
        statement, nparams = parse_entry(sql)
        if not isinstance(statement, Select):
            raise QueryError("view %s: definition must be a SELECT" % name)
        if nparams:
            raise QueryError(
                "view %s: definition cannot contain ? parameters" % name
            )
        if statement.joins:
            raise QueryError(
                "view %s: joins are out of scope (non-linear under the "
                "Z-set delta algebra)" % name
            )
        if statement.star:
            raise QueryError("view %s: SELECT * is not allowed" % name)
        if statement.order_by or statement.limit is not None:
            raise QueryError(
                "view %s: ORDER BY/LIMIT belong to the querying statement, "
                "not the definition" % name
            )
        if statement.table.alias is not None:
            raise QueryError("view %s: table aliases are not allowed" % name)
        if not statement.items:
            raise QueryError("view %s: empty select list" % name)

        group_by = tuple(statement.group_by)
        for expr in group_by:
            if not isinstance(expr, ColumnRef):
                raise QueryError(
                    "view %s: GROUP BY must list plain columns" % name
                )

        aggregates = []
        item_plan = []
        is_aggregate = bool(group_by) or statement.has_aggregates
        for item in statement.items:
            expr = item.expr
            if isinstance(expr, AggCall):
                if expr.distinct:
                    raise QueryError(
                        "view %s: DISTINCT aggregates are out of scope "
                        "(non-linear under deletion)" % name
                    )
                item_plan.append(("agg", len(aggregates)))
                aggregates.append(expr)
                continue
            if expr.contains_aggregate():
                raise QueryError(
                    "view %s: composite aggregate expressions are not "
                    "maintainable; select the bare aggregate" % name
                )
            if is_aggregate:
                for position, group_expr in enumerate(group_by):
                    if group_expr == expr:
                        item_plan.append(("group", position))
                        break
                else:
                    raise QueryError(
                        "view %s: item %r is neither a GROUP BY column nor "
                        "an aggregate" % (name, item.output_name)
                    )
            else:
                item_plan.append(("col", len(item_plan)))

        self.name = name
        self.sql = sql
        self.select = statement
        self.table = statement.table.name
        self.where = statement.where
        self.group_by = group_by
        self.items = tuple(statement.items)
        self.aggregates = tuple(aggregates)
        self.item_plan = tuple(item_plan)
        self.is_aggregate = is_aggregate

    def __repr__(self) -> str:
        return "ViewDefinition(%r, %r)" % (self.name, self.sql)
