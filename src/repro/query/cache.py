"""Statement caching and prepared-statement parameter binding.

Two cache layers feed the serving plane's fast path:

- :class:`ParseCache`: a bounded LRU from SQL text to its parsed
  statement.  Statement and expression nodes are frozen dataclasses, so
  one cached AST is safely shared across every session and proxy leg
  that executes the same text (the planner copies the list fields it
  reshapes; nothing rebinds statement fields).
- plan-level binding for prepared statements: a SELECT template is
  planned once with :class:`~repro.query.ast.Param` placeholders left in
  place, then :func:`bind_plan` produces a per-execution copy with the
  placeholders replaced by literals.  Binding is structural sharing all
  the way down — subtrees without parameters are returned as-is, so a
  bound plan is a handful of fresh nodes hanging off the cached
  template, never a deep copy.

:func:`parse_entry` returns a statement with its parameter count; both the
executor and the proxy validate arity against it before running.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Any, List, Optional, Sequence, Tuple

from ..common import QueryError
from .ast import (
    AggCall,
    Between,
    BinOp,
    Delete,
    Expr,
    InList,
    Insert,
    JoinClause,
    Like,
    Literal,
    Param,
    Select,
    SelectItem,
    UnaryOp,
    Update,
)
from .parser import Parser
from .plan import (
    Aggregate,
    HashJoin,
    IndexLookup,
    IndexNLJoin,
    Limit,
    PlanNode,
    Project,
    SeqScan,
    Sort,
)

__all__ = [
    "ParseCache",
    "parse_entry",
    "bind_expr",
    "bind_statement",
    "bind_plan",
]


def parse_entry(sql: str) -> Tuple[Any, int]:
    """Parse one statement; returns ``(statement, param_count)``."""
    parser = Parser(sql)
    return parser.statement(), parser.param_count


class ParseCache:
    """Bounded LRU mapping SQL text to its (immutable) parsed statement.

    Shared per proxy: statement classification, the per-engine query
    sessions, and prepared statements all hit the same cache, so each
    distinct SQL text is tokenized exactly once while it stays warm.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def entry(self, sql: str) -> Tuple[Any, int]:
        """``(statement, param_count)`` for ``sql``, parsing on a miss."""
        entries = self._entries
        entry = entries.get(sql)
        if entry is not None:
            self.hits += 1
            entries.move_to_end(sql)
            return entry
        self.misses += 1
        entry = parse_entry(sql)
        entries[sql] = entry
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return entry

    def get(self, sql: str) -> Any:
        """The cached (or freshly parsed) statement for ``sql``."""
        return self.entry(sql)[0]


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------


def bind_expr(expr: Optional[Expr], params: Sequence[Any]) -> Optional[Expr]:
    """Substitute Param placeholders with literals; shares unchanged nodes."""
    if expr is None:
        return None
    if isinstance(expr, Param):
        return Literal(params[expr.index])
    if isinstance(expr, BinOp):
        left = bind_expr(expr.left, params)
        right = bind_expr(expr.right, params)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = bind_expr(expr.operand, params)
        return expr if operand is expr.operand else UnaryOp(expr.op, operand)
    if isinstance(expr, Between):
        operand = bind_expr(expr.operand, params)
        low = bind_expr(expr.low, params)
        high = bind_expr(expr.high, params)
        if operand is expr.operand and low is expr.low and high is expr.high:
            return expr
        return Between(operand, low, high)
    if isinstance(expr, InList):
        operand = bind_expr(expr.operand, params)
        if any(isinstance(option, Param) for option in expr.options):
            options = tuple(
                params[option.index] if isinstance(option, Param) else option
                for option in expr.options
            )
            return InList(operand, options)
        return expr if operand is expr.operand else InList(operand, expr.options)
    if isinstance(expr, Like):
        operand = bind_expr(expr.operand, params)
        return expr if operand is expr.operand else Like(operand, expr.pattern)
    if isinstance(expr, AggCall):
        argument = bind_expr(expr.argument, params)
        if argument is expr.argument:
            return expr
        return AggCall(expr.func, argument, expr.distinct)
    return expr  # ColumnRef / Literal: leaves without parameters


def _bind_exprs(exprs: List[Expr], params: Sequence[Any]) -> List[Expr]:
    bound = [bind_expr(expr, params) for expr in exprs]
    if all(b is e for b, e in zip(bound, exprs)):
        return exprs
    return bound


def bind_statement(statement: Any, params: Sequence[Any]) -> Any:
    """A copy of ``statement`` with every Param replaced by its value."""
    if isinstance(statement, Select):
        items = [
            item if (bound := bind_expr(item.expr, params)) is item.expr
            else SelectItem(bound, item.alias)
            for item in statement.items
        ]
        return replace(
            statement,
            items=items,
            joins=[
                JoinClause(join.table, bind_expr(join.condition, params))
                for join in statement.joins
            ],
            where=bind_expr(statement.where, params),
            group_by=_bind_exprs(statement.group_by, params),
            order_by=[
                (bind_expr(expr, params), desc)
                for expr, desc in statement.order_by
            ],
        )
    if isinstance(statement, Insert):
        rows = [
            [
                params[value.index] if isinstance(value, Param) else value
                for value in row
            ]
            for row in statement.rows
        ]
        return replace(statement, rows=rows)
    if isinstance(statement, Update):
        return replace(
            statement,
            assignments={
                column: bind_expr(expr, params)
                for column, expr in statement.assignments.items()
            },
            where=bind_expr(statement.where, params),
        )
    if isinstance(statement, Delete):
        return replace(statement, where=bind_expr(statement.where, params))
    raise QueryError("cannot bind parameters into %r" % statement)


def bind_plan(node: PlanNode, params: Sequence[Any]) -> PlanNode:
    """A parameter-bound copy of a template plan (shares param-free nodes).

    The bound copy must stay value-equal in every expression position the
    executor compares (the Project items' AggCalls must hash-match the
    Aggregate's finalized keys), which holds because binding is applied
    uniformly: identical template subtrees bind to identical copies.
    """
    if isinstance(node, SeqScan):
        filt = bind_expr(node.filter, params)
        partial = node.partial_agg
        if partial is not None:
            groups, aggs = partial
            bound_groups = _bind_exprs(groups, params)
            bound_aggs = _bind_exprs(aggs, params)
            if bound_groups is not groups or bound_aggs is not aggs:
                partial = (bound_groups, bound_aggs)
        hash_keys = node.hash_keys
        if hash_keys is not None:
            hash_keys = _bind_exprs(hash_keys, params)
        if (filt is node.filter and partial is node.partial_agg
                and hash_keys is node.hash_keys):
            return node
        return replace(node, filter=filt, partial_agg=partial,
                       hash_keys=hash_keys)
    if isinstance(node, IndexLookup):
        key_exprs = _bind_exprs(node.key_exprs, params)
        residual = bind_expr(node.residual, params)
        if key_exprs is node.key_exprs and residual is node.residual:
            return node
        return replace(node, key_exprs=key_exprs, residual=residual)
    if isinstance(node, HashJoin):
        left = bind_plan(node.left, params)
        right = bind_plan(node.right, params)
        left_keys = _bind_exprs(node.left_keys, params)
        right_keys = _bind_exprs(node.right_keys, params)
        residual = bind_expr(node.residual, params)
        if (left is node.left and right is node.right
                and left_keys is node.left_keys
                and right_keys is node.right_keys
                and residual is node.residual):
            return node
        return replace(node, left=left, right=right, left_keys=left_keys,
                       right_keys=right_keys, residual=residual)
    if isinstance(node, IndexNLJoin):
        outer = bind_plan(node.outer, params)
        outer_keys = _bind_exprs(node.outer_keys, params)
        inner_filter = bind_expr(node.inner_filter, params)
        residual = bind_expr(node.residual, params)
        if (outer is node.outer and outer_keys is node.outer_keys
                and inner_filter is node.inner_filter
                and residual is node.residual):
            return node
        return replace(node, outer=outer, outer_keys=outer_keys,
                       inner_filter=inner_filter, residual=residual)
    if isinstance(node, Aggregate):
        child = bind_plan(node.child, params)
        group_exprs = _bind_exprs(node.group_exprs, params)
        aggregates = _bind_exprs(node.aggregates, params)
        if (child is node.child and group_exprs is node.group_exprs
                and aggregates is node.aggregates):
            return node
        return replace(node, child=child, group_exprs=group_exprs,
                       aggregates=aggregates)
    if isinstance(node, Project):
        child = bind_plan(node.child, params)
        items = [
            item if (bound := bind_expr(item.expr, params)) is item.expr
            else SelectItem(bound, item.alias)
            for item in node.items
        ]
        if child is node.child and all(
            a is b for a, b in zip(items, node.items)
        ):
            return node
        return replace(node, child=child, items=items)
    if isinstance(node, Sort):
        child = bind_plan(node.child, params)
        order_by = [
            (bind_expr(expr, params), desc) for expr, desc in node.order_by
        ]
        if child is node.child and all(
            a[0] is b[0] for a, b in zip(order_by, node.order_by)
        ):
            return node
        return replace(node, child=child, order_by=order_by)
    if isinstance(node, Limit):
        child = bind_plan(node.child, params)
        return node if child is node.child else replace(node, child=child)
    return node
