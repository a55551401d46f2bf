"""Compiled expression evaluation for the row executor.

The row executor evaluates a scan filter once per row; walking the Expr
tree each time costs more than the comparison it ends in.
``compile_expr`` lowers an Expr to a chain of closures *once per scan*,
and the closures delegate the actual semantics to
:func:`repro.query.ast.binop_apply` and :func:`repro.query.ast.like_match`
- the same helpers ``Expr.eval`` uses - so they cannot diverge from it.

The compiler is parameterized by an *accessor factory*: a callable that
maps a :class:`ColumnRef` to ``fn(row) -> value``; :func:`row_accessor`
reads row dicts with ``ColumnRef.eval``'s fallback chain.  The columnar
executor and storage-side fragments do not come through here: they run
generated loops (``repro.query.kernels``), which raise this module's
:class:`NotCompilable` for what they cannot lower.

Accessors may raise :class:`NotCompilable` for a reference they cannot
bind statically; callers fall back to interpreted ``Expr.eval``, keeping
behaviour identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..common import QueryError
from .ast import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
    Expr,
    InList,
    Like,
    Literal,
    Param,
    UnaryOp,
    binop_apply,
    like_match,
)

__all__ = [
    "NotCompilable",
    "compile_expr",
    "compile_row_expr",
    "compile_row_predicate",
    "row_accessor",
]


class NotCompilable(Exception):
    """Raised when an expression cannot be lowered for the given accessor
    (unknown node type, or a column the accessor cannot bind)."""


def _raiser(message: str) -> Callable[[Any], Any]:
    def raise_(ctx: Any) -> Any:
        raise QueryError(message)

    return raise_


def compile_expr(
    expr: Expr, accessor: Callable[[ColumnRef], Callable[[Any], Any]]
) -> Callable[[Any], Any]:
    """Lower ``expr`` to a closure ``fn(ctx) -> value``.

    ``accessor(ref)`` supplies the column-lookup closure for each
    :class:`ColumnRef`. Errors that row mode raises lazily (unbound
    parameters, aggregates outside an Aggregate operator) are preserved
    as lazily-raising closures so zero-row inputs behave identically.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, ColumnRef):
        return accessor(expr)
    if isinstance(expr, BinOp):
        left = compile_expr(expr.left, accessor)
        right = compile_expr(expr.right, accessor)
        op = expr.op
        if op == "and":
            return lambda ctx: bool(left(ctx)) and bool(right(ctx))
        if op == "or":
            return lambda ctx: bool(left(ctx)) or bool(right(ctx))
        return lambda ctx: binop_apply(op, left(ctx), right(ctx))
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, accessor)
        if expr.op == "not":
            return lambda ctx: not bool(operand(ctx))
        if expr.op == "-":
            return lambda ctx: -operand(ctx)
        raise NotCompilable("unknown unary op %r" % expr.op)
    if isinstance(expr, Between):
        operand = compile_expr(expr.operand, accessor)
        low = compile_expr(expr.low, accessor)
        high = compile_expr(expr.high, accessor)

        def between(ctx: Any) -> Any:
            value = operand(ctx)
            if value is None:
                return False
            return low(ctx) <= value <= high(ctx)

        return between
    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, accessor)
        options = expr.options
        return lambda ctx: operand(ctx) in options
    if isinstance(expr, Like):
        operand = compile_expr(expr.operand, accessor)
        pattern = expr.pattern
        return lambda ctx: like_match(operand(ctx), pattern)
    if isinstance(expr, Param):
        return _raiser(
            "unbound parameter ?%d (execute via a prepared statement)"
            % (expr.index + 1)
        )
    if isinstance(expr, AggCall):
        return _raiser("aggregate evaluated outside Aggregate operator")
    raise NotCompilable("cannot compile %s" % type(expr).__name__)


def row_accessor(ref: ColumnRef) -> Callable[[Dict[str, Any]], Any]:
    """Accessor over row dicts, replicating :meth:`ColumnRef.eval`'s
    fallback chain exactly: qualified key, bare name, then a unique
    ``.name`` suffix match over qualified keys."""
    key = ref.key
    name = ref.name
    suffix = "." + name

    def get(row: Dict[str, Any]) -> Any:
        if key in row:
            return row[key]
        if name in row:
            return row[name]
        matches = [k for k in row if k.endswith(suffix)]
        if len(matches) == 1:
            return row[matches[0]]
        raise QueryError("column %r not in row" % key)

    return get


def compile_row_expr(expr: Expr) -> Callable[[Dict[str, Any]], Any]:
    """Compile ``expr`` for row-dict evaluation; falls back to the
    interpreted ``Expr.eval`` if a node cannot be compiled."""
    try:
        return compile_expr(expr, row_accessor)
    except NotCompilable:
        return expr.eval


def compile_row_predicate(expr: Expr) -> Callable[[Dict[str, Any]], bool]:
    """Like :func:`compile_row_expr` but coerced to a boolean filter."""
    fn = compile_row_expr(expr)
    return lambda row: bool(fn(row))
