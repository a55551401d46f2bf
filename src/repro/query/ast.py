"""Abstract syntax for the supported SQL subset.

Expressions are a small algebra (columns, literals, arithmetic, boolean
logic, BETWEEN/IN/LIKE, aggregate calls); statements cover SELECT with
joins / GROUP BY / ORDER BY / LIMIT plus simple INSERT/UPDATE/DELETE.
Expression nodes evaluate themselves against a row dict - the same
evaluator runs in the DBEngine executor and inside storage-side push-down
tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common import QueryError

__all__ = [
    "Expr",
    "ColumnRef",
    "Literal",
    "Param",
    "BinOp",
    "UnaryOp",
    "Between",
    "InList",
    "Like",
    "AggCall",
    "SelectItem",
    "TableRef",
    "JoinClause",
    "Select",
    "Insert",
    "Update",
    "Delete",
    "AGGREGATE_FUNCTIONS",
    "binop_apply",
    "like_match",
]

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class Expr:
    """Base expression node."""

    def eval(self, row: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def columns(self) -> List[str]:
        """All column names referenced by this expression."""
        return []

    def contains_aggregate(self) -> bool:
        return False


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: Optional[str] = None

    @property
    def key(self) -> str:
        return "%s.%s" % (self.table, self.name) if self.table else self.name

    def eval(self, row: Dict[str, Any]) -> Any:
        if self.key in row:
            return row[self.key]
        if self.name in row:
            return row[self.name]
        # Unqualified fallback: unique suffix match over qualified keys.
        matches = [k for k in row if k.endswith("." + self.name)]
        if len(matches) == 1:
            return row[matches[0]]
        raise QueryError("column %r not in row" % self.key)

    def columns(self) -> List[str]:
        return [self.key]


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def eval(self, row: Dict[str, Any]) -> Any:
        return self.value


@dataclass(frozen=True)
class Param(Expr):
    """A ``?`` placeholder, bound per execution by a prepared statement."""

    index: int

    def eval(self, row: Dict[str, Any]) -> Any:
        raise QueryError(
            "unbound parameter ?%d (execute via a prepared statement)"
            % (self.index + 1)
        )


_BIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_CMP_OPS = frozenset(("=", "!=", "<", "<=", ">", ">="))


def binop_apply(op: str, left: Any, right: Any) -> Any:
    """Null-safe binary operator semantics.

    Comparisons against NULL are False; arithmetic with NULL is NULL.
    :meth:`BinOp.eval`'s definition; the generated kernels
    (:mod:`repro.query.kernels`) inline the same rules and are tested
    against it.
    """
    if left is None or right is None:
        return False if op in _CMP_OPS else None
    return _BIN_OPS[op](left, right)


def like_match(value: Any, pattern: str) -> bool:
    """LIKE with %-wildcards: :meth:`Like.eval`'s definition."""
    if value is None:
        return False
    if pattern.startswith("%") and pattern.endswith("%"):
        return pattern[1:-1] in value
    if pattern.endswith("%"):
        return value.startswith(pattern[:-1])
    if pattern.startswith("%"):
        return value.endswith(pattern[1:])
    return value == pattern


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _BIN_OPS and self.op not in ("and", "or"):
            raise QueryError("unknown operator %r" % self.op)

    def eval(self, row: Dict[str, Any]) -> Any:
        if self.op == "and":
            return bool(self.left.eval(row)) and bool(self.right.eval(row))
        if self.op == "or":
            return bool(self.left.eval(row)) or bool(self.right.eval(row))
        return binop_apply(self.op, self.left.eval(row), self.right.eval(row))

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def contains_aggregate(self) -> bool:
        return self.left.contains_aggregate() or self.right.contains_aggregate()


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'not' | '-'
    operand: Expr

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.operand.eval(row)
        if self.op == "not":
            return not bool(value)
        if self.op == "-":
            return -value
        raise QueryError("unknown unary op %r" % self.op)

    def columns(self) -> List[str]:
        return self.operand.columns()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr

    def eval(self, row: Dict[str, Any]) -> Any:
        value = self.operand.eval(row)
        if value is None:
            return False
        return self.low.eval(row) <= value <= self.high.eval(row)

    def columns(self) -> List[str]:
        return self.operand.columns() + self.low.columns() + self.high.columns()

    def contains_aggregate(self) -> bool:
        return any(
            e.contains_aggregate() for e in (self.operand, self.low, self.high)
        )


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    options: Tuple[Any, ...]

    def eval(self, row: Dict[str, Any]) -> Any:
        return self.operand.eval(row) in self.options

    def columns(self) -> List[str]:
        return self.operand.columns()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


@dataclass(frozen=True)
class Like(Expr):
    """LIKE with %-wildcards (translated to startswith/endswith/contains)."""

    operand: Expr
    pattern: str

    def eval(self, row: Dict[str, Any]) -> Any:
        return like_match(self.operand.eval(row), self.pattern)

    def columns(self) -> List[str]:
        return self.operand.columns()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


@dataclass(frozen=True)
class AggCall(Expr):
    """COUNT/SUM/AVG/MIN/MAX(expr), COUNT(*), optional DISTINCT."""

    func: str
    argument: Optional[Expr]  # None for COUNT(*)
    distinct: bool = False

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCTIONS:
            raise QueryError("unknown aggregate %r" % self.func)

    def eval(self, row: Dict[str, Any]) -> Any:
        raise QueryError("aggregate evaluated outside Aggregate operator")

    def columns(self) -> List[str]:
        return self.argument.columns() if self.argument is not None else []

    def contains_aggregate(self) -> bool:
        return True


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, AggCall):
            arg = (
                self.expr.argument.columns()[0]
                if self.expr.argument and self.expr.argument.columns()
                else "*"
            )
            return "%s(%s)" % (self.expr.func, arg)
        return "expr"


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    condition: Expr  # equi-join predicate (possibly AND of equalities)


# Statement nodes are frozen so parsed ASTs can be cached and shared
# across sessions without defensive copying (the planner copies the list
# fields it reshapes; nothing may rebind statement fields).


@dataclass(frozen=True)
class Select:
    items: List[SelectItem]
    table: TableRef
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    order_by: List[Tuple[Expr, bool]] = field(default_factory=list)  # (expr, desc)
    limit: Optional[int] = None
    star: bool = False

    @property
    def has_aggregates(self) -> bool:
        return any(item.expr.contains_aggregate() for item in self.items)


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Optional[List[str]]
    rows: List[List[Any]]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Dict[str, Expr]
    where: Optional[Expr]


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr]
