"""SQL front end, planner, executor, and the push-down framework.

- :mod:`repro.query.lexer` / :mod:`repro.query.parser` - the SQL subset
- :mod:`repro.query.ast` - expressions and statements
- :mod:`repro.query.plan` / :mod:`repro.query.planner` - logical plans,
  join choice, push-down marking
- :mod:`repro.query.executor` - single-threaded executor over column
  batches (:mod:`repro.query.columnar`, :mod:`repro.query.kernels`)
- :mod:`repro.query.pushdown` - PQ task split/dispatch/merge
"""

from .ast import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
    Expr,
    InList,
    Like,
    Literal,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
)
from .cache import ParseCache
from .executor import PreparedStatement, QueryResult, QuerySession
from .parser import parse
from .plan import explain
from .planner import Planner, PlannerConfig
from .pushdown import PushdownRuntime

__all__ = [
    "parse",
    "ParseCache",
    "PreparedStatement",
    "QuerySession",
    "QueryResult",
    "Planner",
    "PlannerConfig",
    "PushdownRuntime",
    "explain",
    "Expr",
    "ColumnRef",
    "Literal",
    "BinOp",
    "UnaryOp",
    "Between",
    "InList",
    "Like",
    "AggCall",
    "SelectItem",
    "TableRef",
    "Select",
]
