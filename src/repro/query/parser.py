"""Recursive-descent SQL parser for the supported subset.

Grammar (simplified)::

    select   := SELECT items FROM tableref join* [WHERE expr]
                [GROUP BY exprlist] [ORDER BY ordexpr (, ordexpr)*]
                [LIMIT number]
    join     := [INNER] JOIN tableref ON expr
    items    := '*' | item (',' item)*
    item     := expr [AS name]
    expr     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := NOT not_expr | predicate
    predicate:= additive [cmp additive | BETWEEN a AND b | IN (...) | LIKE s]
    additive := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := number | string | NULL | column | agg | '(' expr ')' | '-'f
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..common import QueryError
from .ast import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
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
    TableRef,
    UnaryOp,
    Update,
)
from .lexer import Token, tokenize

__all__ = ["parse", "Parser"]


def parse(sql: str):
    """Parse one SQL statement; returns a Select/Insert/Update/Delete."""
    return Parser(sql).statement()


class Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.position = 0
        #: Number of ``?`` placeholders seen (positional, left to right).
        self.param_count = 0

    def _param(self) -> Param:
        param = Param(self.param_count)
        self.param_count += 1
        return param

    # -- token plumbing -----------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _next(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self.position += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise QueryError(
                "expected %s at %d in %r" % (word.upper(), self._peek().position,
                                             self.sql)
            )

    def _accept_punct(self, symbol: str) -> bool:
        if self._peek().is_punct(symbol):
            self.position += 1
            return True
        return False

    def _expect_punct(self, symbol: str) -> None:
        if not self._accept_punct(symbol):
            raise QueryError(
                "expected %r at %d in %r" % (symbol, self._peek().position, self.sql)
            )

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise QueryError("expected identifier at %d" % token.position)
        return token.value

    # -- statements -----------------------------------------------------------
    def statement(self):
        token = self._peek()
        if token.is_keyword("select"):
            node = self.select()
        elif token.is_keyword("insert"):
            node = self.insert()
        elif token.is_keyword("update"):
            node = self.update()
        elif token.is_keyword("delete"):
            node = self.delete()
        else:
            raise QueryError("expected a statement, got %r" % (token.value,))
        self._accept_punct(";")
        if not self._peek().kind == "end":
            raise QueryError("trailing input at %d" % self._peek().position)
        return node

    def select(self) -> Select:
        self._expect_keyword("select")
        star = False
        items: List[SelectItem] = []
        if self._accept_punct("*"):
            star = True
        else:
            items.append(self._select_item())
            while self._accept_punct(","):
                items.append(self._select_item())
        self._expect_keyword("from")
        table = self._table_ref()
        joins: List[JoinClause] = []
        while True:
            if self._accept_keyword("inner"):
                self._expect_keyword("join")
            elif not self._accept_keyword("join"):
                break
            join_table = self._table_ref()
            self._expect_keyword("on")
            condition = self.expr()
            joins.append(JoinClause(join_table, condition))
        where = self.expr() if self._accept_keyword("where") else None
        group_by: List[Expr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.expr())
            while self._accept_punct(","):
                group_by.append(self.expr())
        order_by: List[Tuple[Expr, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())
        limit = None
        if self._accept_keyword("limit"):
            token = self._next()
            if token.kind != "number" or not isinstance(token.value, int):
                raise QueryError("LIMIT requires an integer")
            limit = token.value
        return Select(
            items=items,
            table=table,
            joins=joins,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            star=star,
        )

    def _select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_name()
        elif self._peek().kind == "name":
            alias = self._expect_name()
        return SelectItem(expr, alias)

    def _order_item(self) -> Tuple[Expr, bool]:
        expr = self.expr()
        desc = False
        if self._accept_keyword("desc"):
            desc = True
        else:
            self._accept_keyword("asc")
        return (expr, desc)

    def _table_ref(self) -> TableRef:
        name = self._expect_name()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_name()
        elif self._peek().kind == "name":
            alias = self._expect_name()
        return TableRef(name, alias)

    def insert(self) -> Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_name()
        columns = None
        if self._accept_punct("("):
            columns = [self._expect_name()]
            while self._accept_punct(","):
                columns.append(self._expect_name())
            self._expect_punct(")")
        self._expect_keyword("values")
        rows: List[List[Any]] = []
        rows.append(self._value_row())
        while self._accept_punct(","):
            rows.append(self._value_row())
        return Insert(table, columns, rows)

    def _value_row(self) -> List[Any]:
        self._expect_punct("(")
        values = [self._literal_value()]
        while self._accept_punct(","):
            values.append(self._literal_value())
        self._expect_punct(")")
        return values

    def _literal_value(self) -> Any:
        token = self._next()
        if token.kind in ("number", "string"):
            return token.value
        if token.is_keyword("null"):
            return None
        if token.is_punct("?"):
            return self._param()
        if token.is_punct("-"):
            inner = self._next()
            if inner.kind != "number":
                raise QueryError("expected number after '-'")
            return -inner.value
        raise QueryError("expected literal at %d" % token.position)

    def update(self) -> Update:
        self._expect_keyword("update")
        table = self._expect_name()
        self._expect_keyword("set")
        assignments: Dict[str, Expr] = {}
        while True:
            column = self._expect_name()
            self._expect_punct("=")
            assignments[column] = self.expr()
            if not self._accept_punct(","):
                break
        where = self.expr() if self._accept_keyword("where") else None
        return Update(table, assignments, where)

    def delete(self) -> Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_name()
        where = self.expr() if self._accept_keyword("where") else None
        return Delete(table, where)

    # -- expressions -----------------------------------------------------------
    def expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = BinOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = BinOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == "punct" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            return BinOp(token.value, left, self._additive())
        if token.is_keyword("between"):
            self._next()
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return Between(left, low, high)
        if token.is_keyword("in"):
            self._next()
            self._expect_punct("(")
            options = [self._literal_value()]
            while self._accept_punct(","):
                options.append(self._literal_value())
            self._expect_punct(")")
            return InList(left, tuple(options))
        if token.is_keyword("like"):
            self._next()
            pattern = self._next()
            if pattern.kind != "string":
                raise QueryError("LIKE requires a string pattern")
            return Like(left, pattern.value)
        return left

    def _additive(self) -> Expr:
        left = self._term()
        while True:
            token = self._peek()
            if token.kind == "punct" and token.value in ("+", "-"):
                self._next()
                left = BinOp(token.value, left, self._term())
            else:
                return left

    def _term(self) -> Expr:
        left = self._factor()
        while True:
            token = self._peek()
            if token.kind == "punct" and token.value in ("*", "/"):
                self._next()
                left = BinOp(token.value, left, self._factor())
            else:
                return left

    def _factor(self) -> Expr:
        token = self._next()
        if token.kind == "number" or token.kind == "string":
            return Literal(token.value)
        if token.is_keyword("null"):
            return Literal(None)
        if token.is_punct("?"):
            return self._param()
        if token.is_punct("-"):
            return UnaryOp("-", self._factor())
        if token.is_punct("("):
            inner = self.expr()
            self._expect_punct(")")
            return inner
        if token.kind == "keyword" and token.value in (
            "count", "sum", "avg", "min", "max",
        ):
            return self._agg_call(token.value)
        if token.kind == "name":
            if self._accept_punct("."):
                column = self._expect_name()
                return ColumnRef(column, table=token.value)
            return ColumnRef(token.value)
        raise QueryError("unexpected token %r at %d" % (token.value, token.position))

    def _agg_call(self, func: str) -> AggCall:
        self._expect_punct("(")
        distinct = self._accept_keyword("distinct")
        if self._accept_punct("*"):
            if func != "count":
                raise QueryError("only COUNT(*) takes '*'")
            argument = None
        else:
            argument = self.expr()
        self._expect_punct(")")
        return AggCall(func, argument, distinct)
