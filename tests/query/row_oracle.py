"""The dict-at-a-time row interpreter: the reference the engine's batch
executor is tested against.

This is the Volcano executor ``repro.query.executor`` ran before every
plan node moved onto ``ColumnBatch`` kernels: one dict per row keyed
``binding.column``, plain ``Expr.eval`` per row, aggregates riding in an
``__aggs__`` entry.  It is full-width and engine-side only - it reads no
``pushdown`` mark, ``SeqScan.projection`` or ``HashJoin.output`` - so it is
slow and obviously right; it must not be "optimised".  Like the engine it
builds a hash join's right side first and lets the build keys filter the
scan a ``HashJoin.runtime_filter`` names, a semantic step (it decides
which rows the join above sees), not a shortcut.  It keeps its own
aggregate accumulators and its own aggregate-aware expression evaluator:
the engine's flat group states and generated kernels answer to them.

It plans with the engine's own ``Planner`` and charges the same
``cpu.consume`` amounts and ``fetch_page`` calls in the same order as the
engine-side operators, so on twin same-seed deployments an oracle run and
an engine run leave the virtual clock, ``pages_scanned`` and
``index_lookups`` exactly equal.
"""

import math
from dataclasses import dataclass
from typing import Any, Optional

import pytest

from repro.common import QueryError
from repro.obs import obs_of
from repro.query import kernels
from repro.query.ast import (
    AggCall,
    Between,
    BinOp,
    InList,
    Like,
    Select,
    UnaryOp,
    binop_apply,
    like_match,
)
from repro.query.cache import parse_entry
from repro.query.executor import (
    PAGE_CPU,
    ROW_CPU,
    QueryResult,
    _Reversible,
    count_scan_cells,
)
from repro.query.plan import (
    Aggregate,
    HashJoin,
    IndexLookup,
    IndexNLJoin,
    Limit,
    Project,
    SeqScan,
    Sort,
)
from repro.query.planner import Planner, PlannerConfig


@dataclass
class AggAccumulator:
    """Partial state for one aggregate call."""

    count: int = 0
    total: float = 0.0
    minimum: Any = None
    maximum: Any = None
    distinct: Optional[set] = None


def new_agg_states(aggs):
    return [
        AggAccumulator(distinct=set() if agg.distinct else None) for agg in aggs
    ]


def accumulators_of(flat):
    """A group's flat state (``repro.query.kernels.group_by``'s layout:
    first row index, then ``AGG_SLOTS`` slots per aggregate in
    ``AggAccumulator`` field order) as accumulators, to compare."""
    width = kernels.AGG_SLOTS
    return [
        AggAccumulator(*flat[base:base + width])
        for base in range(1, len(flat), width)
    ]


def finalize_agg_states(states, aggs):
    values = {}
    for state, agg in zip(states, aggs):
        if agg.distinct:
            values[agg] = len(state.distinct)
        elif agg.func == "count":
            values[agg] = state.count
        elif agg.func == "sum":
            values[agg] = state.total if state.count else None
        elif agg.func == "avg":
            values[agg] = (state.total / state.count) if state.count else None
        else:
            values[agg] = state.minimum if agg.func == "min" else state.maximum
    return values


def eval_with_aggs(expr, row, agg_values):
    """Evaluate an expression that may embed aggregate results: what the
    engine's kernels compute over an Aggregate's output batch."""
    if isinstance(expr, AggCall):
        try:
            return agg_values[expr]
        except KeyError:
            return expr.eval(row)  # raises: no Aggregate computed it
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return bool(eval_with_aggs(expr.left, row, agg_values)) and bool(
                eval_with_aggs(expr.right, row, agg_values)
            )
        if expr.op == "or":
            return bool(eval_with_aggs(expr.left, row, agg_values)) or bool(
                eval_with_aggs(expr.right, row, agg_values)
            )
        left = eval_with_aggs(expr.left, row, agg_values)
        return binop_apply(
            expr.op, left, eval_with_aggs(expr.right, row, agg_values)
        )
    if isinstance(expr, UnaryOp):
        value = eval_with_aggs(expr.operand, row, agg_values)
        return (not bool(value)) if expr.op == "not" else -value
    if isinstance(expr, Between):
        value = eval_with_aggs(expr.operand, row, agg_values)
        if value is None:
            return False
        low = eval_with_aggs(expr.low, row, agg_values)
        return low <= value <= eval_with_aggs(expr.high, row, agg_values)
    if isinstance(expr, InList):
        return eval_with_aggs(expr.operand, row, agg_values) in expr.options
    if isinstance(expr, Like):
        return like_match(
            eval_with_aggs(expr.operand, row, agg_values), expr.pattern
        )
    return expr.eval(row)


def update_agg_states(states, aggs, row):
    """Fold one row into a group's accumulators."""
    for state, agg in zip(states, aggs):
        if agg.argument is None:  # COUNT(*)
            state.count += 1
            continue
        value = agg.argument.eval(row)
        if value is None:
            continue
        if agg.distinct:
            state.distinct.add(value)
            continue
        state.count += 1
        if agg.func in ("sum", "avg"):
            state.total += value
        elif agg.func == "min":
            state.minimum = value if state.minimum is None else min(state.minimum, value)
        elif agg.func == "max":
            state.maximum = value if state.maximum is None else max(state.maximum, value)


class RowOracle:
    """SELECT only: parse -> plan (the engine's planner, no push-down
    marks) -> interpret row by row."""

    def __init__(self, engine, force_hash_joins=False):
        self.engine = engine
        self.planner = Planner(
            engine.catalog, PlannerConfig(force_hash_joins=force_hash_joins)
        )
        self._registry = obs_of(engine.env).registry
        self.pages_scanned = 0
        self.index_lookups = 0

    def plan(self, sql):
        statement, nparams = parse_entry(sql)
        if not isinstance(statement, Select) or nparams:
            raise QueryError("the oracle runs parameterless SELECTs only")
        return self.planner.plan_select(statement)

    def execute(self, sql):
        """Generator: run one SELECT; returns a QueryResult."""
        return (yield from self.execute_plan(self.plan(sql)))

    def execute_plan(self, plan):
        rows, columns = yield from self._run(plan)
        if columns is None:
            # Plan without a Project on top (bare scan/join): expose the
            # qualified column keys directly.
            columns = sorted(
                {k for row in rows for k in row if not k.startswith("__")}
            )
        if rows and "__values__" in rows[0]:
            # A Project's output rides positionally: two select items may
            # share an output name.
            shaped = [row["__values__"] for row in rows]
        else:
            shaped = [tuple(row.get(c) for c in columns) for row in rows]
        return QueryResult(columns, shaped)

    def _run(self, node, filters=None):
        """``filters``: ``{target binding: [(left keys, build dict)]}`` of
        the hash joins above."""
        if isinstance(node, IndexLookup):
            rows = yield from self._run_index_lookup(node)
            return rows, None
        if isinstance(node, SeqScan):
            rows = yield from self._run_scan(
                node, (filters or {}).get(node.binding, ())
            )
            return rows, None
        if isinstance(node, HashJoin):
            return (yield from self._run_hash_join(node, filters))
        if isinstance(node, IndexNLJoin):
            return (yield from self._run_nl_join(node))
        if isinstance(node, Aggregate):
            return (yield from self._run_aggregate(node))
        if isinstance(node, Project):
            return (yield from self._run_project(node))
        if isinstance(node, Sort):
            return (yield from self._run_sort(node))
        if isinstance(node, Limit):
            rows, columns = yield from self._run(node.child)
            return rows[: node.count], columns
        raise QueryError("unknown plan node %r" % node)

    # -- scans ----------------------------------------------------------------
    def _run_scan(self, scan, filters=()):
        table = self.engine.catalog.table(scan.table_name)
        rows = []
        scanned = 0
        for page_no in list(table.page_nos):
            page = yield from self.engine.fetch_page(table.page_id(page_no))
            yield from self.engine.cpu.consume(
                PAGE_CPU + ROW_CPU * page.row_count
            )
            self.pages_scanned += 1
            scanned += page.row_count
            for values in table.schema.decode_rows(page.rows()):
                row = self._bind_row(scan.binding, table, values)
                if scan.filter is not None and not scan.filter.eval(row):
                    continue
                if all(self._may_match(row, *f) for f in filters):
                    rows.append(row)
        width = len(table.schema)
        # Every cell, decoded from the page bytes (no memo).
        count_scan_cells(
            self._registry, scanned, width, width, scanned * width
        )
        return rows

    def _run_index_lookup(self, node):
        table = self.engine.catalog.table(node.table_name)
        key = tuple(expr.eval({}) for expr in node.key_exprs)
        yield from self.engine.cpu.consume(ROW_CPU * 2)
        self.index_lookups += 1
        rows = []
        try:
            locator = table.lookup(key)
        except TypeError:
            # Key incomparable with stored keys (e.g. NULL or a type
            # mismatch): the scan's equality predicate would match
            # nothing, so the lookup matches nothing.
            locator = None
        if locator is None:
            return rows
        page_no, slot = locator
        page = yield from self.engine.fetch_page(table.page_id(page_no))
        try:
            raw = page.get(slot)
        except KeyError:
            return rows
        values = table.schema.decode(raw)
        row = self._bind_row(node.binding, table, values)
        if node.residual is None or node.residual.eval(row):
            rows.append(row)
        return rows

    @staticmethod
    def _may_match(row, exprs, build):
        key = tuple(expr.eval(row) for expr in exprs)
        return None not in key and key in build  # NULL = NULL is not true

    @staticmethod
    def _bind_row(binding, table, values):
        return {
            "%s.%s" % (binding, name): value
            for name, value in zip(table.schema.names, values)
        }

    # -- joins ----------------------------------------------------------------
    def _run_hash_join(self, join, filters=None):
        right_rows, _ = yield from self._run(join.right, filters)
        build = {}
        for row in right_rows:
            key = tuple(expr.eval(row) for expr in join.right_keys)
            if None not in key:  # NULL = NULL is not true
                build.setdefault(key, []).append(row)
        if join.runtime_filter is not None:
            filters = dict(filters or {})
            filters[join.runtime_filter] = list(
                filters.get(join.runtime_filter, ())
            ) + [(join.left_keys, build)]
        left_rows, _ = yield from self._run(join.left, filters)
        yield from self.engine.cpu.consume(
            ROW_CPU * (len(left_rows) + len(right_rows))
        )
        out = []
        for row in left_rows:
            key = tuple(expr.eval(row) for expr in join.left_keys)
            for match in build.get(key, ()):
                joined = dict(row)
                joined.update(match)
                if join.residual is None or join.residual.eval(joined):
                    out.append(joined)
        return out, None

    def _run_nl_join(self, join):
        outer_rows, _ = yield from self._run(join.outer)
        table = self.engine.catalog.table(join.inner_table)
        out = []
        for row in outer_rows:
            prefix = tuple(expr.eval(row) for expr in join.outer_keys)
            yield from self.engine.cpu.consume(ROW_CPU * 2)
            if None in prefix:  # NULL = NULL is not true (nor orderable)
                continue
            locators = []
            if join.index_name == "":
                if len(prefix) == len(table.key_columns):
                    locator = table.lookup(prefix)
                    if locator is not None:
                        locators.append(locator)
                else:
                    for _key, locator in table.pk_index.range(prefix, None):
                        if _key[: len(prefix)] != prefix:
                            break
                        locators.append(locator)
            else:
                for _key, locator in table.lookup_secondary(join.index_name, prefix):
                    locators.append(locator)
            for page_no, slot in locators:
                page = yield from self.engine.fetch_page(table.page_id(page_no))
                try:
                    raw = page.get(slot)
                except KeyError:
                    continue
                values = table.schema.decode(raw)
                inner = self._bind_row(join.inner_binding, table, values)
                if join.inner_filter is not None and not join.inner_filter.eval(inner):
                    continue
                joined = dict(row)
                joined.update(inner)
                if join.residual is None or join.residual.eval(joined):
                    out.append(joined)
        return out, None

    # -- aggregation ------------------------------------------------------------
    def _run_aggregate(self, agg):
        child_rows, _ = yield from self._run(agg.child)
        groups = {}
        group_samples = {}
        yield from self.engine.cpu.consume(ROW_CPU * max(len(child_rows), 1))
        for row in child_rows:
            key = tuple(expr.eval(row) for expr in agg.group_exprs)
            states = groups.get(key)
            if states is None:
                states = new_agg_states(agg.aggregates)
                groups[key] = states
                group_samples[key] = row
            update_agg_states(states, agg.aggregates, row)
        if not groups and not agg.group_exprs:
            # Global aggregate over zero rows still yields one output row.
            groups[()] = new_agg_states(agg.aggregates)
            group_samples[()] = {}
        out = []
        for key, states in groups.items():
            agg_values = finalize_agg_states(states, agg.aggregates)
            row = dict(group_samples[key])
            row["__aggs__"] = agg_values
            out.append(row)
        return out, None

    # -- projection / sort ------------------------------------------------------
    def _run_project(self, project):
        child_rows, _ = yield from self._run(project.child)
        yield from self.engine.cpu.consume(ROW_CPU * max(len(child_rows), 1))
        if project.star:
            columns = (
                sorted(k for k in child_rows[0] if not k.startswith("__"))
                if child_rows
                else []
            )
            # Keep dict shape so Sort above Project can evaluate keys.
            return child_rows, columns
        columns = [item.output_name for item in project.items]
        out_rows = []
        for row in child_rows:
            agg_values = row.get("__aggs__", {})
            values = tuple(
                eval_with_aggs(item.expr, row, agg_values)
                for item in project.items
            )
            # ORDER BY resolves a name to the first select item bearing
            # it, then to the source columns, retained for that.
            out = dict(row)
            out.update(zip(reversed(columns), reversed(values)))
            out["__aggs__"] = agg_values
            out["__values__"] = values
            out_rows.append(out)
        return out_rows, columns

    def _run_sort(self, sort):
        child_rows, columns = yield from self._run(sort.child)
        count = max(len(child_rows), 1)
        yield from self.engine.cpu.consume(
            ROW_CPU * count * max(1.0, math.log2(count))
        )

        def sort_key(row):
            parts = []
            for expr, desc in sort.order_by:
                value = eval_with_aggs(expr, row, row.get("__aggs__", {}))
                parts.append(_Reversible(value, desc))
            return tuple(parts)

        child_rows.sort(key=sort_key)
        return child_rows, columns


# ---------------------------------------------------------------------------
# Holding the engine to it
# ---------------------------------------------------------------------------


def execute(dep, session, sql):
    """Run ``sql`` on an engine session or an oracle to completion."""
    proc = dep.env.process(session.execute(sql))
    dep.env.run_until_event(proc)
    return proc.value


def _canonical(rows):
    # Round floats so ulp drift cannot perturb the sort, then order rows
    # canonically: ORDER BY ties break on input order, which pushdown's
    # local-then-tasks merge legitimately permutes.
    normal = [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return sorted(normal, key=repr)


def assert_rows_close(got, want, context):
    """Order-insensitive row-set equality tolerating float last-ulp drift.

    Used only across *pushdown configurations*: distributed partial
    aggregation sums each task's rows independently before merging, which
    reassociates float addition versus one sequential scan (inherent to
    scatter-gather aggregation).
    """
    assert len(got) == len(want), context
    for got_row, want_row in zip(_canonical(got), _canonical(want)):
        for g, w in zip(got_row, want_row):
            if isinstance(g, float) and isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), context
            else:
                assert g == w, context


def assert_parity(dep, sql, context=None):
    """``sql`` on the engine under four configurations against the oracle:
    engine-side execution byte-identical (``columns`` and ``rows``)
    whichever joins the planner picks, push-down (planner-marked, then
    every scan marked) equal up to tie order and float reassociation.
    Returns the oracle's result under planner-chosen joins."""
    context = context or sql
    answers = {}
    for hash_joins in (False, True):
        want = answers[hash_joins] = execute(
            dep, RowOracle(dep.engine, hash_joins), sql
        )
        got = execute(
            dep,
            dep.new_session(enable_pushdown=False, force_hash_joins=hash_joins),
            sql,
        )
        assert (got.columns, got.rows) == (want.columns, want.rows), context
    if dep.config.enable_pushdown:
        for threshold in (None, 1):
            got = execute(
                dep,
                dep.new_session(
                    enable_pushdown=True,
                    force_hash_joins=True,
                    pushdown_row_threshold=threshold,
                ),
                sql,
            )
            assert got.columns == want.columns, context
            assert_rows_close(got.rows, want.rows, context)
    return answers[False]
