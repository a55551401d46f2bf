"""Volcano-style single-threaded query executor with a columnar fast path.

veDB processes each query on one thread (paper Section VI): the whole plan
runs inside the calling client's simulation process, so a large scan
through remote storage serialises page fetch after page fetch - precisely
the pathology push-down removes.

Operators execute eagerly (OLAP-style materialisation); CPU is charged in
per-page / per-batch quanta to keep event counts manageable.

Execution modes
---------------

With ``batch_mode`` on (the default), the Scan/HashJoin/Aggregate spine
of a plan executes *vectorized* over :class:`~repro.query.columnar.ColumnBatch`
structures: pages decode column-major and only in the columns the plan
reads (``SeqScan.projection``), every filter, hash build, probe and
group-by runs as one generated loop over the parallel arrays
(``repro.query.kernels``), a join gathers only the columns something
above it reads (``HashJoin.output``), and only the surviving rows
materialize as dicts.  The materialized rows are — by construction — the
dicts the row operators would have produced, restricted to the live
columns (same row order, same float accumulation order), so
Project/Sort/Limit above the spine reuse the row operators unchanged and
every ``QueryResult`` is byte-identical to row mode, whose scans and
joins stay full-width as the oracle.  Anything the
vectorizer cannot handle statically (IndexNLJoin, unresolvable column
references, exotic expression nodes) falls back to row mode per subtree,
decided before any page is fetched.  Simulated CPU charges are identical
in both modes; the win is real (wall-clock) interpreter work.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..common import US, QueryError
from ..engine.dbengine import DBEngine
from ..engine.table import Table
from ..obs import obs_of
from .ast import (
    AggCall,
    BinOp,
    ColumnRef,
    Delete,
    Expr,
    Insert,
    Literal,
    Param,
    Select,
    UnaryOp,
    Update,
    binop_apply,
)
from . import kernels
from .cache import ParseCache, bind_plan, bind_statement, parse_entry
from .columnar import ColumnBatch
from .predicate import compile_row_predicate
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
from .planner import Planner, PlannerConfig

__all__ = ["QuerySession", "QueryResult", "PreparedStatement",
           "AggAccumulator", "new_agg_states", "update_agg_states",
           "merge_agg_states", "finalize_agg_states", "vector_group_by",
           "count_scan_cells"]

#: CPU charged per row flowing through a tight operator loop.
ROW_CPU = 0.25 * US
#: CPU charged per page decode (slots -> row dicts).
PAGE_CPU = 2.0 * US


def count_scan_cells(registry, rows: int, decoded: int, stored: int) -> None:
    """Account one scan (or one storage-side fragment task) of ``rows``
    rows that decoded ``decoded`` of the table's ``stored`` columns: what
    projection saves, as a count that repeats exactly for a seed."""
    registry.incr("query.scan.cells_decoded", rows * decoded)
    registry.incr("query.scan.cells_stored", rows * stored)


@dataclass
class QueryResult:
    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


# ---------------------------------------------------------------------------
# Aggregate accumulators (shared with the push-down runtime)
# ---------------------------------------------------------------------------


@dataclass
class AggAccumulator:
    """Partial state for one aggregate call."""

    count: int = 0
    total: float = 0.0
    minimum: Any = None
    maximum: Any = None
    distinct: Optional[set] = None


def new_agg_states(aggs: Sequence[AggCall]) -> List[AggAccumulator]:
    return [
        AggAccumulator(distinct=set() if agg.distinct else None) for agg in aggs
    ]


def update_agg_states(
    states: List[AggAccumulator], aggs: Sequence[AggCall], row: Dict[str, Any]
) -> None:
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


def merge_agg_states(
    into: List[AggAccumulator], other: List[AggAccumulator], aggs: Sequence[AggCall]
) -> None:
    for state, extra, agg in zip(into, other, aggs):
        if agg.distinct:
            state.distinct |= extra.distinct
            continue
        state.count += extra.count
        state.total += extra.total
        for attr, pick in (("minimum", min), ("maximum", max)):
            mine, theirs = getattr(state, attr), getattr(extra, attr)
            if theirs is not None:
                setattr(state, attr, theirs if mine is None else pick(mine, theirs))


def finalize_agg_states(
    states: List[AggAccumulator], aggs: Sequence[AggCall]
) -> Dict[AggCall, Any]:
    values: Dict[AggCall, Any] = {}
    for state, agg in zip(states, aggs):
        if agg.distinct:
            values[agg] = len(state.distinct)
        elif agg.func == "count":
            values[agg] = state.count
        elif agg.func == "sum":
            values[agg] = state.total if state.count else None
        elif agg.func == "avg":
            values[agg] = (state.total / state.count) if state.count else None
        elif agg.func == "min":
            values[agg] = state.minimum
        elif agg.func == "max":
            values[agg] = state.maximum
    return values


def eval_with_aggs(expr: Expr, row: Dict[str, Any],
                   agg_values: Dict[AggCall, Any]) -> Any:
    """Evaluate an expression that may embed aggregate results."""
    if isinstance(expr, AggCall):
        return agg_values[expr]
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
    return expr.eval(row)


def vector_group_by(
    batch: ColumnBatch,
    group_exprs: Sequence[Expr],
    aggs: Sequence[AggCall],
    predicate: Optional[Expr] = None,
    registry=None,
) -> Tuple[Dict[Tuple, List[AggAccumulator]], Dict[Tuple, int], int]:
    """Vectorized grouping over the rows of a column batch that pass
    ``predicate``.

    Returns ``(groups, sample_index, rows)``: accumulator states per group
    key (dict insertion order = first-seen order), per key the batch row
    index of the group's first row (the row-mode "sample" row), and how
    many rows passed.  One generated loop (:func:`repro.query.kernels
    .group_by`) filters, keys and accumulates, row by row in batch order
    as :func:`update_agg_states` would, so float totals and min/max
    results are bit-identical to row mode; its flat per-group states
    become accumulators here, once per group.  Shared with the
    storage-side push-down fragment executor.  Raises
    :class:`~repro.query.predicate.NotCompilable` when an expression
    cannot bind.
    """
    flat, rows = kernels.group_by(batch, group_exprs, aggs, predicate, registry)
    width = kernels.AGG_SLOTS
    bases = range(1, 1 + width * len(aggs), width)
    groups = {
        key: [AggAccumulator(*state[base:base + width]) for base in bases]
        for key, state in flat.items()
    }
    return groups, {key: state[0] for key, state in flat.items()}, rows


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class QuerySession:
    """One client session: parse -> plan -> execute.

    ``parse_cache`` (usually shared across sessions by the proxy) avoids
    re-tokenizing repeated SQL text; the session-local plan cache reuses
    a SELECT's plan while a *stats token* — catalog size plus each
    referenced table's ``(row_count, index count)`` — matches, so a
    cached plan is always identical to what a fresh replan would build
    (row counts drive scan estimates, join choice, and push-down marks).
    """

    def __init__(
        self,
        engine: DBEngine,
        planner_config: Optional[PlannerConfig] = None,
        pushdown_runtime=None,
        parse_cache: Optional[ParseCache] = None,
        plan_cache_size: int = 128,
        batch_mode: bool = True,
    ):
        self.engine = engine
        self.planner_config = planner_config or PlannerConfig()
        self.planner = Planner(engine.catalog, self.planner_config)
        self.pushdown_runtime = pushdown_runtime
        self.parse_cache = parse_cache
        # ``engine`` may be a standby replica: only ``env`` is common.
        self._registry = obs_of(engine.env).registry
        count_scan_cells(self._registry, 0, 0, 0)  # present before any scan
        for name in ("query.join.cells_joined", "query.join.cells_gathered",
                     "query.kernels.compiled"):
            self._registry.incr(name, 0)
        #: Columnar batch execution for the Scan/HashJoin/Aggregate spine
        #: (results stay byte-identical; off = pure row-at-a-time mode).
        self.batch_mode = batch_mode
        self.queries_executed = 0
        self.pages_scanned = 0
        self.index_lookups = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self._plan_cache_size = plan_cache_size
        self._plan_cache: "OrderedDict[str, Tuple[tuple, PlanNode]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Parse / plan caching
    # ------------------------------------------------------------------
    def _parse_entry(self, sql: str) -> Tuple[Any, int]:
        cache = self.parse_cache
        if cache is not None:
            return cache.entry(sql)
        return parse_entry(sql)

    def _stats_token(self, select: Select) -> Optional[tuple]:
        """Plan-validity token; None when a referenced table is unknown."""
        catalog = self.engine.catalog
        token = [len(catalog)]
        try:
            table = catalog.table(select.table.name)
            token.append((table.row_count, len(table.secondary)))
            for join in select.joins:
                table = catalog.table(join.table.name)
                token.append((table.row_count, len(table.secondary)))
        except QueryError:
            return None
        return tuple(token)

    def cached_plan(self, sql: str, statement: Select) -> PlanNode:
        """The plan for ``statement``, reused while its stats token holds."""
        token = self._stats_token(statement)
        cache = self._plan_cache
        if token is not None:
            entry = cache.get(sql)
            if entry is not None and entry[0] == token:
                self.plan_cache_hits += 1
                cache.move_to_end(sql)
                return entry[1]
        self.plan_cache_misses += 1
        plan = self.planner.plan_select(statement)
        if token is not None:
            cache[sql] = (token, plan)
            if len(cache) > self._plan_cache_size:
                cache.popitem(last=False)
        return plan

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Generator: run one SQL statement; returns a QueryResult."""
        statement, nparams = self._parse_entry(sql)
        if nparams:
            raise QueryError(
                "statement has %d unbound parameter(s); use prepare()"
                % nparams
            )
        if isinstance(statement, Select):
            plan = self.cached_plan(sql, statement)
            return (yield from self.execute_plan(plan))
        if isinstance(statement, Insert):
            return (yield from self._execute_insert(statement))
        if isinstance(statement, Update):
            return (yield from self._execute_update(statement))
        if isinstance(statement, Delete):
            return (yield from self._execute_delete(statement))
        raise QueryError("unsupported statement %r" % statement)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse once; returns a reusable handle with parameter binding."""
        statement, nparams = self._parse_entry(sql)
        return PreparedStatement(self, sql, statement, nparams)

    def execute_statement(self, statement):
        """Generator: run one already-parsed, fully-bound statement.

        The sharded proxy classifies statements at the AST level and
        dispatches the same bound AST to several shards' sessions; this
        entry point skips SQL-text caching (SELECTs re-plan each call).
        """
        if isinstance(statement, Select):
            plan = self.planner.plan_select(statement)
            return (yield from self.execute_plan(plan))
        if isinstance(statement, Insert):
            return (yield from self._execute_insert(statement))
        if isinstance(statement, Update):
            return (yield from self._execute_update(statement))
        if isinstance(statement, Delete):
            return (yield from self._execute_delete(statement))
        raise QueryError("unsupported statement %r" % statement)

    def execute_partial_select(self, statement: Select):
        """Generator: per-group *partial* aggregate states for one SELECT.

        The scatter-gather merge cannot recombine AVG or DISTINCT from
        finalized per-shard values; it needs the pre-finalize states
        (sum+count, distinct value sets).  This runs the plan up to and
        including the Aggregate node's grouping but skips finalize,
        returning ``(aggregates, [(key, sample_row, states), ...])`` for
        the router to merge with :func:`merge_agg_states`.
        """
        plan = self.planner.plan_select(statement)
        node = plan
        while isinstance(node, (Limit, Sort, Project)):
            node = node.child
        if not isinstance(node, Aggregate):
            raise QueryError("statement has no aggregate to run partially")
        agg = node
        child_rows, _ = yield from self._run(agg.child)
        yield from self.engine.cpu.consume(ROW_CPU * max(len(child_rows), 1))
        groups: Dict[Tuple, List[AggAccumulator]] = {}
        samples: Dict[Tuple, Dict[str, Any]] = {}
        if agg.from_partials and self._are_partials(child_rows):
            for group_key, states in child_rows:
                key, sample = group_key
                if key not in groups:
                    groups[key] = states
                    samples[key] = sample
                else:
                    merge_agg_states(groups[key], states, agg.aggregates)
        else:
            if self._are_partials(child_rows):
                raise QueryError("unexpected partial aggregates")
            for row in child_rows:
                key = tuple(expr.eval(row) for expr in agg.group_exprs)
                states = groups.get(key)
                if states is None:
                    states = new_agg_states(agg.aggregates)
                    groups[key] = states
                    samples[key] = row
                update_agg_states(states, agg.aggregates, row)
        self.queries_executed += 1
        return (
            list(agg.aggregates),
            [(key, samples[key], groups[key]) for key in groups],
        )

    def execute_point(self, point: "PointReadPlan", params: Sequence[Any]):
        """Generator: run a compiled prepared point read.

        Charges the same simulated CPU as the generic Project(IndexLookup)
        operator pair (``ROW_CPU * 2`` for the probe plus ``ROW_CPU`` for
        the single-row projection) and returns the byte-identical
        QueryResult, without plan binding or row-dict materialisation.
        """
        engine = self.engine
        table = engine.catalog.table(point.table_name)
        key = tuple(
            params[source] if is_param else source
            for is_param, source in point.key_source
        )
        self.index_lookups += 1
        self.queries_executed += 1
        rows: List[Tuple[Any, ...]] = []
        try:
            locator = table.lookup(key)
        except TypeError:
            locator = None
        if locator is None:
            yield from engine.cpu.consume(ROW_CPU * 3)
            return QueryResult(list(point.columns), rows)
        page_id = table.page_id(locator[0])
        # Resident pages fold their fetch charge into the statement
        # charge (one consume, not two); misses pay the full fetch.
        hit = engine.peek_page(page_id)
        if hit is not None:
            page, extra = hit
            yield from engine.cpu.consume(ROW_CPU * 3 + extra)
        else:
            yield from engine.cpu.consume(ROW_CPU * 3)
            page = yield from engine.fetch_page(page_id)
        try:
            raw = page.get(locator[1])
        except KeyError:
            raw = None
        if raw is not None:
            values = table.schema.decode(raw)
            rows.append(tuple(values[p] for p in point.positions))
        return QueryResult(list(point.columns), rows)

    def plan(self, sql: str) -> PlanNode:
        """Plan without executing (EXPLAIN)."""
        statement, _nparams = self._parse_entry(sql)
        if not isinstance(statement, Select):
            raise QueryError("only SELECT can be explained")
        return self.planner.plan_select(statement)

    def execute_plan(self, plan: PlanNode):
        """Generator: run a logical plan; returns a QueryResult."""
        rows, columns = yield from self._run(plan)
        self.queries_executed += 1
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

    # ------------------------------------------------------------------
    # Plan walking
    # ------------------------------------------------------------------
    def _run(self, node: PlanNode):
        if (
            self.batch_mode
            and isinstance(node, (SeqScan, HashJoin, Aggregate))
            and self._vector_ok(node)
        ):
            kind, payload = yield from self._vrun(node)
            if kind == "batch":
                return payload.to_rows(), None
            return payload, None  # aggregate output rows, or partials
        if isinstance(node, IndexLookup):
            rows = yield from self._run_index_lookup(node)
            return rows, None
        if isinstance(node, SeqScan):
            rows = yield from self._run_scan(node)
            return rows, None
        if isinstance(node, HashJoin):
            return (yield from self._run_hash_join(node))
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
    def _run_scan(self, scan: SeqScan):
        """Generator: return row dicts (or partial agg states if pushed).

        The engine-side row scan decodes and binds every column whatever
        ``scan.projection`` says: it is the oracle the projected batch
        and fragment scans are held to."""
        if scan.pushdown and self.pushdown_runtime is not None:
            result = yield from self.pushdown_runtime.run_scan(scan)
            return result
        table = self.engine.catalog.table(scan.table_name)
        predicate = (
            compile_row_predicate(scan.filter) if scan.filter is not None else None
        )
        rows: List[Dict[str, Any]] = []
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
                if predicate is None or predicate(row):
                    rows.append(row)
        width = len(table.schema)
        count_scan_cells(self._registry, scanned, width, width)
        return rows

    def _run_index_lookup(self, node: IndexLookup):
        """Generator: fetch at most one row through the PK B-tree.

        Produces the exact row dict the filtered SeqScan would (same
        binding-qualified keys, same residual semantics) without paying
        the full-table page decode.
        """
        table = self.engine.catalog.table(node.table_name)
        key = tuple(expr.eval({}) for expr in node.key_exprs)
        yield from self.engine.cpu.consume(ROW_CPU * 2)
        self.index_lookups += 1
        rows: List[Dict[str, Any]] = []
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
    def _bind_row(binding: str, table: Table, values: List[Any]) -> Dict[str, Any]:
        return {
            "%s.%s" % (binding, name): value
            for name, value in zip(table.schema.names, values)
        }

    # ------------------------------------------------------------------
    # Vectorized (columnar) execution of the Scan/HashJoin/Aggregate spine
    # ------------------------------------------------------------------
    # The decision to vectorize is entirely static (plan shape + column
    # resolution against the catalog), made before any page is fetched, so
    # a fallback to row mode never leaves half-executed simulation side
    # effects.  The verdict is cached on the plan node: cached plans and
    # prepared-statement templates pay the check once.

    def _vector_ok(self, node: PlanNode) -> bool:
        cached = getattr(node, "_vector_ok_", None)
        if cached is None:
            cached = self._vector_check(node)
            node._vector_ok_ = cached
        return cached

    def _vector_check(self, node: PlanNode) -> bool:
        if isinstance(node, Aggregate):
            child = node.child
            layout = self._batch_layout(child)
            if layout is None:
                return False
            child_partial = (
                isinstance(child, SeqScan)
                and child.partial_agg is not None
                and child.pushdown
                and self.pushdown_runtime is not None
            )
            if child_partial:
                # Merge path: storage already grouped; no engine-side
                # expression evaluation needed.
                return True
            exprs: List[Expr] = list(node.group_exprs)
            exprs.extend(
                agg.argument for agg in node.aggregates if agg.argument is not None
            )
            return kernels.compilable(layout, exprs)
        return self._batch_layout(node) is not None

    def _batch_layout(self, node: PlanNode) -> Optional[Tuple[str, ...]]:
        """The static column-key tuple a vectorized subtree produces, or
        None when the subtree must run in row mode."""
        if isinstance(node, SeqScan):
            try:
                self.engine.catalog.table(node.table_name)
            except QueryError:
                return None
            keys = tuple(
                "%s.%s" % (node.binding, name) for name in node.projection
            )
            if node.filter is not None and not kernels.compilable(
                keys, [node.filter]
            ):
                return None
            return keys
        if isinstance(node, HashJoin):
            left, right = node.left, node.right
            # Partial-aggregate scans cannot feed a join (row mode raises;
            # falling back preserves the error).
            for side in (left, right):
                if isinstance(side, SeqScan) and side.partial_agg is not None:
                    return None
            left_keys = self._batch_layout(left)
            right_keys = self._batch_layout(right)
            if left_keys is None or right_keys is None:
                return None
            if not kernels.compilable(left_keys, node.left_keys):
                return None
            if not kernels.compilable(right_keys, node.right_keys):
                return None
            joined = left_keys + tuple(
                k for k in right_keys if k not in left_keys
            )
            if node.residual is not None and not kernels.compilable(
                joined, [node.residual]
            ):
                return None
            if node.output is None:
                return joined
            if not set(node.output) <= set(joined):
                return None
            return node.output
        return None  # IndexNLJoin and anything else: row mode

    def _vrun(self, node: PlanNode):
        """Generator: vectorized subtree execution.

        Returns ``("batch", ColumnBatch)`` for scans/joins,
        ``("partials", [...])`` for pushed partial-aggregate scans, and
        ``("rows", [...])`` for aggregates (materialized row dicts,
        identical to the row operator's output).
        """
        if isinstance(node, SeqScan):
            return (yield from self._vrun_scan(node))
        if isinstance(node, HashJoin):
            return (yield from self._vrun_hash_join(node))
        if isinstance(node, Aggregate):
            return (yield from self._vrun_aggregate(node))
        raise QueryError("plan node %r is not vectorizable" % node)

    def _vrun_scan(self, scan: SeqScan):
        if scan.pushdown and self.pushdown_runtime is not None:
            result = yield from self.pushdown_runtime.run_scan(
                scan, as_batch=True
            )
            return result
        batch = yield from self._scan_pages(scan)
        if scan.filter is not None:
            batch = batch.gather(
                kernels.select(batch, scan.filter, self._registry)
            )
        return ("batch", batch)

    def _scan_pages(self, scan: SeqScan):
        """Generator: the projected columns of every row of a local scan,
        its filter not applied."""
        table = self.engine.catalog.table(scan.table_name)
        schema = table.schema
        batch = ColumnBatch.for_scan(scan.binding, schema, scan.projection)
        positions = tuple(map(schema.position, scan.projection))
        for page_no in list(table.page_nos):
            page = yield from self.engine.fetch_page(table.page_id(page_no))
            yield from self.engine.cpu.consume(
                PAGE_CPU + ROW_CPU * page.row_count
            )
            self.pages_scanned += 1
            batch.n += schema.decode_rows_into(
                page.rows(), positions, batch.arrays
            )
        count_scan_cells(self._registry, batch.n, len(batch.keys), len(schema))
        return batch

    def _vrun_unfiltered(self, node: PlanNode):
        """Generator: ``_vrun`` for an operator whose kernel filters in its
        own loop.  Returns ``(kind, payload, predicate)``: a local filtered
        scan comes back unfiltered with its filter as ``predicate``
        (sparing the gather of a batch only that loop reads), anything
        else as ``_vrun`` gives it."""
        if (
            isinstance(node, SeqScan)
            and node.filter is not None
            and not (node.pushdown and self.pushdown_runtime is not None)
        ):
            batch = yield from self._scan_pages(node)
            return "batch", batch, node.filter
        kind, payload = yield from self._vrun(node)
        return kind, payload, None

    def _vrun_hash_join(self, join: HashJoin):
        _, left = yield from self._vrun(join.left)
        right_scan = join.right
        hash_pushed = (
            isinstance(right_scan, SeqScan)
            and right_scan.pushdown
            and right_scan.hash_keys
            and right_scan.partial_agg is None
            and self.pushdown_runtime is not None
        )
        key_rows = predicate = None
        if hash_pushed:
            key_rows, right = yield from self.pushdown_runtime.run_hash_build(
                right_scan
            )
        else:
            _, right, predicate = yield from self._vrun_unfiltered(join.right)
        registry = self._registry
        built, right_rows, unique = kernels.hash_build(
            right, join.right_keys, kernels.nullable(left, join.left_keys),
            self._keyed_build(join), predicate, key_rows, registry,
        )
        yield from self.engine.cpu.consume(ROW_CPU * (left.n + right_rows))
        left_sel, right_sel, matched = kernels.probe(
            left, join.left_keys, built, unique, right, join.residual, registry
        )
        # The joined layout mirrors dict(left); update(right): left keys
        # keep their position, a duplicated key takes the right side's
        # values.  Only the live columns of it are gathered.
        right_at = {key: p for p, key in enumerate(right.keys)}
        left_at = {key: p for p, key in enumerate(left.keys)}
        out_keys = join.output
        if out_keys is None:
            out_keys = left.keys + tuple(
                k for k in right.keys if k not in left_at
            )
        arrays: List[List[Any]] = []
        nullable: List[bool] = []
        for key in out_keys:
            if key in right_at:
                side, position, selection = right, right_at[key], right_sel
            else:
                side, position, selection = left, left_at[key], left_sel
            array = side.arrays[position]
            if not isinstance(selection, range):  # else every row, once
                array = list(map(array.__getitem__, selection))
            arrays.append(array)
            nullable.append(side.nullable[position])
        registry.incr(
            "query.join.cells_joined",
            matched * (join.joined_columns or len(out_keys)),
        )
        registry.incr("query.join.cells_gathered", len(left_sel) * len(out_keys))
        return ("batch", ColumnBatch(out_keys, arrays, len(left_sel), nullable))

    def _keyed_build(self, join: HashJoin) -> bool:
        """Whether the build side's join keys cover its table's primary
        key: a quiescent scan then meets each key once, and the build can
        expect (it still checks) unique keys."""
        scan = join.right
        if not isinstance(scan, SeqScan):
            return False
        names = {e.name for e in join.right_keys if isinstance(e, ColumnRef)}
        table = self.engine.catalog.table(scan.table_name)
        return names.issuperset(table.key_columns)

    def _vrun_aggregate(self, agg: Aggregate):
        kind, payload, predicate = yield from self._vrun_unfiltered(agg.child)
        groups: Dict[Tuple, List[AggAccumulator]] = {}
        samples: Dict[Tuple, Dict[str, Any]] = {}
        if kind == "partials":
            partials = payload
            yield from self.engine.cpu.consume(
                ROW_CPU * max(len(partials), 1)
            )
            if agg.from_partials and self._are_partials(partials):
                for group_key, states in partials:
                    key, sample = group_key
                    if key not in groups:
                        groups[key] = states
                        samples[key] = sample
                    else:
                        merge_agg_states(groups[key], states, agg.aggregates)
            elif self._are_partials(partials):
                raise QueryError("unexpected partial aggregates")
            # An empty partials list degenerates to an empty input.
        else:
            batch = payload
            groups, sample_index, rows = vector_group_by(
                batch, agg.group_exprs, agg.aggregates, predicate,
                self._registry,
            )
            yield from self.engine.cpu.consume(ROW_CPU * max(rows, 1))
            samples = {
                key: batch.row_dict(i) for key, i in sample_index.items()
            }
        if not groups and not agg.group_exprs:
            groups[()] = new_agg_states(agg.aggregates)
            samples[()] = {}
        out: List[Dict[str, Any]] = []
        for key, states in groups.items():
            agg_values = finalize_agg_states(states, agg.aggregates)
            row = dict(samples[key])
            row["__aggs__"] = agg_values
            out.append(row)
        return ("rows", out)

    # -- joins ----------------------------------------------------------------
    def _run_hash_join(self, join: HashJoin):
        left_rows, _ = yield from self._run(join.left)
        right_rows, _ = yield from self._run(join.right)
        if self._are_partials(left_rows) or self._are_partials(right_rows):
            raise QueryError("partial aggregates cannot feed a join")
        yield from self.engine.cpu.consume(
            ROW_CPU * (len(left_rows) + len(right_rows))
        )
        build: Dict[Tuple, List[Dict[str, Any]]] = {}
        for row in right_rows:
            key = tuple(expr.eval(row) for expr in join.right_keys)
            if None not in key:  # NULL = NULL is not true
                build.setdefault(key, []).append(row)
        out: List[Dict[str, Any]] = []
        for row in left_rows:
            key = tuple(expr.eval(row) for expr in join.left_keys)
            for match in build.get(key, ()):
                joined = dict(row)
                joined.update(match)
                if join.residual is None or join.residual.eval(joined):
                    out.append(joined)
        return out, None

    def _run_nl_join(self, join: IndexNLJoin):
        outer_rows, _ = yield from self._run(join.outer)
        table = self.engine.catalog.table(join.inner_table)
        out: List[Dict[str, Any]] = []
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

    # -- aggregation -------------------------------------------------------------
    @staticmethod
    def _are_partials(rows: List[Any]) -> bool:
        return bool(rows) and isinstance(rows[0], tuple) and len(rows[0]) == 2 and \
            isinstance(rows[0][1], list) and (
                not rows[0][1] or isinstance(rows[0][1][0], AggAccumulator)
            )

    def _run_aggregate(self, agg: Aggregate):
        child_rows, _ = yield from self._run(agg.child)
        groups: Dict[Tuple, List[AggAccumulator]] = {}
        group_samples: Dict[Tuple, Dict[str, Any]] = {}
        if agg.from_partials and self._are_partials(child_rows):
            # Secondary aggregation over storage-produced partials.
            yield from self.engine.cpu.consume(ROW_CPU * max(len(child_rows), 1))
            for group_key, states in child_rows:
                key, sample = group_key
                if key not in groups:
                    groups[key] = states
                    group_samples[key] = sample
                else:
                    merge_agg_states(groups[key], states, agg.aggregates)
        else:
            if self._are_partials(child_rows):
                raise QueryError("unexpected partial aggregates")
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
        out: List[Dict[str, Any]] = []
        for key, states in groups.items():
            agg_values = finalize_agg_states(states, agg.aggregates)
            row = dict(group_samples[key])
            row["__aggs__"] = agg_values
            out.append(row)
        return out, None

    # -- projection / sort ----------------------------------------------------
    def _run_project(self, project: Project):
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
        out_rows: List[Dict[str, Any]] = []
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

    def _run_sort(self, sort: Sort):
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

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _execute_insert(self, stmt: Insert):
        table = self.engine.catalog.table(stmt.table)
        txn = self.engine.begin()
        inserted = 0
        for row in stmt.rows:
            if stmt.columns is not None:
                values = [None] * len(table.schema)
                for column, value in zip(stmt.columns, row):
                    values[table.schema.position(column)] = value
            else:
                values = list(row)
            yield from self.engine.insert(txn, stmt.table, values)
            inserted += 1
        yield from self.engine.commit(txn)
        return QueryResult(["inserted"], [(inserted,)])

    def _matching_keys(self, table: Table, where):
        """Generator: PKs of rows matching ``where`` (via a scan that
        reads the key and the WHERE columns)."""
        read = set(table.key_columns)
        if where is not None:
            read.update(key.rpartition(".")[2] for key in where.columns())
        names = table.schema.names
        scan = SeqScan(
            estimated_rows=table.row_count,
            table_name=table.name,
            binding=table.name,
            filter=where,
            projection=tuple(name for name in names if name in read),
            stored_columns=len(names),
        )
        rows, _ = yield from self._run(scan)
        keys = []
        for row in rows:
            keys.append(
                tuple(row["%s.%s" % (table.name, c)] for c in table.key_columns)
            )
        return keys

    def _execute_update(self, stmt: Update):
        table = self.engine.catalog.table(stmt.table)
        keys = yield from self._matching_keys(table, stmt.where)
        txn = self.engine.begin()
        for key in keys:
            current = yield from self.engine.read_row(
                txn, stmt.table, key, for_update=True
            )
            row = {
                "%s.%s" % (table.name, name): value
                for name, value in zip(table.schema.names, current)
            }
            changes = {
                column: expr.eval(row) for column, expr in stmt.assignments.items()
            }
            yield from self.engine.update(txn, stmt.table, key, changes)
        yield from self.engine.commit(txn)
        return QueryResult(["updated"], [(len(keys),)])

    def _execute_delete(self, stmt: Delete):
        table = self.engine.catalog.table(stmt.table)
        keys = yield from self._matching_keys(table, stmt.where)
        txn = self.engine.begin()
        for key in keys:
            yield from self.engine.delete(txn, stmt.table, key)
        yield from self.engine.commit(txn)
        return QueryResult(["deleted"], [(len(keys),)])


@dataclass
class PointReadPlan:
    """Compiled recipe for a prepared primary-key point read.

    A prepared ``Project(IndexLookup)`` template with no residual filter
    and pure column-reference select items reduces to: build the key
    tuple from the parameter vector, probe the PK B-tree, decode one
    row, and gather the projected schema positions.  Executing the
    recipe (``QuerySession.execute_point``) skips per-execution plan
    binding and row-dict materialisation while charging the same
    simulated CPU and producing the byte-identical ``QueryResult`` the
    generic operator path would.
    """

    table_name: str = ""
    #: Per key column: (True, param_index) or (False, literal_value).
    key_source: Tuple[Tuple[bool, Any], ...] = ()
    #: Schema positions of the projected output columns, in item order.
    positions: Tuple[int, ...] = ()
    columns: List[str] = field(default_factory=list)


def compile_point_plan(template: PlanNode, engine: DBEngine):
    """A :class:`PointReadPlan` for ``template``, or None if ineligible."""
    if not isinstance(template, Project) or template.star:
        return None
    lookup = template.child
    if not isinstance(lookup, IndexLookup) or lookup.residual is not None:
        return None
    try:
        table = engine.catalog.table(lookup.table_name)
    except QueryError:
        return None
    key_source: List[Tuple[bool, Any]] = []
    for expr in lookup.key_exprs:
        if isinstance(expr, Param):
            key_source.append((True, expr.index))
        elif isinstance(expr, Literal):
            key_source.append((False, expr.value))
        else:
            return None
    schema = table.schema
    positions: List[int] = []
    columns: List[str] = []
    for item in template.items:
        expr = item.expr
        if not isinstance(expr, ColumnRef):
            return None
        if expr.table is not None and expr.table != lookup.binding:
            return None
        if not schema.has_column(expr.name):
            return None
        positions.append(schema.position(expr.name))
        columns.append(item.output_name)
    return PointReadPlan(
        table_name=lookup.table_name,
        key_source=tuple(key_source),
        positions=tuple(positions),
        columns=columns,
    )


class PreparedStatement:
    """A parsed statement plus its reusable, parameter-bindable plan.

    SELECTs are planned once as a *template* (Param placeholders stay in
    the plan) and re-validated against the session's stats token; each
    ``execute(*params)`` binds a cheap structural-sharing copy.  A
    template that compiles to a :class:`PointReadPlan` executes through
    the point-read fast path instead.  DML binds at the AST level and
    runs the normal DML path.
    """

    __slots__ = ("session", "sql", "statement", "param_count",
                 "is_select", "_template", "_template_token", "_point")

    def __init__(self, session: QuerySession, sql: str, statement: Any,
                 nparams: int):
        self.session = session
        self.sql = sql
        self.statement = statement
        self.param_count = nparams
        self.is_select = isinstance(statement, Select)
        self._template: Optional[PlanNode] = None
        self._template_token: Optional[tuple] = None
        self._point: Optional[PointReadPlan] = None

    def _refresh_template(self, token: Optional[tuple]) -> PlanNode:
        template = self.session.planner.plan_select(self.statement)
        self._template = template
        self._template_token = token
        self._point = (
            compile_point_plan(template, self.session.engine)
            if token is not None else None
        )
        return template

    def _select_plan(self, params: Tuple[Any, ...]) -> PlanNode:
        session = self.session
        token = session._stats_token(self.statement)
        template = self._template
        if template is None or token is None or token != self._template_token:
            template = self._refresh_template(token)
        if not params:
            return template
        return bind_plan(template, params)

    def execute(self, *params):
        """Generator: run with ``params`` bound; returns a QueryResult."""
        if len(params) != self.param_count:
            raise QueryError(
                "prepared statement wants %d parameter(s), got %d"
                % (self.param_count, len(params))
            )
        session = self.session
        if self.is_select:
            token = session._stats_token(self.statement)
            if (self._template is None or token is None
                    or token != self._template_token):
                self._refresh_template(token)
            if self._point is not None:
                return (yield from session.execute_point(self._point, params))
            template = self._template
            plan = bind_plan(template, params) if params else template
            return (yield from session.execute_plan(plan))
        statement = (
            bind_statement(self.statement, params) if params
            else self.statement
        )
        if isinstance(statement, Insert):
            return (yield from session._execute_insert(statement))
        if isinstance(statement, Update):
            return (yield from session._execute_update(statement))
        if isinstance(statement, Delete):
            return (yield from session._execute_delete(statement))
        raise QueryError("unsupported statement %r" % statement)


class _Reversible:
    """Sort-key wrapper supporting DESC order."""

    __slots__ = ("value", "desc")

    def __init__(self, value, desc: bool):
        self.value = value
        self.desc = desc

    def __lt__(self, other: "_Reversible") -> bool:
        a, b = self.value, other.value
        if a is None or b is None:
            return (b is None) if self.desc else (a is None and b is not None)
        if self.desc:
            return b < a
        return a < b

    def __eq__(self, other: "_Reversible") -> bool:
        return self.value == other.value
