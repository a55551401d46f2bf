"""Query planner: AST -> logical plan, with push-down marking.

Planning steps (paper Section VI-A):

1. Bind table references against the catalog.
2. Split the WHERE conjunction: single-binding conjuncts become scan
   filters; cross-binding equi-conjuncts become join keys; the rest become
   join residuals.
3. Choose a join algorithm per join: index nested-loop when the join keys
   form a prefix of an inner index and the estimated outer cardinality is
   small; hash join otherwise.  ``force_hash_joins`` reproduces the
   paper's observation that enabling PQ steers plans toward hash joins
   (whose bulk inner scans are pushable); it also serves as the Fig. 14
   "plan change only" hint.
4. Mark scans push-down eligible: single table reference, simple filter,
   no aggregate in the filter, the session flag on, and the fragment
   passing the eligibility test - by default a cost estimate comparing
   the fragment's result wire bytes against the page bytes the engine
   would otherwise pull (``pushdown_row_threshold`` remains as an
   explicit row-count override reproducing the paper's production
   behaviour).  A single-table aggregate query additionally pushes
   partial aggregation; the build side of a hash join carries its join
   keys (``SeqScan.hash_keys``) so the executor can ship the hash
   build storage-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common import PAGE_SIZE, QueryError
from ..engine.table import Catalog, Table
from .ast import (
    AggCall,
    BinOp,
    ColumnRef,
    Expr,
    Select,
    TableRef,
)
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

__all__ = ["Planner", "PlannerConfig", "match_view_select",
           "ROW_WIRE_BYTES", "GROUP_WIRE_BYTES"]

#: Approximate wire size of one projected row shipped back from storage.
#: Canonical here (the planner's cost model and the push-down runtime's
#: dispatch accounting must agree); re-exported by ``pushdown``.
ROW_WIRE_BYTES = 48
#: Approximate wire size of one partial-aggregate group.
GROUP_WIRE_BYTES = 96


@dataclass
class PlannerConfig:
    """Session knobs affecting plan shape and push-down marking."""

    enable_pushdown: bool = False
    #: Explicit row-count override for push-down eligibility (the paper's
    #: production behaviour).  ``None`` (default) selects the cost-based
    #: estimate: push when the fragment's result wire bytes are well
    #: under the page bytes the engine would otherwise pull.
    pushdown_row_threshold: Optional[int] = None
    #: Cost-based eligibility: minimum pages to amortize a dispatch.
    pushdown_min_pages: int = 4
    #: Cost-based eligibility: result bytes must be under this fraction
    #: of the scanned page bytes.
    pushdown_wire_ratio: float = 0.5
    #: Prefer hash joins (PQ-friendly plans / Fig 14 plan hint).
    force_hash_joins: bool = False
    #: Outer-cardinality bound under which index NL join is chosen.
    nl_join_outer_limit: int = 2000
    #: Plan single-table full-PK-equality filters as unique B-tree point
    #: lookups instead of sequential scans.
    enable_index_lookup: bool = True


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten an AND tree into its conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_together(conjuncts: List[Expr]) -> Optional[Expr]:
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinOp("and", result, conjunct)
    return result


def match_view_select(query: Select, view: Select) -> Optional[List[int]]:
    """View-eligibility match: can ``view`` state answer ``query`` exactly?

    Returns, for each query select item, the index of the view item
    producing it, or None when the query is not view-eligible.  The AST
    nodes are frozen dataclasses, so structural equality is exact: the
    query must read the same table with the *same* WHERE and GROUP BY,
    and every select item / ORDER BY expression must be one the view
    already materializes (view items, group columns, or its aggregate
    calls).  The query's own aliases, ORDER BY, and LIMIT are applied at
    serve time by the maintainer.
    """
    if query.star or view.star:
        return None
    if query.joins or view.joins:
        return None
    if (
        query.table.name != view.table.name
        or query.table.binding != view.table.binding
    ):
        return None
    if query.where != view.where:
        return None
    if list(query.group_by) != list(view.group_by):
        return None

    view_exprs = [item.expr for item in view.items]

    def resolves(expr: Expr) -> bool:
        if expr in view_exprs:
            return True
        return any(expr == group_expr for group_expr in view.group_by)

    mapping: List[int] = []
    for item in query.items:
        try:
            mapping.append(view_exprs.index(item.expr))
        except ValueError:
            return None
    for order_expr, _desc in query.order_by:
        if not resolves(order_expr):
            return None
    return mapping


class Planner:
    def __init__(self, catalog: Catalog, config: Optional[PlannerConfig] = None):
        self.catalog = catalog
        self.config = config or PlannerConfig()

    # ------------------------------------------------------------------
    # Binding helpers
    # ------------------------------------------------------------------
    def _bindings_of(self, expr: Expr, binding_tables: Dict[str, Table]):
        """The set of table bindings an expression touches."""
        bindings = set()
        for key in expr.columns():
            if "." in key:
                bindings.add(key.split(".", 1)[0])
            else:
                name = key
                owners = [
                    b for b, t in binding_tables.items() if t.schema.has_column(name)
                ]
                if len(owners) == 1:
                    bindings.add(owners[0])
                elif len(owners) > 1:
                    raise QueryError("ambiguous column %r" % name)
                else:
                    raise QueryError("unknown column %r" % name)
        return bindings

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def plan_select(self, select: Select) -> PlanNode:
        binding_tables: Dict[str, Table] = {}
        order: List[str] = []

        def bind(ref: TableRef):
            table = self.catalog.table(ref.name)
            if ref.binding in binding_tables:
                raise QueryError("duplicate binding %r" % ref.binding)
            binding_tables[ref.binding] = table
            order.append(ref.binding)

        bind(select.table)
        for join in select.joins:
            bind(join.table)

        conjuncts = split_conjuncts(select.where)
        for join in select.joins:
            conjuncts.extend(split_conjuncts(join.condition))

        # Partition conjuncts by the bindings they reference.
        scan_filters: Dict[str, List[Expr]] = {b: [] for b in binding_tables}
        multi: List[Expr] = []
        for conjunct in conjuncts:
            bindings = self._bindings_of(conjunct, binding_tables)
            if len(bindings) == 1:
                scan_filters[bindings.pop()].append(conjunct)
            else:
                multi.append(conjunct)

        # Projection pruning: which columns does anything read?  A
        # reference claims the column(s) ``ColumnRef.eval`` could resolve
        # it to against the joined row - ``binding.column`` when that
        # exists, else every table's column of that name - so an ambiguous
        # bare name stays ambiguous instead of binding to the one copy
        # that survived pruning.
        def claimed(exprs) -> set:
            """The qualified ``binding.column`` keys ``exprs`` claim."""
            claims = set()
            for expr in exprs:
                for key in expr.columns():
                    binding, _, column = key.rpartition(".")
                    table = binding_tables.get(binding)
                    if table is not None and table.schema.has_column(column):
                        claims.add(key)
                        continue
                    for binding, table in binding_tables.items():
                        if table.schema.has_column(column):
                            claims.add("%s.%s" % (binding, column))
            return claims

        if select.star:
            output = {
                "%s.%s" % (binding, name)
                for binding, table in binding_tables.items()
                for name in table.schema.names
            }
        else:
            exprs: List[Expr] = [item.expr for item in select.items]
            exprs.extend(select.group_by)
            exprs.extend(expr for expr, _ in select.order_by)
            output = claimed(exprs)
        needed: Dict[str, set] = {b: set() for b in binding_tables}
        for key in output | claimed(conjuncts):
            binding, _, column = key.rpartition(".")
            needed[binding].add(column)

        def scan_of(binding: str) -> SeqScan:
            table = binding_tables[binding]
            filt = and_together(scan_filters[binding])
            names = table.schema.names
            return SeqScan(
                estimated_rows=self._estimate_scan(table, scan_filters[binding]),
                table_name=table.name,
                binding=binding,
                filter=filt,
                projection=tuple(n for n in names if n in needed[binding]),
                stored_columns=len(names),
            )

        # Build the join tree left-deep in FROM order.  A single-table
        # query whose filter pins the whole primary key with constant
        # equalities becomes a unique point lookup instead of a scan.
        self._inner_filters = scan_filters
        plan: PlanNode = None
        if len(order) == 1 and self.config.enable_index_lookup:
            plan = self._point_lookup(
                order[0], binding_tables[order[0]], scan_filters[order[0]]
            )
        if plan is None:
            plan = scan_of(order[0])
        joined = {order[0]}
        for binding in order[1:]:
            plan = self._plan_join(
                plan, binding, binding_tables, joined, multi, scan_of
            )
            joined.add(binding)
        self._prune_joins(plan, output, claimed)

        # Aggregation.
        agg_calls = self._collect_aggregates(select)
        if agg_calls or select.group_by:
            single_scan = isinstance(plan, SeqScan)
            pushable_aggs = single_scan and self._aggs_are_pushable(agg_calls)
            groups_estimate = max(1, len(select.group_by) * 10)
            if (
                single_scan
                and pushable_aggs
                and self._scan_pushable(
                    plan,
                    binding_tables[plan.binding],
                    groups_estimate=groups_estimate,
                )
            ):
                plan.pushdown = True
                plan.partial_agg = (list(select.group_by), agg_calls)
                plan = Aggregate(
                    estimated_rows=max(1, len(select.group_by) * 10),
                    child=plan,
                    group_exprs=list(select.group_by),
                    aggregates=agg_calls,
                    from_partials=True,
                )
            else:
                plan = Aggregate(
                    estimated_rows=max(1, len(select.group_by) * 10),
                    child=plan,
                    group_exprs=list(select.group_by),
                    aggregates=agg_calls,
                )
        # Mark remaining scans for plain (non-aggregating) push-down.
        self._mark_scans(plan, binding_tables)

        plan = Project(
            estimated_rows=plan.estimated_rows,
            child=plan,
            items=list(select.items),
            star=select.star,
        )
        if select.order_by:
            plan = Sort(
                estimated_rows=plan.estimated_rows,
                child=plan,
                order_by=list(select.order_by),
            )
        if select.limit is not None:
            plan = Limit(
                estimated_rows=min(plan.estimated_rows, select.limit),
                child=plan,
                count=select.limit,
            )
        return plan

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _plan_join(self, left, binding, binding_tables, joined, multi, scan_of):
        table = binding_tables[binding]
        available = joined | {binding}
        # Conjuncts that become evaluable once this binding joins in.
        usable = [
            c
            for c in multi
            if self._bindings_of(c, binding_tables) <= available
            and binding in self._bindings_of(c, binding_tables)
        ]
        for conjunct in usable:
            multi.remove(conjunct)
        equi_pairs: List[Tuple[Expr, Expr]] = []
        residuals: List[Expr] = []
        for conjunct in usable:
            pair = self._as_equi_pair(conjunct, binding, binding_tables)
            if pair is not None:
                equi_pairs.append(pair)
            else:
                residuals.append(conjunct)
        if not equi_pairs:
            raise QueryError(
                "join with %s has no equi-join condition" % binding
            )
        inner_columns = [
            right.name for _, right in equi_pairs if isinstance(right, ColumnRef)
        ]
        index_name = self._matching_index(table, inner_columns)
        use_nl = (
            not self.config.force_hash_joins
            and index_name is not None
            and left.estimated_rows <= self.config.nl_join_outer_limit
        )
        estimated = max(left.estimated_rows, 1)
        if use_nl:
            # The inner side has no scan node, so its single-table filter
            # must ride the join and apply per probed row.
            inner_filter = and_together(self._inner_filters[binding])
            return IndexNLJoin(
                estimated_rows=estimated,
                outer=left,
                inner_table=table.name,
                inner_binding=binding,
                outer_keys=[l for l, _ in equi_pairs],
                inner_columns=inner_columns,
                inner_filter=inner_filter,
                residual=and_together(residuals),
                index_name=index_name,
            )
        right_scan = scan_of(binding)
        right_keys = [r for _, r in equi_pairs]
        # Planner metadata for the widened push-down: the build side of a
        # hash join knows its join keys, so a marked build scan can be
        # executed storage-side as a hash-build fragment.
        right_scan.hash_keys = list(right_keys)
        return HashJoin(
            estimated_rows=max(estimated, right_scan.estimated_rows),
            left=left,
            right=right_scan,
            left_keys=[l for l, _ in equi_pairs],
            right_keys=right_keys,
            residual=and_together(residuals),
        )

    def _prune_joins(self, node, live, claimed):
        """Top-down liveness: set each ``HashJoin.output`` to the joined
        columns something above the join reads (``live``, qualified keys;
        ``claimed(exprs)`` gives those expressions read).  What a join's own
        keys and residual read is live below it only.  Returns the columns
        ``node`` would carry unpruned."""
        if isinstance(node, SeqScan):
            return tuple("%s.%s" % (node.binding, n) for n in node.projection)
        if isinstance(node, HashJoin):
            reads = node.left_keys + node.right_keys
            if node.residual is not None:
                reads = reads + [node.residual]
            below = live | claimed(reads)
            joined = self._prune_joins(node.left, below, claimed)
            joined += self._prune_joins(node.right, below, claimed)
            node.output = tuple(key for key in joined if key in live)
            node.joined_columns = len(joined)
            return joined
        if isinstance(node, IndexNLJoin):
            # Carries every outer column plus the whole inner row.
            reads = list(node.outer_keys)
            if node.residual is not None:
                reads.append(node.residual)
            names = self.catalog.table(node.inner_table).schema.names
            return self._prune_joins(
                node.outer, live | claimed(reads), claimed
            ) + tuple("%s.%s" % (node.inner_binding, n) for n in names)
        return ()

    def _as_equi_pair(self, conjunct, inner_binding, binding_tables):
        """(outer_expr, inner_column_ref) if the conjunct is outer = inner."""
        if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
            return None
        left_b = self._bindings_of(conjunct.left, binding_tables)
        right_b = self._bindings_of(conjunct.right, binding_tables)
        if right_b == {inner_binding} and inner_binding not in left_b:
            return (conjunct.left, conjunct.right)
        if left_b == {inner_binding} and inner_binding not in right_b:
            return (conjunct.right, conjunct.left)
        return None

    def _point_lookup(
        self, binding: str, table: Table, filters: List[Expr]
    ) -> Optional[IndexLookup]:
        """An IndexLookup leaf when ``filters`` pin the full primary key.

        Eligible conjuncts are ``column = constant`` (either side) where
        the constant side references no columns and no aggregates — a
        literal, a parameter, or arithmetic over them.  One equality per
        key column feeds the lookup key; everything else (extra
        equalities on the same column included) stays as a residual
        filter on the fetched row, so results match the scan exactly.
        """
        key_exprs: Dict[str, Expr] = {}
        residual: List[Expr] = []
        for conjunct in filters:
            column = None
            if isinstance(conjunct, BinOp) and conjunct.op == "=":
                left, right = conjunct.left, conjunct.right
                if isinstance(left, ColumnRef) and self._is_constant(right):
                    column, const = left, right
                elif isinstance(right, ColumnRef) and self._is_constant(left):
                    column, const = right, left
            if column is not None:
                name = column.name.split(".")[-1]
                if name in table.key_columns and name not in key_exprs:
                    key_exprs[name] = const
                    continue
            residual.append(conjunct)
        if len(key_exprs) != len(table.key_columns):
            return None
        return IndexLookup(
            estimated_rows=1,
            table_name=table.name,
            binding=binding,
            key_exprs=[key_exprs[name] for name in table.key_columns],
            residual=and_together(residual),
        )

    @staticmethod
    def _is_constant(expr: Expr) -> bool:
        return not expr.columns() and not expr.contains_aggregate()

    def _matching_index(self, table: Table, columns: List[str]) -> Optional[str]:
        """'' for the PK, an index name, or None if nothing matches."""
        normalized = [c.split(".")[-1] for c in columns]
        if list(table.key_columns[: len(normalized)]) == normalized:
            return ""
        for name, index in table.secondary.items():
            if list(index.columns[: len(normalized)]) == normalized:
                return name
        return None

    # ------------------------------------------------------------------
    # Aggregates & push-down marking
    # ------------------------------------------------------------------
    def _collect_aggregates(self, select: Select) -> List[AggCall]:
        calls: List[AggCall] = []

        def walk(expr: Expr):
            if isinstance(expr, AggCall):
                if expr not in calls:
                    calls.append(expr)
                return
            for attr in ("left", "right", "operand", "low", "high", "argument"):
                child = getattr(expr, attr, None)
                if isinstance(child, Expr):
                    walk(child)

        for item in select.items:
            walk(item.expr)
        return calls

    def _aggs_are_pushable(self, aggs: List[AggCall]) -> bool:
        """All supported aggregates partially aggregate now: DISTINCT
        states ship their value sets (mergeable, like the scatter-gather
        path), accounted per value in the wire model."""
        return True

    def _estimate_scan(self, table: Table, filters: List[Expr]) -> int:
        rows = max(table.row_count, 1)
        # Crude selectivity: each conjunct keeps ~1/3 of rows.
        for _ in filters:
            rows = max(1, rows // 3)
        return rows

    def _scan_pushable(
        self,
        scan: SeqScan,
        table: Table,
        groups_estimate: Optional[int] = None,
    ) -> bool:
        if not self.config.enable_pushdown:
            return False
        if scan.filter is not None and scan.filter.contains_aggregate():
            return False
        threshold = self.config.pushdown_row_threshold
        if threshold is not None:
            # The paper thresholds on rows *scanned* by the fragment
            # (output selectivity is irrelevant: a selective filter over
            # a big table is the best push-down case).
            return table.row_count >= threshold
        # Cost-based eligibility (the paper's first future-work item):
        # push when the fragment's estimated result wire bytes are well
        # under the page bytes the engine would otherwise pull through
        # storage, and the scan spans enough pages to amortize a task
        # dispatch round trip.  Partial aggregation ships groups, not
        # rows, so grouped fragments almost always win once big enough.
        pages = max(1, len(table.page_nos))
        if pages < self.config.pushdown_min_pages:
            return False
        if groups_estimate is not None:
            out_bytes = GROUP_WIRE_BYTES * max(1, groups_estimate)
        else:
            out_bytes = ROW_WIRE_BYTES * max(1, scan.estimated_rows)
        return out_bytes <= pages * PAGE_SIZE * self.config.pushdown_wire_ratio

    def _mark_scans(self, node: PlanNode, binding_tables: Dict[str, Table]):
        if isinstance(node, SeqScan):
            if not node.pushdown:
                table = binding_tables[node.binding]
                node.pushdown = self._scan_pushable(node, table)
            return
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                self._mark_scans(child, binding_tables)
