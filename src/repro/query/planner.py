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
5. Name each hash join's runtime-filter target (``HashJoin.runtime_filter``):
   the scan of its probe side that produces every probe key as a bare
   column, reached through hash joins only.  The executor builds first
   and hands that scan the build's key set; a pushed target carries it in
   its fragment, priced by :func:`key_set_wire_bytes`.

Result wire bytes come from one width-aware model, :func:`wire_bytes`,
which the push-down runtime also charges a task's result with: a shipped
row costs the codec's null bitmap plus each projected column's codec
width, a varchar its length prefix plus its observed mean length.  A
narrow projection of a big table is cheap to ship and a wide one dear, so
the decision follows what the fragment actually returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..common import PAGE_SIZE, QueryError
from ..engine.codec import NULL_BITMAP_BYTES, WIDTHS
from ..engine.page import PAGE_HEADER_BYTES, SLOT_OVERHEAD
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

__all__ = ["Planner", "PlannerConfig", "key_set_wire_bytes",
           "match_view_select", "wire_bytes"]

#: Framing of one fragment result on the wire.
RESULT_HEADER_BYTES = 64
#: One aggregate's state in a shipped partial group: count, total, minimum
#: and maximum, 8 B each (a DISTINCT value set ships per value).
AGG_STATE_BYTES = 32
#: One shipped DISTINCT value.
DISTINCT_VALUE_BYTES = 8


def column_widths(table: Table) -> List[float]:
    """Per schema position, the bytes one value of that column ships as:
    its codec width, and for a varchar its length prefix plus its mean
    length.  The varchar mean is observed from statistics the table keeps -
    its page fill (``free_hints``) over its row count gives the mean
    encoded row, whose bytes beyond the fixed widths the table's varchars
    share in proportion to their declared lengths - or, while the table
    holds no rows, half the declared length."""
    columns = table.schema.columns
    widths = [float(WIDTHS[c.ctype.name]) for c in columns]
    varchars = [i for i, c in enumerate(columns) if c.ctype.name == "varchar"]
    if not varchars:
        return widths
    declared = [columns[i].ctype.max_length for i in varchars]
    fills = table.free_hints.values()
    if table.row_count > 0 and fills:
        used = sum(PAGE_SIZE - PAGE_HEADER_BYTES - free for free in fills)
        mean_row = used / table.row_count - SLOT_OVERHEAD
        text = max(0.0, mean_row - NULL_BITMAP_BYTES - sum(widths))
        total = sum(declared) or len(declared)
        means = [text * (length or 1) / total for length in declared]
    else:
        means = [length / 2 for length in declared]
    for position, mean in zip(varchars, means):
        widths[position] += mean
    return widths


def wire_bytes(table: Table, positions: Iterable[int], rows: int = 1,
               aggregates: int = 0, distinct_values: int = 0) -> int:
    """Bytes a push-down result of ``rows`` rows of ``table`` ships back,
    each carrying the columns at ``positions``: a result header, then per
    row the codec's null bitmap and the :func:`column_widths` of those
    columns.  Partial groups also ship ``AGG_STATE_BYTES`` per aggregate
    each, and ``distinct_values`` DISTINCT values ride along.  The
    planner's push-down eligibility and the runtime's result sizing both
    price a result here."""
    widths = column_widths(table)
    row = NULL_BITMAP_BYTES + sum(map(widths.__getitem__, positions))
    row += AGG_STATE_BYTES * aggregates
    return (RESULT_HEADER_BYTES + round(row * rows)
            + DISTINCT_VALUE_BYTES * distinct_values)


def fragment_wire_bytes(table: Table, scan, rows: int,
                        distinct_values: int = 0) -> int:
    """:func:`wire_bytes` of ``rows`` result rows of a pushed ``scan`` (a
    ``SeqScan`` or a ``PushdownFragment``): its projection, and its
    aggregates when it aggregates.  A hash build's join key that is a
    column rides in that projected column; a computed key ships its value,
    priced as the columns it reads."""
    position = table.schema.position
    positions = list(map(position, scan.projection))
    for expr in scan.hash_keys or ():
        if not isinstance(expr, ColumnRef):
            positions.extend(
                position(key.rpartition(".")[2]) for key in expr.columns()
            )
    aggregates = 0 if scan.partial_agg is None else len(scan.partial_agg[1])
    return wire_bytes(table, positions, rows, aggregates, distinct_values)


def key_set_wire_bytes(table: Table, exprs: Iterable[Expr], keys: int) -> int:
    """:func:`wire_bytes` of a runtime filter's key set: ``keys`` tuples of
    a hash join's build keys ``exprs`` over ``table``, each key priced as
    the columns it reads."""
    position = table.schema.position
    positions = [
        position(key.rpartition(".")[2])
        for expr in exprs for key in expr.columns()
    ]
    return wire_bytes(table, positions, keys)


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
            groups_estimate = max(1, len(select.group_by) * 10)
            from_partials = False
            if isinstance(plan, SeqScan):
                # Priced as the partial groups it would ship.
                plan.partial_agg = (list(select.group_by), agg_calls)
                from_partials = plan.pushdown = self._scan_pushable(
                    plan, binding_tables[plan.binding], groups_estimate
                )
                if not from_partials:
                    plan.partial_agg = None
            plan = Aggregate(
                estimated_rows=groups_estimate,
                child=plan,
                group_exprs=list(select.group_by),
                aggregates=agg_calls,
                from_partials=from_partials,
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
            # and its projection ride the join and apply per probed row.
            inner_scan = scan_of(binding)
            return IndexNLJoin(
                estimated_rows=estimated,
                outer=left,
                inner_table=table.name,
                inner_binding=binding,
                outer_keys=[l for l, _ in equi_pairs],
                inner_columns=inner_columns,
                inner_projection=inner_scan.projection,
                inner_filter=inner_scan.filter,
                residual=and_together(residuals),
                index_name=index_name,
            )
        right_scan = scan_of(binding)
        right_keys = [r for _, r in equi_pairs]
        left_keys = [l for l, _ in equi_pairs]
        # Planner metadata for the widened push-down: the build side of a
        # hash join knows its join keys, so a marked build scan can be
        # executed storage-side as a hash-build fragment.
        right_scan.hash_keys = list(right_keys)
        return HashJoin(
            estimated_rows=max(estimated, right_scan.estimated_rows),
            left=left,
            right=right_scan,
            left_keys=left_keys,
            right_keys=right_keys,
            residual=and_together(residuals),
            runtime_filter=self._filter_target(
                left, left_keys, binding_tables
            ),
        )

    def _filter_target(self, left, left_keys, binding_tables) -> Optional[str]:
        """The binding of the scan a hash join's build keys can filter:
        every left key a bare column of one binding, whose ``SeqScan`` is
        reached from ``left`` through hash joins only and aggregates
        nothing.  Its rows then carry the left keys unchanged up to the
        join, so a row whose key no build row has can never match."""
        bindings = set()
        for expr in left_keys:
            if not isinstance(expr, ColumnRef):
                return None
            bindings |= self._bindings_of(expr, binding_tables)
        if len(bindings) != 1:
            return None
        (binding,) = bindings
        pending = [left]
        while pending:
            node = pending.pop()
            if isinstance(node, HashJoin):
                pending.extend((node.left, node.right))
            elif (isinstance(node, SeqScan) and node.binding == binding
                    and node.partial_agg is None):
                return binding
        return None

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
            # Carries every outer column plus the inner projection.
            reads = list(node.outer_keys)
            if node.residual is not None:
                reads.append(node.residual)
            return self._prune_joins(
                node.outer, live | claimed(reads), claimed
            ) + tuple(
                "%s.%s" % (node.inner_binding, n) for n in node.inner_projection
            )
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

    def _estimate_scan(self, table: Table, filters: List[Expr]) -> int:
        rows = max(table.row_count, 1)
        # Crude selectivity: each conjunct keeps ~1/3 of rows.
        for _ in filters:
            rows = max(1, rows // 3)
        return rows

    def _scan_pushable(self, scan: SeqScan, table: Table, rows: int) -> bool:
        """Whether to push ``scan``, whose fragment would return ``rows``
        rows (groups, when it carries ``partial_agg``).  Records the
        priced result on ``scan.wire``."""
        if not self.config.enable_pushdown:
            return False
        if scan.filter is not None and scan.filter.contains_aggregate():
            return False
        pages = max(1, len(table.page_nos))
        scan.wire = (
            fragment_wire_bytes(table, scan, max(1, rows)), pages * PAGE_SIZE
        )
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
        if pages < self.config.pushdown_min_pages:
            return False
        return scan.wire[0] <= scan.wire[1] * self.config.pushdown_wire_ratio

    def _mark_scans(self, node: PlanNode, binding_tables: Dict[str, Table]):
        if isinstance(node, SeqScan):
            if not node.pushdown:
                table = binding_tables[node.binding]
                node.pushdown = self._scan_pushable(
                    node, table, node.estimated_rows
                )
            return
        for attr in ("child", "left", "right", "outer"):
            child = getattr(node, attr, None)
            if isinstance(child, PlanNode):
                self._mark_scans(child, binding_tables)
