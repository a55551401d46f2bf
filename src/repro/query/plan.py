"""Logical query plans.

A plan is a tree of dataclass nodes.  The planner (:mod:`.planner`)
assembles it from the AST; the executor walks it.  The node set mirrors
veDB's executor operators: sequential scan (with pushed filter and
projection), hash join, index nested-loop join, aggregation, sort, limit,
projection.

``SeqScan.pushdown`` is the paper's "marked plan fragment": when True, the
executor hands the scan (plus its filter/projection and any partial
aggregation) to the push-down runtime instead of pumping pages through the
engine thread.  ``SeqScan.partial_agg`` groups a scan's rows before
anything above sees them: a single-table aggregate's whole grouping when
pushed, or the many side of the join under an Aggregate (eager
aggregation), whose groups then join as rows.  ``HashJoin.runtime_filter``
names the scan of a join's probe side that its build keys filter at run
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .ast import AggCall, Expr, SelectItem

__all__ = [
    "PlanNode",
    "SeqScan",
    "IndexLookup",
    "HashJoin",
    "IndexNLJoin",
    "Aggregate",
    "Project",
    "Sort",
    "Limit",
    "explain",
    "PARTIAL_STATES",
]

#: The key of the column a ``partial_agg`` scan under a join adds to its
#: groups: each group's flat aggregate state, carried through the join to
#: the Aggregate that folds it (``Aggregate.from_partials``).
PARTIAL_STATES = "__partial_states__"


@dataclass
class PlanNode:
    """Base plan node; ``estimated_rows`` drives push-down thresholds."""

    estimated_rows: int = 0


@dataclass
class SeqScan(PlanNode):
    table_name: str = ""
    binding: str = ""
    filter: Optional[Expr] = None
    #: Names of the columns anything reads - the scan's own filter
    #: included - in schema order.  Never "all" by omission: ``SELECT *``
    #: lists every name and ``SELECT COUNT(*) FROM t`` is ``()``.  The
    #: executor and push-down fragments decode, carry and ship exactly
    #: these.
    projection: Tuple[str, ...] = ()
    #: How many columns the table stores (EXPLAIN's ``cols=k/n``).
    stored_columns: int = 0
    #: Marked for storage-side execution.
    pushdown: bool = False
    #: (group_exprs, agg_calls): the scan returns partial groups, not
    #: rows - see Aggregate for semantics.  Set on a single-table
    #: aggregate's scan when it is pushed (it then groups storage-side),
    #: and on the many side of the hash join under an Aggregate, grouped by
    #: its join keys (``Planner._aggregate_before_join``): its groups join
    #: as rows, each carrying its state in a ``PARTIAL_STATES`` column,
    #: local or pushed.
    partial_agg: Optional[Tuple[List[Expr], List[AggCall]]] = None
    #: Set on the build (right) side of a hash join: the join-key
    #: expressions, evaluated against this scan's rows.  When the scan is
    #: also marked ``pushdown``, the executor ships the whole hash
    #: build storage-side (keys + filtered columns come back; the engine
    #: only builds the hash table and probes).
    hash_keys: Optional[List[Expr]] = None
    #: How the planner priced pushing the scan: (the result bytes its
    #: fragment would ship, the page bytes the engine would pull instead).
    #: None when push-down was not considered.
    wire: Optional[Tuple[int, int]] = None


@dataclass
class IndexLookup(PlanNode):
    """Unique point lookup through the primary-key B-tree.

    Chosen for single-table queries whose filter pins every primary-key
    column with an equality against a constant (literal or parameter):
    the key resolves to at most one row via ``Table.lookup``, so one
    locator probe plus one page fetch replaces the full sequential scan.
    Returns the identical row (same binding, same column keys) the
    filtered SeqScan would, which keeps results byte-identical.
    """

    table_name: str = ""
    binding: str = ""
    #: Constant expressions (no column references) producing the full
    #: primary-key tuple, in key-column order.
    key_exprs: List[Expr] = field(default_factory=list)
    #: Leftover filter conjuncts, evaluated on the fetched row.
    residual: Optional[Expr] = None


@dataclass
class HashJoin(PlanNode):
    left: PlanNode = None
    right: PlanNode = None
    left_keys: List[Expr] = field(default_factory=list)
    right_keys: List[Expr] = field(default_factory=list)
    #: Residual non-equi condition evaluated on joined rows.
    residual: Optional[Expr] = None
    #: The joined columns an operator above reads (qualified keys, left
    #: side's first): all the executor gathers.  A column only the join's
    #: own keys or residual read is not among them.  ``None`` (a hand-built
    #: plan) is every column of both sides, which is also what the test
    #: oracle always produces.
    output: Optional[Tuple[str, ...]] = None
    #: How many columns both sides carry into the join, unpruned
    #: (EXPLAIN's ``cols=k/n``).
    joined_columns: int = 0
    #: The binding of the one ``SeqScan`` in the left (probe) subtree that
    #: produces every left key as a bare column, reached through hash
    #: joins only: the executor builds first and hands that scan the
    #: build's key set, so it drops the rows no build key can match.
    #: ``None``: no such scan.  Set only over a ``SeqScan`` build side; a
    #: build side that groups (``partial_agg``) filters by its groups' keys,
    #: which are its rows' keys.
    runtime_filter: Optional[str] = None


@dataclass
class IndexNLJoin(PlanNode):
    """For each outer row, probe the inner table through an index.

    Friendly to OLTP-style selective joins; hostile to push-down (the
    inner probes are point reads through the engine) - the plan-shape
    effect the paper measures in Fig. 14.
    """

    outer: PlanNode = None
    inner_table: str = ""
    inner_binding: str = ""
    #: Outer-side expressions producing the inner index key prefix.
    outer_keys: List[Expr] = field(default_factory=list)
    #: Inner columns matched against (index prefix order).
    inner_columns: List[str] = field(default_factory=list)
    #: The inner columns anything reads - the inner filter, join keys and
    #: residual included - in schema order: all the probed rows decode.
    #: Like ``SeqScan.projection``, ``()`` is no column, not all.
    inner_projection: Tuple[str, ...] = ()
    inner_filter: Optional[Expr] = None
    residual: Optional[Expr] = None
    #: Name of the inner index to probe ('' = primary key).
    index_name: str = ""


@dataclass
class Aggregate(PlanNode):
    child: PlanNode = None
    group_exprs: List[Expr] = field(default_factory=list)
    aggregates: List[AggCall] = field(default_factory=list)
    #: True when the child already produced partial aggregate states: a
    #: pushed scan's task partials (push-down secondary aggregation), or
    #: the rows of a hash join whose many side grouped, each carrying its
    #: group's state in a ``PARTIAL_STATES`` column.  Folding copies each
    #: state before merging it: a group that joined several rows counts
    #: once per row, and no two output groups share a state.
    from_partials: bool = False


@dataclass
class Project(PlanNode):
    child: PlanNode = None
    items: List[SelectItem] = field(default_factory=list)
    #: For aggregate queries: map from AggCall to its output position.
    star: bool = False


@dataclass
class Sort(PlanNode):
    child: PlanNode = None
    order_by: List[Tuple[Expr, bool]] = field(default_factory=list)


@dataclass
class Limit(PlanNode):
    child: PlanNode = None
    count: int = 0


def explain(node: PlanNode, depth: int = 0, _filters=None) -> str:
    """Human-readable plan tree (used by tests and examples).  A scan the
    planner priced for push-down shows ``wire=<result>B/<page>B``: what
    its fragment would ship against the page bytes it saves; a scan a hash
    join's build side filters shows ``runtime-filter<-<build binding>``."""
    pad = "  " * depth
    filters = _filters or {}
    if isinstance(node, SeqScan):
        marks = []
        if node.pushdown:
            marks.append("PUSHDOWN")
        if node.partial_agg:
            marks.append("partial-agg")
        if node.pushdown and node.hash_keys:
            marks.append("hash-build")
        if node.filter is not None:
            marks.append("filtered")
        marks.extend(
            "runtime-filter<-%s" % build
            for build in filters.get(node.binding, ())
        )
        suffix = (" [%s]" % ", ".join(marks)) if marks else ""
        if node.wire is not None:
            suffix += " wire=%dB/%dB" % node.wire
        return "%sSeqScan(%s as %s) cols=%d/%d%s ~%d rows" % (
            pad, node.table_name, node.binding, len(node.projection),
            node.stored_columns, suffix, node.estimated_rows,
        )
    if isinstance(node, IndexLookup):
        suffix = " [filtered]" if node.residual is not None else ""
        return "%sIndexLookup(%s as %s)%s ~%d rows" % (
            pad, node.table_name, node.binding, suffix, node.estimated_rows,
        )
    if isinstance(node, HashJoin):
        cols = (
            "" if node.output is None
            else " cols=%d/%d" % (len(node.output), node.joined_columns)
        )
        target = node.runtime_filter
        if target is not None:
            filters = dict(filters)
            filters[target] = filters.get(target, ()) + (node.right.binding,)
        return "%sHashJoin%s ~%d rows\n%s\n%s" % (
            pad,
            cols,
            node.estimated_rows,
            explain(node.left, depth + 1, filters),
            explain(node.right, depth + 1, filters),
        )
    if isinstance(node, IndexNLJoin):
        return "%sIndexNLJoin(inner=%s as %s) ~%d rows\n%s" % (
            pad, node.inner_table, node.inner_binding, node.estimated_rows,
            explain(node.outer, depth + 1),
        )
    if isinstance(node, Aggregate):
        return "%sAggregate(groups=%d, aggs=%d%s)\n%s" % (
            pad,
            len(node.group_exprs),
            len(node.aggregates),
            ", from-partials" if node.from_partials else "",
            explain(node.child, depth + 1),
        )
    if isinstance(node, Project):
        return "%sProject(%d items)\n%s" % (
            pad, len(node.items), explain(node.child, depth + 1)
        )
    if isinstance(node, Sort):
        return "%sSort(%d keys)\n%s" % (
            pad, len(node.order_by), explain(node.child, depth + 1)
        )
    if isinstance(node, Limit):
        return "%sLimit(%d)\n%s" % (pad, node.count, explain(node.child, depth + 1))
    return "%s%s" % (pad, type(node).__name__)
