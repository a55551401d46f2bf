"""Single-threaded query executor: every plan node runs on column batches.

veDB processes each query on one thread (paper Section VI): the whole plan
runs inside the calling client's simulation process, so a large scan
through remote storage serialises page fetch after page fetch - precisely
the pathology push-down removes.

Operators execute eagerly (OLAP-style materialisation) and each hands its
parent one :class:`~repro.query.columnar.ColumnBatch`.  Every scan is a
:class:`PushdownFragment` run through one :class:`ScanPipeline` - on this
thread over the pages it fetches, or storage-side when the scan is pushed
(``repro.query.pushdown``): pages decode column-major, through each page's
decoded-column memo and only in the columns the plan reads
(``SeqScan.projection``), then the scan's filter, then the runtime filters,
then rows, join-key tuples or partial groups.  Every filter, hash build,
probe, group-by, projection and sort key runs as one generated loop over
the parallel arrays (``repro.query.kernels``), a join gathers only the
columns something above it reads (``HashJoin.output``), and rows become
tuples once, in :func:`batch_result`.  A hash join builds first, so its
build keys can filter its probe side: the one scan below it that produces
every probe key (``HashJoin.runtime_filter``) drops the rows no build row
can match, and every join above sees fewer rows.  That key set is made of
the key tuples the build scan's fragment returns, storage-side when it is
pushed.  The build's CPU is *owed* from then until the join's probe: the
next pushed scan the query runs pays it on this thread while its storage
tasks run, and a build no pushed scan paid is charged with its probe.
Total CPU is the same either way; only the build's place on the clock
moves, into a wait for storage.  A pushed scan at the bottom of a
left-deep chain of hash joins may also take the joins' built tables with
it (:class:`ShippedProbe`): its pipeline then probes them in order, and
groups the joined rows for an Aggregate directly above the top one, so
those joins return what the scan returned.  Under an Aggregate, the
join's many side may group before the join (``SeqScan.partial_agg`` under
a ``from_partials`` Aggregate): its partial groups join as rows, each
carrying its flat state in a ``PARTIAL_STATES`` column, and the Aggregate
folds copies of the states (:func:`fold_joined_groups`).  CPU is charged in
per-page / per-batch quanta to keep event counts manageable: each operator
names a kind of charge and its counts, and ``repro.cost.charge`` prices
it.  ``tests/query/row_oracle.py`` is the dict-at-a-time interpreter every
``QueryResult`` is held to; it calls the same ``cost.charge`` with its own
counts, so equal virtual clocks mean equal counts.

What follows an Aggregate's grouping - fold, finalize, Project, Sort, Limit,
row zip - is the *answer tail*: pure functions over a ``ColumnBatch``
(:func:`fold_groups` ... :func:`batch_result`).  The session's operators
charge CPU and call them; the scatter-gather merge (``repro.shard.router``)
and view serve (``repro.views.maintainer``) call the same ones, so there is
one place an answer is shaped.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Any, Container, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from ..common import PageId, QueryError
from ..cost import charge
from ..engine.codec import Schema
from ..engine.dbengine import DBEngine
from ..engine.page import Page
from ..engine.table import Table
from ..obs import obs_of
from .ast import (
    AggCall,
    ColumnRef,
    Delete,
    Expr,
    Insert,
    Literal,
    Param,
    Select,
    SelectItem,
    Update,
)
from . import kernels
from .cache import ParseCache, bind_plan, bind_statement, parse_entry
from .columnar import ColumnBatch
from .plan import (
    PARTIAL_STATES,
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
from .planner import (
    Planner, PlannerConfig, covers_primary_key, fragment_wire_bytes,
    key_set_wire_bytes,
)

__all__ = ["QuerySession", "QueryResult", "PreparedStatement",
           "RuntimeFilter", "ShippedProbe", "Offered", "PushdownFragment",
           "ScanPipeline",
           "fold_groups", "fold_joined_groups", "finalize_groups",
           "project_batch", "sort_batch",
           "limit_batch", "batch_result", "count_scan_cells"]


def count_scan_cells(
    registry, rows: int, decoded: int, stored: int, uncached: int
) -> None:
    """Account one scan (or one storage-side fragment task) of ``rows``
    rows that read ``decoded`` of the table's ``stored`` columns: what
    projection saves, as a count that repeats exactly for a seed.

    ``uncached`` is how many of those cells the codec decoded from page
    bytes rather than took from the pages' decoded-column memos
    (``Schema.decode_page_into``): what the memo saves the host.  Anything
    the virtual clock charges per cell must use ``cells_decoded``, the
    modelled scan's reads, never this."""
    registry.incr("query.scan.cells_decoded", rows * decoded)
    registry.incr("query.scan.cells_stored", rows * stored)
    registry.incr("query.scan.cells_uncached", uncached)


class RuntimeFilter(NamedTuple):
    """A hash join's build keys, handed to the probe-side scan that produces
    every probe key (``HashJoin.runtime_filter``): that scan keeps only the
    rows whose key tuple of ``exprs`` is among ``keys``."""

    #: The join's left keys, bare columns of the target scan.
    exprs: List[Expr]
    #: The built hash table; only membership is read.
    keys: Container
    #: What shipping the key set costs on the wire.
    wire: int
    #: The build side's binding (trace tags).
    build: str


#: Runtime filters in force, by target scan binding.
Filters = Mapping[str, Tuple[RuntimeFilter, ...]]
_NO_FILTERS: Filters = MappingProxyType({})


def _settle_builds(owed: Optional[List[int]]) -> int:
    """The build rows ``owed`` lists (one entry per hash join above whose
    probe side is running and whose build CPU no scan has paid yet), all
    of them now handed to the pushed scan about to run, which pays them
    (``PushdownRuntime.run_scan``'s ``owed``)."""
    if not owed:
        return 0
    rows = sum(owed)
    owed.clear()
    return rows


class ShippedProbe(NamedTuple):
    """A hash join's built table, offered to the pushed scan at the bottom
    of its probe side (the scan a left-deep chain of hash joins reaches
    through their left sides): a scan that carries it probes its rows with
    it, wherever its pipeline runs, and the join returns what the scan
    returned."""

    join: HashJoin
    #: :func:`kernels.hash_build`'s table and its ``unique``.
    built: Dict
    unique: bool
    #: The build rows ``built`` indexes.
    right: ColumnBatch
    #: The build side's table: what its columns weigh on the wire.
    table: Table
    #: What shipping the build rows costs on the wire, per task.
    wire: int


#: What the hash joins of a left-deep chain offer the pushed scan at its
#: bottom, top down: the Aggregate directly above the top join (its
#: grouping), if any, then each join's :class:`ShippedProbe`.  The scan
#: takes a bottom-up run of them (``PushdownRuntime.run_chain_scan``) and
#: says how many it took, so a join whose depth that count reaches knows
#: its probe ran below.
Offered = Tuple[Union[Aggregate, ShippedProbe], ...]


def _joined(
    left: ColumnBatch,
    left_sel: Sequence[int],
    right: ColumnBatch,
    right_sel: Sequence[int],
    out_keys: Optional[Tuple[str, ...]] = None,
) -> ColumnBatch:
    """The joined rows ``(left_sel[i], right_sel[i])``, laid out as
    ``dict(left).update(right)`` would: left keys keep their position,
    a key both sides carry takes the right side's values.  Only
    ``out_keys`` of it are gathered when given; a ``range`` selection
    is every row of that side, once."""
    right_at = {key: p for p, key in enumerate(right.keys)}
    left_at = {key: p for p, key in enumerate(left.keys)}
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
        if not isinstance(selection, range):
            array = list(map(array.__getitem__, selection))
        arrays.append(array)
        nullable.append(side.nullable[position])
    return ColumnBatch(out_keys, arrays, len(left_sel), nullable)


def probe_rows(
    left: ColumnBatch, join: HashJoin, built: Dict, unique: bool,
    right: ColumnBatch, registry=None,
) -> Tuple[Sequence[int], ColumnBatch]:
    """``join``'s probe of ``left`` against its build ``right`` (``built``
    and ``unique`` as :func:`kernels.hash_build` returned them): the left
    rows' selection (ascending) and the joined rows, ``join.output`` of
    them.  The one probe, run by a hash join on this thread and by a
    pipeline that carries the join's table; pure compute, the caller
    charges.  ``registry`` counts the probed rows and the joined cells."""
    left_sel, right_sel, matched = kernels.probe(
        left, join.left_keys, built, unique, right, join.residual, registry
    )
    joined = _joined(left, left_sel, right, right_sel, join.output)
    if registry is not None:
        registry.incr("query.join.rows_probed", left.n)
        registry.incr(
            "query.join.cells_joined",
            matched * (join.joined_columns or len(joined.keys)),
        )
        registry.incr("query.join.cells_gathered", joined.n * len(joined.keys))
    return left_sel, joined


@dataclass
class PushdownFragment:
    """A scan as the unit one :class:`ScanPipeline` runs: scan + filter +
    projection + runtime filters + shipped probes, then plain rows,
    hash-build key extraction or partial aggregation.  The serialisable
    unit push-down ships to storage; the engine runs the same one over the
    pages it scans itself."""

    table_name: str
    binding: str
    #: The scan's ``SeqScan.projection``: the only columns the pipeline
    #: decodes, binds and returns.
    projection: Tuple[str, ...]
    filter: Optional[Expr]
    #: The scan's ``SeqScan.partial_agg`` (or, run on this thread, a
    #: single-table Aggregate's grouping): partial groups come back instead
    #: of rows - a single-table aggregate's, or a join's many side grouped
    #: by its join keys (which, with ``probes``, are probed as rows).
    partial_agg: Optional[Tuple[List[Expr], List[AggCall]]]
    #: Join-key expressions of a hash build (mutually exclusive with
    #: ``partial_agg``): each surviving row's key tuple comes back
    #: alongside the filtered columns.
    hash_keys: Optional[List[Expr]] = None
    #: The key sets of hash joins above that this scan feeds: a row
    #: passing ``filter`` is kept only if its key is in every one.
    runtime_filters: Sequence[RuntimeFilter] = ()
    #: The built tables of hash joins above, bottom up: the rows that pass
    #: the filters (a many side's groups) are probed with each in turn, and
    #: the joined rows go on.
    probes: Sequence[ShippedProbe] = ()
    #: With ``probes``, the grouping of the Aggregate right above the top
    #: probed join: the joined rows' partial groups come back instead.
    group: Optional[Tuple[List[Expr], List[AggCall]]] = None
    #: Filled as pages run: the rows each executed page put in a plain or
    #: hash-build result (how a push-down merge restores page order).
    page_rows: Dict[PageId, int] = field(default_factory=dict)
    #: The table's schema (a production system serialises it with the
    #: fragment).
    schema: Optional[Schema] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(
        cls, scan: SeqScan, schema: Schema, hash_build: bool = False,
        partial_agg: Optional[Tuple[List[Expr], List[AggCall]]] = None,
        runtime_filters: Sequence[RuntimeFilter] = (),
        probes: Sequence[ShippedProbe] = (),
        group: Optional[Tuple[List[Expr], List[AggCall]]] = None,
    ) -> "PushdownFragment":
        """``scan``'s fragment: its rows, ``(key tuples, rows)`` of its
        ``hash_keys`` with ``hash_build``, or its ``partial_agg`` groups -
        with ``probes``, the rows those join, or their ``group`` groups."""
        return cls(
            table_name=scan.table_name,
            binding=scan.binding,
            projection=scan.projection,
            filter=scan.filter,
            partial_agg=partial_agg,
            hash_keys=list(scan.hash_keys) if hash_build else None,
            runtime_filters=tuple(runtime_filters),
            probes=tuple(probes),
            group=group,
            schema=schema,
        )

    def scan_batch(self) -> ColumnBatch:
        """The empty batch the fragment's pages decode into."""
        return ColumnBatch.for_scan(self.binding, self.schema, self.projection)

    @property
    def grouping(self) -> Optional[Tuple[List[Expr], List[AggCall]]]:
        """What the output's partial groups group by, if it is groups."""
        return self.group if self.probes else self.partial_agg

    def empty_batch(self) -> ColumnBatch:
        """An empty batch keyed as the fragment's output rows (or its
        partial groups' samples)."""
        batch = self.scan_batch()
        if not self.probes:
            return batch
        if self.partial_agg is not None:
            batch = _group_rows(([], batch, []))
        for probe in self.probes:
            batch = _joined(batch, [], probe.right, [], probe.join.output)
        if self.group is not None and PARTIAL_STATES in batch.keys:
            batch = _without_states(batch)[0]
        return batch


class ScanPipeline:
    """A fragment's one page pipeline: :meth:`feed` decodes a page into
    the projection through its decoded-column memo, so the scan sees the
    page as it was when fed; :meth:`stage` applies the scan's filter, then
    the runtime filters, then the shipped probes, in order; :meth:`finish`
    makes the output.  Pure compute: the caller charges (``probed``, the
    rows the probes took in, is what a ``join`` charge is for).
    ``registry``, when given, counts the scanned cells, kernel builds, the
    rows runtime filters drop on ``side`` (``storage`` or ``engine``) and
    the rows probed."""

    def __init__(self, fragment: PushdownFragment, registry=None,
                 side: str = "storage"):
        self.fragment = fragment
        self.registry = registry
        self.side = side
        self.positions = tuple(
            map(fragment.schema.position, fragment.projection)
        )
        #: Every fed page's rows, in feeding order.
        self.decoded = fragment.scan_batch()
        self.uncached = 0
        #: Per fed page: its id, and where its rows end (in ``decoded``,
        #: then, once staged, in ``staged``).
        self.pages: List[PageId] = []
        self.ends: List[int] = []
        #: The rows that passed the row stages (set by :meth:`stage`), and
        #: the scan's filter when the grouping evaluates it instead.
        self.staged: Optional[ColumnBatch] = None
        self.predicate: Optional[Expr] = None
        #: The rows the shipped probes took in (set by :meth:`stage`), and
        #: the many side's groups they took in (set by :meth:`finish`).
        self.probed = 0
        self.probed_groups = 0
        #: The rows that reached the output (set by :meth:`finish`).
        self.passed = 0

    def feed(self, page: Page) -> None:
        decoded = self.decoded
        rows, cells = self.fragment.schema.decode_page_into(
            page, self.positions, decoded.arrays
        )
        decoded.n += rows
        self.uncached += cells
        self.pages.append(page.page_id)
        self.ends.append(decoded.n)

    def stage(self) -> int:
        """Run the row stages over every fed page, once: the scan's filter,
        then the runtime filters, then - unless the scan groups first -
        each shipped probe over the rows the last one joined.  Each stage
        keeps or repeats rows in page order, so the stages of several
        pipelines, concatenated, are those of one pipeline fed all their
        pages.  Grouping with no runtime filter evaluates the scan's
        filter in its own loop instead.  Returns the rows probed."""
        if self.staged is not None:
            return self.probed
        fragment, registry, batch = self.fragment, self.registry, self.decoded
        if registry is not None:
            count_scan_cells(
                registry, batch.n, len(self.positions), len(fragment.schema),
                self.uncached,
            )
        ends = self.ends
        predicate, filters = fragment.filter, fragment.runtime_filters
        if predicate is not None and (filters or fragment.partial_agg is None):
            selection = kernels.select(batch, predicate, registry)
            batch = batch.gather(selection)
            ends = [bisect_left(selection, end) for end in ends]
            predicate = None
        if filters:
            passed = batch.n
            selection = kernels.semi_join(
                batch, [(f.exprs, f.keys) for f in filters], registry
            )
            batch = batch.gather(selection)
            ends = [bisect_left(selection, end) for end in ends]
            if registry is not None:
                registry.incr(
                    "query.runtime_filter.rows_dropped." + self.side,
                    passed - batch.n,
                )
        if fragment.partial_agg is None:
            batch, ends, self.probed = self._probe(batch, ends)
        self.staged, self.ends, self.predicate = batch, ends, predicate
        return self.probed

    def _probe(self, batch: ColumnBatch, ends: List[int]):
        """``(joined rows, page ends, rows probed)``: ``batch`` through
        each shipped probe in turn."""
        probed = 0
        for probe in self.fragment.probes:
            probed += batch.n
            selection, batch = probe_rows(
                batch, probe.join, probe.built, probe.unique, probe.right,
                self.registry,
            )
            ends = [bisect_left(selection, end) for end in ends]
        if probed and self.registry is not None and self.side == "storage":
            self.registry.incr("query.join.rows_probed_storage", probed)
        return batch, ends, probed

    def finish(self, *more: "ScanPipeline"):
        """The fragment's output over every page fed to this pipeline, then
        to each of ``more`` (per-core morsels of one task, in page order),
        their stages concatenated: ``("batch", ColumnBatch)``, ``("hash",
        (key_tuples, ColumnBatch))`` or ``("partials", (keys, samples,
        states))`` - partial groups as
        :meth:`QuerySession._group` makes them.  A many side's groups are
        probed here, as rows carrying their states, and the joined rows'
        states fold (``probed_groups``: the groups probed).  Batches and
        sample rows carry the projected (or joined) columns only; rows keep
        page order then slot order, groups first-seen order.  A plain or
        hash-build result records each page's rows in
        ``fragment.page_rows``."""
        fragment, registry = self.fragment, self.registry
        self.stage()
        batch, pages, ends = self.staged, list(self.pages), list(self.ends)
        for other in more:
            other.stage()
            offset = batch.n
            batch.extend(other.staged)
            pages.extend(other.pages)
            ends.extend(offset + end for end in other.ends)
        if fragment.partial_agg is not None:
            groups, self.passed = _partial_groups(
                batch, *fragment.partial_agg, self.predicate, registry
            )
            if not fragment.probes:
                return "partials", groups
            batch, _, self.probed_groups = self._probe(_group_rows(groups), [])
        if fragment.group is not None:
            if PARTIAL_STATES in batch.keys:
                groups = fold_joined_groups(batch, *fragment.group, registry)
            else:
                groups, _ = _partial_groups(
                    batch, *fragment.group, registry=registry
                )
            self.passed = batch.n
            return "partials", groups
        self.passed = batch.n
        start = 0
        for page_id, end in zip(pages, ends):
            fragment.page_rows[page_id] = end - start
            start = end
        if fragment.hash_keys is not None:
            keys = kernels.key_tuples(batch, fragment.hash_keys, registry)
            return "hash", (keys, batch)
        return "batch", batch


def _group_rows(groups) -> ColumnBatch:
    """Partial groups ``(keys, samples, states)`` as rows: each group's
    sample row, its state in a ``PARTIAL_STATES`` column (how a join's
    many side joins)."""
    _, samples, states = groups
    return ColumnBatch(
        samples.keys + (PARTIAL_STATES,), samples.arrays + [states],
        samples.n, samples.nullable + (False,),
    )


def _partial_groups(
    batch: ColumnBatch, group_exprs: Sequence[Expr], aggs: Sequence[AggCall],
    predicate: Optional[Expr] = None, registry=None,
) -> Tuple[Tuple[List[Tuple], ColumnBatch, List[List[Any]]], int]:
    """``((keys, samples, states), rows passed)``: the partial groups of
    ``batch``'s rows passing ``predicate``, in one group-by kernel."""
    groups, passed = kernels.group_by(
        batch, group_exprs, aggs, predicate, registry
    )
    states = list(groups.values())
    samples = batch.gather([state[0] for state in states])
    return (list(groups), samples, states), passed


@dataclass
class QueryResult:
    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# The answer tail: pure functions over partial groups and column batches
# ---------------------------------------------------------------------------
#
# *Partial groups* have one shape wherever they are made, shipped or merged
# (the group-by kernel, a storage-side fragment task, a scatter leg):
# ``(keys, samples, states)`` - per group its key tuple, its first row as a
# row of the ``ColumnBatch`` ``samples``, and its flat state in
# :func:`repro.query.kernels.group_by`'s layout.


def fold_groups(
    keys: Sequence[Tuple], samples: ColumnBatch, states: Sequence[List[Any]],
    aggs: Sequence[AggCall],
) -> Tuple[List[Tuple], ColumnBatch, List[List[Any]]]:
    """Merge the partial groups that share a key (into the first one's
    state, in place): groups keep first-seen order, a group's sample is the
    first one seen.  COUNT / SUM / AVG add counts and totals in arrival
    order, MIN / MAX keep the earlier of two equal values, DISTINCT unions
    its value sets."""
    merged: Dict[Tuple, List[Any]] = {}
    first: List[int] = []
    width = kernels.AGG_SLOTS
    bases = range(1, 1 + width * len(aggs), width)
    for i, (key, state) in enumerate(zip(keys, states)):
        into = merged.setdefault(key, state)
        if into is state:
            first.append(i)
            continue
        for agg, base in zip(aggs, bases):
            if agg.distinct:
                into[base + 4] |= state[base + 4]
                continue
            into[base] += state[base]
            into[base + 1] += state[base + 1]
            for slot, pick in ((base + 2, min), (base + 3, max)):
                if state[slot] is not None:
                    into[slot] = (
                        state[slot] if into[slot] is None
                        else pick(into[slot], state[slot])
                    )
    return list(merged), samples.gather(first), list(merged.values())


def fold_joined_groups(
    batch: ColumnBatch, group_exprs: Sequence[Expr], aggs: Sequence[AggCall],
    registry=None,
) -> Tuple[List[Tuple], ColumnBatch, List[List[Any]]]:
    """The groups of ``batch`` by ``group_exprs``, where each row carries a
    partial state in its ``PARTIAL_STATES`` column (a join's many side
    grouped, then joined): :func:`fold_groups` of those states in row
    order, each copied first - a state that joined several rows counts once
    per row, and no two groups share one.  The samples drop the column."""
    rows, states = _without_states(batch)
    keys = (
        kernels.key_tuples(rows, group_exprs, registry) if group_exprs
        else [()] * batch.n
    )
    return fold_groups(keys, rows, list(map(list, states)), aggs)


def _without_states(batch: ColumnBatch) -> Tuple[ColumnBatch, List[Any]]:
    """``batch`` without its ``PARTIAL_STATES`` column, and that column."""
    at = batch.keys.index(PARTIAL_STATES)
    rows = ColumnBatch(
        batch.keys[:at] + batch.keys[at + 1:],
        batch.arrays[:at] + batch.arrays[at + 1:],
        batch.n,
        batch.nullable[:at] + batch.nullable[at + 1:],
    )
    return rows, batch.arrays[at]


def _finalize(agg: AggCall, count, total, minimum, maximum, distinct) -> Any:
    """One aggregate's value from its :data:`kernels.AGG_SLOTS` slots."""
    if agg.distinct:
        return len(distinct)
    if agg.func == "count":
        return count
    if agg.func == "sum":
        return total if count else None
    if agg.func == "avg":
        return (total / count) if count else None
    return minimum if agg.func == "min" else maximum


def finalize_groups(
    samples: ColumnBatch, states: Sequence[List[Any]],
    aggs: Sequence[AggCall], grouped: bool,
) -> ColumnBatch:
    """An Aggregate's output: one row per group - the group's sample
    columns, then one column per aggregate, keyed by its ``AggCall``."""
    if not states and not grouped:
        # A global aggregate over zero rows still yields one row; it has
        # no sample, so no column but the aggregates (of the empty state).
        samples = ColumnBatch((), [], 1)
        states = [[None] + [0, 0.0, None, None, ()] * len(aggs)]
    width = kernels.AGG_SLOTS
    values = [
        [_finalize(call, *state[base:base + width]) for state in states]
        for call, base in zip(aggs, range(1, 1 + width * len(aggs), width))
    ]
    return ColumnBatch(
        samples.keys + tuple(aggs),
        samples.arrays + values,
        len(states),
        samples.nullable + (True,) * len(aggs),
    )


def project_batch(
    child: ColumnBatch, items: Sequence[SelectItem], star: bool, registry=None
) -> ColumnBatch:
    """A Project's output: the select items' columns (positionally:
    :func:`batch_result` zips them into the rows), then the child's.  ORDER
    BY resolves a name to the first select item bearing it, then to the
    source and aggregate columns, retained for that."""
    if star:
        return child if child.n else ColumnBatch((), [], 0)
    values = kernels.key_tuples(child, [item.expr for item in items], registry)
    columns = list(map(list, zip(*values))) if values else [[] for _ in items]
    return ColumnBatch(
        tuple(item.output_name for item in items) + child.keys,
        columns + child.arrays,
        child.n,
        (True,) * len(items) + child.nullable,
    )


def sort_batch(
    batch: ColumnBatch, order_by: Sequence[Tuple[Expr, bool]], registry=None,
    limit: Optional[int] = None,
) -> ColumnBatch:
    """The first ``limit`` rows of ``batch`` (all of them by default) in
    ORDER BY order: NULLs first ascending, last descending.
    ``heapq.nsmallest`` equals ``sorted(...)[:limit]``, so ties keep their
    input order; under a limit it keeps a heap of that many rows (top-N),
    and with no limit it is the full stable ``sorted``."""
    keys = kernels.key_tuples(batch, [expr for expr, _ in order_by], registry)
    descending = [desc for _, desc in order_by]
    keys = [tuple(map(_Reversible, key, descending)) for key in keys]
    kept = batch.n if limit is None else limit
    return batch.take(
        heapq.nsmallest(kept, range(batch.n), key=keys.__getitem__)
    )


def limit_batch(batch: ColumnBatch, count: int) -> ColumnBatch:
    """The first ``count`` rows."""
    return batch.take(range(batch.n)[:count])


def batch_result(
    batch: ColumnBatch, items: Optional[Sequence[SelectItem]] = None,
    star: bool = False,
) -> "QueryResult":
    """Rows become tuples here, once.  ``items`` and ``star`` are those of
    the Project ``batch`` went through (None: it went through none)."""
    if items is not None and not star:
        # The select items lead the batch, positionally: two of them may
        # share an output name.
        columns = [item.output_name for item in items]
        arrays = batch.arrays[: len(columns)]
    else:
        # The qualified column keys, as the rows' own dicts would list
        # them: of the rows ``SELECT *`` read (its Project kept no key of
        # an empty input), of the rows a plan without a Project on top
        # (bare scan/join) returns.
        columns = (
            sorted(k for k in batch.keys if isinstance(k, str))
            if batch.n or star else []
        )
        arrays = [batch.column(key) for key in columns]
    rows = list(zip(*arrays)) if arrays else [()] * batch.n
    return QueryResult(columns, rows)


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
    ):
        self.engine = engine
        self.planner_config = planner_config or PlannerConfig()
        self.planner = Planner(engine.catalog, self.planner_config)
        self.pushdown_runtime = pushdown_runtime
        self.parse_cache = parse_cache
        # ``engine`` may be a standby replica: only ``env`` is common.
        self._registry = obs_of(engine.env).registry
        count_scan_cells(self._registry, 0, 0, 0, 0)  # present before any scan
        for name in ("query.join.cells_joined", "query.join.cells_gathered",
                     "query.join.rows_probed",
                     "query.join.rows_probed_storage", "query.join.rows_built",
                     "query.join.rows_built_overlapped",
                     "query.kernels.compiled",
                     "query.runtime_filter.derived",
                     "query.runtime_filter.rows_dropped.storage",
                     "query.runtime_filter.rows_dropped.engine",
                     "query.runtime_filter.bytes_shipped"):
            self._registry.incr(name, 0)
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
        return (yield from self._dml(statement))

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
        return (yield from self._dml(statement))

    def execute_partial_select(self, statement: Select,
                               sql: Optional[str] = None):
        """Generator: this engine's share of a scattered SELECT, for
        :func:`repro.shard.router.merge`.

        An aggregate statement cannot be recombined from finalized
        per-shard rows (AVG, DISTINCT, a LIMIT under ORDER BY <aggregate>),
        so its plan runs up to and including the Aggregate's grouping and
        stops: ``(aggregates, partial groups)``, the tail left to the merge.
        Any other statement runs whole and returns its ``QueryResult``.
        The plan is cached under ``sql`` when the caller has the text (a
        bound AST re-plans, as in :meth:`execute_statement`).
        """
        if sql is not None:
            plan = self.cached_plan(sql, statement)
        else:
            plan = self.planner.plan_select(statement)
        node = plan
        while isinstance(node, (Limit, Sort, Project)):
            node = node.child
        if not isinstance(node, Aggregate):
            return (yield from self.execute_plan(plan))
        groups = yield from self._group(node)
        return node.aggregates, groups

    def execute_point(self, point: "PointReadPlan", params: Sequence[Any]):
        """Generator: run a compiled prepared point read.

        Charges one ``point`` (``repro.cost``): the simulated CPU of the
        generic Project(IndexLookup) operator pair, the probe plus the
        single-row projection.  Returns the byte-identical QueryResult,
        without plan binding or row-dict materialisation.
        """
        engine = self.engine
        table = engine.catalog.table(point.table_name)
        key = tuple(
            params[source] if is_param else source
            for is_param, source in point.key_source
        )
        self.index_lookups += 1
        rows: List[Tuple[Any, ...]] = []
        try:
            locator = table.lookup(key)
        except TypeError:
            locator = None
        if locator is None:
            yield from charge(engine.cpu, "point")
            return QueryResult(list(point.columns), rows)
        page_id = table.page_id(locator[0])
        # Resident pages fold their fetch charge into the statement
        # charge (one charge, not two); misses pay the full fetch.
        hit = engine.peek_page(page_id)
        if hit is not None:
            page, extra = hit
            yield from charge(engine.cpu, "point", extra=extra)
        else:
            yield from charge(engine.cpu, "point")
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
        batch = yield from self._run(plan)
        node = plan
        while isinstance(node, (Limit, Sort)):
            node = node.child
        if isinstance(node, Project):
            return batch_result(batch, node.items, node.star)
        return batch_result(batch)

    # ------------------------------------------------------------------
    # Plan walking: every operator returns one ColumnBatch
    # ------------------------------------------------------------------
    def _run(self, node: PlanNode, filters: Filters = _NO_FILTERS,
             owed: Optional[List[int]] = None):
        """Generator: ``node``'s output.  ``filters`` are the runtime
        filters of the hash joins above, ``owed`` the statement's list of
        their unpaid build rows (:meth:`_run_hash_join`); both reach scans
        through hash joins only."""
        if isinstance(node, SeqScan):
            return (yield from self._scan(node, filters, owed=owed))
        if isinstance(node, IndexLookup):
            return (yield from self._run_index_lookup(node))
        if isinstance(node, HashJoin):
            return (yield from self._run_hash_join(node, filters, owed))[0]
        if isinstance(node, IndexNLJoin):
            return (yield from self._run_nl_join(node))
        if isinstance(node, Aggregate):
            return (yield from self._run_aggregate(node))
        if isinstance(node, Project):
            return (yield from self._run_project(node))
        if isinstance(node, Sort):
            return (yield from self._run_sort(node))
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return (yield from self._run_sort(node.child, node.count))
            return limit_batch((yield from self._run(node.child)), node.count)
        raise QueryError("unknown plan node %r" % node)

    # -- scans ----------------------------------------------------------------
    def _pushed(self, scan: SeqScan) -> bool:
        return scan.pushdown and self.pushdown_runtime is not None

    def _scan(self, scan: SeqScan, filters: Filters = _NO_FILTERS,
              hash_build: bool = False, owed: Optional[List[int]] = None):
        """Generator: the rows of ``scan``'s fragment - ``(key tuples,
        rows)`` of its ``hash_keys`` with ``hash_build`` - run storage-side
        when the scan is pushed, on this thread otherwise, the runtime
        filters targeting it applied after its own filter.  A pushed scan
        pays the ``owed`` builds while its tasks run.  A join's many
        side (``partial_agg``) returns its groups as rows: each group's
        sample row, its state in a ``PARTIAL_STATES`` column."""
        targeting = filters.get(scan.binding, ())
        if scan.partial_agg is not None:
            batch = _group_rows((yield from self._scan_groups(
                scan, scan.partial_agg, targeting, owed
            )))
            if not hash_build:
                return batch
            keys = kernels.key_tuples(batch, scan.hash_keys, self._registry)
            return keys, batch
        if self._pushed(scan):
            runtime = self.pushdown_runtime
            due = _settle_builds(owed)
            if hash_build:
                return (yield from runtime.run_hash_build(
                    scan, targeting, due
                ))
            return (yield from runtime.run_scan(scan, targeting, due))[1]
        pipeline = yield from self._scan_here(
            scan, hash_build=hash_build, runtime_filters=targeting
        )
        return pipeline.finish()[1]

    def _chain_scan(self, scan: SeqScan, filters: Filters,
                    owed: List[int], offered: Offered):
        """Generator: ``(rows, taken)`` of the pushed ``scan`` at the
        bottom of a left-deep chain of hash joins, offered ``offered`` by
        them (``Offered``): it pays the ``owed`` builds while its tasks
        run and takes the bottom ``taken`` of ``offered``.  The rows are
        those its probes joined, or, when it took the Aggregate, that
        grouping's task groups, unfolded; a many side that took nothing
        returns its groups as rows, as :meth:`_scan` does."""
        (kind, payload), taken = yield from (
            self.pushdown_runtime.run_chain_scan(
                scan, filters.get(scan.binding, ()), _settle_builds(owed),
                offered,
            )
        )
        if kind == "partials" and not taken:
            payload = _group_rows((yield from self._fold_task_groups(
                payload, scan.partial_agg[1]
            )))
        return payload, taken

    def _scan_groups(self, scan: SeqScan, partial_agg,
                     filters: Sequence[RuntimeFilter] = (),
                     owed: Optional[List[int]] = None):
        """Generator: ``scan``'s rows that pass its filter and ``filters``,
        grouped by ``partial_agg``: partial groups ``(keys, samples,
        states)``.  A pushed scan groups storage-side, task by task, paying
        the ``owed`` builds meanwhile, and the task partials fold here
        (:meth:`_fold_task_groups`); a local scan groups in its own
        pipeline (``rows``: one a row passed)."""
        if self._pushed(scan):
            _, groups = yield from self.pushdown_runtime.run_scan(
                scan, filters, _settle_builds(owed)
            )
            return (yield from self._fold_task_groups(groups, partial_agg[1]))
        pipeline = yield from self._scan_here(
            scan, partial_agg=partial_agg, runtime_filters=filters
        )
        _, groups = pipeline.finish()
        yield from charge(self.engine.cpu, "rows", pipeline.passed)
        return groups

    def _fold_task_groups(self, groups, aggs: Sequence[AggCall]):
        """Generator: a pushed scan's task partial groups, folded here
        (``rows``: one a partial)."""
        keys, samples, states = groups
        yield from charge(self.engine.cpu, "rows", len(keys))
        return fold_groups(keys, samples, states, aggs)

    def _scan_here(self, scan: SeqScan, **output):
        """Generator: feed every page of ``scan``'s table, on this thread,
        to the pipeline of ``PushdownFragment.of(scan, schema, **output)``,
        each page as soon as it is fetched and charged (``page``).  Returns
        the pipeline, ready to finish."""
        table = self.engine.catalog.table(scan.table_name)
        pipeline = ScanPipeline(
            PushdownFragment.of(scan, table.schema, **output),
            self._registry, "engine",
        )
        for page_no in list(table.page_nos):
            page = yield from self.engine.fetch_page(table.page_id(page_no))
            yield from charge(self.engine.cpu, "page", page.row_count)
            self.pages_scanned += 1
            pipeline.feed(page)
        return pipeline

    def _run_index_lookup(self, node: IndexLookup):
        """Generator: fetch at most one row through the PK B-tree.

        Produces the row the filtered SeqScan would (same binding-qualified
        keys, same residual semantics), full-width, without paying the
        full-table page decode.
        """
        table = self.engine.catalog.table(node.table_name)
        schema = table.schema
        key = tuple(expr.eval({}) for expr in node.key_exprs)
        yield from charge(self.engine.cpu, "probe")
        self.index_lookups += 1
        batch = ColumnBatch.for_scan(node.binding, schema, schema.names)
        try:
            locator = table.lookup(key)
        except TypeError:
            # Key incomparable with stored keys (e.g. NULL or a type
            # mismatch): the scan's equality predicate would match
            # nothing, so the lookup matches nothing.
            locator = None
        if locator is None:
            return batch
        page_no, slot = locator
        page = yield from self.engine.fetch_page(table.page_id(page_no))
        try:
            raw = page.get(slot)
        except KeyError:
            return batch
        batch.n = schema.decode_rows_into(
            [raw], tuple(range(len(schema))), batch.arrays
        )
        if node.residual is not None:
            batch = batch.gather(
                kernels.select(batch, node.residual, self._registry)
            )
        return batch

    # -- joins ----------------------------------------------------------------
    def _run_hash_join(self, join: HashJoin, filters: Filters = _NO_FILTERS,
                       owed: Optional[List[int]] = None,
                       offered: Offered = ()):
        """Generator: ``(rows, taken)`` - build, then probe.  The build
        side runs first, so its key set can filter the probe side: a join
        with a ``runtime_filter`` adds it to ``filters`` for the scan it
        targets below.  That key set is the build scan's key tuples,
        whichever side ran the scan.

        From the build rows in hand to the probe charge, the build's CPU
        (``join`` at the build rows) is *owed*: it joins ``owed``, the
        statement's list of unpaid builds (the topmost join starts it),
        and the next pushed scan below pays it on this thread while its
        storage tasks run (:func:`_settle_builds`).  A build that reaches
        its probe unpaid is charged with it, one ``join`` of probe plus
        build rows.

        When the probe side is a left-deep chain of hash joins down to a
        pushed scan, the join also offers that scan its built table: a
        :class:`ShippedProbe` below what the nodes above offer
        (``offered``).  The scan takes a bottom-up run of the offers - the
        push-down runtime prices that - and says how many it took.  If
        that reaches this join's table, the scan's pipeline probed its
        rows with it, on storage or on this thread, and this join returns
        the scan's output (joined rows, or an Aggregate's task groups)
        without a probe or a probe charge of its own.  ``taken`` is how
        many of ``offered`` the scan took."""
        key_rows, right = yield from self._scan(
            join.right, filters, True, owed
        )
        registry = self._registry
        built, unique = kernels.hash_build(
            right, join.right_keys,
            kernels.nullable(self._shape(join.left), join.left_keys),
            key_rows, self._keyed_build(join), registry,
        )
        del key_rows  # not held through the probe side: ``built`` has them
        target = join.runtime_filter
        if target is not None:
            registry.incr("query.runtime_filter.derived")
            filters = dict(filters)
            filters[target] = filters.get(target, ()) + (
                self._runtime_filter(join, built),
            )
        if owed is None:
            owed = []
        owed_at = len(owed)
        owed.append(right.n)
        taken = 0
        if self._pushed_chain(join.left):
            offered += (self._shipped_probe(join, built, unique, right),)
            if isinstance(join.left, HashJoin):
                left, taken = yield from self._run_hash_join(
                    join.left, filters, owed, offered
                )
            else:
                left, taken = yield from self._chain_scan(
                    join.left, filters, owed, offered
                )
        else:
            left = yield from self._run(join.left, filters, owed)
        # Still listed: no pushed scan paid it (a scan pays every entry).
        unpaid = right.n if len(owed) > owed_at else 0
        del owed[owed_at:]
        registry.incr("query.join.rows_built", right.n)
        if taken:
            # The scan took this join's table, the lowest it was offered.
            if unpaid:
                yield from charge(self.engine.cpu, "join", unpaid)
            return left, taken - 1
        yield from charge(self.engine.cpu, "join", left.n + unpaid)
        return probe_rows(left, join, built, unique, right, registry)[1], 0

    def _pushed_chain(self, node: PlanNode) -> bool:
        """Whether ``node`` is a pushed scan, or a left-deep chain of hash
        joins down to one: where a built table can be offered."""
        while isinstance(node, HashJoin):
            node = node.left
        return isinstance(node, SeqScan) and self._pushed(node)

    def _shipped_probe(self, join: HashJoin, built: Dict, unique: bool,
                       right: ColumnBatch) -> ShippedProbe:
        """``join``'s table as a pushed scan would ship it: the build rows
        priced as its build scan's fragment returns them."""
        table = self.engine.catalog.table(join.right.table_name)
        return ShippedProbe(
            join, built, unique, right, table,
            fragment_wire_bytes(table, join.right, right.n),
        )

    def _runtime_filter(self, join: HashJoin, built: Dict) -> RuntimeFilter:
        """The filter ``join``'s build keys put on its target scan, the key
        set priced as ``built``'s keys over the build scan's table."""
        build = join.right
        wire = key_set_wire_bytes(
            self.engine.catalog.table(build.table_name), join.right_keys,
            len(built),
        )
        return RuntimeFilter(join.left_keys, built, wire, build.binding)

    def _shape(self, node: PlanNode) -> ColumnBatch:
        """An empty batch keyed and typed as ``node``'s output would be, from
        the plan and the schemas: what a hash join knows of its probe side
        before running it.  A node that is no scan or join has no known
        columns (every key of it may be NULL)."""
        catalog = self.engine.catalog
        if isinstance(node, SeqScan):
            schema = catalog.table(node.table_name).schema
            return ColumnBatch.for_scan(node.binding, schema, node.projection)
        if isinstance(node, IndexLookup):
            schema = catalog.table(node.table_name).schema
            return ColumnBatch.for_scan(node.binding, schema, schema.names)
        if isinstance(node, HashJoin):
            return _joined(
                self._shape(node.left), [], self._shape(node.right), [],
                node.output,
            )
        if isinstance(node, IndexNLJoin):
            schema = catalog.table(node.inner_table).schema
            inner = ColumnBatch.for_scan(
                node.inner_binding, schema, node.inner_projection
            )
            return _joined(self._shape(node.outer), [], inner, range(0))
        return ColumnBatch((), [], 0)

    def _keyed_build(self, join: HashJoin) -> bool:
        """Whether the build side's join keys cover its table's primary
        key: a quiescent scan then meets each key once, and the build can
        expect (it still checks) unique keys."""
        table = self.engine.catalog.table(join.right.table_name)
        return covers_primary_key(table, join.right_keys)

    def _run_nl_join(self, join: IndexNLJoin):
        outer = yield from self._run(join.outer)
        table = self.engine.catalog.table(join.inner_table)
        schema = table.schema
        registry = self._registry
        full_key = len(join.outer_keys) == len(table.key_columns)
        outer_sel: List[int] = []
        found: List[bytes] = []
        prefixes = kernels.key_tuples(outer, join.outer_keys, registry)
        for i, prefix in enumerate(prefixes):
            yield from charge(self.engine.cpu, "probe")
            if None in prefix:  # NULL = NULL is not true (nor orderable)
                continue
            locators = []
            if join.index_name == "":
                if full_key:
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
                found.append(raw)
                outer_sel.append(i)
        # The inner rows, in the columns anything reads of them.
        inner = ColumnBatch.for_scan(
            join.inner_binding, schema, join.inner_projection
        )
        inner.n = schema.decode_rows_into(
            found, tuple(map(schema.position, join.inner_projection)),
            inner.arrays,
        )
        if join.inner_filter is not None:
            keep = kernels.select(inner, join.inner_filter, registry)
            if len(keep) != inner.n:
                inner = inner.take(keep)
                outer_sel = list(map(outer_sel.__getitem__, keep))
        joined = _joined(outer, outer_sel, inner, range(inner.n))
        if join.residual is not None:
            joined = joined.gather(
                kernels.select(joined, join.residual, registry)
            )
        return joined

    # -- aggregation -------------------------------------------------------------
    def _group(self, agg: Aggregate):
        """Generator: the grouping step of an Aggregate, finalize not
        applied (:meth:`execute_partial_select` ships the groups instead).

        Returns partial groups ``(keys, samples, states)``, one entry per
        group in first-seen order.  A scan groups in its own pipeline, or
        storage-side when pushed (:meth:`_scan_groups`).  Over a hash join,
        the grouping is offered, with the joins' tables, to the pushed scan
        at the bottom of their chain (``Offered``): if it took it, the task
        groups fold here as a pushed scan's do.  Otherwise the rows of a
        join whose many side grouped fold their states
        (:func:`fold_joined_groups`), and anything else groups here, in one
        kernel.  Both of the last two charge ``rows``, one a row.
        """
        child, aggs = agg.child, agg.aggregates
        if isinstance(child, SeqScan) and (
            child.partial_agg is not None or not self._pushed(child)
        ):
            return (yield from self._scan_groups(
                child, (agg.group_exprs, aggs)
            ))
        if isinstance(child, HashJoin):
            batch, grouped = yield from self._run_hash_join(
                child, offered=(agg,)
            )
            if grouped:
                return (yield from self._fold_task_groups(batch, aggs))
        else:
            batch = yield from self._run(child)
        if agg.from_partials:
            groups = fold_joined_groups(
                batch, agg.group_exprs, aggs, self._registry
            )
        else:
            groups, _ = _partial_groups(
                batch, agg.group_exprs, aggs, registry=self._registry
            )
        yield from charge(self.engine.cpu, "rows", batch.n)
        return groups

    def _run_aggregate(self, agg: Aggregate):
        _, samples, states = yield from self._group(agg)
        return finalize_groups(
            samples, states, agg.aggregates, bool(agg.group_exprs)
        )

    # -- projection / sort ----------------------------------------------------
    def _run_project(self, project: Project):
        child = yield from self._run(project.child)
        yield from charge(self.engine.cpu, "rows", child.n)
        return project_batch(child, project.items, project.star, self._registry)

    def _run_sort(self, sort: Sort, limit: Optional[int] = None):
        """A Sort, run as a top-N when a Limit of ``limit`` rows is over it."""
        batch = yield from self._run(sort.child)
        yield from charge(self.engine.cpu, "sort", batch.n, limit=limit)
        return sort_batch(batch, sort.order_by, self._registry, limit)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _dml(self, statement):
        """The generator that runs one bound INSERT / UPDATE / DELETE."""
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        raise QueryError("unsupported statement %r" % statement)

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
        batch = yield from self._run(scan)
        return list(zip(*(
            batch.column("%s.%s" % (table.name, c)) for c in table.key_columns
        )))

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

    def _refresh_template(self, token: Optional[tuple]) -> None:
        template = self.session.planner.plan_select(self.statement)
        self._template = template
        self._template_token = token
        self._point = (
            compile_point_plan(template, self.session.engine)
            if token is not None else None
        )

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
        return (yield from session._dml(statement))


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
