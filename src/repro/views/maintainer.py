"""The view maintainer: REDO feed -> deltas -> materialized view state.

One ``ViewMaintainer`` daemon owns every registered view.  Each view is
the *fold sink* of its own :class:`repro.engine.redo_applier.RedoApplier`
(feed cursor, PageStore catch-up scan, watermark, crash/recover): it
decodes each durable REDO record into +-1 Z-set deltas and folds them
into its state (group key -> weighted aggregate states, or a plain Z-set
for projection views).  The state is exactly the view query's answer
over all records with LSN <= the applier's watermark.

Decode needs before-images.  Ordinary updates/deletes log their
``undo_row``; the one exception is the CLR delete that compensates an
aborted insert, which only names the insert's LSN (``compensates``).
The view therefore remembers insert images per LSN until the owning
transaction's commit/abort marker, and resolves CLR deletes through that
map.  Anything unresolvable stops the fold there and asks the applier
for a rescan.

A catch-up scan folds the base table's page images into fresh state;
``page_seen`` keeps each image's LSN so feed records it already reflects
are skipped (ARIES redo check).

Serving is O(result): finalize the per-group states (or expand the
Z-set) into the column batch the executor's Project would hand on for
the querying statement, then run the executor's own Sort / Limit / row
zip over it: a ``QueryResult`` byte-identical to a fresh executor rescan
at the same LSN.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..common import PageId, QueryError, StorageError
from ..cost import charge
from ..engine.redo_applier import RedoApplier
from ..obs import obs_of
from ..query import kernels
from ..query.ast import ColumnRef, Select
from ..query.columnar import ColumnBatch
from ..query.executor import batch_result, limit_batch, sort_batch
from ..query.planner import match_view_select
from ..sim.core import Environment
from ..sim.resources import CpuPool
from .aggstate import new_states
from .definition import ViewDefinition
from .zset import ZSet

__all__ = ["MaintainedView", "ViewMaintainer"]


class _Fold:
    """A view's compiled fold over the base-table columns it reads.

    Built once per view from the base table's schema: the ascending
    positions any of WHERE / GROUP BY / aggregate arguments / select items
    names (all a delta is ever decoded for), and one generated loop
    (:func:`repro.query.kernels.weighted_fold`) that filters, keys and
    folds a batch of signed rows into the view's state.
    """

    __slots__ = ("_schema", "_positions", "_template", "_kernel", "_fresh")

    def __init__(self, definition: ViewDefinition, table):
        schema = table.schema
        if definition.is_aggregate:
            keys = definition.group_by
            aggs = definition.aggregates
            exprs = list(keys) + list(aggs)
            self._fresh = partial(new_states, aggs)
        else:
            keys = [item.expr for item in definition.items]
            aggs = None
            exprs = list(keys)
            self._fresh = None
        if definition.where is not None:
            exprs.append(definition.where)
        named = {
            key.rpartition(".")[2] for expr in exprs for key in expr.columns()
        }
        self._schema = schema
        self._positions = tuple(
            position for position, name in enumerate(schema.names)
            if name in named
        )
        self._template = ColumnBatch.for_scan(
            table.name, schema, [schema.names[p] for p in self._positions]
        )
        self._kernel = kernels.weighted_fold(
            self._template, definition.where, keys, aggs
        )

    def __call__(self, view: "MaintainedView", rows, weights) -> int:
        """Fold encoded ``rows`` with their ``weights``; rows that passed."""
        template = self._template
        batch = ColumnBatch(
            template.keys, [[] for _ in self._positions], 0, template.nullable
        )
        batch.n = self._schema.decode_rows_into(
            rows, self._positions, batch.arrays
        )
        if self._fresh is None:
            return self._kernel(batch, weights, view.zset.add)
        return self._kernel(batch, weights, view.groups, self._fresh)


class MaintainedView:
    """One view: live state, fold sink of its own ``applier``, counters."""

    def __init__(self, definition: ViewDefinition, catalog):
        self.definition = definition
        #: The source's catalog: maps a record's tablespace to its table.
        self.catalog = catalog
        #: Compiled on the first rows to fold (the table may not exist yet).
        self._fold: Optional[_Fold] = None
        self.applier: Optional[RedoApplier] = None
        self.records_folded = 0
        self.deltas_applied = 0
        self.serves = 0
        self.decode_misses = 0
        self.reset()

    def reset(self) -> None:
        """Drop all volatile state (initial build and crash)."""
        #: group key -> [surviving row weight, per-aggregate states].
        self.groups: "OrderedDict[tuple, list]" = OrderedDict()
        self.zset = ZSet()
        #: page -> page-LSN captured by the last catch-up scan; feed
        #: records at or below it are already in the scanned image.
        self.page_seen: Dict[PageId, int] = {}
        self.page_seen_max = 0
        #: insert LSN -> row image, for resolving insert-compensating
        #: CLR deletes (the only records without a logged before-image).
        self.undo_images: Dict[int, bytes] = {}
        self.txn_lsns: Dict[int, List[int]] = {}

    @property
    def size(self) -> int:
        return len(self.groups) if self.definition.is_aggregate else len(self.zset)

    def stats(self) -> Dict[str, int]:
        applier = self.applier
        feed = applier.feed
        return {
            "watermark": applier.watermark,
            "size": self.size,
            "records_folded": self.records_folded,
            "deltas_applied": self.deltas_applied,
            "rescans": applier.rescans,
            "serves": self.serves,
            "decode_misses": self.decode_misses,
            "feed_depth": len(feed) if feed is not None else 0,
            "feed_overflows": feed.overflows if feed is not None else 0,
        }

    # ------------------------------------------------------------------
    # REDO sink
    # ------------------------------------------------------------------
    def scan_tables(self):
        name = self.definition.table  # Not created yet: nothing to scan.
        return [self.catalog.table(name)] if name in self.catalog else []

    def _fold_rows(self, table, rows, weights) -> int:
        fold = self._fold
        if fold is None:
            fold = self._fold = _Fold(self.definition, table)
        return fold(self, rows, weights)

    def rebuild(self, scanned) -> None:
        """Replace the state with the fold of the scanned page images."""
        self.reset()
        for table, page in scanned:
            self.page_seen[page.page_id] = page.page_lsn
            self._fold_rows(table, page.rows(), [1] * page.row_count)
        self.page_seen_max = max(self.page_seen.values(), default=0)

    def apply(self, batch) -> int:
        """Decode and fold one LSN-ordered durable batch; records consumed.

        Stops short at a record it cannot decode, so the watermark only
        advances past records actually folded (or provably irrelevant):
        the state still equals the fold of everything <= the watermark
        and serving stays sound while the rescan is pending.  The deltas
        of the whole batch are folded in one kernel call, in LSN order.
        """
        catalog = self.catalog
        view_table = self.definition.table
        page_seen = self.page_seen
        rows: List[bytes] = []
        weights: List[int] = []
        folded = 0
        consumed = len(batch)
        for index, record in enumerate(batch):
            if record.is_marker:
                self._evict_images(record)
                continue
            op = record.op
            kind = op.kind
            if kind == "format":
                continue
            try:
                table = catalog.by_space(record.page_id.space_no)
            except QueryError:
                continue
            if table.name != view_table:
                continue
            if page_seen and record.lsn <= page_seen.get(record.page_id, 0):
                # Fuzzy-scan overlap: the scanned image already holds
                # this record's effect.  Still remember insert images -
                # a post-scan CLR delete may compensate this insert.
                if kind == "insert":
                    self._remember(record)
                continue
            if kind == "insert":
                self._remember(record)
            else:
                old_row = record.undo_row
                if old_row is None:
                    old_row = self._recall(record)
                    if old_row is None:
                        self.decode_misses += 1
                        consumed = index
                        break
                rows.append(old_row)
                weights.append(-1)
            if kind != "delete":
                rows.append(op.row)
                weights.append(1)
            folded += 1
        if rows:
            self.deltas_applied += self._fold_rows(
                catalog.table(view_table), rows, weights
            )
        self.records_folded += folded
        if consumed == len(batch) and page_seen \
                and batch[-1].lsn >= self.page_seen_max:
            # Every in-flight record from the scan window has drained.
            page_seen.clear()
        return consumed

    def _remember(self, record) -> None:
        self.undo_images[record.lsn] = record.op.row
        self.txn_lsns.setdefault(record.txn_id, []).append(record.lsn)

    def _recall(self, record) -> Optional[bytes]:
        if record.clr and record.compensates >= 0:
            return self.undo_images.get(record.compensates)
        return None

    def _evict_images(self, marker) -> None:
        lsns = self.txn_lsns.pop(marker.txn_id, None)
        if lsns:
            for lsn in lsns:
                self.undo_images.pop(lsn, None)


class ViewMaintainer:
    """Owns the views; matches and serves eligible SELECTs from them."""

    def __init__(
        self,
        env: Environment,
        engine,
        definitions,
        feed_bound: int = 65536,
    ):
        self.env = env
        self._registry = obs_of(env).registry
        self.cpu = CpuPool(env, cores=2)
        self.views: "OrderedDict[str, MaintainedView]" = OrderedDict()
        for definition in definitions:
            if definition.name in self.views:
                raise QueryError("duplicate view name %r" % definition.name)
            view = MaintainedView(definition, engine.catalog)
            view.applier = RedoApplier(
                env, engine, view, self.cpu,
                name="view-%s" % definition.name,
                feed_bound=feed_bound,
            )
            # A view's first state always comes from a scan (the
            # "initial build" in every report), even at zero lag.
            view.applier.request_scan("initial")
            self.views[definition.name] = view
        #: The daemon's power state; each view's applier comes back
        #: alive on its own once rebuilt.
        self.alive = True
        self.crashes = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for view in self.views.values():
            view.applier.start()

    def crash(self) -> None:
        """Lose all volatile view state (the standby crash model)."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        for view in self.views.values():
            view.applier.crash()

    def recover(self) -> None:
        """Come back up: every view rebuilds by scan in the background."""
        if self.alive:
            return
        self.alive = True
        self.recoveries += 1
        for view in self.views.values():
            self.env.process(self._rebuild(view.applier), name="view-recover")

    def _rebuild(self, applier: RedoApplier):
        while self.alive and not applier.alive:
            try:
                if (yield from applier.recover()) is None:
                    return  # A newer crash's rebuild owns the applier now.
            except StorageError:
                # Storage degraded: stay down and try again shortly.
                yield self.env.timeout(applier.poll_interval)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def match(
        self, statement
    ) -> Optional[Tuple[MaintainedView, List[int]]]:
        """The view (plus item mapping) able to answer ``statement``."""
        if not isinstance(statement, Select):
            return None
        for view in self.views.values():
            mapping = match_view_select(statement, view.definition.select)
            if mapping is not None:
                return view, mapping
        return None

    def serve(self, view: MaintainedView, statement: Select,
              item_map: List[int]):
        """Generator: answer ``statement`` from view state, O(result).

        Returns None if a crash lands mid-serve (caller reroutes).
        Output parity with the executor: identical finalized aggregate
        values (see :mod:`repro.views.aggstate`), the same identity row
        for empty ungrouped aggregates, and the executor's own tail
        (``sort_batch`` / ``limit_batch`` / ``batch_result``).
        """
        definition = view.definition
        applier = view.applier
        epoch = applier.epoch
        yield from charge(
            self.cpu, "serve_sorted" if statement.order_by else "serve",
            view.size, limit=statement.limit,
        )
        if applier.epoch != epoch:
            return None
        if definition.is_aggregate:
            # What an Aggregate hands its Project: the group columns, then
            # one column per aggregate keyed by its AggCall.
            aggs, group_by = definition.aggregates, definition.group_by
            groups = [(key, entry[1]) for key, entry in view.groups.items()]
            if not groups and not group_by:
                # Ungrouped aggregate over zero rows: one identity row.
                groups = [((), new_states(aggs))]
            keys = tuple(expr.key for expr in group_by) + aggs
            columns = [
                [key[position] for key, _states in groups]
                for position in range(len(group_by))
            ] + [
                [states[index].finalize() for _key, states in groups]
                for index in range(len(aggs))
            ]
            stored = [
                columns[index if kind == "group" else len(group_by) + index]
                for kind, index in definition.item_plan
            ]
            count = len(groups)
        else:
            # What a scan hands its Project, as far as the view keeps it:
            # the item tuples, of which the bare columns can be sorted by.
            rows = [
                row for row, weight in view.zset.items() for _ in range(weight)
            ]
            stored = (list(map(list, zip(*rows))) if rows
                      else [[] for _ in definition.items])
            at = [index for index, item in enumerate(definition.items)
                  if isinstance(item.expr, ColumnRef)]
            keys = tuple(definition.items[index].expr.key for index in at)
            columns = [stored[index] for index in at]
            count = len(rows)
        # The Project's output: the statement's items lead, positionally.
        batch = ColumnBatch(
            tuple(item.output_name for item in statement.items) + keys,
            [stored[index] for index in item_map] + columns,
            count,
        )
        if statement.order_by:
            batch = sort_batch(batch, statement.order_by, self._registry,
                               statement.limit)
        elif statement.limit is not None:
            batch = limit_batch(batch, statement.limit)
        view.serves += 1
        return batch_result(batch, statement.items)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def caught_up(self) -> bool:
        """True when every view is live and folded to the durable tail."""
        return all(view.applier.caught_up() for view in self.views.values())

    def counters(self) -> Dict[str, int]:
        views = self.views.values()
        return {
            "alive": int(self.alive),
            "views": len(self.views),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "lsn_waits": sum(v.applier.lsn_waits for v in views),
            "lsn_wait_timeouts": sum(
                v.applier.lsn_wait_timeouts for v in views
            ),
            "records_folded": sum(v.records_folded for v in views),
            "deltas_applied": sum(v.deltas_applied for v in views),
            "rescans": sum(v.applier.rescans for v in views),
            "serves": sum(v.serves for v in views),
            "decode_misses": sum(v.decode_misses for v in views),
        }
