"""The view maintainer: REDO feed -> deltas -> materialized view state.

One ``ViewMaintainer`` daemon owns every registered view.  Per view it
subscribes one ``RedoFeed`` cursor on the primary, decodes each durable
REDO record into +-1 Z-set deltas, and folds them into the view's state
(group key -> weighted aggregate states, or a plain Z-set for
projection views), stamped with an applied-LSN **watermark**: the state
is exactly the view query's answer over all records with LSN <= the
watermark.

Decode needs before-images.  Ordinary updates/deletes log their
``undo_row``; the one exception is the CLR delete that compensates an
aborted insert, which only names the insert's LSN (``compensates``).
The maintainer therefore remembers insert images per LSN until the
owning transaction's commit/abort marker, and resolves CLR deletes
through that map.  Anything unresolvable flips ``needs_rescan``.

Rescans (initial build, feed overflow, crash recovery, decode miss)
reuse the standby lifecycle: clear the feed and mark it live, capture
the durable tail, then fuzzily scan the base table's pages through the
primary's degraded-read path.  Each scanned page records its page-LSN
in ``page_seen`` so feed records already reflected in a scanned image
are skipped (ARIES redo check), and any record not yet durable at the
captured tail is guaranteed to arrive through the feed (unflushed
records always carry LSNs above the persistent tail).

Serving is O(result): finalize the per-group states (or expand the
Z-set), shape to the querying statement's items, apply its ORDER
BY/LIMIT with the executor's own comparators, and return a
``QueryResult`` byte-identical to a fresh executor rescan at the same
LSN.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..common import MS, US, PageId, QueryError, StorageError
from ..query.ast import AggCall, ColumnRef, Select
from ..query.executor import (
    PAGE_CPU,
    ROW_CPU,
    QueryResult,
    _Reversible,
    eval_with_aggs,
)
from ..query.planner import match_view_select
from ..sim.core import Environment
from ..sim.resources import CpuPool
from .aggstate import finalize_states, new_states, update_states
from .definition import ViewDefinition
from .zset import ZSet

__all__ = ["MaintainedView", "ViewMaintainer"]

#: CPU charged per REDO record decoded + folded.
FOLD_CPU = 3 * US
#: Fixed CPU charged per view-served query (shape + dispatch).
SERVE_CPU = 4 * US


def _fold_row(definition: ViewDefinition, groups, zset: ZSet,
              row: Dict[str, Any], weight: int) -> bool:
    """Fold one weighted base row into view state; False if filtered out."""
    if definition.where is not None and not definition.where.eval(row):
        return False
    if definition.is_aggregate:
        key = tuple(expr.eval(row) for expr in definition.group_by)
        entry = groups.get(key)
        if entry is None:
            entry = [0, new_states(definition.aggregates)]
            groups[key] = entry
        entry[0] += weight
        update_states(entry[1], definition.aggregates, row, weight)
        if entry[0] == 0:
            # Annihilation: the group has no surviving base rows.
            del groups[key]
    else:
        zset.add(
            tuple(item.expr.eval(row) for item in definition.items), weight
        )
    return True


class MaintainedView:
    """One view's live state plus its feed cursor and counters."""

    __slots__ = (
        "definition",
        "feed",
        "watermark",
        "groups",
        "zset",
        "page_seen",
        "page_seen_max",
        "needs_rescan",
        "undo_images",
        "txn_lsns",
        "records_folded",
        "deltas_applied",
        "rescans",
        "serves",
        "decode_misses",
    )

    def __init__(self, definition: ViewDefinition):
        self.definition = definition
        self.feed = None
        self.records_folded = 0
        self.deltas_applied = 0
        self.rescans = 0
        self.serves = 0
        self.decode_misses = 0
        self.reset()

    def reset(self) -> None:
        """Drop all volatile state (initial build and crash)."""
        self.watermark = 0
        #: group key -> [surviving row weight, per-aggregate states].
        self.groups: "OrderedDict[tuple, list]" = OrderedDict()
        self.zset = ZSet()
        #: page -> page-LSN captured by the last fuzzy rescan; feed
        #: records at or below it are already in the scanned image.
        self.page_seen: Dict[PageId, int] = {}
        self.page_seen_max = 0
        self.needs_rescan = True
        #: insert LSN -> row image, for resolving insert-compensating
        #: CLR deletes (the only records without a logged before-image).
        self.undo_images: Dict[int, bytes] = {}
        self.txn_lsns: Dict[int, List[int]] = {}

    @property
    def size(self) -> int:
        return len(self.groups) if self.definition.is_aggregate else len(self.zset)

    def stats(self) -> Dict[str, int]:
        feed = self.feed
        return {
            "watermark": self.watermark,
            "size": self.size,
            "records_folded": self.records_folded,
            "deltas_applied": self.deltas_applied,
            "rescans": self.rescans,
            "serves": self.serves,
            "decode_misses": self.decode_misses,
            "feed_depth": len(feed) if feed is not None else 0,
            "feed_overflows": feed.overflows if feed is not None else 0,
        }


class ViewMaintainer:
    """Drains one REDO feed per view and serves eligible SELECTs."""

    def __init__(
        self,
        env: Environment,
        engine,
        definitions,
        feed_bound: int = 65536,
        poll_interval: float = 2 * MS,
        wait_poll: float = 0.5 * MS,
        cores: int = 2,
    ):
        self.env = env
        self.engine = engine
        self.cpu = CpuPool(env, cores=cores)
        self.feed_bound = feed_bound
        self.poll_interval = poll_interval
        self.wait_poll = wait_poll
        self.views: "OrderedDict[str, MaintainedView]" = OrderedDict()
        for definition in definitions:
            if definition.name in self.views:
                raise QueryError("duplicate view name %r" % definition.name)
            self.views[definition.name] = MaintainedView(definition)
        #: False between :meth:`crash` and :meth:`recover`.
        self.alive = True
        #: Bumped per crash; in-flight folds/scans/serves that straddle
        #: a crash observe the bump and discard their work.
        self.epoch = 0
        self.crashes = 0
        self.recoveries = 0
        self.lsn_waits = 0
        self.lsn_wait_timeouts = 0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for view in self.views.values():
            view.feed = self.engine.subscribe_redo(bound=self.feed_bound)
            self.env.process(
                self._apply_loop(view),
                name="view-%s" % view.definition.name,
            )

    def crash(self) -> None:
        """Lose all volatile view state (the standby crash model)."""
        if not self.alive:
            return
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        for view in self.views.values():
            view.reset()
            if view.feed is not None:
                view.feed.stale = True
                view.feed.clear()

    def recover(self) -> None:
        """Come back up; the apply loops rebuild every view by rescan."""
        if self.alive:
            return
        self.alive = True
        self.recoveries += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _apply_loop(self, view: MaintainedView):
        env = self.env
        while True:
            yield env.timeout(self.poll_interval)
            if not self.alive:
                continue
            if view.needs_rescan or view.feed.stale:
                yield from self._rescan(view)
                continue
            batch = view.feed.drain()
            if batch and batch[0].lsn <= view.watermark:
                # Safety net: drop records a rescan already covered.
                applied = view.watermark
                batch = [r for r in batch if r.lsn > applied]
            if not batch:
                continue
            epoch = self.epoch
            yield from self.cpu.consume(FOLD_CPU * len(batch))
            if not self.alive or self.epoch != epoch:
                continue
            self._fold(view, batch)

    def _fold(self, view: MaintainedView, batch) -> None:
        """Host-side: decode and fold one LSN-ordered durable batch.

        The watermark only advances past records actually folded (or
        provably irrelevant), so on a decode miss the state still equals
        the fold of everything <= the watermark and serving stays sound
        while the rescan is pending.
        """
        catalog = self.engine.catalog
        definition = view.definition
        for record in batch:
            if record.is_marker:
                self._evict_images(view, record)
                view.watermark = max(view.watermark, record.lsn)
                continue
            op = record.op
            if op.kind == "format":
                view.watermark = max(view.watermark, record.lsn)
                continue
            try:
                table = catalog.by_space(record.page_id.space_no)
            except QueryError:
                table = None
            if table is None or table.name != definition.table:
                view.watermark = max(view.watermark, record.lsn)
                continue
            if (
                view.page_seen
                and record.lsn <= view.page_seen.get(record.page_id, 0)
            ):
                # Fuzzy-rescan overlap: the scanned image already holds
                # this record's effect.  Still remember insert images —
                # a post-rescan CLR delete may compensate this insert.
                if op.kind == "insert":
                    self._remember(view, record)
                view.watermark = max(view.watermark, record.lsn)
                continue
            deltas = self._deltas_of(view, table, record)
            if deltas is None:
                view.decode_misses += 1
                view.needs_rescan = True
                return
            for values, weight in deltas:
                row = {
                    "%s.%s" % (table.name, name): value
                    for name, value in zip(table.schema.names, values)
                }
                if _fold_row(definition, view.groups, view.zset, row, weight):
                    view.deltas_applied += 1
            view.records_folded += 1
            view.watermark = max(view.watermark, record.lsn)
        if view.page_seen and view.watermark >= view.page_seen_max:
            # Every in-flight record from the rescan window has drained.
            view.page_seen.clear()

    def _deltas_of(self, view, table, record):
        """(decoded values, weight) deltas for one record; None = miss."""
        op = record.op
        decode = table.schema.decode
        if op.kind == "insert":
            self._remember(view, record)
            return [(decode(op.row), 1)]
        if op.kind == "update":
            old_row = record.undo_row
            if old_row is None:
                old_row = self._recall(view, record)
                if old_row is None:
                    return None
            return [(decode(old_row), -1), (decode(op.row), 1)]
        if op.kind == "delete":
            old_row = record.undo_row
            if old_row is None:
                old_row = self._recall(view, record)
                if old_row is None:
                    return None
            return [(decode(old_row), -1)]
        return []

    @staticmethod
    def _remember(view: MaintainedView, record) -> None:
        view.undo_images[record.lsn] = record.op.row
        view.txn_lsns.setdefault(record.txn_id, []).append(record.lsn)

    @staticmethod
    def _recall(view: MaintainedView, record) -> Optional[bytes]:
        if record.clr and record.compensates >= 0:
            return view.undo_images.get(record.compensates)
        return None

    @staticmethod
    def _evict_images(view: MaintainedView, marker) -> None:
        lsns = view.txn_lsns.pop(marker.txn_id, None)
        if lsns:
            for lsn in lsns:
                view.undo_images.pop(lsn, None)

    def _read_page_fresh(self, page_id: PageId, required: int):
        """Generator: a page image at LSN >= ``required``, or StorageError.

        The store can silently serve an image *behind* ``min_lsn`` while
        the covering REDO still sits in the primary's ship queue (only a
        parked replica raises).  ``fetch_page`` papers over that with a
        staleness re-check; the standby tolerates it because its feed
        still holds the gap records.  A rescan cannot — it just cleared
        the feed — so force a ship and retry until the image is fresh.
        """
        engine = self.engine
        attempts = 0
        while True:
            page = yield from engine._read_from_pagestore(page_id, required)
            if page.page_lsn >= required:
                return page
            attempts += 1
            if attempts > 8:
                raise StorageError(
                    "page %s stuck at %d, need %d"
                    % (page_id, page.page_lsn, required)
                )
            if engine._ship_queue:
                batch, engine._ship_queue = engine._ship_queue, []
                yield from engine.pagestore.ship_records(batch)
                engine.shipped_lsn = max(engine.shipped_lsn, batch[-1].lsn)
            yield self.env.timeout(0.5 * MS)

    def _rescan(self, view: MaintainedView):
        """Generator: rebuild ``view`` by a fuzzy base-table page scan.

        Mirrors ``StandbyReplica.recover``: clear the feed and mark it
        live *in the same host-side step* as capturing the durable tail
        (so no publish slips between), scan every page through the
        primary's degraded-read path at its authoritative version, and
        stamp the watermark with the captured tail.  Records seen by the
        scan but not yet durable at the tail re-arrive via the feed and
        are skipped by the per-page ``page_seen`` redo check.
        """
        engine = self.engine
        while True:
            epoch = self.epoch
            feed = view.feed
            feed.clear()
            feed.stale = False
            view.needs_rescan = False
            recover_lsn = engine.log.persistent_lsn
            view.rescans += 1
            groups: "OrderedDict[tuple, list]" = OrderedDict()
            zset = ZSet()
            page_seen: Dict[PageId, int] = {}
            definition = view.definition
            try:
                table = engine.catalog.table(definition.table)
            except QueryError:
                table = None  # Not created yet: the view starts empty.
            if table is not None:
                for page_no in sorted(table.page_nos):
                    page_id = PageId(table.space_no, page_no)
                    required = engine.page_versions.get(page_id, 0)
                    try:
                        page = yield from self._read_page_fresh(
                            page_id, required
                        )
                    except StorageError:
                        # Storage degraded: leave the old state serving
                        # and retry on a later poll.
                        view.needs_rescan = True
                        return
                    yield from self.cpu.consume(
                        PAGE_CPU + FOLD_CPU * max(1, page.row_count)
                    )
                    if not self.alive or self.epoch != epoch:
                        return  # Crashed mid-scan; recovery rescans.
                    page_seen[page_id] = page.page_lsn
                    for values in table.schema.decode_rows(page.rows()):
                        row = {
                            "%s.%s" % (table.name, name): value
                            for name, value in zip(table.schema.names, values)
                        }
                        _fold_row(definition, groups, zset, row, 1)
            if feed.stale:
                continue  # Overflowed again while scanning; go around.
            view.groups = groups
            view.zset = zset
            view.page_seen = page_seen
            view.page_seen_max = max(page_seen.values()) if page_seen else 0
            view.watermark = recover_lsn
            view.undo_images.clear()
            view.txn_lsns.clear()
            return

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
            definition = view.definition
            mapping = match_view_select(statement, definition.select)
            if mapping is None:
                continue
            if not definition.is_aggregate and statement.order_by:
                # Projection views materialize item tuples only: ORDER BY
                # must name a ColumnRef the view stores.
                stored = [
                    item.expr
                    for item in definition.items
                    if isinstance(item.expr, ColumnRef)
                ]
                if not all(
                    isinstance(expr, ColumnRef) and expr in stored
                    for expr, _desc in statement.order_by
                ):
                    continue
            return view, mapping
        return None

    def wait_for_lsn(self, view: MaintainedView, lsn: int, max_wait: float):
        """Generator: True once the view watermark covers ``lsn``."""
        if not self.alive:
            return False
        if view.watermark >= lsn:
            return True
        self.lsn_waits += 1
        deadline = self.env.now + max_wait
        while True:
            yield self.env.timeout(self.wait_poll)
            if self.alive and view.watermark >= lsn:
                return True
            if not self.alive or self.env.now >= deadline:
                self.lsn_wait_timeouts += 1
                return False

    def serve(self, view: MaintainedView, statement: Select,
              item_map: List[int]):
        """Generator: answer ``statement`` from view state, O(result).

        Returns None if a crash lands mid-serve (caller reroutes).
        Output parity with the executor: identical finalized aggregate
        values (see :mod:`repro.views.aggstate`), the same identity row
        for empty ungrouped aggregates, and the executor's own
        ``_Reversible`` ORDER BY comparator.
        """
        definition = view.definition
        epoch = self.epoch
        units = view.size if view.size else 1
        if statement.order_by:
            import math

            units += units * max(1.0, math.log2(max(units, 2)))
        yield from self.cpu.consume(SERVE_CPU + ROW_CPU * units)
        if not self.alive or self.epoch != epoch:
            return None
        entries: List[Tuple[tuple, Dict[str, Any], Dict[AggCall, Any]]] = []
        if definition.is_aggregate:
            group_rows = [
                (key, finalize_states(entry[1], definition.aggregates))
                for key, entry in view.groups.items()
            ]
            if not group_rows and not definition.group_by:
                # Ungrouped aggregate over zero rows: one identity row.
                group_rows = [(
                    (),
                    finalize_states(
                        new_states(definition.aggregates),
                        definition.aggregates,
                    ),
                )]
            for key, agg_values in group_rows:
                row = {
                    group_expr.key: key[position]
                    for position, group_expr in enumerate(definition.group_by)
                }
                shaped = []
                for view_index in item_map:
                    kind, index = definition.item_plan[view_index]
                    if kind == "group":
                        shaped.append(key[index])
                    else:
                        shaped.append(agg_values[definition.aggregates[index]])
                entries.append((tuple(shaped), row, agg_values))
        else:
            for stored, weight in view.zset.items():
                row = {
                    item.expr.key: stored[index]
                    for index, item in enumerate(definition.items)
                    if isinstance(item.expr, ColumnRef)
                }
                shaped = tuple(stored[index] for index in item_map)
                for _ in range(weight):
                    entries.append((shaped, row, {}))
        if statement.order_by:
            def sort_key(entry):
                _shaped, row, agg_values = entry
                return tuple(
                    _Reversible(eval_with_aggs(expr, row, agg_values), desc)
                    for expr, desc in statement.order_by
                )

            entries.sort(key=sort_key)
        rows = [shaped for shaped, _row, _aggs in entries]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        view.serves += 1
        columns = [item.output_name for item in statement.items]
        return QueryResult(columns, rows)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def caught_up(self) -> bool:
        """True when every view is live and folded to the durable tail."""
        if not self.alive:
            return False
        tail = self.engine.log.persistent_lsn
        for view in self.views.values():
            feed = view.feed
            if feed is None or feed.stale or view.needs_rescan:
                return False
            if len(feed) or view.watermark < tail:
                return False
        return True

    def counters(self) -> Dict[str, int]:
        views = self.views.values()
        return {
            "alive": int(self.alive),
            "views": len(self.views),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "lsn_waits": self.lsn_waits,
            "lsn_wait_timeouts": self.lsn_wait_timeouts,
            "records_folded": sum(v.records_folded for v in views),
            "deltas_applied": sum(v.deltas_applied for v in views),
            "rescans": sum(v.rescans for v in views),
            "serves": sum(v.serves for v in views),
            "decode_misses": sum(v.decode_misses for v in views),
        }
