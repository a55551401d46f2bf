"""Read-only standby instance fed by the REDO stream.

The paper's second future-work item (Section VIII): "expand the usage of
EBP ... it could be used by stand-by instances that serve read-only
queries."  This module implements that standby:

- it *subscribes to the primary's REDO stream* (the same records shipped
  to PageStore) and applies them to its own page images, maintaining its
  own B+-tree indexes incrementally - inserts/updates/deletes carry enough
  information (op row + logged before image) to keep secondary indexes
  correct without re-scanning;
- reads go through its own small DRAM buffer pool, then the *shared* EBP
  (read-only - the standby never writes pages back), then PageStore via
  the primary's graceful-degradation read path (so an AStore outage
  degrades the standby the same way it degrades the primary);
- replication lag is explicit: the standby exposes ``applied_lsn`` and
  reads are snapshot-consistent to that LSN;
- it can *crash* (lose all volatile state) and *recover* by scanning
  PageStore at the primary's durable tail, then rejoin the REDO feed -
  the serving layer's replica fleet drives this cycle under chaos.

The standby deliberately reuses the primary's catalog *schemas* but keeps
fully independent indexes and page bookkeeping, so a primary crash never
corrupts it.  ``sync_catalog`` mirrors lazily, so a standby built before
the workload's tables exist picks them up on first touch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..common import MS, US, PageId, QueryError, StorageError
from ..sim.core import Environment
from ..sim.resources import CpuPool
from ..storage.pagestore import PageStoreService
from .bufferpool import BufferPool
from .ebp import ExtendedBufferPool
from .page import Page, apply_op
from .table import Catalog, Table
from .wal import RedoRecord

__all__ = ["StandbyReplica"]


class StandbyReplica:
    """A read-only compute node trailing the primary's REDO stream."""

    def __init__(
        self,
        env: Environment,
        primary,
        buffer_pool_bytes: int = 16 * 1024 * 1024,
        cores: int = 8,
        use_ebp: bool = True,
        use_feed: bool = True,
    ):
        self.env = env
        self.primary = primary
        self.pagestore: PageStoreService = primary.pagestore
        self.ebp: Optional[ExtendedBufferPool] = (
            primary.ebp if use_ebp else None
        )
        self.cpu = CpuPool(env, cores=cores)
        self.catalog = Catalog()
        # Standby-local page images, applied from the REDO stream.
        self.pages: Dict[PageId, Page] = {}
        self.applied_lsn = 0
        self.records_applied = 0
        self.buffer_pool = BufferPool(buffer_pool_bytes,
                                      page_size=primary.config.page_size)
        self._subscribed = False
        #: Incremental REDO feed (None => full rescan every poll).
        self.use_feed = use_feed
        self._feed = None
        self.feed_rescans = 0
        #: False after :meth:`crash` until :meth:`recover` completes.
        self.alive = True
        #: Bumped by every crash; readers snapshot it to detect that a
        #: result straddled a crash and must be discarded/rerouted.
        self.epoch = 0
        self.crashes = 0
        self.recoveries = 0
        self.sync_catalog()

    def sync_catalog(self) -> None:
        """Mirror primary table definitions created since the last sync.

        Schemas are immutable metadata; indexes and page bookkeeping stay
        independent.  Mirroring in creation order keeps tablespace numbers
        aligned, which the REDO feed relies on (records address pages by
        ``space_no``).
        """
        if len(self.catalog) == len(self.primary.catalog):
            return
        for table in self.primary.catalog.tables():
            if table.name in self.catalog:
                continue
            mirrored = self.catalog.create_table(
                table.name, table.schema, table.key_columns, table.priority
            )
            if mirrored.space_no != table.space_no:
                raise QueryError(
                    "standby tablespace drift: %s is space %d on the primary "
                    "but %d here" % (table.name, table.space_no,
                                     mirrored.space_no)
                )
            for name, index in table.secondary.items():
                mirrored.add_secondary_index(name, list(index.columns))

    # ------------------------------------------------------------------
    # REDO subscription
    # ------------------------------------------------------------------
    def start(self, poll_interval: float = 2 * MS) -> None:
        """Subscribe to the primary's durable REDO stream."""
        if self._subscribed:
            return
        self._subscribed = True
        if self.use_feed:
            subscribe = getattr(self.primary, "subscribe_redo", None)
            if subscribe is not None:
                self._feed = subscribe()
        self.env.process(self._apply_loop(poll_interval), name="standby-apply")

    def _apply_loop(self, poll_interval: float):
        """Poll the durable REDO stream and apply new records.

        Production systems stream the log; polling the durable tail gives
        identical ordering semantics in the simulation (records are only
        visible once flushed, i.e. once in ``primary._ship_queue`` history).
        The per-poll batch comes from the incremental feed when one is
        subscribed (O(new records) per poll) and otherwise from a full
        retained-log rescan; both are host-side Python charged the same
        per-record CPU, so they are virtual-time identical.
        """
        while True:
            yield self.env.timeout(poll_interval)
            if not self.alive:
                continue
            batch = self._next_batch()
            if not batch:
                continue
            epoch = self.epoch
            yield from self.cpu.consume(3 * US * len(batch))
            if not self.alive or self.epoch != epoch:
                # A crash landed while we were charging CPU for the batch:
                # the volatile state it targeted is gone, so drop it -
                # recovery re-reads everything from PageStore anyway.
                continue
            for record in batch:
                self._apply_record(record)

    def _next_batch(self) -> List[RedoRecord]:
        """This poll's records: feed drain, or rescan when uncovered.

        The feed queue and the rescan agree by construction: records are
        published exactly when they become durable (visible to the
        rescan), in LSN order, so after one catch-up rescan the queue
        always holds precisely the records durable since the last poll.
        A stale feed (fresh subscription, crash, or overflow) is cleared
        and replaced by one rescan *in the same host-side step*, so no
        publish can slip between the clear and the scan.
        """
        feed = self._feed
        if feed is None:
            return self.primary_records_after(self.applied_lsn)
        if feed.stale:
            feed.clear()
            feed.stale = False
            self.feed_rescans += 1
            return self.primary_records_after(self.applied_lsn)
        applied = self.applied_lsn
        batch = feed.drain()
        if not batch or batch[0].lsn > applied:
            return batch
        # Safety net (e.g. a rescan raced a publish): drop duplicates.
        return [r for r in batch if r.lsn > applied]

    def primary_records_after(self, lsn: int) -> List[RedoRecord]:
        """Durable records with LSN > ``lsn`` (the standby's feed)."""
        backend = self.primary.log_backend
        retained = getattr(backend, "_retained", None)
        if retained is None:
            # AStore backend: collect from the ring's live segments
            # synchronously (metadata view; timing charged by caller).
            records: List[RedoRecord] = []
            ring = backend.ring
            for segment_id in ring.segment_ids:
                meta = ring.client.open_segments.get(segment_id)
                if meta is None:
                    continue
                for server_id in meta.route.replicas:
                    server = ring.client.servers.get(server_id)
                    if server is None or not server.alive:
                        continue
                    segment = server.segments.get(segment_id)
                    if segment is None:
                        continue
                    for entry in segment.entries.values():
                        if entry.offset == 0:
                            continue
                        _lsn, payload = entry.payload
                        for record in payload:
                            if record.lsn > lsn:
                                records.append(record)
                    break
            records.sort(key=lambda r: r.lsn)
            dedup: List[RedoRecord] = []
            seen = set()
            for record in records:
                if record.lsn not in seen:
                    seen.add(record.lsn)
                    dedup.append(record)
            return dedup
        return sorted(
            (r for r in retained if r.lsn > lsn), key=lambda r: r.lsn
        )

    def _apply_record(self, record: RedoRecord) -> None:
        self.applied_lsn = max(self.applied_lsn, record.lsn)
        self.records_applied += 1
        if record.is_marker:
            return
        page = self.pages.get(record.page_id)
        if page is None:
            page = Page(record.page_id, size=self.primary.config.page_size)
            self.pages[record.page_id] = page
        elif page.page_lsn >= record.lsn:
            # ARIES-style redo check: the page image already reflects this
            # record (a post-recovery PageStore scan included it), so the
            # indexes rebuilt from that image do too - skip maintenance.
            return
        table = self._table_for(record.page_id)
        op = record.op
        # Index maintenance BEFORE mutating the page (we may need the
        # pre-image still stored in the slot).
        if table is not None:
            if op.kind == "insert":
                values = table.schema.decode(op.row)
                if table.lookup(table.key_of(values)) is None:
                    table.index_insert(
                        values, (record.page_id.page_no, op.slot)
                    )
            elif op.kind == "update":
                old_row = record.undo_row
                if old_row is None:
                    try:
                        old_row = page.get(op.slot)
                    except KeyError:
                        old_row = None
                new_values = table.schema.decode(op.row)
                if old_row is not None:
                    old_values = table.schema.decode(old_row)
                    table.index_update(
                        old_values, new_values,
                        (record.page_id.page_no, op.slot),
                    )
            elif op.kind == "delete":
                old_row = record.undo_row
                if old_row is None:
                    try:
                        old_row = page.get(op.slot)
                    except KeyError:
                        old_row = None
                if old_row is not None:
                    old_values = table.schema.decode(old_row)
                    if table.lookup(table.key_of(old_values)) is not None:
                        table.index_delete(old_values)
        apply_op(page, op, record.lsn)
        if table is not None:
            # Keep page bookkeeping live so standby SQL sequential scans
            # see the same page set the primary does.
            table.note_page(record.page_id.page_no, page.free_bytes)
        # Our page image supersedes any buffer-pool copy.
        self.buffer_pool.drop(record.page_id)

    def _table_for(self, page_id: PageId) -> Optional[Table]:
        try:
            return self.catalog.by_space(page_id.space_no)
        except QueryError:
            self.sync_catalog()
        try:
            return self.catalog.by_space(page_id.space_no)
        except QueryError:
            return None

    # ------------------------------------------------------------------
    # Read path (the DBEngine read subset, standby-flavoured)
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: PageId):
        """Generator: local image -> BP -> shared EBP -> PageStore.

        The PageStore leg reuses the primary's graceful-degradation read
        (``DBEngine._read_from_pagestore``): when an EBP miss is caused by
        an AStore server death, the force-ship + retry loop there rides
        out REDO apply lag exactly as it does for the primary, instead of
        failing the standby read.
        """
        local = self.pages.get(page_id)
        if local is not None:
            yield from self.cpu.consume(1 * US)
            return local
        page = self.buffer_pool.get(page_id)
        if page is not None:
            return page
        if self.ebp is not None:
            page = yield from self.ebp.get_page(page_id, 0)
        if page is None:
            page = yield from self.primary._read_from_pagestore(page_id, 0)
        self.buffer_pool.put(page)
        return page

    def peek_page(self, page_id: PageId):
        """Synchronous probe of the local image / buffer pool.

        Returns ``(page, extra_cpu)`` when the page is resident -
        ``extra_cpu`` is the CPU charge :meth:`fetch_page` would have
        made for that tier - else None.  Point-read paths use this to
        coalesce the page charge into their statement charge (one
        ``consume`` per statement instead of two); callers must charge
        ``extra_cpu`` themselves.
        """
        local = self.pages.get(page_id)
        if local is not None:
            return local, 1 * US
        page = self.buffer_pool.get(page_id)
        if page is not None:
            return page, 0.0
        return None

    def read_row(self, table_name: str, key: Tuple[Any, ...]):
        """Generator: snapshot point read at the standby's applied LSN."""
        self.sync_catalog()
        table = self.catalog.table(table_name)
        locator = table.lookup(key)
        if locator is None:
            yield from self.cpu.consume(self.primary.config.stmt_cpu)
            return None
        page_no, slot = locator
        page_id = PageId(table.space_no, page_no)
        # Probe before charging so a resident page's fetch cost folds
        # into the statement's single CPU charge (same total virtual
        # time, half the event-loop trips on the hot path).
        hit = self.peek_page(page_id)
        if hit is not None:
            page, extra = hit
            yield from self.cpu.consume(self.primary.config.stmt_cpu + extra)
        else:
            yield from self.cpu.consume(self.primary.config.stmt_cpu)
            page = yield from self.fetch_page(page_id)
        try:
            return table.schema.decode(page.get(slot))
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Crash / recovery lifecycle (driven by the serving-layer fleet)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail the standby: all volatile state is lost.

        The apply loop keeps running but idles until :meth:`recover`
        flips ``alive`` back on; readers that were mid-flight observe the
        epoch bump and discard their results.
        """
        self.alive = False
        self.epoch += 1
        self.crashes += 1
        if self._feed is not None:
            # The queue no longer matches our (lost) applied state; the
            # publisher skips us until the post-recovery rescan.
            self._feed.stale = True
            self._feed.clear()
        self.applied_lsn = 0
        self.pages.clear()
        self.buffer_pool.clear()
        for table in self.catalog.tables():
            table.clear_indexes()
            table.free_hints.clear()
            table.page_nos = []

    def recover(self):
        """Generator: rebuild from PageStore, then rejoin the REDO feed.

        Scans every primary page through the primary's degraded-read path
        at that page's authoritative version, rebuilds indexes from the
        images, and resumes applying at the durable tail captured on
        entry.  Soundness: a record with LSN <= that tail was applied to
        the primary's page image before it became durable, so the
        ``min_lsn``-forced scan reflects it; younger records re-apply
        through the normal feed, where the page-LSN redo check skips any
        already present in a scanned image.  Returns pages scanned.
        """
        recover_lsn = self.primary.log.persistent_lsn
        self.sync_catalog()
        pages_scanned = 0
        for table in self.catalog.tables():
            primary_table = self.primary.catalog.table(table.name)
            for page_no in sorted(primary_table.page_nos):
                page_id = PageId(table.space_no, page_no)
                required = self.primary.page_versions.get(page_id, 0)
                page = yield from self.primary._read_from_pagestore(
                    page_id, required
                )
                self.pages[page_id] = page
                table.note_page(page_no, page.free_bytes)
                pages_scanned += 1
                yield from self.cpu.consume(3 * US * max(1, page.row_count))
                for slot, raw in page.slots():
                    values = table.schema.decode(raw)
                    if table.lookup(table.key_of(values)) is None:
                        table.index_insert(values, (page_no, slot))
        self.applied_lsn = recover_lsn
        self.recoveries += 1
        self.alive = True
        return pages_scanned

    @property
    def lag_lsn(self) -> int:
        """How far the standby trails the primary's durable tail."""
        return max(0, self.primary.log.persistent_lsn - self.applied_lsn)
